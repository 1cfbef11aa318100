"""Micro-averaged F1 scoring for mention detection and relation
extraction, and the performance-gain experiment: k-fold cross-validation
run twice per fold, once on the plain training split and once with
synthetic documents added, scored on the untouched test fold.
"""

from __future__ import annotations

import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Mapping, Sequence

from .baselines import (
    predict_mentions,
    predict_relations,
    train_relations,
    train_tagger,
)
from .corpus import Corpus, Mention, Relation
from .lexicon import Lexicon, builtin_lexicon
from .providers import ParaphraseProvider
from .seeding import derive_rng, derive_seed
from .techniques import TechniqueConfig, augment_corpus, origin_id, parent_id

TASKS = ("md", "re")


@dataclass(frozen=True)
class Score:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def __add__(self, other: "Score") -> "Score":
        return Score(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def score_mentions(gold: Sequence[Mention], pred: Sequence[Mention]) -> Score:
    """Exact-match scoring: a prediction is a true positive iff an
    unmatched gold mention shares its (type, start, end)."""
    gold_keys = Counter((m.type, m.start, m.end) for m in gold)
    pred_keys = Counter((m.type, m.start, m.end) for m in pred)
    tp = sum(min(count, pred_keys[key]) for key, count in gold_keys.items())
    return Score(tp, len(pred) - tp, len(gold) - tp)


def _resolve(relations: Sequence[Relation], mentions: Sequence[Mention]):
    by_id = {m.id: (m.type, m.start, m.end) for m in mentions}
    out = []
    for r in relations:
        try:
            out.append((r.type, by_id[r.head], by_id[r.tail]))
        except KeyError as e:
            raise ValueError(f"relation {r.id} has dangling endpoint {e.args[0]!r}") from None
    return out


def score_relations(
    gold: Sequence[Relation],
    pred: Sequence[Relation],
    gold_mentions: Sequence[Mention],
    pred_mentions: Sequence[Mention] | None = None,
) -> Score:
    """Exact ordered match on (relation type, head triple, tail triple);
    endpoints are resolved through the given mention lists so ids need
    not agree between gold and prediction."""
    gold_keys = Counter(_resolve(gold, gold_mentions))
    pred_keys = Counter(
        _resolve(pred, pred_mentions if pred_mentions is not None else gold_mentions)
    )
    tp = sum(min(count, pred_keys[key]) for key, count in gold_keys.items())
    return Score(tp, len(pred) - tp, len(gold) - tp)


@dataclass(frozen=True)
class TaskGain:
    baseline_f1: float
    augmented_f1: float
    gain: float
    fold_baseline: tuple[float, ...]
    fold_augmented: tuple[float, ...]


@dataclass(frozen=True)
class GainReport:
    technique_id: str | None
    params: Mapping
    n_aug: int
    folds: int
    seed: int
    tasks: dict[str, TaskGain] = field(default_factory=dict)


def split_folds(doc_ids: Sequence[str], k: int, seed: int) -> list[list[int]]:
    """Document indices per fold. Documents are grouped by origin_id, so
    a document and its synthetic copies share a fold; the groups, in order
    of first appearance, get a seeded shuffle and are dealt round-robin.
    Every document lands in exactly one fold. Fold sizes differ by at most
    one when every group is a single document, and may differ by more
    otherwise."""
    if k < 2:
        raise ValueError("k must be >= 2")
    groups: dict[str, list[int]] = {}
    for i, doc_id in enumerate(doc_ids):
        groups.setdefault(origin_id(doc_id), []).append(i)
    if k > len(groups):
        raise ValueError(
            f"cannot split {len(doc_ids)} documents into {k} folds ({len(groups)} origins)"
        )
    order = list(groups.values())
    derive_rng(seed, "folds").shuffle(order)
    return [[i for group in order[f::k] for i in group] for f in range(k)]


def _mean(values: Sequence[float]) -> float:
    """Adds left to right (not with sum(), whose compensated float sum on
    Python 3.12+ gives other last bits, and so other report bytes)."""
    return reduce(add, values) / len(values) if values else 0.0


@dataclass(frozen=True)
class _Experiment:
    """The inputs every arm of one cross_validate call reads and none
    changes."""

    corpus: Corpus
    folds: list[list[int]]
    technique: TechniqueConfig | None
    seed: int
    tasks: tuple[str, ...]
    epochs: int
    window: int
    lexicon: Lexicon | None
    provider: ParaphraseProvider | None


def _run_arm(experiment: _Experiment, fold_index: int, augmented: bool) -> dict[str, float]:
    """Per-task F1 of one arm of one fold: trained on the fold's training
    documents, plus their synthetic documents if augmented, and scored on
    its test documents. Every seed comes from (seed, fold_index), so the
    arm scores the same in whichever process runs it."""
    e = experiment
    fold = e.folds[fold_index]
    test_ids = set(fold)
    train_docs = [d for i, d in enumerate(e.corpus.documents) if i not in test_ids]
    test_docs = [e.corpus.documents[i] for i in fold]
    if augmented:
        synthetic = augment_corpus(
            train_docs,
            e.technique,
            derive_seed(e.seed, "augment", fold_index),
            lexicon=e.lexicon,
            provider=e.provider,
        )
        train_ids = {d.id for d in train_docs}
        # the parent may itself be synthetic when the corpus is augment output
        leaked = [s.id for s in synthetic if parent_id(s.id) not in train_ids]
        if leaked:
            raise RuntimeError(f"synthetic documents not derived from the training fold: {leaked}")
        train_docs += synthetic

    train = Corpus(tuple(train_docs), e.corpus.mention_types, e.corpus.relation_types)
    arm_seed = derive_seed(e.seed, "fold", fold_index)
    out: dict[str, float] = {}
    if "md" in e.tasks:
        tagger = train_tagger(train, epochs=e.epochs, seed=derive_seed(arm_seed, "tagger"))
        total = Score()
        for d in test_docs:
            total += score_mentions(d.mentions, predict_mentions(tagger, d))
        out["md"] = total.f1
    if "re" in e.tasks:
        model = train_relations(
            train, epochs=e.epochs, seed=derive_seed(arm_seed, "relations"), window=e.window
        )
        total = Score()
        for d in test_docs:
            # Relations are scored over gold mentions, isolating the model.
            total += score_relations(d.relations, predict_relations(model, d), d.mentions)
        out["re"] = total.f1
    return out


# Linux children start by fork at every Python version (3.14 makes
# forkserver the default): fork hands them the experiment, and the model
# inputs the calling process has memoized, without pickling. Elsewhere fork
# is missing or unsafe, and the platform's default method is kept.
_START_METHOD = "fork" if sys.platform == "linux" else None

# (experiment, job counter) of a child process, set once per child by the
# pool's initializer; never set in the calling process.
_child_lane: tuple | None = None


def _init_child(experiment: _Experiment, counter) -> None:
    global _child_lane
    _child_lane = experiment, counter


def _take(counter) -> int:
    """The position of the next untaken job, which is now taken."""
    with counter.get_lock():
        position = counter.value
        counter.value += 1
    return position


def _run_lane(experiment: _Experiment, jobs, counter, position: int):
    """Runs jobs[position], then the next untaken job until none is left.
    Returns (position, result) of each job this lane finished, and
    (position, error) of the job that raised, or None. A job that raises
    takes every job left, so no lane starts another."""
    done: list[tuple[int, dict[str, float]]] = []
    while position < len(jobs):
        try:
            done.append((position, _run_arm(experiment, *jobs[position])))
        except Exception as error:
            with counter.get_lock():
                counter.value = len(jobs)
            return done, (position, error)
        position = _take(counter)
    return done, None


def _run_child_lane(jobs):
    experiment, counter = _child_lane
    done, failure = _run_lane(experiment, jobs, counter, _take(counter))
    if failure is not None:
        error = failure[1]
        # a traceback is not pickled; its text crosses as a note, which
        # Python 3.11 and later print with the error
        trace = "".join(traceback.format_exception(error))
        error.__notes__ = [*getattr(error, "__notes__", ()), f"in a worker process:\n{trace}"]
    return done, failure


def _run_jobs(experiment: _Experiment, jobs, workers: int) -> list[dict[str, float]]:
    """Each job's result, in job order, from min(workers, len(jobs)) lanes:
    the calling process runs job 0, a child process runs each other lane,
    and each lane then takes the next untaken job until none is left. So
    which process runs a job after job 0 depends on timing. The counter
    and the pool come from one _START_METHOD context. Once a job fails no
    lane takes another, and the error of the first failed job is raised,
    as the one-lane loop would raise it (every earlier job was taken
    before it and runs to its end), once every child has been joined."""
    lanes = min(workers, len(jobs))
    if lanes <= 1:
        return [_run_arm(experiment, *job) for job in jobs]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(_START_METHOD)
    counter = context.Value("i", 1)  # job 0 is the calling process's
    with ProcessPoolExecutor(
        lanes - 1, mp_context=context, initializer=_init_child, initargs=(experiment, counter)
    ) as pool:
        children = [pool.submit(_run_child_lane, jobs) for _ in range(1, lanes)]
        outcomes = [_run_lane(experiment, jobs, counter, 0)] + [c.result() for c in children]
    results: list = [None] * len(jobs)
    failures = []
    for done, failure in outcomes:
        for position, result in done:
            results[position] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def cross_validate(
    corpus: Corpus,
    k: int = 5,
    technique: TechniqueConfig | None = None,
    seed: int = 0,
    *,
    tasks: Sequence[str] = TASKS,
    epochs: int = 5,
    window: int = 1,
    lexicon: Lexicon | None = None,
    provider: ParaphraseProvider | None = None,
    baseline_cache: dict | None = None,
    workers: int = 1,
) -> GainReport:
    """Per-task mean F1 over k folds for the plain and the augmented arm,
    and their difference (the performance gain).

    Synthetic documents are generated from each fold's training documents
    only and added to them; test folds are never augmented. Without a
    technique both arms are identical and all gains are zero.

    The arms run in min(workers, arms) lanes, the calling process running
    the first arm and each lane then taking the next untaken one (see
    _run_jobs); the report is the same at any worker count. Calls
    that share a baseline_cache train the plain arm once per corpus and
    settings.
    """
    for task in tasks:
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
    # checked here, not only where they are used, so no fold trains first
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    folds = split_folds([d.id for d in corpus.documents], k, seed)
    if technique is not None:
        technique.resolved  # checks the config, so no fold trains first
        if lexicon is None:  # one lexicon, and one memo, for every arm
            lexicon = builtin_lexicon()

    cache_key = ("baseline", corpus, k, seed, epochs, window, tuple(tasks))
    cached = baseline_cache.get(cache_key) if baseline_cache is not None else None
    # augmented arms take 2.5 to 3 times as long as plain ones, so they go first
    jobs = [(i, True) for i in range(k)] if technique is not None else []
    if cached is None:
        jobs += [(i, False) for i in range(k)]
    experiment = _Experiment(
        corpus, folds, technique, seed, tuple(tasks), epochs, window, lexicon, provider
    )
    scores = dict(zip(jobs, _run_jobs(experiment, jobs, workers)))
    baseline_folds = cached if cached is not None else [scores[i, False] for i in range(k)]
    augmented_folds = (
        [scores[i, True] for i in range(k)] if technique is not None else baseline_folds
    )
    if baseline_cache is not None:
        baseline_cache[cache_key] = baseline_folds

    gains = {}
    for task in tasks:
        fold_base = tuple(f[task] for f in baseline_folds)
        fold_aug = tuple(f[task] for f in augmented_folds)
        base_f1, aug_f1 = _mean(fold_base), _mean(fold_aug)
        gains[task] = TaskGain(base_f1, aug_f1, aug_f1 - base_f1, fold_base, fold_aug)

    return GainReport(
        technique_id=technique.technique_id if technique else None,
        params=dict(technique.params) if technique else {},
        n_aug=technique.n_aug if technique else 0,
        folds=k,
        seed=seed,
        tasks=gains,
    )
