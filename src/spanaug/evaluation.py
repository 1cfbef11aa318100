"""Micro-averaged F1 scoring for mention detection and relation
extraction, and the performance-gain experiment: k-fold cross-validation
run twice per fold, once on the plain training split and once with
synthetic documents added, scored on the untouched test fold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .baselines import (
    predict_mentions,
    predict_relations,
    train_relations,
    train_tagger,
)
from .corpus import Corpus, Document, Mention, Relation
from .lexicon import Lexicon
from .providers import ParaphraseProvider
from .seeding import derive_rng, derive_seed
from .techniques import TechniqueConfig, augment_corpus

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


def split_folds(n_documents: int, k: int, seed: int) -> list[list[int]]:
    """Seeded shuffle then round-robin striding; every document lands in
    exactly one fold and fold sizes differ by at most one."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n_documents:
        raise ValueError(f"cannot split {n_documents} documents into {k} folds")
    order = list(range(n_documents))
    derive_rng(seed, "folds").shuffle(order)
    return [order[i::k] for i in range(k)]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _evaluate_arm(
    train_docs: Sequence[Document],
    test_docs: Sequence[Document],
    base: Corpus,
    tasks: Sequence[str],
    epochs: int,
    window: int,
    seed: int,
) -> dict[str, float]:
    train = Corpus(tuple(train_docs), base.mention_types, base.relation_types)
    out: dict[str, float] = {}
    if "md" in tasks:
        tagger = train_tagger(train, epochs=epochs, seed=derive_seed(seed, "tagger"))
        total = Score()
        for d in test_docs:
            total += score_mentions(d.mentions, predict_mentions(tagger, d))
        out["md"] = total.f1
    if "re" in tasks:
        model = train_relations(
            train, epochs=epochs, seed=derive_seed(seed, "relations"), window=window
        )
        total = Score()
        for d in test_docs:
            # Relations are scored over gold mentions, isolating the model.
            total += score_relations(d.relations, predict_relations(model, d), d.mentions)
        out["re"] = total.f1
    return out


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
) -> GainReport:
    """Per-task mean F1 over k folds for the plain and the augmented arm,
    and their difference (the performance gain).

    Synthetic documents are generated from each fold's training documents
    only and added to them; test folds are never augmented. Without a
    technique both arms are identical and all gains are zero.
    """
    for task in tasks:
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
    # checked here, not only where it is used, so no fold trains first
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    folds = split_folds(len(corpus.documents), k, seed)
    if technique is not None:
        technique.resolved  # checks the config, so no fold trains first

    cache_key = ("baseline", k, seed, epochs, window, tuple(tasks))
    cached = baseline_cache.get(cache_key) if baseline_cache is not None else None
    baseline_folds: list[dict[str, float]] = []
    augmented_folds: list[dict[str, float]] = []
    for fold_index, fold in enumerate(folds):
        test_ids = set(fold)
        train_docs = [d for i, d in enumerate(corpus.documents) if i not in test_ids]
        test_docs = [corpus.documents[i] for i in fold]

        def arm(train: list[Document]) -> dict[str, float]:
            fold_seed = derive_seed(seed, "fold", fold_index)
            return _evaluate_arm(train, test_docs, corpus, tasks, epochs, window, fold_seed)

        baseline = cached[fold_index] if cached is not None else arm(train_docs)
        baseline_folds.append(baseline)
        if technique is None:
            augmented_folds.append(baseline)
            continue
        synthetic = augment_corpus(
            train_docs,
            technique,
            derive_seed(seed, "augment", fold_index),
            lexicon=lexicon,
            provider=provider,
        )
        train_ids = {d.id for d in train_docs}
        # a synthetic id is its direct parent's id plus "-augN"; the parent
        # may itself be synthetic when the corpus is augment output
        leaked = [s.id for s in synthetic if s.id.rpartition("-aug")[0] not in train_ids]
        if leaked:
            raise RuntimeError(f"synthetic documents not derived from the training fold: {leaked}")
        augmented_folds.append(arm(train_docs + synthetic))
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
