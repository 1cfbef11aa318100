import dataclasses
import multiprocessing
import os
import time
from functools import partial
from random import Random

import pytest

from corpora import fixture_corpus, kuhn_matching_score

from spanaug import cli, evaluation
from spanaug.corpus import Mention, Relation, save_corpus
from spanaug.evaluation import (
    GainReport,
    Score,
    _mean,
    cross_validate,
    score_mentions,
    score_relations,
    split_folds,
)
from spanaug.seeding import derive_rng, derive_seed
from spanaug.techniques import TechniqueConfig, augment_corpus, origin_id

TYPES = ("Actor", "Activity")


def random_mentions(rng: Random, max_count=10):
    out = []
    for i in range(rng.randint(0, max_count)):
        start = rng.randint(0, 4)
        out.append(
            Mention(f"m{i}", rng.choice(TYPES), start, start + rng.randint(0, 1))
        )
    return out


# --- mention scoring -----------------------------------------------------------


def test_identical_mentions_score_one():
    gold = [Mention("a", "Actor", 0, 1), Mention("b", "Activity", 3, 3)]
    pred = [Mention("x", "Actor", 0, 1), Mention("y", "Activity", 3, 3)]
    assert score_mentions(gold, pred).f1 == 1.0


def test_disjoint_mentions_score_zero():
    gold = [Mention("a", "Actor", 0, 1)]
    pred = [Mention("x", "Activity", 3, 3)]
    score = score_mentions(gold, pred)
    assert score.f1 == 0.0 and score.precision == 0.0 and score.recall == 0.0


def test_wrong_type_counts_as_fp_and_fn():
    gold = [
        Mention("g1", "Actor", 0, 0),
        Mention("g2", "Activity", 2, 2),
        Mention("g3", "Actor", 4, 4),
        Mention("g4", "Activity", 6, 6),
    ]
    pred = gold[:3] + [Mention("p4", "Actor", 6, 6)]
    score = score_mentions(gold, pred)
    assert (score.tp, score.fp, score.fn) == (3, 1, 1)
    assert score.f1 == 0.75


def test_empty_sides():
    assert score_mentions([], []).f1 == 0.0
    assert score_mentions([Mention("a", "Actor", 0, 0)], []).fn == 1
    assert score_mentions([], [Mention("a", "Actor", 0, 0)]).fp == 1


def test_duplicate_predictions_match_at_most_once():
    gold = [Mention("g", "Actor", 0, 0)]
    pred = [Mention("p1", "Actor", 0, 0), Mention("p2", "Actor", 0, 0)]
    score = score_mentions(gold, pred)
    assert (score.tp, score.fp, score.fn) == (1, 1, 0)


def test_mention_scores_match_exhaustive_matcher():
    rng = Random(31)
    for _ in range(400):
        gold = random_mentions(rng)
        pred = random_mentions(rng)
        ours = score_mentions(gold, pred)
        oracle = kuhn_matching_score(
            [(m.type, m.start, m.end) for m in gold],
            [(m.type, m.start, m.end) for m in pred],
        )
        assert (ours.tp, ours.fp, ours.fn) == oracle


# --- relation scoring --------------------------------------------------------------


def rel_fixture():
    mentions = [
        Mention("m1", "Activity", 0, 0),
        Mention("m2", "Activity", 2, 2),
        Mention("m3", "Actor", 4, 4),
    ]
    gold = [Relation("r1", "Flow", "m1", "m2"), Relation("r2", "Actor Performer", "m1", "m3")]
    return mentions, gold


def test_identical_relations_score_one():
    mentions, gold = rel_fixture()
    assert score_relations(gold, gold, mentions).f1 == 1.0


def test_direction_flip_is_fp_plus_fn():
    mentions, gold = rel_fixture()
    flipped = [Relation("r1", "Flow", "m2", "m1"), gold[1]]
    score = score_relations(gold, flipped, mentions)
    assert (score.tp, score.fp, score.fn) == (1, 1, 1)


def test_mixed_relation_case():
    mentions = [Mention(f"m{i}", "Activity", 2 * i, 2 * i) for i in range(4)]
    gold = [
        Relation("g1", "Flow", "m0", "m1"),
        Relation("g2", "Flow", "m1", "m2"),
        Relation("g3", "Flow", "m2", "m3"),
    ]
    pred = [
        Relation("p1", "Flow", "m0", "m1"),
        Relation("p2", "Flow", "m1", "m2"),
        Relation("p3", "Uses", "m2", "m3"),
    ]
    score = score_relations(gold, pred, mentions)
    assert (score.tp, score.fp, score.fn) == (2, 1, 1)
    assert score.precision == pytest.approx(2 / 3)
    assert score.recall == pytest.approx(2 / 3)
    assert score.f1 == pytest.approx(2 / 3)


def test_relations_match_by_resolved_triples_not_ids():
    mentions, gold = rel_fixture()
    renamed = [Mention("x1", "Activity", 0, 0), Mention("x2", "Activity", 2, 2), Mention("x3", "Actor", 4, 4)]
    pred = [Relation("q", "Flow", "x1", "x2"), Relation("w", "Actor Performer", "x1", "x3")]
    assert score_relations(gold, pred, mentions, renamed).f1 == 1.0


def test_dangling_endpoint_raises():
    mentions, gold = rel_fixture()
    with pytest.raises(ValueError, match="dangling"):
        score_relations([Relation("r", "Flow", "m1", "zz")], [], mentions)


def test_relation_scores_match_exhaustive_matcher():
    rng = Random(77)
    mentions = [Mention(f"m{i}", "Activity", i, i) for i in range(5)]
    for _ in range(300):
        def random_relations():
            out = []
            for i in range(rng.randint(0, 8)):
                head, tail = rng.sample(range(5), 2)
                out.append(Relation(f"r{i}", rng.choice(("Flow", "Uses")), f"m{head}", f"m{tail}"))
            return out

        gold, pred = random_relations(), random_relations()
        ours = score_relations(gold, pred, mentions)
        by_id = {m.id: (m.type, m.start, m.end) for m in mentions}
        oracle = kuhn_matching_score(
            [(r.type, by_id[r.head], by_id[r.tail]) for r in gold],
            [(r.type, by_id[r.head], by_id[r.tail]) for r in pred],
        )
        assert (ours.tp, ours.fp, ours.fn) == oracle


def test_score_addition_aggregates_micro():
    total = Score(1, 0, 1) + Score(2, 1, 0)
    assert (total.tp, total.fp, total.fn) == (3, 1, 1)


def test_f1_zero_when_both_empty():
    assert Score(0, 0, 0).f1 == 0.0


def test_fold_means_add_left_to_right():
    # sum() compensates on Python 3.12+ and gives exactly 1.0 here; a mean
    # that differs by interpreter would change the report's bytes
    total = 0.0
    for value in [0.1] * 10:
        total += value
    assert total == 0.9999999999999999
    assert _mean([0.1] * 10) == total / 10
    assert _mean(()) == 0.0


# --- fold splitting --------------------------------------------------------------


def ids(n):
    return [f"doc-{i}" for i in range(n)]


def test_fold_sizes_and_partition():
    folds = split_folds(ids(10), 5, seed=7)
    assert all(len(f) == 2 for f in folds)
    assert sorted(i for f in folds for i in f) == list(range(10))
    assert split_folds(ids(10), 5, seed=7) == folds  # deterministic


def test_fold_arguments_checked():
    with pytest.raises(ValueError):
        split_folds(ids(3), 5, seed=0)
    with pytest.raises(ValueError):
        split_folds(ids(10), 1, seed=0)


@pytest.mark.parametrize("n, k, seed", [(10, 5, 7), (8, 3, 0), (23, 4, 11), (100, 5, 3)])
def test_singleton_groups_give_the_striped_folds(n, k, seed):
    # the split before documents were grouped: shuffle the indices, stride
    order = list(range(n))
    derive_rng(seed, "folds").shuffle(order)
    assert split_folds(ids(n), k, seed) == [order[i::k] for i in range(k)]


def test_more_folds_than_origins_is_rejected():
    doc_ids = ["a", "a-aug1", "a-aug2", "b", "b-aug1-aug1"]
    assert len(split_folds(doc_ids, 2, seed=0)) == 2
    with pytest.raises(ValueError, match=r"cannot split 5 documents into 3 folds \(2 origins\)"):
        split_folds(doc_ids, 3, seed=0)


@pytest.mark.parametrize("seed", range(6))
def test_folds_of_augment_output_keep_each_origin_in_one_fold(corpus20, seed):
    cfg = TechniqueConfig("random_token_swap", {"s": 1}, n_aug=2)
    documents = corpus20.documents + tuple(augment_corpus(corpus20, cfg, seed=seed))
    doc_ids = [d.id for d in documents]
    folds = split_folds(doc_ids, 4, seed)
    assert sorted(i for f in folds for i in f) == list(range(len(documents)))
    for fold in folds:
        test_origins = {origin_id(doc_ids[i]) for i in fold}
        train_origins = {origin_id(doc_ids[i]) for f in folds if f is not fold for i in f}
        assert test_origins and not test_origins & train_origins


# --- cross validation --------------------------------------------------------------


def test_without_technique_gains_are_zero(corpus20):
    report = cross_validate(corpus20, k=4, technique=None, seed=3, epochs=2)
    for task in ("md", "re"):
        gain = report.tasks[task]
        assert gain.gain == 0.0
        assert gain.fold_baseline == gain.fold_augmented
        assert len(gain.fold_baseline) == 4


def test_identity_config_produces_finite_report(corpus20):
    cfg = TechniqueConfig("random_token_deletion", {"p": 0.0})
    report = cross_validate(corpus20, k=4, technique=cfg, seed=3, tasks=("md",), epochs=2)
    gain = report.tasks["md"]
    assert len(gain.fold_augmented) == 4
    assert gain.gain == gain.augmented_f1 - gain.baseline_f1
    assert all(0.0 <= f <= 1.0 for f in gain.fold_augmented)


def test_cross_validate_is_deterministic(corpus20):
    cfg = TechniqueConfig("lexicon_substitution", {"mode": "synonym", "p": 0.5}, n_aug=2)
    a = cross_validate(corpus20, k=4, technique=cfg, seed=11, tasks=("md",), epochs=2)
    b = cross_validate(corpus20, k=4, technique=cfg, seed=11, tasks=("md",), epochs=2)
    assert a == b


def test_cross_validate_rejects_bad_arguments(corpus20):
    with pytest.raises(ValueError):
        cross_validate(corpus20, k=25, seed=0)
    with pytest.raises(ValueError):
        cross_validate(corpus20, k=4, seed=0, tasks=("nope",))


@pytest.mark.parametrize(
    "kwargs, message",
    [({"window": -1}, "window must be >= 0"), ({"workers": 0}, "workers must be >= 1")],
    ids=["window", "workers"],
)
def test_cross_validate_rejects_window_and_workers_before_training(
    kwargs, message, monkeypatch, corpus20
):
    def no_training(*args, **kw):
        raise AssertionError("trained before rejecting the arguments")

    monkeypatch.setattr("spanaug.evaluation.train_tagger", no_training)
    monkeypatch.setattr("spanaug.evaluation.train_relations", no_training)
    with pytest.raises(ValueError, match=message):
        cross_validate(corpus20, k=4, seed=0, **kwargs)


def test_cross_validate_rejects_synthetic_documents_from_the_test_fold(monkeypatch, corpus20):
    def from_a_test_document(train_docs, technique, seed, **kw):
        train_ids = {d.id for d in train_docs}
        tested = next(d for d in corpus20.documents if d.id not in train_ids)
        return [dataclasses.replace(tested, id=f"{tested.id}-aug1")]

    monkeypatch.setattr("spanaug.evaluation.augment_corpus", from_a_test_document)
    cfg = TechniqueConfig("random_token_swap", {"s": 2})
    with pytest.raises(RuntimeError, match="not derived from the training fold"):
        cross_validate(corpus20, k=4, technique=cfg, seed=0, tasks=("md",), epochs=1)


def test_baseline_cache_reused(corpus20):
    cache = {}
    cfg = TechniqueConfig("random_token_insertion", {"n": 1})
    first = cross_validate(corpus20, 4, cfg, 5, tasks=("md",), epochs=2, baseline_cache=cache)
    assert len(cache) == 1
    second = cross_validate(corpus20, 4, cfg, 5, tasks=("md",), epochs=2, baseline_cache=cache)
    assert first == second


def test_baseline_cache_keeps_corpora_apart(corpus20):
    halves = [
        dataclasses.replace(corpus20, documents=docs)
        for docs in (corpus20.documents[:10], corpus20.documents[10:])
    ]
    cfg = TechniqueConfig("random_token_insertion", {"n": 1})
    cache = {}
    run = partial(cross_validate, k=3, technique=cfg, seed=5, tasks=("md",), epochs=2)
    shared = [run(half, baseline_cache=cache) for half in halves]
    assert shared == [run(half) for half in halves]
    assert len(cache) == 2
    assert shared[0].tasks["md"].fold_baseline != shared[1].tasks["md"].fold_baseline


def test_first_failed_arm_decides_the_error_at_any_worker_count(monkeypatch, corpus20):
    fold_of = {derive_seed(0, "augment", i): i for i in range(4)}

    def leaks_on_folds_1_and_2(train_docs, technique, seed, **kw):
        if fold_of[seed] not in (1, 2):
            return []
        train_ids = {d.id for d in train_docs}
        tested = [d for d in corpus20.documents if d.id not in train_ids]
        return [dataclasses.replace(d, id=f"{d.id}-aug1") for d in tested]

    monkeypatch.setattr("spanaug.evaluation.augment_corpus", leaks_on_folds_1_and_2)
    cfg = TechniqueConfig("random_token_swap", {"s": 2})
    messages = []
    # the calling process runs fold 0's arm; which lane takes fold 1's and
    # fold 2's depends on timing, and at 3 workers they may be in two children
    for workers in (1, 2, 3):
        with pytest.raises(RuntimeError, match="not derived from the training fold") as caught:
            cross_validate(corpus20, 4, cfg, 0, tasks=("md",), epochs=1, workers=workers)
        messages.append(str(caught.value))
        assert multiprocessing.active_children() == []
    assert len(set(messages)) == 1


def test_an_earlier_arm_failing_later_decides_the_error(monkeypatch, corpus20, tmp_path):
    """At 3 workers, fold 1's arm fails at once in a child, while fold 0's
    arm (the calling process's) and fold 2's wait for that failure; then
    fold 0's fails and fold 2's finishes. Fold 0's error is raised, as at
    one worker, and no lane takes an arm after the first failure, so
    fold 3's augmented arm never starts."""
    fold_of = {derive_seed(0, "augment", i): i for i in range(4)}
    failed_at_once = tmp_path / "fold-1-failed"

    def fold_1_fails_first(train_docs, technique, seed, **kw):
        fold = fold_of[seed]
        (tmp_path / f"started-{fold}").touch()
        if fold == 1:
            failed_at_once.touch()
        deadline = time.monotonic() + 30
        while not failed_at_once.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        if fold > 1:
            return []
        train_ids = {d.id for d in train_docs}
        tested = [d for d in corpus20.documents if d.id not in train_ids]
        return [dataclasses.replace(d, id=f"{d.id}-aug1") for d in tested]

    monkeypatch.setattr("spanaug.evaluation.augment_corpus", fold_1_fails_first)
    cfg = TechniqueConfig("random_token_swap", {"s": 2})
    run = partial(cross_validate, corpus20, 4, cfg, 0, tasks=("md",), epochs=1)
    failed_at_once.touch()  # one lane: fold 0's arm fails first, with nothing to wait for
    with pytest.raises(RuntimeError) as serial:
        run(workers=1)
    for marker in tmp_path.iterdir():
        marker.unlink()
    with pytest.raises(RuntimeError) as lanes:
        run(workers=3)
    assert multiprocessing.active_children() == []
    started = {p.name for p in tmp_path.glob("started-*")}
    assert {"started-0", "started-1"} <= started <= {"started-0", "started-1", "started-2"}
    assert str(lanes.value) == str(serial.value)


def test_an_error_from_a_child_lane_keeps_its_traceback(monkeypatch, corpus20, tmp_path):
    """At 2 workers fold 1's augmented arm fails in the child, while the
    calling process holds fold 0's arm until that failure. The child's
    error is raised, with the child's traceback as its one note."""
    parent = os.getpid()
    raised = tmp_path / "raised"

    def fails_only_in_a_child(train_docs, technique, seed, **kw):
        if os.getpid() != parent:
            raised.touch()
            raise RuntimeError("augmentation failed in the child")
        deadline = time.monotonic() + 30
        while not raised.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return []

    monkeypatch.setattr("spanaug.evaluation.augment_corpus", fails_only_in_a_child)
    cfg = TechniqueConfig("random_token_swap", {"s": 2})
    with pytest.raises(RuntimeError, match="failed in the child") as caught:
        cross_validate(corpus20, 2, cfg, 0, tasks=("md",), epochs=1, workers=2)
    assert multiprocessing.active_children() == []
    (note,) = caught.value.__notes__
    assert note.startswith("in a worker process:")
    assert "_run_arm" in note


class TwoPartError(Exception):
    """Pickles by its message alone, so it cannot be unpickled."""

    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


def test_an_error_that_cannot_be_unpickled_crosses_as_text(monkeypatch, corpus20, tmp_path):
    """As above, but the child's error cannot be rebuilt from its pickle:
    a RuntimeError carrying its type, message and traceback is raised."""
    parent = os.getpid()
    raised = tmp_path / "raised"

    def fails_only_in_a_child(train_docs, technique, seed, **kw):
        if os.getpid() != parent:
            raised.touch()
            raise TwoPartError("fold", "child")
        deadline = time.monotonic() + 30
        while not raised.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return []

    monkeypatch.setattr("spanaug.evaluation.augment_corpus", fails_only_in_a_child)
    cfg = TechniqueConfig("random_token_swap", {"s": 2})
    with pytest.raises(RuntimeError) as caught:
        cross_validate(corpus20, 2, cfg, 0, tasks=("md",), epochs=1, workers=2)
    assert multiprocessing.active_children() == []
    assert str(caught.value) == "TwoPartError: fold and child"
    (note,) = caught.value.__notes__
    assert note.startswith("in a worker process:")
    assert "TwoPartError: fold and child" in note


def test_reports_are_equal_at_any_worker_count(monkeypatch):
    get_context = multiprocessing.get_context
    start = multiprocessing.process.BaseProcess.start

    def recording_context(method=None):
        made.append(0)
        return get_context(method)

    def recording_start(process):
        made[-1] += 1
        start(process)

    monkeypatch.setattr(multiprocessing, "get_context", recording_context)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
    corpus = fixture_corpus(6, seed=4)
    cfg = TechniqueConfig("random_token_insertion", {"n": 1})
    # child processes per call with more than one lane: 6 arms, then 3
    # once the plain arms are cached; the calling process runs one lane
    children_started = {1: [], 2: [1, 1], 8: [5, 2]}
    reports = {}
    for workers, counts in children_started.items():
        made = []
        cache: dict = {}
        reports[workers] = [
            cross_validate(corpus, 3, cfg, 9, epochs=1, baseline_cache=cache, workers=workers)
            for _ in range(2)
        ]
        assert made == counts
        assert multiprocessing.active_children() == []
    assert reports[1] == reports[2] == reports[8]
    assert set(reports[1][0].tasks) == {"md", "re"}


def test_a_child_that_exits_without_sending_is_one_runtime_error(
    monkeypatch, corpus20, tmp_path, capsys
):
    """The child takes fold 1's augmented arm and exits at once with code
    7, while the calling process holds fold 0's arm until the child has
    started. Both the library and the CLI report one error naming the
    exit code, and no child is left."""
    parent = os.getpid()
    started = tmp_path / "started"

    def exits_in_the_child(train_docs, technique, seed, **kw):
        if os.getpid() != parent:
            started.touch()
            os._exit(7)
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return []

    monkeypatch.setattr("spanaug.evaluation.augment_corpus", exits_in_the_child)
    cfg = TechniqueConfig("random_token_swap", {"s": 2})
    with pytest.raises(RuntimeError, match="exited with code 7"):
        cross_validate(corpus20, 2, cfg, 0, tasks=("md",), epochs=1, workers=2)
    assert multiprocessing.active_children() == []

    started.unlink()
    corpus_file = tmp_path / "corpus.json"
    save_corpus(corpus20, corpus_file)
    code = cli.main(
        [
            "evaluate",
            "--corpus", str(corpus_file),
            "--technique", "random_token_swap",
            "--task", "md",
            "--folds", "2",
            "--epochs", "1",
            "--seed", "0",
            "--workers", "2",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exited with code 7" in err
    assert multiprocessing.active_children() == []


def test_reports_are_equal_when_children_are_spawned(monkeypatch):
    """Under spawn and forkserver each child's arguments, the job counter
    and the pipe's sending end among them, are pickled and children import
    the package afresh."""
    corpus = fixture_corpus(6, seed=4)
    cfg = TechniqueConfig("lexicon_substitution", {"mode": "synonym", "p": 0.5})
    serial = cross_validate(corpus, 3, cfg, 9, tasks=("md",), epochs=1)
    for method in ("spawn", "forkserver"):
        monkeypatch.setattr(evaluation, "_START_METHOD", method)
        assert cross_validate(corpus, 3, cfg, 9, tasks=("md",), epochs=1, workers=2) == serial
        assert multiprocessing.active_children() == []
