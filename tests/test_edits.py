import os
import subprocess
import sys
import textwrap
from pathlib import Path
from random import Random

import pytest

from corpora import random_fixture_document

import spanaug
from spanaug.corpus import Document, Mention, Token, make_document, validate_document
from spanaug.edits import (
    DeleteTokens,
    EditError,
    InsertTokens,
    MergeSentences,
    PermuteSentences,
    RemapReport,
    ReplaceSpan,
    SwapTokens,
    apply_edit,
    apply_edits,
    free_spans,
    sentence_spans,
)

WORDS = ["alpha", "beta", "gamma", "delta"]


def spans(doc):
    return [(m.id, m.start, m.end) for m in doc.mentions]


def relation_multiset(doc):
    return sorted((r.type, r.head, r.tail) for r in doc.relations)


# --- single edits, fixture semantics ---------------------------------------


def test_delete_first_token_shifts_spans(d1):
    doc, report = apply_edit(d1, DeleteTokens(frozenset({0})))
    assert spans(doc) == [("M1", 0, 1), ("M2", 3, 3), ("M3", 5, 5), ("M4", 7, 7)]
    assert relation_multiset(doc) == [("Flow", "M2", "M4")]
    assert report.rejected == ()


def test_delete_emptying_a_mention_is_rejected(d1):
    doc, report = apply_edit(d1, DeleteTokens(frozenset({1, 2})))
    assert doc == d1
    assert len(report.rejected) == 1
    assert "M1" in report.rejected[0].reason


def test_delete_strict_subset_shrinks(d1):
    doc, report = apply_edit(d1, DeleteTokens(frozenset({1})))
    assert report.mentions_shrunk == ("M1",)
    assert doc.mentions[0] == Mention("M1", "Activity Data", 1, 1)
    assert doc.tokens[1].text == "claim"


def test_insert_mid_document(d1):
    doc, _ = apply_edit(d1, InsertTokens(5, ("immediately",)))
    assert len(doc.tokens) == 11
    assert spans(doc) == [("M1", 1, 2), ("M2", 4, 4), ("M3", 7, 7), ("M4", 9, 9)]


def test_insert_strictly_inside_extends_mention(d1):
    doc, _ = apply_edit(d1, InsertTokens(2, ("single",)))  # inside M1=[1,2]
    assert doc.mentions[0] == Mention("M1", "Activity Data", 1, 3)


def test_insert_at_boundary_does_not_extend(d1):
    before, _ = apply_edit(d1, InsertTokens(1, ("x",)))  # at M1 start
    after, _ = apply_edit(d1, InsertTokens(3, ("x",)))  # right after M1 end
    assert before.mentions[0] == Mention("M1", "Activity Data", 2, 3)
    assert after.mentions[0] == Mention("M1", "Activity Data", 1, 2)


def test_insert_sentence_policy():
    doc = make_document("s", [("One", 0), (".", 0), ("Two", 1), (".", 1)])
    inside, _ = apply_edit(doc, InsertTokens(2, ("new",)))
    at_end, _ = apply_edit(doc, InsertTokens(4, ("new",)))
    assert inside.tokens[2].sentence == 1  # the sentence of the token at the position
    assert at_end.tokens[4].sentence == 1  # the last sentence


def test_replace_inside_mention_keeps_coverage(d1):
    doc, _ = apply_edit(d1, ReplaceSpan(1, 2, ("the", "insurance", "claim")))
    assert doc.mentions[0] == Mention("M1", "Activity Data", 1, 3)
    assert [t.text for t in doc.tokens[1:4]] == ["the", "insurance", "claim"]
    assert spans(doc)[1:] == [("M2", 5, 5), ("M3", 7, 7), ("M4", 9, 9)]


def test_replace_straddling_mention_boundary_rejected(d1):
    doc, report = apply_edit(d1, ReplaceSpan(0, 1, ("x",)))  # crosses into M1
    assert doc == d1
    assert "M1" in report.rejected[0].reason


def test_replace_swallowing_mention_rejected(d1):
    doc, report = apply_edit(d1, ReplaceSpan(3, 5, ("x",)))  # swallows M2=[4,4]
    assert doc == d1
    assert "M2" in report.rejected[0].reason


def test_replace_shrinking_reports_shrunk(d1):
    doc, report = apply_edit(d1, ReplaceSpan(1, 2, ("it",)))
    assert report.mentions_shrunk == ("M1",)
    assert doc.mentions[0] == Mention("M1", "Activity Data", 1, 1)


def test_replace_cross_sentence_only_when_length_preserving():
    doc = make_document("s", [("One", 0), (".", 0), ("Two", 1), (".", 1)])
    same, _ = apply_edit(doc, ReplaceSpan(1, 2, (";", "Second")))
    assert [t.sentence for t in same.tokens] == [0, 0, 1, 1]
    rejected, report = apply_edit(doc, ReplaceSpan(1, 2, ("just-one",)))
    assert rejected == doc
    assert report.rejected


def test_swap_free_tokens(d1):
    doc, _ = apply_edit(d1, SwapTokens(3, 7))  # the two "is" free tokens
    assert [t.text for t in doc.tokens] == [t.text for t in d1.tokens]


def test_swap_within_same_mention(d1):
    doc, _ = apply_edit(d1, SwapTokens(1, 2))
    assert [t.text for t in doc.tokens[1:3]] == ["claim", "a"]
    assert doc.mentions[0] == Mention("M1", "Activity Data", 1, 2)


def test_swap_across_mention_boundary_rejected(d1):
    doc, report = apply_edit(d1, SwapTokens(0, 1))
    assert doc == d1
    assert report.rejected


def two_sentence_doc():
    return make_document(
        "two",
        [("A", 0), ("claim", 0), (".", 0), ("The", 1), ("clerk", 1), ("files", 1), (".", 1)],
        [Mention("m0", "Activity Data", 1, 1), Mention("m1", "Actor", 4, 4)],
    )


def test_permute_sentences_reverses():
    doc, _ = apply_edit(two_sentence_doc(), PermuteSentences((1, 0)))
    assert [t.text for t in doc.tokens] == ["The", "clerk", "files", ".", "A", "claim", "."]
    assert [t.sentence for t in doc.tokens] == [0, 0, 0, 0, 1, 1, 1]
    assert spans(doc) == [("m0", 5, 5), ("m1", 1, 1)]


def test_permute_requires_bijection():
    with pytest.raises(EditError):
        apply_edit(two_sentence_doc(), PermuteSentences((0, 0)))


def test_merge_deletes_free_punctuation():
    doc, _ = apply_edit(two_sentence_doc(), MergeSentences(0))
    assert [t.text for t in doc.tokens] == ["A", "claim", "The", "clerk", "files", "."]
    assert {t.sentence for t in doc.tokens} == {0}


def test_merge_without_trailing_punctuation_only_joins():
    doc = make_document("s", [("one", 0), ("two", 1), (".", 1)])
    merged, _ = apply_edit(doc, MergeSentences(0))
    assert [t.text for t in merged.tokens] == ["one", "two", "."]
    assert {t.sentence for t in merged.tokens} == {0}


def test_merge_keeps_mention_internal_punctuation():
    doc = make_document(
        "s",
        [("see", 0), ("fig", 0), (".", 0), ("It", 1), ("works", 1)],
        [Mention("m", "Further Specification", 1, 2)],
    )
    merged, _ = apply_edit(doc, MergeSentences(0))
    assert len(merged.tokens) == 5
    assert {t.sentence for t in merged.tokens} == {0}


def test_out_of_range_indices_raise(d1):
    with pytest.raises(EditError):
        apply_edit(d1, DeleteTokens(frozenset({99})))
    with pytest.raises(EditError):
        apply_edit(d1, InsertTokens(11, ("x",)))
    with pytest.raises(EditError):
        apply_edit(d1, ReplaceSpan(5, 99, ("x",)))
    with pytest.raises(EditError):
        apply_edit(d1, SwapTokens(0, 10))
    with pytest.raises(EditError):
        apply_edit(d1, MergeSentences(0))  # single sentence


def test_edit_token_texts_are_checked(d1):
    with pytest.raises(EditError):
        apply_edit(d1, InsertTokens(0, ("two words",)))
    with pytest.raises(EditError):
        apply_edit(d1, ReplaceSpan(0, 0, ("",)))


# --- edit lists --------------------------------------------------------------


def test_empty_edit_list_is_identity(d1):
    doc, report = apply_edits(d1, [])
    assert doc == d1
    assert report == RemapReport()


def test_sequential_deletes_fold_left_to_right(d1):
    # Hand fold: first delete drops "After" (M1 -> [0,1]); the second then
    # drops "a", a strict subset of M1, shrinking it to "claim".
    doc, report = apply_edits(d1, [DeleteTokens(frozenset({0})), DeleteTokens(frozenset({0}))])
    assert [t.text for t in doc.tokens][:3] == ["claim", "is", "registered"]
    assert doc.mentions[0] == Mention("M1", "Activity Data", 0, 0)
    assert report.mentions_shrunk == ("M1",)
    assert report.rejected == ()
    assert relation_multiset(doc) == relation_multiset(d1)


# --- free spans --------------------------------------------------------------


def test_free_spans_fixture(d1):
    assert free_spans(d1) == [(0, 0), (3, 3), (5, 5), (7, 7), (9, 9)]


def test_free_spans_fully_covered():
    doc = make_document("s", [("a", 0), ("b", 0)], [Mention("m", "Actor", 0, 1)])
    assert free_spans(doc) == []


def test_free_spans_no_mentions():
    doc = make_document("s", [("a", 0), ("b", 0), ("c", 0)])
    assert free_spans(doc) == [(0, 2)]


def test_free_spans_partition_property():
    rng = Random(17)
    for i in range(50):
        doc = random_fixture_document(f"p{i}", rng)
        pieces = free_spans(doc) + [(m.start, m.end) for m in doc.mentions]
        covered = sorted(i for s, e in pieces for i in range(s, e + 1))
        assert covered == list(range(len(doc.tokens)))


# --- validity preservation under random edit lists --------------------------


def random_edit(rng: Random, doc: Document):
    n = len(doc.tokens)
    kind = rng.choice(["insert", "delete", "replace", "swap", "permute", "merge"])
    if kind == "insert":
        texts = tuple(rng.choice(WORDS) for _ in range(rng.randint(1, 3)))
        return InsertTokens(rng.randint(0, n), texts)
    if kind == "delete":
        count = rng.randint(1, min(3, n))
        return DeleteTokens(frozenset(rng.sample(range(n), count)))
    if kind == "replace":
        start = rng.randrange(n)
        end = min(n - 1, start + rng.randint(0, 2))
        texts = tuple(rng.choice(WORDS) for _ in range(rng.randint(1, 3)))
        return ReplaceSpan(start, end, texts)
    if kind == "swap":
        return SwapTokens(rng.randrange(n), rng.randrange(n))
    sentences = len(sentence_spans(doc))
    if kind == "permute":
        order = list(range(sentences))
        rng.shuffle(order)
        return PermuteSentences(tuple(order))
    if sentences < 2:
        return SwapTokens(0, n - 1)
    return MergeSentences(rng.randrange(sentences - 1))


def test_random_edit_lists_preserve_validity():
    rng = Random(99)
    for i in range(120):
        doc = random_fixture_document(f"v{i}", rng)
        original = doc
        edits = [random_edit(rng, doc) for _ in range(1)]
        # grow the list step by step so indices stay in range of the folded doc
        for _ in range(rng.randint(0, 4)):
            doc_now, _ = apply_edits(original, edits)
            if doc_now.tokens:
                edits.append(random_edit(rng, doc_now))
        result, report = apply_edits(original, edits)
        assert validate_document(result) == []
        assert len(result.mentions) == len(original.mentions)
        assert relation_multiset(result) == relation_multiset(original)
        # the list's report is the per-edit reports concatenated in order
        shrunk, rejected, doc = [], [], original
        for e in edits:
            doc, step = apply_edit(doc, e)
            shrunk += step.mentions_shrunk
            rejected += step.rejected
        assert (doc, report) == (result, RemapReport(tuple(shrunk), tuple(rejected)))


def test_reimporting_the_package_keeps_no_old_copy_alive():
    # A module-level typing.Union alias is held by typing's cache, and
    # through it every copy of the package ever imported.
    script = textwrap.dedent(
        """
        import gc, importlib, sys
        for _ in range(5):
            for name in [m for m in sys.modules if m == "spanaug" or m.startswith("spanaug.")]:
                del sys.modules[name]
            importlib.import_module("spanaug")
        gc.collect()
        print(sum(
            1 for o in gc.get_objects()
            if isinstance(o, type) and o.__module__ == "spanaug.corpus" and o.__name__ == "Document"
        ))
        """
    )
    src = str(Path(spanaug.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout.strip() == "1"
