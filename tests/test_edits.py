import hashlib
import os
import subprocess
import sys
import textwrap
from bisect import bisect_left, bisect_right
from pathlib import Path
from random import Random

import pytest

from corpora import random_fixture_document

import spanaug
import spanaug.edits as edits_module
from spanaug.corpus import Document, Mention, Token, make_document, validate_document
from spanaug.edits import (
    MERGE_PUNCTUATION,
    DeleteTokens,
    EditError,
    InsertTokens,
    MergeSentences,
    PermuteSentences,
    RejectedEdit,
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


def test_one_token_replacement_inside_a_mention():
    # "claims" lies strictly inside A=[1,3]: A covers the replacement, and
    # the tokens after it shift by the change in length.
    doc = make_document(
        "s",
        [(t, 0) for t in "a senior claims clerk files it .".split()] + [("Done", 1), (".", 1)],
        [Mention("A", "Actor", 1, 3), Mention("B", "Activity", 4, 4), Mention("C", "Activity", 7, 7)],
    )
    same, report = apply_edit(doc, ReplaceSpan(2, 2, ("insurance",)))
    assert same.mentions == doc.mentions and report == RemapReport()
    assert [t.text for t in same.tokens[1:4]] == ["senior", "insurance", "clerk"]
    grown, _ = apply_edit(doc, ReplaceSpan(2, 2, ("insurance", "claims")))
    assert spans(grown) == [("A", 1, 4), ("B", 5, 5), ("C", 8, 8)]
    assert [t.sentence for t in grown.tokens] == [0] * 8 + [1, 1]
    one_pass, report = apply_edits(doc, [ReplaceSpan(7, 7, ("Finished",)), ReplaceSpan(2, 2, ("x", "y"))])
    assert spans(one_pass) == [("A", 1, 4), ("B", 5, 5), ("C", 8, 8)]
    assert report == RemapReport() and validate_document(one_pass) == []


def test_one_token_replacement_on_a_mention_boundary(d1):
    # M1=[1,2] starts at "a" and ends at "claim"; M2=[4,4] is one token.
    for edit, expected in [
        (ReplaceSpan(1, 1, ("the", "insurance")), [("M1", 1, 3), ("M2", 5, 5), ("M3", 7, 7), ("M4", 9, 9)]),
        (ReplaceSpan(2, 2, ("claim", "form")), [("M1", 1, 3), ("M2", 5, 5), ("M3", 7, 7), ("M4", 9, 9)]),
        (ReplaceSpan(4, 4, ("filed", "away")), [("M1", 1, 2), ("M2", 4, 5), ("M3", 7, 7), ("M4", 9, 9)]),
        (ReplaceSpan(0, 0, ("Once", "after")), [("M1", 2, 3), ("M2", 5, 5), ("M3", 7, 7), ("M4", 9, 9)]),
        (ReplaceSpan(3, 3, ("is", "now")), [("M1", 1, 2), ("M2", 5, 5), ("M3", 7, 7), ("M4", 9, 9)]),
    ]:
        doc, report = apply_edit(d1, edit)
        assert spans(doc) == expected and report == RemapReport()
        assert validate_document(doc) == []
    # one for one, in one pass: no mention moves, so the mentions are kept
    doc, report = apply_edits(d1, [ReplaceSpan(8, 8, ("checked",)), ReplaceSpan(2, 2, ("form",))])
    assert doc.mentions is d1.mentions and report == RemapReport()
    assert [t.text for t in doc.tokens] == "After a form is registered , it is checked .".split()


def check_reference_texts(texts) -> None:
    for t in texts:
        if not t or any(c.isspace() for c in t):
            raise EditError(f"token text {t!r} is empty or contains whitespace")


def reference_rejected(d: Document, e, reason: str) -> tuple[Document, RemapReport]:
    return d, RemapReport(rejected=(RejectedEdit(e, reason),))


def reference_moved(d: Document, tokens, start_of, end_of) -> tuple[Document, RemapReport]:
    """d with the given tokens and each mention moved to [start_of(start),
    end_of(end)]; a mention that comes out shorter has shrunk."""
    mentions, shrunk = [], []
    for m in d.mentions:
        start, end = start_of(m.start), end_of(m.end)
        if end - start < m.end - m.start:
            shrunk.append(m.id)
        mentions.append(Mention(m.id, m.type, start, end))
    return Document(d.id, tuple(tokens), tuple(mentions), d.relations), RemapReport(tuple(shrunk))


def reference_replace(d: Document, e: ReplaceSpan) -> tuple[Document, RemapReport]:
    """apply_edit of one ReplaceSpan written on its own, the reference for
    the splice code of edits.py: the checks in order, then each mention
    moved through two index maps. A mention covering the span keeps its
    start and moves its end; one right of the span moves by the change in
    length."""
    n = len(d.tokens)
    if not 0 <= e.start <= e.end < n:
        raise EditError(f"replace span [{e.start},{e.end}] out of range for {n} tokens")
    check_reference_texts(e.texts)
    if not e.texts:
        raise EditError("replacement texts must be non-empty")

    for m in d.mentions:
        overlaps = m.start <= e.end and e.start <= m.end
        covers = m.start <= e.start and e.end <= m.end
        if overlaps and not covers:
            if m.start < e.start or e.end < m.end:
                return reference_rejected(d, e, f"replacement straddles a boundary of mention {m.id}")
            return reference_rejected(d, e, f"replacement would swallow mention {m.id}")
    old = d.tokens[e.start : e.end + 1]
    delta = len(e.texts) - len(old)
    if len({t.sentence for t in old}) == 1:
        new = tuple(Token(t, old[0].sentence) for t in e.texts)
    elif delta == 0:
        new = tuple(Token(t, o.sentence) for t, o in zip(e.texts, old))
    else:
        return reference_rejected(d, e, "length-changing replacement across a sentence boundary")

    def start_of(i):
        return i if i <= e.start else i + delta

    def end_of(i):
        return i if i < e.start else i + delta

    tokens = d.tokens[: e.start] + new + d.tokens[e.end + 1 :]
    return reference_moved(d, tokens, start_of, end_of)


def reference_insert(d: Document, e: InsertTokens) -> tuple[Document, RemapReport]:
    """apply_edit of one InsertTokens through an index map: both ends of a
    mention at or right of the insertion point move by its length."""
    n = len(d.tokens)
    if not 0 <= e.position <= n:
        raise EditError(f"insert position {e.position} out of range 0..{n}")
    check_reference_texts(e.texts)
    p, k = e.position, len(e.texts)
    sentence = d.tokens[min(p, n - 1)].sentence if n else 0
    tokens = d.tokens[:p] + tuple(Token(t, sentence) for t in e.texts) + d.tokens[p:]

    def shift(i):
        return i + k if i >= p else i

    return reference_moved(d, tokens, shift, shift)


def reference_delete(d: Document, e: DeleteTokens) -> tuple[Document, RemapReport]:
    """apply_edit of one DeleteTokens through two index maps: a start goes
    to its first surviving token, an end to its last."""
    n = len(d.tokens)
    for p in set(e.positions):
        if not 0 <= p < n:
            raise EditError(f"delete position {p} out of range 0..{n - 1}")
    gone = sorted(e.positions)

    def first_survivor(i):
        return i - bisect_left(gone, i)

    def last_survivor(i):
        return i - bisect_right(gone, i)

    for m in d.mentions:
        if last_survivor(m.end) < first_survivor(m.start):
            return reference_rejected(d, e, f"would delete every token of mention {m.id}")
    tokens = [t for i, t in enumerate(d.tokens) if i not in e.positions]
    return reference_moved(d, tokens, first_survivor, last_survivor)


def reference_owner(d: Document, index: int):
    return next((m for m in d.mentions if m.start <= index <= m.end), None)


def reference_swap(d: Document, e: SwapTokens) -> tuple[Document, RemapReport]:
    """apply_edit of one SwapTokens: the two texts trade places in a copy
    of the tokens, and no mention moves."""
    n = len(d.tokens)
    for p in (e.i, e.j):
        if not 0 <= p < n:
            raise EditError(f"swap position {p} out of range 0..{n - 1}")
    if reference_owner(d, e.i) is not reference_owner(d, e.j):
        return reference_rejected(d, e, "tokens belong to different mention/non-mention regions")
    tokens = list(d.tokens)
    ti, tj = tokens[e.i], tokens[e.j]
    tokens[e.i] = Token(tj.text, ti.sentence)
    tokens[e.j] = Token(ti.text, tj.sentence)
    return Document(d.id, tuple(tokens), d.mentions, d.relations), RemapReport()


def reference_merge(d: Document, e: MergeSentences) -> tuple[Document, RemapReport]:
    """apply_edit of one MergeSentences: the second sentence takes the
    first one's value, and a free sentence-final punctuation token of the
    first is deleted, moving every index right of it left by one."""
    spans = sentence_spans(d)
    if not 0 <= e.first < len(spans) - 1:
        raise EditError(f"sentence position {e.first} has no following sentence to merge")
    first_value, _, first_end = spans[e.first]
    _, second_start, second_end = spans[e.first + 1]
    tokens = list(d.tokens)
    for i in range(second_start, second_end + 1):
        tokens[i] = Token(tokens[i].text, first_value)
    if d.tokens[first_end].text not in MERGE_PUNCTUATION or reference_owner(d, first_end) is not None:
        return Document(d.id, tuple(tokens), d.mentions, d.relations), RemapReport()
    del tokens[first_end]

    def shift(i):
        return i - 1 if i > first_end else i

    return reference_moved(d, tokens, shift, shift)


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


def recorded_apply_edit(monkeypatch):
    calls = []

    def recording(d, e):
        calls.append(e)
        return apply_edit(d, e)

    monkeypatch.setattr(edits_module, "apply_edit", recording)
    return calls


def test_rightmost_first_replacements_take_one_pass(d1, monkeypatch):
    calls = recorded_apply_edit(monkeypatch)
    swallow = ReplaceSpan(3, 5, ("z",))
    doc, report = apply_edits(
        d1, [ReplaceSpan(8, 8, ("looked", "at")), swallow, ReplaceSpan(1, 2, ("it",))]
    )
    assert calls == []
    assert [t.text for t in doc.tokens] == (
        "After it is registered , it is looked at .".split()
    )
    assert spans(doc) == [("M1", 1, 1), ("M2", 3, 3), ("M3", 5, 5), ("M4", 7, 8)]
    assert report == RemapReport(
        ("M1",), (RejectedEdit(swallow, "replacement would swallow mention M2"),)
    )


def test_one_pass_reports_shrinks_in_edit_order_then_mention_order():
    doc = make_document(
        "s",
        [(t, 0) for t in "a b c d e f g h".split()],
        [Mention("X", "Actor", 0, 1), Mention("Y", "Actor", 3, 7)],
    )
    edits = [ReplaceSpan(6, 7, ("q",)), ReplaceSpan(4, 5, ("r",)), ReplaceSpan(0, 1, ("p",))]
    result, report = apply_edits(doc, edits)
    assert report.mentions_shrunk == ("Y", "Y", "X")
    assert spans(result) == [("X", 0, 0), ("Y", 2, 4)]
    assert validate_document(result) == []


def test_other_lists_fold(d1, monkeypatch):
    calls = recorded_apply_edit(monkeypatch)
    single = [ReplaceSpan(8, 8, ("checked",))]
    left_first = [ReplaceSpan(1, 2, ("it",)), ReplaceSpan(7, 7, ("gets",))]
    touching = [ReplaceSpan(8, 8, ("checked",)), ReplaceSpan(7, 8, ("x",))]
    mixed = [ReplaceSpan(8, 8, ("checked",)), DeleteTokens(frozenset({0}))]
    for edits in (single, left_first, touching, mixed):
        calls.clear()
        apply_edits(d1, edits)
        assert calls == edits


def test_one_pass_range_error_names_the_length_the_fold_reached(d1):
    edits = [ReplaceSpan(9, 9, (".", "Then", "stop", ".")), ReplaceSpan(-1, 0, ("x",))]
    with pytest.raises(EditError, match=r"replace span \[-1,0\] out of range for 13 tokens"):
        apply_edits(d1, edits)


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


def random_edit_list(rng: Random, original: Document) -> list:
    edits = [random_edit(rng, original)]
    # grow the list step by step so indices stay in range of the folded doc
    for _ in range(rng.randint(0, 4)):
        doc_now, _ = apply_edits(original, edits)
        if doc_now.tokens:
            edits.append(random_edit(rng, doc_now))
    return edits


def test_random_edit_lists_preserve_validity():
    rng = Random(99)
    for i in range(120):
        original = random_fixture_document(f"v{i}", rng)
        edits = random_edit_list(rng, original)
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


# SHA-256 of repr((result, report)) over 300 seeded edit lists; any change
# to a remap, shrink or rejection rule changes it.
EDIT_ENGINE_DIGEST = "d6326c71c49dbd974ca0afdefcbce5b436bee94f2006c381e7b90a729132c37c"


def test_random_edit_lists_match_recorded_digest():
    rng = Random(2024)
    digest = hashlib.sha256()
    for i in range(300):
        original = random_fixture_document(f"g{i}", rng)
        digest.update(repr(apply_edits(original, random_edit_list(rng, original))).encode())
    assert digest.hexdigest() == EDIT_ENGINE_DIGEST


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
