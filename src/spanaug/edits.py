"""Primitive token-level edits over documents with exact span remapping.

Every augmentation technique is expressed through the six edits defined
here, so label safety is enforced in one place: an edit either produces a
document whose mentions and relations are exactly remapped, or it is
rejected and the document returned unchanged. Rejection, never corruption.

Remapping rule: every edit but PermuteSentences is checked, then applied
as splices. A splice replaces the token range [s, t] with new tokens; t =
s - 1 is an empty range, an insertion before s. One rule moves a mention
through an edit's splices, which are disjoint and ascending: its start
moves by the change in length of the splices that end before it, its end
by that of the splices that start at or before it. So:

* InsertTokens at p is the splice [p, p - 1]: an insertion strictly
  inside a mention (start < p <= end) extends it, one at either boundary
  does not. Inserted tokens join the sentence of the token at p, or the
  last sentence when p is the end of the document.
* DeleteTokens splices each position to no tokens, so deleting a strict
  subset of a mention's tokens shrinks it; an edit that would delete
  every token of some mention is rejected whole.
* ReplaceSpan [s, e] is the splice [s, e]: a mention covering the span
  keeps its start and covers the replacement (growing or shrinking). A
  replacement straddling a mention boundary, swallowing a mention it does
  not coincide with, or changing length across a sentence boundary is
  rejected.
* SwapTokens exchanges two token texts when both lie outside all mentions
  or both inside the same mention; else it is rejected.
* MergeSentences relabels sentence k+1 as k, and deletes the
  sentence-final token of k when its text is in MERGE_PUNCTUATION and it
  lies outside all mentions.
* PermuteSentences reorders whole sentences and renumbers them 0..n-1,
  moving mentions through its own index table.

An edit keeps each mention whose ends do not move. apply_edit returns a
RemapReport naming the mentions the edit shrank and, if it was rejected,
why; apply_edits concatenates these in edit order.

apply_edits folds apply_edit over the list, except for the shape that
most techniques emit: two or more ReplaceSpans, disjoint and strictly
rightmost first (each end before the previous start). Such a list is
applied in one pass: each edit is checked against the original document,
and the splices of all of them are applied at once. This equals the fold.
Every earlier edit lies wholly to the right of the one being checked, so
the tokens up to its end are the original ones, a mention start or end
left of its end has not moved, and one right of it is still right of it
after the earlier edits. The range, text, straddle, swallow and sentence
verdicts compare only these, and the range message names the length the
fold would have reached. apply_edit applies a lone ReplaceSpan as a list
of one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import pairwise

from .corpus import Document, Mention, Token, is_token_text

MERGE_PUNCTUATION = frozenset({".", "!", "?", ";"})


class EditError(ValueError):
    """Edit with out-of-range indices or malformed fields (caller bug)."""


@dataclass(frozen=True)
class InsertTokens:
    position: int
    texts: tuple[str, ...]


@dataclass(frozen=True)
class DeleteTokens:
    positions: frozenset[int]


@dataclass(frozen=True)
class ReplaceSpan:
    start: int
    end: int  # inclusive
    texts: tuple[str, ...]


@dataclass(frozen=True)
class SwapTokens:
    i: int
    j: int


@dataclass(frozen=True)
class PermuteSentences:
    # order[k] = position (among the document's distinct sentences, in
    # appearance order) of the sentence placed k-th in the output.
    order: tuple[int, ...]


@dataclass(frozen=True)
class MergeSentences:
    # Position of the first sentence of the merged pair, counted over the
    # document's distinct sentences in appearance order.
    first: int


Edit = InsertTokens | DeleteTokens | ReplaceSpan | SwapTokens | PermuteSentences | MergeSentences


@dataclass(frozen=True)
class RejectedEdit:
    edit: Edit
    reason: str


@dataclass(frozen=True)
class RemapReport:
    """Ids of the mentions that lost tokens, and the edits rejected with
    their reasons, in edit order. An edit that is applied whole and shrinks
    nothing reports neither."""

    mentions_shrunk: tuple[str, ...] = ()
    rejected: tuple[RejectedEdit, ...] = ()


# The report of an edit that is applied whole and shrinks nothing; shared,
# as a RemapReport is immutable.
_CLEAN = RemapReport()


class _Rejected(Exception):
    """Raised, with the reason, by a check that cannot keep the labels."""


_Splice = tuple[int, int, Sequence[Token]]  # [s, t] and its new tokens
# a check's splices, and the ids of the mentions they shrink
_Spliced = tuple[list[_Splice], tuple[str, ...]]


def _check_texts(texts: Sequence[str]) -> tuple[str, ...]:
    for t in texts:
        if not is_token_text(t):
            raise EditError(f"token text {t!r} is empty or contains whitespace")
    return tuple(texts)


def sentence_spans(d: Document) -> list[tuple[int, int, int]]:
    """Distinct sentences in appearance order as (sentence value, start
    token index, end token index inclusive). Sentence values may be
    non-dense (e.g. after merges)."""
    sentences = [t.sentence for t in d.tokens]
    n = len(sentences)
    bounds = [0, *(i for i in range(1, n) if sentences[i] != sentences[i - 1]), n]
    return [(sentences[s], s, e - 1) for s, e in pairwise(bounds)] if n else []


def free_spans(d: Document) -> list[tuple[int, int]]:
    """Maximal inclusive token ranges covered by no mention. Together with
    the mention spans these partition [0, len(tokens))."""
    covered = sorted((m.start, m.end) for m in d.mentions)
    out: list[tuple[int, int]] = []
    pos = 0
    for s, e in covered:
        if pos < s:
            out.append((pos, s - 1))
        pos = e + 1
    if pos < len(d.tokens):
        out.append((pos, len(d.tokens) - 1))
    return out


def mention_owner(d: Document, index: int) -> Mention | None:
    for m in d.mentions:
        if m.start <= index <= m.end:
            return m
    return None


def _splice(d: Document, splices: Sequence[_Splice]) -> Document:
    """d with the splices, disjoint and ascending, applied, and every
    mention moved by the rule in the module docstring."""
    # starts, ends: those of the splices that change length, which alone
    # move mentions; shift[k]: the change made by the k leftmost of them
    tokens, starts, ends, shift = list(d.tokens), [], [], [0]
    for s, t, new in splices:
        offset = shift[-1]
        tokens[s + offset : t + 1 + offset] = new
        if len(new) != t + 1 - s:
            starts.append(s)
            ends.append(t)
            shift.append(offset + len(new) - (t + 1 - s))
    mentions = d.mentions
    if starts:
        remapped = []
        for m in mentions:
            start = m.start + shift[bisect_left(ends, m.start)]
            end = m.end + shift[bisect_right(starts, m.end)]
            moved = start != m.start or end != m.end
            remapped.append(Mention(m.id, m.type, start, end) if moved else m)
        mentions = tuple(remapped)
    return Document(d.id, tuple(tokens), mentions, d.relations)


def _insert(d: Document, e: InsertTokens) -> _Spliced:
    n = len(d.tokens)
    if not 0 <= e.position <= n:
        raise EditError(f"insert position {e.position} out of range 0..{n}")
    texts = _check_texts(e.texts)
    p = e.position
    sentence = d.tokens[min(p, n - 1)].sentence if n else 0
    return [(p, p - 1, tuple(Token(t, sentence) for t in texts))], ()


def _delete(d: Document, e: DeleteTokens) -> _Spliced:
    n = len(d.tokens)
    for p in set(e.positions):
        if not 0 <= p < n:
            raise EditError(f"delete position {p} out of range 0..{n - 1}")
    gone = sorted(e.positions)
    shrunk = []
    for m in d.mentions:
        lost = bisect_right(gone, m.end) - bisect_left(gone, m.start)
        if lost > m.end - m.start:
            raise _Rejected(f"would delete every token of mention {m.id}")
        if lost:
            shrunk.append(m.id)
    return [(p, p, ()) for p in gone], tuple(shrunk)


def _checked_replacement(d: Document, e: ReplaceSpan, n: int) -> tuple[_Splice, tuple[str, ...]]:
    """The splice of e and the ids of the mentions it shrinks, checked
    against d's tokens up to e.end and d's mentions; n is the length of
    the document e applies to."""
    if not (0 <= e.start <= e.end < n):
        raise EditError(f"replace span [{e.start},{e.end}] out of range for {n} tokens")
    texts = _check_texts(e.texts)
    if not texts:
        raise EditError("replacement texts must be non-empty")
    delta = len(texts) - (e.end - e.start + 1)
    if e.start == e.end:  # one token can neither straddle nor swallow a mention
        sentence = d.tokens[e.start].sentence
        return (e.start, e.end, tuple(Token(t, sentence) for t in texts)), ()

    shrunk = []
    for m in d.mentions:
        straddles_left = m.start < e.start <= m.end < e.end
        straddles_right = e.start < m.start <= e.end < m.end
        if straddles_left or straddles_right:
            raise _Rejected(f"replacement straddles a boundary of mention {m.id}")
        if m.start <= e.start and e.end <= m.end:
            if delta < 0:
                shrunk.append(m.id)
        elif e.start <= m.start and m.end <= e.end:
            raise _Rejected(f"replacement would swallow mention {m.id}")

    sentences = {t.sentence for t in d.tokens[e.start : e.end + 1]}
    if len(sentences) == 1:
        sentence = sentences.pop()
        new_tokens = tuple(Token(t, sentence) for t in texts)
    elif delta == 0:
        new_tokens = tuple(
            Token(t, d.tokens[e.start + i].sentence) for i, t in enumerate(texts)
        )
    else:
        raise _Rejected("length-changing replacement across a sentence boundary")
    return (e.start, e.end, new_tokens), tuple(shrunk)


def _swap(d: Document, e: SwapTokens) -> _Spliced:
    n, i, j = len(d.tokens), e.i, e.j
    for p in (i, j):
        if not 0 <= p < n:
            raise EditError(f"swap position {p} out of range 0..{n - 1}")
    if i > j:
        i, j = j, i
    for m in d.mentions:  # the first mention holding either must hold both
        if m.end < i or j < m.start or (i < m.start and m.end < j):
            continue  # it holds neither
        if not (m.start <= i and j <= m.end):
            raise _Rejected("tokens belong to different mention/non-mention regions")
        break
    if i == j:
        return [], ()
    ti, tj = d.tokens[i], d.tokens[j]
    if ti.sentence != tj.sentence:
        ti, tj = Token(ti.text, tj.sentence), Token(tj.text, ti.sentence)
    return [(i, j, (tj, *d.tokens[i + 1 : j], ti))], ()


def _permute(d: Document, e: PermuteSentences) -> tuple[Document, RemapReport]:
    spans = sentence_spans(d)
    if sorted(e.order) != list(range(len(spans))):
        raise EditError(
            f"order {e.order} is not a permutation of {len(spans)} sentence positions"
        )
    tokens: list[Token] = []
    index_of = [0] * len(d.tokens)
    for new_pos, old_pos in enumerate(e.order):
        _, s, t = spans[old_pos]
        for old_index in range(s, t + 1):
            index_of[old_index] = len(tokens)
            tokens.append(Token(d.tokens[old_index].text, new_pos))
    mentions = []
    for m in d.mentions:  # each inside one sentence, so none shrinks
        start, end = index_of[m.start], index_of[m.end]
        moved = start != m.start or end != m.end
        mentions.append(Mention(m.id, m.type, start, end) if moved else m)
    return Document(d.id, tuple(tokens), tuple(mentions), d.relations), _CLEAN


def _merge(d: Document, e: MergeSentences) -> _Spliced:
    spans = sentence_spans(d)
    if not 0 <= e.first < len(spans) - 1:
        raise EditError(
            f"sentence position {e.first} has no following sentence to merge"
        )
    first_value, _, first_end = spans[e.first]
    _, second_start, second_end = spans[e.first + 1]
    second = [Token(t.text, first_value) for t in d.tokens[second_start : second_end + 1]]
    splices = [(second_start, second_end, second)]
    if d.tokens[first_end].text in MERGE_PUNCTUATION and mention_owner(d, first_end) is None:
        splices.insert(0, (first_end, first_end, ()))  # a free token: nothing shrinks
    return splices, ()


_CHECKS = {
    InsertTokens: _insert,
    DeleteTokens: _delete,
    SwapTokens: _swap,
    MergeSentences: _merge,
}


def apply_edit(d: Document, e: Edit) -> tuple[Document, RemapReport]:
    """Apply one edit. Out-of-range indices raise EditError; structurally
    impossible edits are recorded in the report and leave the document
    unchanged."""
    kind = type(e)
    if kind is ReplaceSpan:
        return _replace_spans(d, (e,))
    if kind is PermuteSentences:
        return _permute(d, e)
    try:
        check = _CHECKS[kind]
    except KeyError:
        raise EditError(f"unknown edit type {kind.__name__}") from None
    try:
        splices, shrunk = check(d, e)
    except _Rejected as rejected:
        return d, RemapReport(rejected=(RejectedEdit(e, rejected.args[0]),))
    return _splice(d, splices), RemapReport(shrunk) if shrunk else _CLEAN


def _replace_spans(d: Document, edits: Sequence[ReplaceSpan]) -> tuple[Document, RemapReport]:
    """apply_edits in one pass for disjoint, rightmost-first ReplaceSpans,
    and apply_edit for a lone one (see the module docstring)."""
    n, splices, shrunk, rejected = len(d.tokens), [], (), []
    for e in edits:
        try:
            splice, lost = _checked_replacement(d, e, n)
        except _Rejected as r:
            rejected.append(RejectedEdit(e, r.args[0]))
            continue
        splices.append(splice)
        shrunk += lost
        n += len(splice[2]) - (e.end - e.start + 1)
    splices.reverse()
    report = RemapReport(shrunk, tuple(rejected)) if shrunk or rejected else _CLEAN
    return _splice(d, splices), report


def apply_edits(d: Document, edits: Sequence[Edit]) -> tuple[Document, RemapReport]:
    """Fold apply_edit left to right; each edit's indices address the
    document produced by the previous one. Rejected edits are skipped.
    Disjoint, rightmost-first ReplaceSpan lists take one pass instead,
    with the same result."""
    if (
        len(edits) > 1
        and all(type(e) is ReplaceSpan for e in edits)
        and all(b.end < a.start for a, b in pairwise(edits))
    ):
        return _replace_spans(d, edits)
    shrunk: tuple[str, ...] = ()
    rejected: tuple[RejectedEdit, ...] = ()
    doc = d
    for e in edits:
        doc, step = apply_edit(doc, e)
        shrunk += step.mentions_shrunk
        rejected += step.rejected
    return doc, RemapReport(shrunk, rejected)
