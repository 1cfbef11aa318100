"""Primitive token-level edits over documents with exact span remapping.

Every augmentation technique is expressed through the six edits defined
here, so label safety is enforced in one place: an edit either produces a
document whose mentions and relations are exactly remapped, or it is
rejected and the document returned unchanged. Rejection, never corruption.

Remapping rule: each edit decides only the new tokens and two index
maps, start_of and end_of, that say where a mention's start and end go.
apply_edit moves every mention to [start_of(start), end_of(end)], and a
mention that comes out shorter than it went in has shrunk. The maps:

* InsertTokens of k tokens at position p maps i to i + k when i >= p, for
  both ends, so an insertion strictly inside a mention (start < p <= end)
  extends it and an insertion at either boundary does not. Inserted
  tokens join the sentence of the token at p, or the last sentence when
  p is the end of the document.
* DeleteTokens maps a start to its first surviving token and an end to
  its last, so deleting a strict subset of a mention's tokens shrinks it;
  an edit that would delete every token of some mention is rejected whole.
* ReplaceSpan [s, e] shifts indices after the span by the change in
  length; a mention covering the span keeps its start and covers the
  replacement (growing or shrinking). A replacement straddling a mention
  boundary, swallowing a mention it does not coincide with, or changing
  length across a sentence boundary is rejected.
* SwapTokens exchanges two token texts when both lie outside all mentions
  or both inside the same mention (no index moves); else it is rejected.
* PermuteSentences reorders whole sentences and renumbers them 0..n-1;
  within a sentence relative token order is preserved.
* MergeSentences joins sentence k+1 onto sentence k, deleting the
  sentence-final token of k when its text is in MERGE_PUNCTUATION and it
  lies outside all mentions (later indices shift left by one).

apply_edit returns a RemapReport naming the mentions the edit shrank and,
if it was rejected, why; apply_edits concatenates these in edit order.

apply_edits folds apply_edit over the list, except for the shape that
most techniques emit: two or more ReplaceSpans, disjoint and strictly
rightmost first (each end before the previous start). Such a list is
applied in one pass: each edit is checked against the original document,
the tokens are built once, and each mention moves once through the
composed maps. This equals the fold. Every earlier edit lies wholly to
the right of the one being checked, so the tokens up to its end are the
original ones, a mention start or end left of its end has not moved, and
one right of it is still right of it after the earlier edits. The range,
text, straddle, swallow and sentence verdicts compare only these, and the
range message names the length the fold would have reached. The one-pass
code is the only ReplaceSpan applier: apply_edit applies a lone
ReplaceSpan as a list of one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from itertools import pairwise
from typing import Sequence

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


class _Rejected(Exception):
    """Raised, with the reason, by an applier that cannot keep the labels."""


_IndexMap = Callable[[int], int]
# What an applier decides: the new tokens, and where a mention's start and
# its end go (both None when no mention moves).
_Applied = tuple[tuple[Token, ...], _IndexMap | None, _IndexMap | None]


def _check_texts(texts: Sequence[str]) -> tuple[str, ...]:
    for t in texts:
        if not is_token_text(t):
            raise EditError(f"token text {t!r} is empty or contains whitespace")
    return tuple(texts)


def sentence_spans(d: Document) -> list[tuple[int, int, int]]:
    """Distinct sentences in appearance order as (sentence value, start
    token index, end token index inclusive). Sentence values may be
    non-dense (e.g. after merges)."""
    spans: list[tuple[int, int, int]] = []
    for i, tok in enumerate(d.tokens):
        if spans and spans[-1][0] == tok.sentence:
            spans[-1] = (tok.sentence, spans[-1][1], i)
        else:
            spans.append((tok.sentence, i, i))
    return spans


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


def _insert(d: Document, e: InsertTokens) -> _Applied:
    n = len(d.tokens)
    if not 0 <= e.position <= n:
        raise EditError(f"insert position {e.position} out of range 0..{n}")
    texts = _check_texts(e.texts)
    p, k = e.position, len(texts)
    sentence = d.tokens[min(p, n - 1)].sentence if n else 0
    tokens = d.tokens[:p] + tuple(Token(t, sentence) for t in texts) + d.tokens[p:]

    def shift(i: int) -> int:
        return i + k if i >= p else i

    return tokens, shift, shift


def _delete(d: Document, e: DeleteTokens) -> _Applied:
    n = len(d.tokens)
    positions = set(e.positions)
    for p in positions:
        if not 0 <= p < n:
            raise EditError(f"delete position {p} out of range 0..{n - 1}")
    gone = sorted(positions)

    def first_survivor(i: int) -> int:
        return i - bisect_left(gone, i)

    def last_survivor(i: int) -> int:
        return i - bisect_right(gone, i)

    for m in d.mentions:
        if last_survivor(m.end) < first_survivor(m.start):
            raise _Rejected(f"would delete every token of mention {m.id}")
    tokens = tuple(t for i, t in enumerate(d.tokens) if i not in positions)
    return tokens, first_survivor, last_survivor


def _checked_replacement(d: Document, e: ReplaceSpan, n: int) -> tuple[tuple[Token, ...], int]:
    """The replacement tokens of e and the change in length, checked
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
        return tuple(Token(t, sentence) for t in texts), delta

    for m in d.mentions:
        straddles_left = m.start < e.start <= m.end < e.end
        straddles_right = e.start < m.start <= e.end < m.end
        if straddles_left or straddles_right:
            raise _Rejected(f"replacement straddles a boundary of mention {m.id}")
        swallowed = e.start <= m.start and m.end <= e.end and not (m.start <= e.start and e.end <= m.end)
        if swallowed:
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
    return new_tokens, delta


def _swap(d: Document, e: SwapTokens) -> _Applied:
    n = len(d.tokens)
    for p in (e.i, e.j):
        if not 0 <= p < n:
            raise EditError(f"swap position {p} out of range 0..{n - 1}")
    if mention_owner(d, e.i) is not mention_owner(d, e.j):
        raise _Rejected("tokens belong to different mention/non-mention regions")
    tokens = list(d.tokens)
    ti, tj = tokens[e.i], tokens[e.j]
    tokens[e.i] = Token(tj.text, ti.sentence)
    tokens[e.j] = Token(ti.text, tj.sentence)
    return tuple(tokens), None, None


def _permute(d: Document, e: PermuteSentences) -> _Applied:
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
    return tuple(tokens), index_of.__getitem__, index_of.__getitem__


def _merge(d: Document, e: MergeSentences) -> _Applied:
    spans = sentence_spans(d)
    if not 0 <= e.first < len(spans) - 1:
        raise EditError(
            f"sentence position {e.first} has no following sentence to merge"
        )
    first_value, _, first_end = spans[e.first]
    _, second_start, second_end = spans[e.first + 1]

    tokens = list(d.tokens)
    for i in range(second_start, second_end + 1):
        tokens[i] = Token(tokens[i].text, first_value)
    last = d.tokens[first_end]
    if last.text not in MERGE_PUNCTUATION or mention_owner(d, first_end) is not None:
        return tuple(tokens), None, None
    del tokens[first_end]  # a free token: nothing shrinks

    def shift(i: int) -> int:
        return i - 1 if i > first_end else i

    return tuple(tokens), shift, shift


_APPLIERS = {
    InsertTokens: _insert,
    DeleteTokens: _delete,
    SwapTokens: _swap,
    PermuteSentences: _permute,
    MergeSentences: _merge,
}


def apply_edit(d: Document, e: Edit) -> tuple[Document, RemapReport]:
    """Apply one edit. Out-of-range indices raise EditError; structurally
    impossible edits are recorded in the report and leave the document
    unchanged."""
    if type(e) is ReplaceSpan:
        return _replace_spans(d, (e,))
    try:
        applier = _APPLIERS[type(e)]
    except KeyError:
        raise EditError(f"unknown edit type {type(e).__name__}") from None
    try:
        tokens, start_of, end_of = applier(d, e)
    except _Rejected as rejected:
        return d, RemapReport(rejected=(RejectedEdit(e, rejected.args[0]),))
    if start_of is None:
        return Document(d.id, tokens, d.mentions, d.relations), RemapReport()
    mentions = []
    shrunk = []
    for m in d.mentions:
        start, end = start_of(m.start), end_of(m.end)
        if end - start < m.end - m.start:
            shrunk.append(m.id)
        moved = start != m.start or end != m.end
        mentions.append(Mention(m.id, m.type, start, end) if moved else m)
    return Document(d.id, tokens, tuple(mentions), d.relations), RemapReport(tuple(shrunk))


def _replace_spans(d: Document, edits: Sequence[ReplaceSpan]) -> tuple[Document, RemapReport]:
    """apply_edits in one pass for disjoint, rightmost-first ReplaceSpans,
    and apply_edit for a lone one (see the module docstring)."""
    n, applied, rejected = len(d.tokens), [], []
    for e in edits:
        try:
            new_tokens, delta = _checked_replacement(d, e, n)
        except _Rejected as r:
            rejected.append(RejectedEdit(e, r.args[0]))
            continue
        applied.append((e, new_tokens, delta))
        n += delta
    # starts: the applied spans' starts, ascending; shift[k]: the change in
    # length made by the k leftmost of them
    tokens, pos, starts, shift = [], 0, [], [0]
    for e, new_tokens, delta in reversed(applied):
        tokens += d.tokens[pos : e.start] + new_tokens
        pos = e.end + 1
        starts.append(e.start)
        shift.append(shift[-1] + delta)
    tokens += d.tokens[pos:]
    # only a mention covering a span changes length, by that edit's delta
    shrunk = [
        m.id
        for e, _, delta in applied
        if delta < 0
        for m in d.mentions
        if m.start <= e.start and e.end <= m.end
    ]
    mentions = d.mentions  # kept when every edit keeps its length: no mention moves
    if any(shift):
        remapped = []
        for m in mentions:
            start = m.start + shift[bisect_left(starts, m.start)]
            end = m.end + shift[bisect_right(starts, m.end)]
            moved = start != m.start or end != m.end
            remapped.append(Mention(m.id, m.type, start, end) if moved else m)
        mentions = tuple(remapped)
    document = Document(d.id, tuple(tokens), mentions, d.relations)
    return document, RemapReport(tuple(shrunk), tuple(rejected))


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
