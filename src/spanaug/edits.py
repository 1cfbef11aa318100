"""Primitive token-level edits over documents with exact span remapping.

Every augmentation technique is expressed through the six edits defined
here, so label safety is enforced in one place: an edit either produces a
document whose mentions and relations are exactly remapped, or it is
rejected and the document returned unchanged. Rejection, never corruption.

Remapping rules:

* InsertTokens at position p shifts spans at >= p right; an insertion
  strictly inside a mention (start < p <= end) extends that mention, an
  insertion at either boundary does not.
* DeleteTokens shifts later spans left. Deleting a strict subset of a
  mention's tokens shrinks it; an edit that would delete every token of
  some mention is rejected whole.
* ReplaceSpan acts as delete-then-insert at the same position. A replaced
  span contained in one mention keeps that mention covering the
  replacement (the span may grow or shrink); a replacement straddling a
  mention boundary, or swallowing a mention it does not coincide with,
  is rejected.
* SwapTokens exchanges two token texts when both lie outside all mentions
  or both inside the same mention; anything else is rejected.
* PermuteSentences reorders whole sentences and renumbers them 0..n-1;
  within a sentence relative token order is preserved.
* MergeSentences joins sentence k+1 onto sentence k, deleting the
  sentence-final token of k when its text is in the punctuation set and it
  lies outside all mentions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .corpus import Document, Mention, Token

MERGE_PUNCTUATION = frozenset({".", "!", "?", ";"})

# Sentence index of inserted tokens: "right" adopts the sentence of the
# token at the insertion position, "left" the one before it. Either policy
# falls back to the other at a document edge.
SENTENCE_POLICIES = ("right", "left")


class EditError(ValueError):
    """Edit with out-of-range indices or malformed fields (caller bug)."""


@dataclass(frozen=True)
class InsertTokens:
    position: int
    texts: tuple[str, ...]
    sentence_policy: str = "right"


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
    punctuation: frozenset[str] = MERGE_PUNCTUATION


Edit = InsertTokens | DeleteTokens | ReplaceSpan | SwapTokens | PermuteSentences | MergeSentences


@dataclass(frozen=True)
class RejectedEdit:
    edit: Edit
    reason: str


@dataclass(frozen=True)
class RemapReport:
    """Old token index -> new token index for surviving tokens, plus which
    mentions shrank and which edits were rejected."""

    index_map: dict[int, int]
    mentions_shrunk: tuple[str, ...] = ()
    rejected: tuple[RejectedEdit, ...] = ()


def _identity_report(d: Document, rejected: tuple[RejectedEdit, ...] = ()) -> RemapReport:
    return RemapReport({i: i for i in range(len(d.tokens))}, (), rejected)


def _check_texts(texts: Sequence[str]) -> tuple[str, ...]:
    for t in texts:
        if not t or any(c.isspace() for c in t):
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


def _insert(d: Document, e: InsertTokens) -> tuple[Document, RemapReport]:
    n = len(d.tokens)
    if not 0 <= e.position <= n:
        raise EditError(f"insert position {e.position} out of range 0..{n}")
    if e.sentence_policy not in SENTENCE_POLICIES:
        raise EditError(f"unknown sentence_policy {e.sentence_policy!r}")
    texts = _check_texts(e.texts)
    if not texts:
        return d, _identity_report(d)
    k = len(texts)
    p = e.position

    if n == 0:
        sentence = 0
    elif e.sentence_policy == "right":
        sentence = d.tokens[p].sentence if p < n else d.tokens[n - 1].sentence
    else:
        sentence = d.tokens[p - 1].sentence if p > 0 else d.tokens[0].sentence

    tokens = d.tokens[:p] + tuple(Token(t, sentence) for t in texts) + d.tokens[p:]
    mentions = []
    for m in d.mentions:
        if p <= m.start:
            mentions.append(replace(m, start=m.start + k, end=m.end + k))
        elif p <= m.end:  # strictly inside: start < p <= end
            mentions.append(replace(m, end=m.end + k))
        else:
            mentions.append(m)
    index_map = {i: (i if i < p else i + k) for i in range(n)}
    return Document(d.id, tokens, tuple(mentions), d.relations), RemapReport(index_map)


def _delete(d: Document, e: DeleteTokens) -> tuple[Document, RemapReport]:
    n = len(d.tokens)
    positions = set(e.positions)
    for p in positions:
        if not 0 <= p < n:
            raise EditError(f"delete position {p} out of range 0..{n - 1}")
    if not positions:
        return d, _identity_report(d)

    for m in d.mentions:
        span = set(range(m.start, m.end + 1))
        if span <= positions:
            rej = RejectedEdit(e, f"would delete every token of mention {m.id}")
            return d, _identity_report(d, (rej,))

    index_map: dict[int, int] = {}
    new = 0
    for i in range(n):
        if i not in positions:
            index_map[i] = new
            new += 1
    tokens = tuple(t for i, t in enumerate(d.tokens) if i not in positions)
    mentions = []
    shrunk = []
    for m in d.mentions:
        survivors = [i for i in range(m.start, m.end + 1) if i not in positions]
        if len(survivors) < m.length:
            shrunk.append(m.id)
        mentions.append(replace(m, start=index_map[survivors[0]], end=index_map[survivors[-1]]))
    doc = Document(d.id, tokens, tuple(mentions), d.relations)
    return doc, RemapReport(index_map, tuple(shrunk))


def _replace_span(d: Document, e: ReplaceSpan) -> tuple[Document, RemapReport]:
    n = len(d.tokens)
    if not (0 <= e.start <= e.end < n):
        raise EditError(f"replace span [{e.start},{e.end}] out of range for {n} tokens")
    texts = _check_texts(e.texts)
    if not texts:
        raise EditError("replacement texts must be non-empty")
    old_len = e.end - e.start + 1
    delta = len(texts) - old_len

    for m in d.mentions:
        straddles_left = m.start < e.start <= m.end < e.end
        straddles_right = e.start < m.start <= e.end < m.end
        if straddles_left or straddles_right:
            rej = RejectedEdit(e, f"replacement straddles a boundary of mention {m.id}")
            return d, _identity_report(d, (rej,))
        swallowed = e.start <= m.start and m.end <= e.end and not (m.start <= e.start and e.end <= m.end)
        if swallowed:
            rej = RejectedEdit(e, f"replacement would swallow mention {m.id}")
            return d, _identity_report(d, (rej,))

    sentences = {t.sentence for t in d.tokens[e.start : e.end + 1]}
    if len(sentences) == 1:
        sentence = sentences.pop()
        new_tokens = tuple(Token(t, sentence) for t in texts)
    elif delta == 0:
        new_tokens = tuple(
            Token(t, d.tokens[e.start + i].sentence) for i, t in enumerate(texts)
        )
    else:
        rej = RejectedEdit(e, "length-changing replacement across a sentence boundary")
        return d, _identity_report(d, (rej,))

    tokens = d.tokens[: e.start] + new_tokens + d.tokens[e.end + 1 :]
    mentions = []
    shrunk = []
    for m in d.mentions:
        if m.end < e.start:
            mentions.append(m)
        elif m.start <= e.start and e.end <= m.end:  # mention covers the replacement
            if delta < 0:
                shrunk.append(m.id)
            mentions.append(replace(m, end=m.end + delta))
        else:  # entirely after the replaced span
            mentions.append(replace(m, start=m.start + delta, end=m.end + delta))
    # Replaced tokens disappear from the map; the replacement has no old index.
    index_map = {i: i for i in range(e.start)}
    index_map.update({i: i + delta for i in range(e.end + 1, n)})
    doc = Document(d.id, tokens, tuple(mentions), d.relations)
    return doc, RemapReport(index_map, tuple(shrunk))


def _swap(d: Document, e: SwapTokens) -> tuple[Document, RemapReport]:
    n = len(d.tokens)
    for p in (e.i, e.j):
        if not 0 <= p < n:
            raise EditError(f"swap position {p} out of range 0..{n - 1}")
    if e.i == e.j:
        return d, _identity_report(d)
    mi, mj = mention_owner(d, e.i), mention_owner(d, e.j)
    if mi is not mj:
        rej = RejectedEdit(e, "tokens belong to different mention/non-mention regions")
        return d, _identity_report(d, (rej,))
    tokens = list(d.tokens)
    ti, tj = tokens[e.i], tokens[e.j]
    tokens[e.i] = Token(tj.text, ti.sentence)
    tokens[e.j] = Token(ti.text, tj.sentence)
    return Document(d.id, tuple(tokens), d.mentions, d.relations), _identity_report(d)


def _permute(d: Document, e: PermuteSentences) -> tuple[Document, RemapReport]:
    spans = sentence_spans(d)
    if sorted(e.order) != list(range(len(spans))):
        raise EditError(
            f"order {e.order} is not a permutation of {len(spans)} sentence positions"
        )
    tokens: list[Token] = []
    index_map: dict[int, int] = {}
    for new_pos, old_pos in enumerate(e.order):
        _, s, t = spans[old_pos]
        for old_index in range(s, t + 1):
            index_map[old_index] = len(tokens)
            tokens.append(Token(d.tokens[old_index].text, new_pos))
    mentions = tuple(
        replace(m, start=index_map[m.start], end=index_map[m.end]) for m in d.mentions
    )
    doc = Document(d.id, tuple(tokens), mentions, d.relations)
    return doc, RemapReport(index_map)


def _merge(d: Document, e: MergeSentences) -> tuple[Document, RemapReport]:
    spans = sentence_spans(d)
    if not 0 <= e.first < len(spans) - 1:
        raise EditError(
            f"sentence position {e.first} has no following sentence to merge"
        )
    first_value, _, first_end = spans[e.first]
    second_value, second_start, second_end = spans[e.first + 1]

    doc = d
    report = _identity_report(d)
    last = d.tokens[first_end]
    if last.text in e.punctuation and mention_owner(d, first_end) is None:
        doc, report = _delete(d, DeleteTokens(frozenset({first_end})))
        second_start -= 1
        second_end -= 1

    tokens = list(doc.tokens)
    for i in range(second_start, second_end + 1):
        tokens[i] = Token(tokens[i].text, first_value)
    doc = Document(doc.id, tuple(tokens), doc.mentions, doc.relations)
    return doc, report


_APPLIERS = {
    InsertTokens: _insert,
    DeleteTokens: _delete,
    ReplaceSpan: _replace_span,
    SwapTokens: _swap,
    PermuteSentences: _permute,
    MergeSentences: _merge,
}


def apply_edit(d: Document, e: Edit) -> tuple[Document, RemapReport]:
    """Apply one edit. Out-of-range indices raise EditError; structurally
    impossible edits are recorded in the report and leave the document
    unchanged."""
    try:
        applier = _APPLIERS[type(e)]
    except KeyError:
        raise EditError(f"unknown edit type {type(e).__name__}") from None
    return applier(d, e)


def _compose(first: RemapReport, second: RemapReport) -> RemapReport:
    index_map = {
        old: second.index_map[mid]
        for old, mid in first.index_map.items()
        if mid in second.index_map
    }
    return RemapReport(
        index_map,
        first.mentions_shrunk + second.mentions_shrunk,
        first.rejected + second.rejected,
    )


def apply_edits(d: Document, edits: Sequence[Edit]) -> tuple[Document, RemapReport]:
    """Fold apply_edit left to right; each edit's indices address the
    document produced by the previous one. Rejected edits are skipped."""
    report = _identity_report(d)
    doc = d
    for e in edits:
        doc, step = apply_edit(doc, e)
        report = _compose(report, step)
    return doc, report
