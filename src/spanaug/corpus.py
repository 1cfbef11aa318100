"""Annotated-corpus data model: tokenized documents with typed mention spans
and typed directed relations between mentions, plus a canonical JSON
serialization and an invariant checker.

All types are immutable values; augmenters and evaluators share them
freely. Token indices are the only addressing scheme: mentions carry
inclusive [start, end] token spans and never BIO tags (BIO is an internal
encoding of the baseline tagger only).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

DEFAULT_MENTION_TYPES = (
    "Actor",
    "Activity",
    "Activity Data",
    "Further Specification",
    "XOR Gateway",
    "AND Gateway",
    "Condition Specification",
)

DEFAULT_RELATION_TYPES = (
    "Flow",
    "Uses",
    "Actor Performer",
    "Actor Recipient",
    "Further Specification",
    "Same Gateway",
)


class CorpusParseError(ValueError):
    """Malformed corpus file: bad JSON or a field of the wrong shape/type."""


class CorpusValidationError(ValueError):
    """Structurally well-formed corpus violating a data-model invariant."""

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class Violation:
    """One broken invariant: the rule name and the offending element."""

    rule: str
    element: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule} ({self.element}): {self.message}"


@dataclass(frozen=True)
class Token:
    text: str
    sentence: int


@dataclass(frozen=True)
class Mention:
    id: str
    type: str
    start: int  # inclusive token index
    end: int  # inclusive token index

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class Relation:
    id: str
    type: str
    head: str  # mention id
    tail: str  # mention id


@dataclass(frozen=True)
class Document:
    id: str
    tokens: tuple[Token, ...]
    mentions: tuple[Mention, ...] = ()
    relations: tuple[Relation, ...] = ()

    def mention_by_id(self, mention_id: str) -> Mention:
        for m in self.mentions:
            if m.id == mention_id:
                return m
        raise KeyError(mention_id)

    def mention_texts(self, m: Mention) -> tuple[str, ...]:
        return tuple(t.text for t in self.tokens[m.start : m.end + 1])


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    mention_types: tuple[str, ...] = DEFAULT_MENTION_TYPES
    relation_types: tuple[str, ...] = DEFAULT_RELATION_TYPES


def make_document(
    doc_id: str,
    tokens: Iterable[Token | tuple[str, int]],
    mentions: Iterable[Mention] = (),
    relations: Iterable[Relation] = (),
) -> Document:
    """Build a Document, accepting (text, sentence) tuples for tokens."""
    toks = tuple(t if isinstance(t, Token) else Token(t[0], t[1]) for t in tokens)
    return Document(doc_id, toks, tuple(mentions), tuple(relations))


def validate_document(d: Document) -> list[Violation]:
    """Check every document-level invariant; empty list means valid.

    Pure and total: violations are returned, never raised. Rules checked:
    token text shape, sentence ordering, span ranges and sentence
    containment, mention disjointness, id uniqueness, relation endpoints.
    """
    out: list[Violation] = []
    n = len(d.tokens)

    prev_sentence = None
    for i, tok in enumerate(d.tokens):
        where = f"{d.id}.tokens[{i}]"
        if not tok.text:
            out.append(Violation("empty-token", where, "token text is empty"))
        elif any(c.isspace() for c in tok.text):
            out.append(
                Violation("token-whitespace", where, f"token {tok.text!r} contains whitespace")
            )
        if tok.sentence < 0:
            out.append(
                Violation("sentence-negative", where, f"sentence index {tok.sentence} < 0")
            )
        if prev_sentence is not None and tok.sentence < prev_sentence:
            out.append(
                Violation(
                    "sentence-order",
                    where,
                    f"sentence index {tok.sentence} after {prev_sentence}",
                )
            )
        prev_sentence = tok.sentence

    seen_mention_ids: set[str] = set()
    for m in d.mentions:
        if m.id in seen_mention_ids:
            out.append(Violation("duplicate-mention-id", m.id, "mention id reused"))
        seen_mention_ids.add(m.id)
        if m.start > m.end:
            out.append(
                Violation("span-inverted", m.id, f"start {m.start} > end {m.end}")
            )
            continue
        if m.start < 0 or m.end >= n:
            out.append(
                Violation(
                    "span-out-of-range",
                    m.id,
                    f"span [{m.start},{m.end}] outside document of {n} tokens",
                )
            )
            continue
        if d.tokens[m.start].sentence != d.tokens[m.end].sentence:
            out.append(
                Violation(
                    "span-cross-sentence",
                    m.id,
                    f"span [{m.start},{m.end}] crosses a sentence boundary",
                )
            )

    in_range = [m for m in d.mentions if 0 <= m.start <= m.end < n]
    by_start = sorted(in_range, key=lambda m: (m.start, m.end))
    for a, b in zip(by_start, by_start[1:]):
        if b.start <= a.end:
            out.append(
                Violation(
                    "mention-overlap",
                    f"{a.id}/{b.id}",
                    f"[{a.start},{a.end}] overlaps [{b.start},{b.end}]",
                )
            )

    seen_relation_ids: set[str] = set()
    for r in d.relations:
        if r.id in seen_relation_ids:
            out.append(Violation("duplicate-relation-id", r.id, "relation id reused"))
        seen_relation_ids.add(r.id)
        for endpoint in (r.head, r.tail):
            if endpoint not in seen_mention_ids:
                out.append(
                    Violation(
                        "dangling-endpoint",
                        r.id,
                        f"endpoint {endpoint!r} is not a mention of {d.id}",
                    )
                )
        if r.head == r.tail:
            out.append(Violation("self-relation", r.id, "head and tail are the same mention"))

    return out


def validate_corpus(c: Corpus) -> list[Violation]:
    """Corpus-wide validation: per-document invariants plus id uniqueness
    and tag-inventory membership."""
    out: list[Violation] = []
    seen_ids: set[str] = set()
    mention_types = set(c.mention_types)
    relation_types = set(c.relation_types)
    for d in c.documents:
        if d.id in seen_ids:
            out.append(Violation("duplicate-document-id", d.id, "document id reused"))
        seen_ids.add(d.id)
        out.extend(validate_document(d))
        for m in d.mentions:
            if m.type not in mention_types:
                out.append(
                    Violation(
                        "unknown-mention-type",
                        f"{d.id}/{m.id}",
                        f"type {m.type!r} not in the mention_types inventory",
                    )
                )
        for r in d.relations:
            if r.type not in relation_types:
                out.append(
                    Violation(
                        "unknown-relation-type",
                        f"{d.id}/{r.id}",
                        f"type {r.type!r} not in the relation_types inventory",
                    )
                )
    return out


def _expect(value, kind, path: str):
    if kind is int and isinstance(value, bool):  # bool is an int subclass
        raise CorpusParseError(f"{path}: expected {kind.__name__}, got bool")
    if not isinstance(value, kind):
        raise CorpusParseError(
            f"{path}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _parse_document(obj, path: str) -> Document:
    _expect(obj, dict, path)
    try:
        doc_id = _expect(obj["id"], str, f"{path}.id")
        tokens = []
        for i, t in enumerate(_expect(obj["tokens"], list, f"{path}.tokens")):
            _expect(t, dict, f"{path}.tokens[{i}]")
            tokens.append(
                Token(
                    _expect(t["text"], str, f"{path}.tokens[{i}].text"),
                    _expect(t["sentence"], int, f"{path}.tokens[{i}].sentence"),
                )
            )
        mentions = []
        for i, m in enumerate(_expect(obj["mentions"], list, f"{path}.mentions")):
            _expect(m, dict, f"{path}.mentions[{i}]")
            mentions.append(
                Mention(
                    _expect(m["id"], str, f"{path}.mentions[{i}].id"),
                    _expect(m["type"], str, f"{path}.mentions[{i}].type"),
                    _expect(m["start"], int, f"{path}.mentions[{i}].start"),
                    _expect(m["end"], int, f"{path}.mentions[{i}].end"),
                )
            )
        relations = []
        for i, r in enumerate(_expect(obj["relations"], list, f"{path}.relations")):
            _expect(r, dict, f"{path}.relations[{i}]")
            relations.append(
                Relation(
                    _expect(r["id"], str, f"{path}.relations[{i}].id"),
                    _expect(r["type"], str, f"{path}.relations[{i}].type"),
                    _expect(r["head"], str, f"{path}.relations[{i}].head"),
                    _expect(r["tail"], str, f"{path}.relations[{i}].tail"),
                )
            )
    except KeyError as e:
        raise CorpusParseError(f"{path}: missing field {e.args[0]!r}") from None
    return Document(doc_id, tuple(tokens), tuple(mentions), tuple(relations))


def parse_corpus(raw: bytes | str) -> Corpus:
    """Parse and validate the corpus file format.

    Raises CorpusParseError with line/position info on malformed syntax and
    CorpusValidationError naming the document and rule on invariant failure.
    """
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as e:
        raise CorpusParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    _expect(obj, dict, "$")
    try:
        mention_types = tuple(
            _expect(t, str, f"$.mention_types[{i}]")
            for i, t in enumerate(_expect(obj["mention_types"], list, "$.mention_types"))
        )
        relation_types = tuple(
            _expect(t, str, f"$.relation_types[{i}]")
            for i, t in enumerate(_expect(obj["relation_types"], list, "$.relation_types"))
        )
        documents = tuple(
            _parse_document(docobj, f"$.documents[{i}]")
            for i, docobj in enumerate(_expect(obj["documents"], list, "$.documents"))
        )
    except KeyError as e:
        raise CorpusParseError(f"$: missing field {e.args[0]!r}") from None
    corpus = Corpus(documents, mention_types, relation_types)
    violations = validate_corpus(corpus)
    if violations:
        raise CorpusValidationError(violations)
    return corpus


def corpus_to_obj(c: Corpus) -> dict:
    return {
        "mention_types": list(c.mention_types),
        "relation_types": list(c.relation_types),
        "documents": [
            {
                "id": d.id,
                "tokens": [{"text": t.text, "sentence": t.sentence} for t in d.tokens],
                "mentions": [
                    {"id": m.id, "type": m.type, "start": m.start, "end": m.end}
                    for m in d.mentions
                ],
                "relations": [
                    {"id": r.id, "type": r.type, "head": r.head, "tail": r.tail}
                    for r in d.relations
                ],
            }
            for d in c.documents
        ],
    }


def serialize_corpus(c: Corpus) -> bytes:
    """Canonical byte form: sorted keys, documents in input order, UTF-8,
    newline-terminated. Equal corpora serialize to identical bytes."""
    text = json.dumps(
        corpus_to_obj(c), sort_keys=True, ensure_ascii=False, separators=(",", ":")
    )
    return (text + "\n").encode("utf-8")


def load_corpus(path) -> Corpus:
    with open(path, "rb") as f:
        return parse_corpus(f.read())


def save_corpus(c: Corpus, path) -> None:
    with open(path, "wb") as f:
        f.write(serialize_corpus(c))
