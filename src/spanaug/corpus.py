"""Annotated-corpus data model: tokenized documents with typed mention spans
and typed directed relations between mentions, plus a canonical JSON
serialization and an invariant checker.

All types are immutable values; augmenters and evaluators share them
freely, and a parse shares one object per distinct token, mention and
relation. A parse pauses the cyclic garbage collector, which would only
rescan the acyclic tree being built. Token indices are the only addressing
scheme: mentions carry inclusive [start, end] token spans and never BIO
tags (BIO is an internal encoding of the baseline tagger only).
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field
from itertools import accumulate, chain
from json.encoder import encode_basestring
from operator import itemgetter
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
    # the baseline models' inputs, filled on first use by spanaug.baselines
    _model_inputs: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # a copy or a pickle rebuilds the model inputs on first use
        state = self.__dict__.copy()
        state.pop("_model_inputs", None)
        return state

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


def is_token_text(text: str) -> bool:
    """Non-empty and free of what str.isspace calls whitespace."""
    return text.split() == [text]


def validate_document(d: Document) -> list[Violation]:
    """Check every document-level invariant; empty list means valid.

    Pure and total: violations are returned, never raised. Rules checked:
    token text shape, sentence ordering, span ranges and sentence
    containment, mention disjointness, id uniqueness, relation endpoints.
    """
    out: list[Violation] = []
    n = len(d.tokens)

    # the first token has no predecessor: comparing it with itself passes
    prev_sentence = d.tokens[0].sentence if d.tokens else 0
    for i, tok in enumerate(d.tokens):
        text, sentence = tok.text, tok.sentence
        if is_token_text(text) and 0 <= sentence and prev_sentence <= sentence:
            prev_sentence = sentence
            continue
        where = f"{d.id}.tokens[{i}]"
        if not text:
            out.append(Violation("empty-token", where, "token text is empty"))
        elif not is_token_text(text):
            out.append(Violation("token-whitespace", where, f"token {text!r} contains whitespace"))
        if sentence < 0:
            out.append(Violation("sentence-negative", where, f"sentence index {sentence} < 0"))
        if sentence < prev_sentence:
            out.append(
                Violation(
                    "sentence-order", where, f"sentence index {sentence} after {prev_sentence}"
                )
            )
        prev_sentence = sentence

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


def _wrong(value, kind: type, path: str) -> CorpusParseError:
    return CorpusParseError(f"{path}: expected {kind.__name__}, got {type(value).__name__}")


def _list(obj: dict, field: str, path: str) -> list:
    value = obj[field]
    if type(value) is not list:
        raise _wrong(value, list, f"{path}.{field}")
    return value


# A document's record lists in reading order: class, fields and JSON types.
_RECORDS = (
    ("tokens", Token, {"text": str, "sentence": int}),
    ("mentions", Mention, {"id": str, "type": str, "start": int, "end": int}),
    ("relations", Relation, {"id": str, "type": str, "head": str, "tail": str}),
)


class _Shared(dict):
    """One record per distinct field tuple, for one parse."""

    def __init__(self, kind: type):
        self.kind = kind

    def __missing__(self, key: tuple):
        value = self[key] = self.kind(*key)
        return value


def _documents(docs: list) -> tuple[Document, ...]:
    """Read the documents column by column: one itemgetter pass per
    document field, then one per record list over the whole corpus, and one
    type check per column. Types are compared exactly (json.loads makes no
    subclasses; a bool is no int). Only if a field is missing or mistyped
    does a walk in reading order raise the first fault's error."""
    try:
        ids = list(map(itemgetter("id"), docs))
        lists = [list(map(itemgetter(name), docs)) for name, _, _ in _RECORDS]
        if set(map(type, ids)) <= {str} and all(set(map(type, col)) <= {list} for col in lists):
            by_document = []
            for (_, kind, fields), col in zip(_RECORDS, lists):
                rows = list(map(itemgetter(*fields), chain.from_iterable(col)))
                if not all(set(map(type, c)) == {t} for c, t in zip(zip(*rows), fields.values())):
                    break
                records = tuple(map(_Shared(kind).__getitem__, rows))
                ends = list(accumulate(map(len, col)))
                by_document.append(map(records.__getitem__, map(slice, [0, *ends], ends)))
            else:
                return tuple(map(Document, ids, *by_document))
    except (KeyError, TypeError):  # TypeError: an item is not a dict
        pass
    for i, doc in enumerate(docs):
        path = f"$.documents[{i}]"
        if type(doc) is not dict:
            raise _wrong(doc, dict, path)
        try:
            if type(doc["id"]) is not str:
                raise _wrong(doc["id"], str, f"{path}.id")
            for field, _, fields in _RECORDS:
                for j, item in enumerate(_list(doc, field, path)):
                    where = f"{path}.{field}[{j}]"
                    if type(item) is not dict:
                        raise _wrong(item, dict, where)
                    for name, kind in fields.items():
                        if type(item[name]) is not kind:
                            raise _wrong(item[name], kind, f"{where}.{name}")
        except KeyError as e:
            raise CorpusParseError(f"{path}: missing field {e.args[0]!r}") from None
    raise AssertionError("unreachable: the column read failed on well-formed documents")


def _strings(obj: dict, field: str) -> tuple[str, ...]:
    items = _list(obj, field, "$")
    for i, item in enumerate(items):
        if type(item) is not str:
            raise _wrong(item, str, f"$.{field}[{i}]")
    return tuple(items)


def parse_corpus(raw: bytes | str) -> Corpus:
    """Parse and validate the corpus file format.

    Raises CorpusParseError giving the byte offset of input that is not
    UTF-8, the line and column of malformed JSON, or the path of the first
    missing or mistyped field, and CorpusValidationError naming the
    document and rule of each broken invariant. Equal tokens, mentions and
    relations of one parse are one shared object each. The cyclic garbage
    collector is paused during the parse, then left as the caller had it:
    the parse builds only acyclic values, so each collection it would
    trigger rescans the growing tree and frees nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise CorpusParseError(f"byte {e.start}: not UTF-8 ({e.reason})") from None
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            raise CorpusParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
        if type(obj) is not dict:
            raise _wrong(obj, dict, "$")
        try:
            mention_types = _strings(obj, "mention_types")
            relation_types = _strings(obj, "relation_types")
            docs = _list(obj, "documents", "$")
        except KeyError as e:
            raise CorpusParseError(f"$: missing field {e.args[0]!r}") from None
        corpus = Corpus(_documents(docs), mention_types, relation_types)
        violations = validate_corpus(corpus)
        if violations:
            raise CorpusValidationError(violations)
        return corpus
    finally:
        if enabled:
            gc.enable()


_json = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), sort_keys=True).encode


def _int(value) -> str:
    # json's spelling; it differs from %d for a bool ("true", not "1")
    return str(value) if type(value) is int else _json(value)


def serialize_corpus(c: Corpus) -> bytes:
    """Canonical byte form: sorted keys, documents in input order, UTF-8,
    newline-terminated. Equal corpora serialize to identical bytes: those
    _json writes for the corpus as a tree of dicts, written directly."""
    s = encode_basestring
    documents = []
    for d in c.documents:
        tokens = ['{"sentence":%s,"text":%s}' % (_int(t.sentence), s(t.text)) for t in d.tokens]
        mentions = [
            '{"end":%s,"id":%s,"start":%s,"type":%s}' % (_int(m.end), s(m.id), _int(m.start), s(m.type))
            for m in d.mentions
        ]
        relations = [
            '{"head":%s,"id":%s,"tail":%s,"type":%s}' % (s(r.head), s(r.id), s(r.tail), s(r.type))
            for r in d.relations
        ]
        documents.append(
            '{"id":%s,"mentions":[%s],"relations":[%s],"tokens":[%s]}'
            % (s(d.id), ",".join(mentions), ",".join(relations), ",".join(tokens))
        )
    text = '{"documents":[%s],"mention_types":%s,"relation_types":%s}\n' % (
        ",".join(documents), _json(c.mention_types), _json(c.relation_types)
    )
    return text.encode("utf-8")


def load_corpus(path) -> Corpus:
    with open(path, "rb") as f:
        return parse_corpus(f.read())


def save_corpus(c: Corpus, path) -> None:
    with open(path, "wb") as f:
        f.write(serialize_corpus(c))
