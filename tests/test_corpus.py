import gc
import json
from itertools import starmap
from operator import itemgetter
from random import Random

import pytest

from corpora import random_fixture_document

from spanaug.corpus import (
    Corpus,
    CorpusParseError,
    CorpusValidationError,
    Document,
    Mention,
    Relation,
    Token,
    parse_corpus,
    serialize_corpus,
    validate_corpus,
    validate_document,
)


def rules(violations):
    return [v.rule for v in violations]


def test_parse_empty_document_list():
    raw = '{"mention_types": [], "relation_types": [], "documents": []}'
    corpus = parse_corpus(raw)
    assert corpus.documents == ()


def test_d1_round_trips(d1_corpus):
    data = serialize_corpus(d1_corpus)
    assert parse_corpus(data) == d1_corpus
    assert serialize_corpus(parse_corpus(data)) == data


def test_serialize_is_deterministic(d1_corpus):
    assert serialize_corpus(d1_corpus) == serialize_corpus(d1_corpus)
    assert serialize_corpus(d1_corpus).endswith(b"\n")


def test_equal_corpora_serialize_identically():
    # independently built corpora that are equal as values
    rng_a, rng_b = Random(11), Random(11)
    docs_a = tuple(random_fixture_document(f"g{i}", rng_a) for i in range(8))
    docs_b = tuple(random_fixture_document(f"g{i}", rng_b) for i in range(8))
    a, b = Corpus(docs_a), Corpus(docs_b)
    assert a == b
    assert serialize_corpus(a) == serialize_corpus(b)


def test_random_corpora_round_trip():
    rng = Random(5)
    for trial in range(25):
        docs = tuple(random_fixture_document(f"r{trial}-{i}", rng) for i in range(3))
        corpus = Corpus(docs)
        assert parse_corpus(serialize_corpus(corpus)) == corpus


def test_span_out_of_range_rejected_at_parse(d1_corpus):
    obj = json.loads(serialize_corpus(d1_corpus))
    obj["documents"][0]["mentions"][0]["end"] = 12
    with pytest.raises(CorpusValidationError) as err:
        parse_corpus(json.dumps(obj))
    assert any(v.rule == "span-out-of-range" for v in err.value.violations)
    assert "M1" in str(err.value)


def test_malformed_json_reports_position():
    with pytest.raises(CorpusParseError) as err:
        parse_corpus('{"mention_types": [,]}')
    assert "line 1" in str(err.value)


def test_missing_field_is_a_parse_error():
    with pytest.raises(CorpusParseError) as err:
        parse_corpus('{"mention_types": [], "relation_types": []}')
    assert "documents" in str(err.value)


def test_wrong_type_is_a_parse_error():
    raw = '{"mention_types": [], "relation_types": [], "documents": [{"id": 3}]}'
    with pytest.raises(CorpusParseError):
        parse_corpus(raw)


def test_validate_document_accepts_fixture(d1):
    assert validate_document(d1) == []


def test_dangling_relation_endpoint(d1):
    bad = Document(
        d1.id, d1.tokens, d1.mentions, (Relation("R1", "Flow", "M2", "M9"),)
    )
    assert rules(validate_document(bad)) == ["dangling-endpoint"]


def test_overlapping_mentions(d1):
    bad = Document(
        d1.id,
        d1.tokens,
        (Mention("A", "Activity", 1, 2), Mention("B", "Activity", 2, 3)),
        (),
    )
    assert "mention-overlap" in rules(validate_document(bad))


def test_empty_and_whitespace_tokens():
    doc = Document("t", (Token("", 0), Token("a b", 0)))
    assert rules(validate_document(doc)) == ["empty-token", "token-whitespace"]


def test_sentence_order_must_not_decrease():
    doc = Document("t", (Token("a", 1), Token("b", 0)))
    assert "sentence-order" in rules(validate_document(doc))


def test_mention_must_stay_inside_one_sentence():
    doc = Document(
        "t",
        (Token("a", 0), Token("b", 1)),
        (Mention("m", "Actor", 0, 1),),
    )
    assert "span-cross-sentence" in rules(validate_document(doc))


def test_self_relation_and_duplicate_ids(d1):
    bad = Document(
        d1.id,
        d1.tokens,
        d1.mentions + (Mention("M1", "Activity", 3, 3),),
        (Relation("R1", "Flow", "M2", "M2"),),
    )
    found = rules(validate_document(bad))
    assert "duplicate-mention-id" in found
    assert "self-relation" in found


def test_validate_is_pure(d1):
    assert validate_document(d1) == validate_document(d1)


def test_corpus_level_checks(d1):
    other = Document("D1", d1.tokens)  # duplicate id
    corpus = Corpus((d1, other), mention_types=("Actor",), relation_types=())
    found = rules(validate_corpus(corpus))
    assert "duplicate-document-id" in found
    assert "unknown-mention-type" in found
    assert "unknown-relation-type" in found


# Golden parse errors: the exact message for each malformed shape, which is
# always the first failing field in reading order. A missing field below a
# document is reported at the document's path.

DELETE = object()
DOC = ("documents", 1)
TOKENS, MENTIONS, RELATIONS = DOC + ("tokens",), DOC + ("mentions",), DOC + ("relations",)


def valid_corpus_obj() -> dict:
    return {
        "mention_types": ["Actor"],
        "relation_types": ["Flow"],
        "documents": [
            {"id": "d0", "tokens": [{"text": "a", "sentence": 0}], "mentions": [], "relations": []},
            {
                "id": "d1",
                "tokens": [{"text": "a", "sentence": 0}, {"text": "b", "sentence": 0}],
                "mentions": [
                    {"id": "m1", "type": "Actor", "start": 0, "end": 0},
                    {"id": "m2", "type": "Actor", "start": 1, "end": 1},
                ],
                "relations": [
                    {"id": "r0", "type": "Flow", "head": "m1", "tail": "m2"},
                    {"id": "r1", "type": "Flow", "head": "m2", "tail": "m1"},
                ],
            },
        ],
    }


def mutated(*changes) -> str:
    """The valid corpus as JSON text with each (path, value) set, or the
    field at path deleted when value is DELETE; the empty path replaces
    the whole object."""
    obj = valid_corpus_obj()
    for path, value in changes:
        if not path:
            obj = value
            continue
        *parents, last = path
        target = obj
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    return json.dumps(obj)


def missing(field, path="$.documents[1]"):
    return f"{path}: missing field {field!r}"



GOLDEN_PARSE_ERRORS = [
    # the top level
    ([((), [])], "$: expected dict, got list"),
    ([(("mention_types",), DELETE)], missing("mention_types", "$")),
    ([(("relation_types",), DELETE)], missing("relation_types", "$")),
    ([(("documents",), DELETE)], missing("documents", "$")),
    ([(("mention_types",), "Actor")], "$.mention_types: expected list, got str"),
    ([(("mention_types", 0), 1)], "$.mention_types[0]: expected str, got int"),
    ([(("relation_types",), {})], "$.relation_types: expected list, got dict"),
    ([(("relation_types", 0), None)], "$.relation_types[0]: expected str, got NoneType"),
    ([(("documents",), {})], "$.documents: expected list, got dict"),
    # a document
    ([(DOC, "doc")], "$.documents[1]: expected dict, got str"),
    ([(DOC, None)], "$.documents[1]: expected dict, got NoneType"),
    ([(DOC + ("id",), DELETE)], missing("id")),
    ([(DOC + ("tokens",), DELETE)], missing("tokens")),
    ([(DOC + ("mentions",), DELETE)], missing("mentions")),
    ([(DOC + ("relations",), DELETE)], missing("relations")),
    ([(DOC + ("id",), 7)], "$.documents[1].id: expected str, got int"),
    ([(TOKENS, "a b")], "$.documents[1].tokens: expected list, got str"),
    ([(MENTIONS, None)], "$.documents[1].mentions: expected list, got NoneType"),
    ([(RELATIONS, {})], "$.documents[1].relations: expected list, got dict"),
    # a token
    ([(TOKENS + (1,), ["b", 0])], "$.documents[1].tokens[1]: expected dict, got list"),
    ([(TOKENS + (1, "text"), DELETE)], missing("text")),
    ([(TOKENS + (1, "sentence"), DELETE)], missing("sentence")),
    ([(TOKENS + (1, "text"), 5)], "$.documents[1].tokens[1].text: expected str, got int"),
    ([(TOKENS + (1, "text"), True)], "$.documents[1].tokens[1].text: expected str, got bool"),
    ([(TOKENS + (1, "sentence"), "0")], "$.documents[1].tokens[1].sentence: expected int, got str"),
    ([(TOKENS + (1, "sentence"), 0.0)], "$.documents[1].tokens[1].sentence: expected int, got float"),
    ([(TOKENS + (1, "sentence"), True)], "$.documents[1].tokens[1].sentence: expected int, got bool"),
    ([(TOKENS + (1, "sentence"), None)], "$.documents[1].tokens[1].sentence: expected int, got NoneType"),
    # a mention
    ([(MENTIONS + (1,), "m2")], "$.documents[1].mentions[1]: expected dict, got str"),
    ([(MENTIONS + (1, "id"), DELETE)], missing("id")),
    ([(MENTIONS + (1, "type"), DELETE)], missing("type")),
    ([(MENTIONS + (1, "start"), DELETE)], missing("start")),
    ([(MENTIONS + (1, "end"), DELETE)], missing("end")),
    ([(MENTIONS + (1, "id"), 2)], "$.documents[1].mentions[1].id: expected str, got int"),
    ([(MENTIONS + (1, "type"), ["Actor"])], "$.documents[1].mentions[1].type: expected str, got list"),
    ([(MENTIONS + (1, "start"), "1")], "$.documents[1].mentions[1].start: expected int, got str"),
    ([(MENTIONS + (1, "end"), 1.5)], "$.documents[1].mentions[1].end: expected int, got float"),
    ([(MENTIONS + (1, "start"), False)], "$.documents[1].mentions[1].start: expected int, got bool"),
    ([(MENTIONS + (1, "end"), True)], "$.documents[1].mentions[1].end: expected int, got bool"),
    # a relation
    ([(RELATIONS + (1,), 3)], "$.documents[1].relations[1]: expected dict, got int"),
    ([(RELATIONS + (1, "id"), DELETE)], missing("id")),
    ([(RELATIONS + (1, "type"), DELETE)], missing("type")),
    ([(RELATIONS + (1, "head"), DELETE)], missing("head")),
    ([(RELATIONS + (1, "tail"), DELETE)], missing("tail")),
    ([(RELATIONS + (1, "id"), None)], "$.documents[1].relations[1].id: expected str, got NoneType"),
    ([(RELATIONS + (1, "type"), 0)], "$.documents[1].relations[1].type: expected str, got int"),
    ([(RELATIONS + (1, "head"), False)], "$.documents[1].relations[1].head: expected str, got bool"),
    ([(RELATIONS + (1, "tail"), {"id": "m1"})], "$.documents[1].relations[1].tail: expected str, got dict"),
    # two faults: the first in reading order is the one reported
    (
        [(TOKENS + (1, "sentence"), True), (MENTIONS + (0, "id"), 3)],
        "$.documents[1].tokens[1].sentence: expected int, got bool",
    ),
    ([(TOKENS + (0, "text"), DELETE), (TOKENS + (1, "text"), 5)], missing("text")),
    (
        [(TOKENS + (1, "text"), 5), (TOKENS + (1, "sentence"), DELETE)],
        "$.documents[1].tokens[1].text: expected str, got int",
    ),
    ([(MENTIONS + (1, "id"), DELETE), (MENTIONS + (1, "start"), "x")], missing("id")),
    (
        [(MENTIONS + (0, "end"), True), (MENTIONS + (1, "start"), None)],
        "$.documents[1].mentions[0].end: expected int, got bool",
    ),
    (
        [(("documents", 0, "relations"), DELETE), (DOC + ("id",), 1)],
        missing("relations", "$.documents[0]"),
    ),
    (
        [(RELATIONS + (0, "tail"), 1), (RELATIONS + (1, "head"), DELETE)],
        "$.documents[1].relations[0].tail: expected str, got int",
    ),
    ([(("mention_types", 0), 1), (("documents",), DELETE)], "$.mention_types[0]: expected str, got int"),
    ([(("relation_types",), DELETE), (TOKENS + (1,), None)], missing("relation_types", "$")),
    (
        [(MENTIONS, DELETE), (TOKENS + (0, "sentence"), 1.0)],
        "$.documents[1].tokens[0].sentence: expected int, got float",
    ),
    # a parse fault wins over a validation fault met earlier
    (
        [(TOKENS + (0, "text"), ""), (TOKENS + (1, "sentence"), True)],
        "$.documents[1].tokens[1].sentence: expected int, got bool",
    ),
]


@pytest.mark.parametrize("changes, message", GOLDEN_PARSE_ERRORS)
def test_parse_error_message_is_exact(changes, message):
    with pytest.raises(CorpusParseError) as err:
        parse_corpus(mutated(*changes))
    assert str(err.value) == message


def test_unchanged_golden_corpus_parses():
    corpus = parse_corpus(mutated())
    assert [d.id for d in corpus.documents] == ["d0", "d1"]


def test_non_utf8_input_is_a_parse_error_at_its_byte_offset():
    raw = mutated().encode().replace(b'"d0"', b'"d\xff"')
    offset = raw.index(b"\xff")
    with pytest.raises(CorpusParseError) as err:
        parse_corpus(raw)
    assert str(err.value) == f"byte {offset}: not UTF-8 (invalid start byte)"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "raw, error",
    [
        (mutated(), None),
        (mutated((TOKENS + (1, "sentence"), True)), CorpusParseError),
        (b'{"documents": [\xff]}', CorpusParseError),
        (mutated((MENTIONS + (1, "end"), 5)), CorpusValidationError),
    ],
)
def test_a_parse_leaves_the_collector_as_it_found_it(enabled, raw, error):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            parse_corpus(raw)
        else:
            with pytest.raises(error):
                parse_corpus(raw)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_the_collector_is_paused_while_a_parse_runs(monkeypatch):
    import spanaug.corpus as corpus_module

    seen = []
    monkeypatch.setattr(corpus_module, "validate_corpus", lambda c: seen.append(gc.isenabled()) or [])
    assert gc.isenabled()
    parse_corpus(mutated())
    assert seen == [False] and gc.isenabled()


def test_names_rebound_by_the_benchmark_tracer_exist(tmp_path, monkeypatch):
    """perfbench/tracing.py times corpus loading, validation and
    serialization by rebinding these names; a rename would drop those
    spans without an error."""
    import spanaug.cli as cli
    import spanaug.corpus as corpus_module

    assert callable(cli.serialize_corpus)
    calls = []

    def validate_spy(corpus):
        calls.append(corpus)
        return []

    assert callable(corpus_module.validate_corpus)
    monkeypatch.setattr(corpus_module, "validate_corpus", validate_spy)
    path = tmp_path / "corpus.json"
    path.write_text(mutated())
    loaded = cli.load_corpus(path)
    assert calls == [loaded]


# The reference parser: the per-document parser that the column-wise
# parse_corpus replaced, kept as it was.


def _wrong(value, kind: type, path: str) -> CorpusParseError:
    return CorpusParseError(f"{path}: expected {kind.__name__}, got {type(value).__name__}")


def _list(obj: dict, field: str, path: str) -> list:
    value = obj[field]
    if type(value) is not list:
        raise _wrong(value, list, f"{path}.{field}")
    return value


def _records(obj: dict, field: str, path: str, **fields: type) -> list[tuple]:
    """The field values of each JSON object in the list obj[field]. Types
    are compared exactly (json.loads makes no subclasses; a bool is no int),
    and a path is formatted only for the error: the first failing field in
    reading order, or a KeyError for a missing one."""
    items = _list(obj, field, path)
    try:
        rows = list(map(itemgetter(*fields), items))
    except (KeyError, TypeError):  # TypeError: an item is not a dict
        rows = None
    if rows is not None and all(
        set(map(type, col)) == {kind} for col, kind in zip(zip(*rows), fields.values())
    ):
        return rows
    for i, item in enumerate(items):
        where = f"{path}.{field}[{i}]"
        if type(item) is not dict:
            raise _wrong(item, dict, where)
        for name, kind in fields.items():
            if type(item[name]) is not kind:
                raise _wrong(item[name], kind, f"{where}.{name}")
    raise AssertionError("unreachable: the fast path failed on a valid list")


class _SharedTokens(dict):
    """One Token per distinct (text, sentence), for one parse."""

    def __missing__(self, key: tuple[str, int]) -> Token:
        token = self[key] = Token(*key)
        return token


def _parse_document(obj, path: str, shared: _SharedTokens) -> Document:
    if type(obj) is not dict:
        raise _wrong(obj, dict, path)
    try:
        doc_id = obj["id"]
        if type(doc_id) is not str:
            raise _wrong(doc_id, str, f"{path}.id")
        tokens = _records(obj, "tokens", path, text=str, sentence=int)
        mentions = _records(obj, "mentions", path, id=str, type=str, start=int, end=int)
        relations = _records(obj, "relations", path, id=str, type=str, head=str, tail=str)
    except KeyError as e:
        raise CorpusParseError(f"{path}: missing field {e.args[0]!r}") from None
    return Document(
        doc_id,
        tuple(map(shared.__getitem__, tokens)),
        tuple(starmap(Mention, mentions)),
        tuple(starmap(Relation, relations)),
    )


def _strings(obj: dict, field: str) -> tuple[str, ...]:
    items = _list(obj, field, "$")
    for i, item in enumerate(items):
        if type(item) is not str:
            raise _wrong(item, str, f"$.{field}[{i}]")
    return tuple(items)


def reference_parse(raw: bytes | str) -> Corpus:
    """parse_corpus as it was written first: one document at a time, each
    record list read by _records, a fast path with a slow loop behind it."""
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as e:
        raise CorpusParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    if type(obj) is not dict:
        raise _wrong(obj, dict, "$")
    shared = _SharedTokens()
    try:
        mention_types = _strings(obj, "mention_types")
        relation_types = _strings(obj, "relation_types")
        documents = tuple(
            _parse_document(docobj, f"$.documents[{i}]", shared)
            for i, docobj in enumerate(_list(obj, "documents", "$"))
        )
    except KeyError as e:
        raise CorpusParseError(f"$: missing field {e.args[0]!r}") from None
    corpus = Corpus(documents, mention_types, relation_types)
    violations = validate_corpus(corpus)
    if violations:
        raise CorpusValidationError(violations)
    return corpus
