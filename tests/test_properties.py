"""Property tests over generated documents and corpora.

* Any list of edits keeps a document valid, keeps every mention, and
  conserves the multiset of (relation type, head id, tail id).
* An applied edit keeps the token texts of every mention it does not touch.
* So does every technique, at any parameter values in its space.
* A lone ReplaceSpan gives the document, the report and any EditError
  of reference_replace, and a disjoint, rightmost-first list of them, which
  apply_edits applies in one pass, those of the left fold of
  reference_replace. A lone InsertTokens, DeleteTokens, SwapTokens or
  MergeSentences gives those of its reference, which moves mentions
  through the edit's own index maps.
* An edit keeps, as the same object, each mention whose ends it does not
  move.
* Every technique's identity configuration reproduces its input byte for
  byte.
* A corpus survives serialize_corpus then parse_corpus unchanged, and one
  parse shares one Token, Mention and Relation per distinct value.
* With at most one fault (a field deleted, or a field, record or list
  replaced by another JSON value), parse_corpus returns the corpus, or
  raises the error text, of the per-document reference_parse.
* serialize_corpus writes the bytes json.dumps writes for the corpus as a
  tree of dicts, and validate_document finds the violations, in the same
  order, that its first, token-by-token implementation finds.
* The packed perceptron, which stops once every distinct decision scores
  its gold class, trains the weights of the plain perceptron that runs
  every epoch.
* The packed gold test says the gold class wins exactly when it is the
  first highest score, and the epoch shuffle permutes and draws as
  random.shuffle does.
* The one-pass featurisation gives the token features, candidate pairs
  and pair features of the per-sentence and per-pair reference functions.
* cross_validate gives the same report at 1, 2 and 3 workers.

Generation is derandomized and the number of examples bounded, so these
tests are deterministic and take a few seconds.
"""

import json
from collections import Counter
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_baselines import (
    reference_candidate_pairs,
    reference_pair_features,
    reference_token_features,
    reference_train,
)
from test_corpus import reference_parse
from test_edits import (
    reference_delete,
    reference_insert,
    reference_merge,
    reference_replace,
    reference_swap,
)

from spanaug import baselines
from spanaug.corpus import (
    Corpus,
    CorpusParseError,
    CorpusValidationError,
    Document,
    Mention,
    Relation,
    Token,
    Violation,
    parse_corpus,
    serialize_corpus,
    validate_document,
)
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
    sentence_spans,
)
from spanaug.evaluation import cross_validate
from spanaug.lexicon import builtin_lexicon
from spanaug.providers import identity_stub
from spanaug.techniques import (
    TECHNIQUES,
    TechniqueConfig,
    apply_technique,
    augment_corpus,
    make_context,
    parent_id,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

WORDS = ("the", "clerk", "checks", "order", ".", "and", "files", "it", ";")
MENTION_TYPES = ("Actor", "Activity", "Data")
RELATION_TYPES = ("Flow", "Uses")
# WORDS plus sites for the lexicon-driven techniques: negated auxiliaries,
# abbreviations in both forms, synonyms, antonyms, adjectives and commas
SITE_WORDS = WORDS + (
    "is", "not", "does", "n't", "CEO", "Human", "Resources", "approve", "valid", ",", "examine",
)
# any single character a token may hold: no whitespace, no control characters
TOKEN_TEXT = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=5)


@st.composite
def documents(draw, doc_id="d", words=st.sampled_from(WORDS)):
    """1-4 sentences of 1-5 tokens, disjoint mentions inside sentences,
    and relations between distinct mentions."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    tokens = [Token(draw(words), s) for s, size in enumerate(sizes) for _ in range(size)]
    mentions = []
    start = 0
    for size in sizes:
        i, end_of_sentence = start, start + size - 1
        while i <= end_of_sentence:
            length = draw(st.integers(0, 3))  # 0: this token stays unlabeled
            if length:
                end = min(i + length - 1, end_of_sentence)
                kind = draw(st.sampled_from(MENTION_TYPES))
                mentions.append(Mention(f"m{len(mentions)}", kind, i, end))
                i = end
            i += 1
        start += size
    relations = []
    k = len(mentions)
    for _ in range(draw(st.integers(0, 4)) if k >= 2 else 0):
        head = draw(st.integers(0, k - 1))
        tail = (head + draw(st.integers(1, k - 1))) % k  # never the head itself
        kind = draw(st.sampled_from(RELATION_TYPES))
        head_id, tail_id = mentions[head].id, mentions[tail].id
        relations.append(Relation(f"r{len(relations)}", kind, head_id, tail_id))
    return Document(doc_id, tuple(tokens), tuple(mentions), tuple(relations))


def edits_for(doc: Document):
    """Any one edit whose indices are in range for doc."""
    n = len(doc.tokens)
    last = n - 1
    texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(tuple)
    sentences = len(sentence_spans(doc))
    options = [
        st.builds(InsertTokens, st.integers(0, n), texts),
        st.builds(DeleteTokens, st.frozensets(st.integers(0, last), min_size=1, max_size=3)),
        st.integers(0, last).flatmap(
            lambda start: st.builds(ReplaceSpan, st.just(start), st.integers(start, last), texts)
        ),
        st.builds(SwapTokens, st.integers(0, last), st.integers(0, last)),
        st.builds(PermuteSentences, st.permutations(range(sentences)).map(tuple)),
    ]
    if sentences > 1:
        options.append(st.builds(MergeSentences, st.integers(0, sentences - 2)))
    return st.one_of(options)


@st.composite
def edit_lists(draw):
    """A document and 1-5 edits, each in range for the document that the
    edits before it produced."""
    original = draw(documents())
    edits, doc = [], original
    for _ in range(draw(st.integers(1, 5))):
        if not doc.tokens:
            break
        edit = draw(edits_for(doc))
        edits.append(edit)
        doc, _ = apply_edit(doc, edit)
    return original, edits


def relation_multiset(doc: Document) -> Counter:
    return Counter((r.type, r.head, r.tail) for r in doc.relations)


@PROPERTY
@given(edit_lists())
def test_edit_lists_keep_documents_valid_and_relations_conserved(case):
    original, edits = case
    result, _ = apply_edits(original, edits)
    assert validate_document(result) == []
    assert sorted((m.id, m.type) for m in result.mentions) == sorted(
        (m.id, m.type) for m in original.mentions
    )
    assert relation_multiset(result) == relation_multiset(original)


def untouched(edit, m: Mention) -> bool:
    """Whether edit leaves every token of m in place: it inserts nowhere
    strictly inside m, and deletes, replaces and swaps no token of m.
    Permuting and merging sentences touch no mention."""
    if isinstance(edit, InsertTokens):
        return not m.start < edit.position <= m.end
    if isinstance(edit, DeleteTokens):
        return not any(m.start <= p <= m.end for p in edit.positions)
    if isinstance(edit, ReplaceSpan):
        return edit.end < m.start or m.end < edit.start
    if isinstance(edit, SwapTokens):
        return not any(m.start <= p <= m.end for p in (edit.i, edit.j))
    return True


@PROPERTY
@given(st.data())
def test_an_applied_edit_keeps_the_texts_of_mentions_it_does_not_touch(data):
    doc = data.draw(documents())
    edit = data.draw(edits_for(doc))
    result, report = apply_edit(doc, edit)
    assume(not report.rejected)
    for m in doc.mentions:
        if untouched(edit, m):
            assert result.mention_texts(result.mention_by_id(m.id)) == doc.mention_texts(m)


REPLACEMENT_TEXTS = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(tuple)
# empty, or holding an empty or whitespace text
BAD_TEXTS = st.sampled_from([(), ("a b",), ("ok", ""), ("\u00a0",)])


@st.composite
def rightmost_first_replacements(draw):
    """A document and 2-4 ReplaceSpans of width 1 up, disjoint and each
    ending before the previous one starts. Some lists hold a span that is
    out of range for the document the fold has reached at that edit, or
    empty or whitespace texts."""
    doc = draw(documents())
    if draw(st.integers(0, 3)) == 0:  # no labels: sentence boundaries decide
        doc = Document(doc.id, doc.tokens)
    n = len(doc.tokens)
    assume(n >= 2)
    starts = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=4)))
    limits = [b - 1 for b in starts[1:]] + [n - 1]
    invalid = draw(st.integers(0, 9))  # 0-2: a range error, 3-4: bad texts
    spans = [(s, min(limit, s + draw(st.integers(0, 3)))) for s, limit in zip(starts, limits)]
    if invalid == 0:
        spans[0] = (-draw(st.integers(1, 2)), spans[0][1])
    elif invalid == 1:
        spans[-1] = (spans[-1][0], n + draw(st.integers(0, 2)))
    elif invalid == 2:
        k = draw(st.integers(0, len(spans) - 1))
        spans[k] = (spans[k][1], spans[k][1] - 1)
    texts = REPLACEMENT_TEXTS | BAD_TEXTS if invalid in (3, 4) else REPLACEMENT_TEXTS
    edits = [ReplaceSpan(s, e, draw(texts)) for s, e in reversed(spans)]
    return doc, edits


def outcome(apply, *args):
    """apply(*args), or the type and message of the EditError it raised."""
    try:
        return apply(*args)
    except EditError as error:
        return type(error), str(error)


def folded(doc: Document, edits):
    """apply_edits of ReplaceSpans as a left fold of reference_replace."""
    shrunk, rejected = (), ()
    for e in edits:
        doc, step = reference_replace(doc, e)
        shrunk += step.mentions_shrunk
        rejected += step.rejected
    return doc, RemapReport(shrunk, rejected)


@settings(PROPERTY, max_examples=400)
@given(rightmost_first_replacements())
def test_one_pass_replacements_equal_the_fold(case):
    doc, edits = case
    assert all(b.end < a.start for a, b in zip(edits, edits[1:]))
    assert outcome(apply_edits, doc, edits) == outcome(folded, doc, edits)


@st.composite
def lone_replacements(draw):
    """A document and one ReplaceSpan: half of them on a mention's own
    span, the others anywhere, some out of range or with empty or
    whitespace texts."""
    doc = draw(documents())
    n = len(doc.tokens)
    bounds = [(m.start, m.end) for m in doc.mentions]
    if bounds and draw(st.booleans()):
        start, end = draw(st.sampled_from(bounds))
    else:
        start = draw(st.integers(-1, n))
        end = draw(st.integers(start - 1, start + 3))
    texts = BAD_TEXTS if draw(st.integers(0, 9)) == 0 else REPLACEMENT_TEXTS
    return doc, ReplaceSpan(start, end, draw(texts))


@settings(PROPERTY, max_examples=400)
@given(lone_replacements())
def test_a_lone_replacement_equals_the_reference(case):
    doc, edit = case
    assert outcome(apply_edit, doc, edit) == outcome(reference_replace, doc, edit)


@st.composite
def lone_splice_edits(draw):
    """A document and one InsertTokens, DeleteTokens, SwapTokens or
    MergeSentences, some with an index out of range or, for an insertion,
    empty or whitespace texts."""
    doc = draw(documents())
    n, sentences = len(doc.tokens), len(sentence_spans(doc))
    index = st.integers(-1, n)  # -1 and n are out of range but for an insertion
    texts = BAD_TEXTS if draw(st.integers(0, 9)) == 0 else REPLACEMENT_TEXTS
    edit = st.one_of(
        st.builds(InsertTokens, st.integers(-1, n + 1), texts),
        st.builds(DeleteTokens, st.frozensets(index, min_size=1, max_size=3)),
        st.builds(SwapTokens, index, index),
        st.builds(MergeSentences, st.integers(-1, sentences - 1)),
    )
    return doc, draw(edit)


REFERENCES = {
    InsertTokens: reference_insert,
    DeleteTokens: reference_delete,
    SwapTokens: reference_swap,
    MergeSentences: reference_merge,
}


@settings(PROPERTY, max_examples=400)
@given(lone_splice_edits())
def test_a_lone_splice_edit_equals_its_reference(case):
    doc, edit = case
    assert outcome(apply_edit, doc, edit) == outcome(REFERENCES[type(edit)], doc, edit)


@PROPERTY
@given(st.data())
def test_an_edit_keeps_each_mention_whose_ends_do_not_move(data):
    doc = data.draw(documents())
    result, _ = apply_edit(doc, data.draw(edits_for(doc)))
    for before, after in zip(doc.mentions, result.mentions, strict=True):
        if (after.start, after.end) == (before.start, before.end):
            assert after is before


@st.composite
def corpora(draw):
    count = draw(st.integers(0, 4))
    docs = tuple(draw(documents(f"doc-{i}", words=TOKEN_TEXT)) for i in range(count))
    return Corpus(docs, MENTION_TYPES, RELATION_TYPES)


@PROPERTY
@given(corpora())
def test_serialize_then_parse_round_trips(corpus):
    assert parse_corpus(serialize_corpus(corpus)) == corpus


@PROPERTY
@given(st.lists(documents(), max_size=4))
def test_a_parse_shares_equal_tokens_and_two_parses_share_none(docs):
    """Equal mentions and equal relations too: one object per distinct
    value within a parse, none shared between two parses."""
    docs = [Document(f"doc-{i}", d.tokens, d.mentions, d.relations) for i, d in enumerate(docs)]
    corpus = Corpus(tuple(docs), MENTION_TYPES, RELATION_TYPES)
    data = serialize_corpus(corpus)
    first, second = parse_corpus(data), parse_corpus(data)
    assert first == corpus
    for field in ("tokens", "mentions", "relations"):
        values = [v for d in first.documents for v in getattr(d, field)]
        assert len({id(v) for v in values}) == len(set(values))
        assert not {id(v) for v in values} & {id(v) for d in second.documents for v in getattr(d, field)}


def corpus_to_obj(c: Corpus) -> dict:
    """The corpus as the tree of dicts whose canonical JSON text is the
    corpus file format."""
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


def reference_bytes(c: Corpus) -> bytes:
    text = json.dumps(corpus_to_obj(c), sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return (text + "\n").encode()


# any string json must escape or pass through: quotes, backslashes, control
# characters, the line and paragraph separators, non-ASCII and astral
ANY_TEXT = st.text(
    st.one_of(
        st.characters(codec="utf-8"),
        st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029\u00e9\U0001f600'),
    ),
    max_size=6,
)


@st.composite
def any_corpora(draw):
    """Corpora of any field values of the right types, valid or not."""
    ints = st.integers()
    tokens = st.lists(st.builds(Token, ANY_TEXT, ints), max_size=5).map(tuple)
    mentions = st.lists(st.builds(Mention, ANY_TEXT, ANY_TEXT, ints, ints), max_size=3).map(tuple)
    relations = st.lists(st.builds(Relation, ANY_TEXT, ANY_TEXT, ANY_TEXT, ANY_TEXT), max_size=3)
    docs = st.lists(st.builds(Document, ANY_TEXT, tokens, mentions, relations.map(tuple)), max_size=3)
    kinds = st.lists(ANY_TEXT, max_size=3).map(tuple)
    return Corpus(tuple(draw(docs)), draw(kinds), draw(kinds))


@PROPERTY
@given(any_corpora())
def test_serialize_writes_the_bytes_of_json_dumps(corpus):
    assert serialize_corpus(corpus) == reference_bytes(corpus)


def test_serialize_writes_a_bool_in_an_int_field_as_json_does():
    doc = Document("d", (Token("a", True),), (Mention("m", "Actor", False, True),))
    corpus = Corpus((doc,), ("Actor",), ())
    data = serialize_corpus(corpus)
    assert data == reference_bytes(corpus)
    assert b'"sentence":true' in data and b'"start":false' in data


# JSON values that replace a field, a record or a list: every JSON type,
# a bool where an int belongs, and a dict and a list that look like records
FAULT_VALUES = (True, False, 0, 2, -1, 1.5, "", "x", None, [], ["x"], {}, {"id": "m0"})


def json_sites(node):
    """(container, key) of every dict field and list item in a JSON tree."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from json_sites(node[key])


@st.composite
def faulty_corpus_files(draw):
    """A valid corpus file with one fault: a field deleted, or a field,
    record or list replaced by one of FAULT_VALUES (which may leave it
    valid)."""
    obj = corpus_to_obj(draw(corpora()))
    node, key = draw(st.sampled_from(list(json_sites(obj))))
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(st.sampled_from(FAULT_VALUES))
    return json.dumps(obj).encode()


@settings(PROPERTY, max_examples=400)
@given(faulty_corpus_files())
def test_parse_corpus_reads_each_file_as_the_reference_parser_does(raw):
    try:
        expected = reference_parse(raw)
    except (CorpusParseError, CorpusValidationError) as e:
        with pytest.raises(type(e)) as err:
            parse_corpus(raw)
        assert str(err.value) == str(e)
    else:
        assert parse_corpus(raw) == expected


def reference_validate_document(d: Document) -> list[Violation]:
    """validate_document as it was written first: every token's element
    name formatted up front, and whitespace found with str.isspace."""
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


# empty, Unicode whitespace (no-break space, em space, file separator) and
# plain texts
ODD_TEXT = st.one_of(
    st.sampled_from(("", "a", "a b", "x\u00a0y", "\u2003", "\x1c", "é", "\t")),
    st.text(st.sampled_from("ab \u00a0\u2003\x1c\u2028\x85"), max_size=3),
)


@st.composite
def odd_documents(draw):
    """Documents that break any rule: odd token texts, negative or
    decreasing sentences, spans anywhere, reused ids, dangling endpoints."""
    tokens = draw(st.lists(st.builds(Token, ODD_TEXT, st.integers(-2, 3)), max_size=8))
    ids = st.sampled_from(("m0", "m1", "m2", "r0"))
    index = st.integers(-1, len(tokens) + 1)
    mentions = draw(st.lists(st.builds(Mention, ids, st.just("Actor"), index, index), max_size=4))
    relations = draw(st.lists(st.builds(Relation, ids, st.just("Flow"), ids, ids), max_size=3))
    return Document("d", tuple(tokens), tuple(mentions), tuple(relations))


@PROPERTY
@given(st.one_of(odd_documents(), documents()))
def test_validate_document_matches_its_reference(doc):
    assert validate_document(doc) == reference_validate_document(doc)


LEXICON = builtin_lexicon()


@pytest.mark.parametrize("name", sorted(TECHNIQUES))
@settings(PROPERTY, max_examples=60)
@given(documents(words=st.sampled_from(SITE_WORDS)), st.integers(0, 2**32 - 1))
def test_techniques_keep_documents_valid_and_relations_conserved(name, doc, seed):
    rng = Random(seed)
    params = TECHNIQUES[name].space.sample_uniform(rng)
    cfg = TechniqueConfig(name, params)
    result, _ = apply_technique(doc, cfg, rng, make_context([doc], LEXICON))
    assert validate_document(result) == []
    assert sorted((m.id, m.type) for m in result.mentions) == sorted(
        (m.id, m.type) for m in doc.mentions
    )
    assert relation_multiset(result) == relation_multiset(doc)


@pytest.mark.parametrize("name", sorted(TECHNIQUES))
@settings(PROPERTY, max_examples=60)
@given(documents(words=st.sampled_from(SITE_WORDS)), st.integers(0, 2**32 - 1))
def test_identity_configurations_reproduce_their_input(name, doc, seed):
    cfg = TechniqueConfig(name, dict(TECHNIQUES[name].identity_params), n_aug=2)
    synthetic = augment_corpus([doc], cfg, seed, lexicon=LEXICON, provider=identity_stub())
    restored = tuple(Document(doc.id, d.tokens, d.mentions, d.relations) for d in synthetic)
    expected = Corpus((doc, doc), MENTION_TYPES, RELATION_TYPES)
    assert serialize_corpus(Corpus(restored, MENTION_TYPES, RELATION_TYPES)) == serialize_corpus(expected)


# ids of augment output: a few bases, each with up to three "-aug" suffixes,
# most of them "-aug<N>", some not a synthetic suffix at all
SYNTHETIC_IDS = st.builds(
    lambda base, suffixes: base + "".join(suffixes),
    st.sampled_from(("doc-1", "doc-2", "x")),
    st.lists(st.sampled_from(("-aug1", "-aug2", "-aug3", "-aug10", "-aug", "-augx")), max_size=3),
)


@PROPERTY
@given(st.lists(SYNTHETIC_IDS, min_size=1, max_size=8, unique=True), st.integers(1, 5))
def test_synthetic_ids_are_new_and_name_their_parent(ids, n_aug):
    docs = [Document(i, (Token("it", 0),), (), ()) for i in ids]
    cfg = TechniqueConfig("random_token_deletion", {"p": 0.0}, n_aug=n_aug)
    synthetic = [d.id for d in augment_corpus(docs, cfg, 0)]
    assert len(set(synthetic)) == len(synthetic) == n_aug * len(ids)
    assert not set(synthetic) & set(ids)
    for index, source in enumerate(ids):
        replicas = synthetic[index * n_aug : (index + 1) * n_aug]
        assert [parent_id(r) for r in replicas] == [source] * n_aug
        # the first n_aug suffixes no source id holds, in order
        free = (f"{source}-aug{n}" for n in range(1, n_aug + len(ids) + 1))
        assert replicas == [r for r in free if r not in ids][:n_aug]


@st.composite
def perceptron_inputs(draw):
    """n classes and sequences of (features, gold). Either each gold is
    the class of the decision's first feature in "abc" order, which three
    features make separable, so a clean epoch is common, or the golds are
    free. Exact copies of some sequences repeat their decisions, as
    augmented corpora do, and a copy of one sequence with one gold changed
    makes a clean epoch impossible."""
    n = draw(st.integers(2, 4))
    label = dict(zip("abc", draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3))))
    features = st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True).map(sorted)
    if draw(st.booleans()):
        decision = features.map(lambda fs: (tuple(fs), label[fs[0]]))
    else:
        decision = st.tuples(features.map(tuple), st.integers(0, n - 1))
    prepared = draw(st.lists(st.lists(decision, min_size=1, max_size=4), min_size=1, max_size=5))
    prepared += draw(st.lists(st.sampled_from(prepared).map(list), max_size=3))
    if draw(st.booleans()):
        seq = list(draw(st.sampled_from(prepared)))
        i = draw(st.integers(0, len(seq) - 1))
        feats, gold = seq[i]
        seq[i] = (feats, (gold + draw(st.integers(1, n - 1))) % n)
        prepared.append(seq)
    return n, prepared


@PROPERTY
@given(perceptron_inputs(), st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_packed_training_equals_the_reference_perceptron(case, epochs, seed, tagged):
    n, prepared = case
    tags = tuple(f"t{c}" for c in range(n)) if tagged else None
    ptags = tuple(f"ptag={t}" for t in tags) if tagged else None
    assert baselines._train(prepared, n, epochs, seed, ptags) == reference_train(
        prepared, n, epochs, seed, tags
    )


@st.composite
def packed_sums(draw):
    """The fields of a sum of k packed rows and a gold class. Each field of
    a row lies in [1, 2 * _BIAS - 1], so a field of the sum lies in
    [k, k * (2 * _BIAS - 1)]; k = 0 gives the all-zero sum, and
    k = _MAX_FEATURES - 1 fields at the headroom limit. Some fields are
    copied onto others, and the gold class is often a tied highest one."""
    n = draw(st.integers(1, 16))
    most = baselines._MAX_FEATURES - 1
    k = draw(st.one_of(st.just(0), st.just(most), st.integers(1, most)))
    lo, hi = k, k * (2 * baselines._BIAS - 1)
    scores = draw(st.lists(st.one_of(st.sampled_from((lo, hi)), st.integers(lo, hi)), min_size=n, max_size=n))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        scores[i] = scores[j]
    best = [c for c, score in enumerate(scores) if score == max(scores)]
    return scores, draw(st.one_of(st.integers(0, n - 1), st.sampled_from(best)))


@PROPERTY
@given(packed_sums())
def test_the_gold_test_reads_the_argmax_from_the_packed_sum(case):
    scores, gold = case
    shifts, rights, mask, ones, top = baselines._gold_test(len(scores))
    total = sum(score << (baselines._FIELD_BITS * c) for c, score in enumerate(scores))
    wins = ((total >> shifts[gold] & mask) * ones + rights[gold] - total) & top == top
    assert wins == (scores.index(max(scores)) == gold)


@PROPERTY
@given(
    st.one_of(st.integers(0, 80), st.sampled_from((127, 128, 129, 1023, 1024, 1025, 12320))),
    st.integers(0, 2**32 - 1),
)
def test_the_epoch_shuffle_makes_the_draws_of_random_shuffle(length, seed):
    ours, theirs = Random(seed), Random(seed)
    x, y = list(range(length)), list(range(length))
    baselines._shuffle(x, ours)
    theirs.shuffle(y)
    assert x == y
    assert ours.getstate() == theirs.getstate()
    assert ours.random() == theirs.random()


@st.composite
def featurised_documents(draw):
    """Up to 30 tokens of mixed case in up to 4 sentences, whose values
    may skip by 3 or 12, and up to 6 mentions anywhere, overlapping or
    not: equal starts, gaps below zero, token distances beyond +-10 within
    a window, sentence distances beyond the table, and repeated mention
    ids all occur."""
    n = draw(st.integers(1, 30))
    words = st.sampled_from(WORDS + ("Clerk", "ORDER", "x", "<s>"))
    breaks = dict(draw(st.lists(st.tuples(st.integers(1, 29), st.sampled_from((1, 3, 12))), max_size=3)))
    sentence = 0
    tokens = []
    for i in range(n):
        sentence += breaks.get(i, 0)
        tokens.append(Token(draw(words), sentence))
    mentions = []
    for k in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, n - 1))
        end = draw(st.integers(start, min(start + 4, n - 1)))
        mention_id = draw(st.sampled_from((f"m{k}", "m0")))
        mentions.append(Mention(mention_id, draw(st.sampled_from(MENTION_TYPES)), start, end))
    return Document("d", tuple(tokens), tuple(mentions))


@PROPERTY
@given(featurised_documents(), st.sampled_from((0, 1, 2, 3, 15)))
def test_featurisation_equals_the_reference(doc, window):
    tokens = [(s, e, list(feats)) for s, e, feats in baselines._sentence_features(doc, {})]
    assert tokens == [(s, e, reference_token_features(doc, s, e)) for _, s, e in sentence_spans(doc)]
    pairs = [(id(head), id(tail), feats) for head, tail, feats in baselines._relation_pairs(doc, window)]
    assert pairs == [
        (id(head), id(tail), reference_pair_features(doc, head, tail))
        for head, tail in reference_candidate_pairs(doc, window)
    ]


@st.composite
def experiments(draw):
    """A corpus of 3-6 documents, a fold count that it admits, and a
    technique that changes documents."""
    docs = draw(st.lists(documents(words=st.sampled_from(SITE_WORDS)), min_size=3, max_size=6))
    docs = tuple(Document(f"doc-{i}", d.tokens, d.mentions, d.relations) for i, d in enumerate(docs))
    k = draw(st.integers(2, min(3, len(docs))))
    technique = draw(st.sampled_from((
        TechniqueConfig("random_token_swap", {"s": 1}),
        TechniqueConfig("lexicon_substitution", {"mode": "synonym", "p": 0.5}, n_aug=2),
    )))
    return Corpus(docs, MENTION_TYPES, RELATION_TYPES), k, technique


@settings(PROPERTY, max_examples=10)
@given(experiments(), st.integers(0, 2**32 - 1))
def test_reports_are_equal_at_1_2_and_3_workers(case, seed):
    corpus, k, technique = case
    reports = [
        cross_validate(corpus, k, technique, seed, epochs=2, lexicon=LEXICON, workers=workers)
        for workers in (1, 2, 3)
    ]
    assert reports[0] == reports[1] == reports[2]
