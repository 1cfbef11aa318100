"""Property tests over generated documents and corpora.

* Any list of edits keeps a document valid, keeps every mention, and
  conserves the multiset of (relation type, head id, tail id).
* An applied edit keeps the token texts of every mention it does not touch.
* So does every technique, at any parameter values in its space.
* A corpus survives serialize_corpus then parse_corpus unchanged.

Generation is derandomized and the number of examples bounded, so these
tests are deterministic and take a few seconds.
"""

from collections import Counter
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spanaug.corpus import (
    Corpus,
    Document,
    Mention,
    Relation,
    Token,
    parse_corpus,
    serialize_corpus,
    validate_document,
)
from spanaug.edits import (
    DeleteTokens,
    InsertTokens,
    MergeSentences,
    PermuteSentences,
    ReplaceSpan,
    SwapTokens,
    apply_edit,
    apply_edits,
    sentence_spans,
)
from spanaug.lexicon import builtin_lexicon
from spanaug.techniques import TECHNIQUES, TechniqueConfig, apply_technique, make_context

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


@st.composite
def corpora(draw):
    count = draw(st.integers(0, 4))
    docs = tuple(draw(documents(f"doc-{i}", words=TOKEN_TEXT)) for i in range(count))
    return Corpus(docs, MENTION_TYPES, RELATION_TYPES)


@PROPERTY
@given(corpora())
def test_serialize_then_parse_round_trips(corpus):
    assert parse_corpus(serialize_corpus(corpus)) == corpus


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
