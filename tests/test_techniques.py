import dataclasses
import hashlib
import itertools
import math
import time
from collections import Counter
from random import Random

import pytest

from corpora import random_fixture_document

from spanaug.corpus import (
    Corpus,
    Document,
    Mention,
    Relation,
    make_document,
    serialize_corpus,
    validate_document,
)
from spanaug.lexicon import LexEntry, Lexicon, builtin_lexicon
from spanaug import techniques
from spanaug.providers import ParaphraseProvider, ProviderError, StubProvider, identity_stub
from spanaug.techniques import (
    TECHNIQUES,
    ConfigError,
    ParamSpace,
    TechniqueConfig,
    UnknownTechniqueError,
    apply_technique,
    augment_corpus,
    list_techniques,
    make_context,
    origin_id,
    resolve_technique,
)

HOT_PARAMS = {
    "random_token_deletion": {"p": 0.5},
    "random_token_insertion": {"n": 3},
    "random_token_swap": {"s": 3},
    "filler_word_insertion": {"p": 0.5, "in_mentions": True},
    "synonym_insertion": {"p": 0.7},
    "lexicon_substitution": {"mode": "synonym", "p": 0.7},
    "auxiliary_negation_removal": {"p": 1.0},
    "abbreviation_toggle": {"p": 1.0},
    "mention_replacement": {"p": 0.7},
    "shuffle_within_segments": {"p": 0.8},
    "sentence_reordering": {"p": 1.0},
    "sentence_concatenation": {"n_merges": 2},
    "subsequence_substitution": {"p": 0.7},
    "paraphrase_spans": {"pivot": "fr"},
    "model_word_replacement": {"p": 0.5, "in_mentions": True},
}


def relation_multiset(doc):
    return sorted((r.type, r.head, r.tail) for r in doc.relations)


def run(doc, technique, params, seed=0, **resources):
    ctx = make_context(resources.pop("donor", [doc]), **resources)
    cfg = TechniqueConfig(technique, params)
    return apply_technique(doc, cfg, Random(seed), ctx)


def one_word_lexicon():
    return Lexicon(
        entries={("examined", "VERB"): LexEntry(synonyms=("inspected",))},
        pos={"examined": "VERB"},
    )


# --- identity configurations -------------------------------------------------


@pytest.mark.parametrize("name", sorted(TECHNIQUES))
def test_identity_configuration_reproduces_input(name, d1):
    technique = TECHNIQUES[name]
    cfg = TechniqueConfig(name, dict(technique.identity_params))
    out = augment_corpus([d1], cfg, 3, provider=identity_stub())
    assert len(out) == 1
    assert out[0].id == "D1-aug1"
    restored = dataclasses.replace(out[0], id=d1.id)
    assert serialize_corpus(Corpus((restored,))) == serialize_corpus(Corpus((d1,)))


# --- random token deletion ----------------------------------------------------


def test_deletion_p1_keeps_only_mention_tokens(d1):
    doc, _ = run(d1, "random_token_deletion", {"p": 1.0})
    assert [t.text for t in doc.tokens] == ["a", "claim", "registered", "it", "examined"]
    assert relation_multiset(doc) == relation_multiset(d1)


def test_deletion_never_touches_mention_tokens(d1):
    for seed in range(20):
        doc, _ = run(d1, "random_token_deletion", {"p": 0.8}, seed=seed)
        assert validate_document(doc) == []
        assert {doc.mention_texts(m) for m in doc.mentions} == {
            d1.mention_texts(m) for m in d1.mentions
        }


def test_deletion_half_probability(d1):
    doc, _ = run(d1, "random_token_deletion", {"p": 0.5}, seed=42)
    assert validate_document(doc) == []
    assert 4 <= len(doc.tokens) <= 10


# --- random token insertion ---------------------------------------------------


def test_insertion_counts(d1):
    doc, _ = run(d1, "random_token_insertion", {"n": 3})
    assert len(doc.tokens) == 13
    assert len(doc.mentions) == 4
    assert relation_multiset(doc) == relation_multiset(d1)


def test_insertion_is_reproducible(d1):
    a, _ = run(d1, "random_token_insertion", {"n": 5}, seed=9)
    b, _ = run(d1, "random_token_insertion", {"n": 5}, seed=9)
    assert a == b


def test_insertion_never_grows_mentions(d1):
    for seed in range(20):
        doc, _ = run(d1, "random_token_insertion", {"n": 4}, seed=seed)
        assert [m.length for m in doc.mentions] == [m.length for m in d1.mentions]


# --- random token swap ----------------------------------------------------------


def test_swap_conserves_token_multiset(d1):
    doc, _ = run(d1, "random_token_swap", {"s": 5}, seed=4)
    assert Counter(t.text for t in doc.tokens) == Counter(t.text for t in d1.tokens)
    assert validate_document(doc) == []


def test_swap_single_token_document_is_flagged():
    doc = make_document("one", [("word", 0)])
    out, no_op = run(doc, "random_token_swap", {"s": 3})
    assert no_op
    assert out == doc


# --- filler word insertion ------------------------------------------------------


def test_filler_every_point_hand_fold(d1):
    lex = Lexicon(fillers=("I think",))
    doc, _ = run(d1, "filler_word_insertion", {"p": 1.0, "in_mentions": False}, lexicon=lex)
    assert [t.text for t in doc.tokens] == [
        "I", "think", "After", "a", "claim", "is", "registered", ",",
        "I", "think", "it", "is", "examined", ".",
    ]
    assert [(m.id, m.start, m.end) for m in doc.mentions] == [
        ("M1", 3, 4), ("M2", 6, 6), ("M3", 10, 10), ("M4", 12, 12),
    ]


def test_filler_interior_point_grows_mention():
    doc = make_document(
        "abbr",
        [("the", 0), ("Manager", 0), (",", 0), ("Operations", 0), ("acts", 0), (".", 0)],
        [Mention("m", "Actor", 1, 3)],
    )
    lex = Lexicon(fillers=("you know",))
    out, _ = run(doc, "filler_word_insertion", {"p": 1.0, "in_mentions": True}, lexicon=lex)
    grown = out.mention_by_id("m")
    assert grown.length == 3 + 2  # phrase length added inside the span
    assert validate_document(out) == []


def test_filler_outside_mentions_never_changes_lengths(corpus20):
    lex = builtin_lexicon()
    for doc in corpus20.documents[:8]:
        out, _ = run(doc, "filler_word_insertion", {"p": 1.0, "in_mentions": False}, lexicon=lex)
        assert [m.length for m in out.mentions] == [m.length for m in doc.mentions]


# --- synonym insertion ------------------------------------------------------------


def test_synonym_insertion_grows_covering_mention(d1):
    doc, _ = run(d1, "synonym_insertion", {"p": 1.0}, lexicon=one_word_lexicon())
    assert len(doc.tokens) == 11
    assert doc.tokens[8].text == "inspected"
    assert doc.tokens[9].text == "examined"
    assert doc.mention_by_id("M4") == Mention("M4", "Activity", 8, 9)


def test_synonym_insertion_empty_lexicon_is_noop(d1):
    out, no_op = run(d1, "synonym_insertion", {"p": 1.0}, lexicon=Lexicon())
    assert no_op
    assert out == d1


def test_synonym_insertion_and_substitution_share_the_lexicons_memo(corpus20):
    lex = builtin_lexicon()
    augment_corpus(corpus20, TechniqueConfig("synonym_insertion", {"p": 0.5}), 1, lexicon=lex)
    filled = dict(lex._substitutes)
    assert filled and {mode for mode, _ in filled} == {"synonym"}
    assert {text for _, text in filled} == {t.text for d in corpus20.documents for t in d.tokens}
    cfg = TechniqueConfig("lexicon_substitution", {"mode": "synonym", "p": 0.5}, n_aug=3)
    augment_corpus(corpus20, cfg, 2, lexicon=lex)
    assert lex._substitutes == filled  # every lookup was already there


# --- lexicon substitution -----------------------------------------------------------


def test_substitution_replaces_exactly_covered_tokens(d1):
    doc, _ = run(d1, "lexicon_substitution", {"mode": "synonym", "p": 1.0}, lexicon=one_word_lexicon())
    changed = {
        i for i, (a, b) in enumerate(zip(d1.tokens, doc.tokens)) if a.text != b.text
    }
    assert changed == {8}
    assert doc.tokens[8].text == "inspected"
    assert doc.mention_by_id("M4") == Mention("M4", "Activity", 8, 8)


def test_substitution_even_antonyms_needs_two_sites():
    lex = Lexicon(
        entries={("large", "ADJ"): LexEntry(antonyms=("small",))},
        pos={"large": "ADJ"},
    )
    doc = make_document("adj", [("a", 0), ("large", 0), ("order", 0)])
    out, no_op = run(doc, "lexicon_substitution", {"mode": "antonym_even", "k": 2}, lexicon=lex)
    assert no_op
    assert out == doc


def test_substitution_even_antonyms_replaces_even_count():
    lex = Lexicon(
        entries={("large", "ADJ"): LexEntry(antonyms=("small",))},
        pos={"large": "ADJ"},
    )
    tokens = [("large", 0)] * 5 + [("box", 0)]
    doc = make_document("adj", tokens)
    out, _ = run(doc, "lexicon_substitution", {"mode": "antonym_even", "k": 5}, lexicon=lex)
    replaced = sum(1 for t in out.tokens if t.text == "small")
    assert replaced == 4  # largest even count <= 5 available sites


def test_substitution_adjective_mode_targets_adjectives_only():
    lex = Lexicon(
        entries={
            ("large", "ADJ"): LexEntry(antonyms=("small",)),
            ("check", "VERB"): LexEntry(antonyms=("ignore",)),
        },
        pos={"large": "ADJ", "check": "VERB"},
    )
    doc = make_document("adj", [("check", 0), ("the", 0), ("large", 0), ("order", 0)])
    out, _ = run(doc, "lexicon_substitution", {"mode": "adjective_antonym", "p": 1.0}, lexicon=lex)
    assert [t.text for t in out.tokens] == ["check", "the", "small", "order"]


# --- auxiliary negation removal ---------------------------------------------------


def test_negation_after_auxiliary_deleted():
    doc = make_document(
        "neg",
        [("it", 0), ("is", 0), ("not", 0), ("examined", 0), (".", 0)],
        [Mention("m", "Activity", 3, 3)],
    )
    out, _ = run(doc, "auxiliary_negation_removal", {"p": 1.0})
    assert [t.text for t in out.tokens] == ["it", "is", "examined", "."]
    assert out.mention_by_id("m").start == 2


def test_negation_without_auxiliary_untouched(d1):
    out, no_op = run(d1, "auxiliary_negation_removal", {"p": 1.0})
    assert no_op
    assert out == d1


def test_negation_inside_single_token_mention_kept():
    doc = make_document(
        "neg",
        [("it", 0), ("does", 0), ("not", 0), ("apply", 0)],
        [Mention("m", "Further Specification", 2, 2)],
    )
    out, no_op = run(doc, "auxiliary_negation_removal", {"p": 1.0})
    assert not no_op  # a match existed, the edit engine rejected it
    assert out == doc


# --- abbreviation toggle ------------------------------------------------------------


def abbr_lexicon():
    return Lexicon(
        abbreviations={"po": "Purchase Order"},
        expansions={"purchase order": "PO"},
    )


def test_abbreviation_expansion_grows_mention():
    doc = make_document(
        "ab",
        [("the", 0), ("PO", 0), ("arrives", 0)],
        [Mention("m", "Activity Data", 1, 1)],
    )
    out, _ = run(doc, "abbreviation_toggle", {"p": 1.0}, lexicon=abbr_lexicon())
    assert [t.text for t in out.tokens] == ["the", "Purchase", "Order", "arrives"]
    assert out.mention_by_id("m") == Mention("m", "Activity Data", 1, 2)


def test_abbreviation_round_trip():
    doc = make_document(
        "ab",
        [("the", 0), ("PO", 0), ("arrives", 0)],
        [Mention("m", "Activity Data", 1, 1)],
    )
    expanded, _ = run(doc, "abbreviation_toggle", {"p": 1.0}, lexicon=abbr_lexicon())
    contracted, _ = run(expanded, "abbreviation_toggle", {"p": 1.0}, lexicon=abbr_lexicon())
    assert contracted == doc


def test_abbreviation_skips_cross_boundary_long_forms():
    doc = make_document(
        "ab",
        [("Purchase", 0), ("Order", 0), ("arrives", 0)],
        [Mention("m", "Activity Data", 1, 2)],  # long form straddles boundary
    )
    out, no_op = run(doc, "abbreviation_toggle", {"p": 1.0}, lexicon=abbr_lexicon())
    assert no_op
    assert out == doc


def reference_abbreviation_matches(d, lex):
    """The matcher without the first-word index: every long form, longest
    first and then in order of the long form, is tried at every token."""
    mask = techniques._mention_mask(d)
    long_forms = sorted(
        ((tuple(w.lower() for w in long.split()), short) for long, short in sorted(lex.expansions.items())),
        key=lambda f: -len(f[0]),
    )
    matches = []
    i = 0
    n = len(d.tokens)
    while i < n:
        hit = None
        for form, short in long_forms:
            L = len(form)
            if L >= 2 and i + L <= n:
                window = tuple(t.text.lower() for t in d.tokens[i : i + L])
                if window == form and len({id(mask[j]) for j in range(i, i + L)}) == 1:
                    hit = (i, i + L - 1, (short,))
                    break
        if hit is None:
            long = lex.abbreviations.get(d.tokens[i].text.lower())
            if long:
                hit = (i, i, techniques._split_words(long))
        if hit:
            matches.append(hit)
            i = hit[1] + 1
        else:
            i += 1
    return matches


def test_abbreviation_matches_equal_the_unindexed_matcher(corpus20, lexicon):
    nested = Lexicon(
        abbreviations={"po": "Purchase Order", "of": "Order Form", "pof": "Purchase Order Form"},
        expansions={
            "purchase order": "PO",
            "purchase order form": "POF",
            "order form": "OF",
            "purchase request": "PR",
            "form": "F",
        },
    )
    words = (
        "The Purchase Order Form , purchase order form and ORDER FORM , PO , POF ; purchase request"
    ).split()
    mentions = [Mention("a", "Activity Data", 2, 3), Mention("b", "Activity Data", 5, 7), Mention("c", "Actor", 9, 10)]
    hand = make_document("nested", [(w, 0) for w in words], mentions)
    cases = [(d, lexicon) for d in corpus20.documents + golden_corpus(corpus20).documents[-1:]]
    cases += [(hand, nested), (dataclasses.replace(hand, mentions=()), nested)]
    found = 0
    for d, lex in cases:
        expected = reference_abbreviation_matches(d, lex)
        assert techniques._abbreviation_matches(d, make_context([d], lex)) == expected
        found += len(expected)
    assert found > 10


# --- mention replacement -------------------------------------------------------------


def test_mention_replacement_swaps_same_type_texts(d1):
    doc, _ = run(d1, "mention_replacement", {"p": 1.0}, seed=3)
    assert doc.mention_texts(doc.mention_by_id("M2")) in (("registered",), ("examined",))
    # with one candidate each, p=1 swaps both activities
    assert doc.mention_texts(doc.mention_by_id("M2")) == ("examined",)
    assert doc.mention_texts(doc.mention_by_id("M4")) == ("registered",)
    assert relation_multiset(doc) == relation_multiset(d1)


def test_mention_replacement_single_candidate_type_untouched():
    doc = make_document(
        "single",
        [("the", 0), ("clerk", 0), ("files", 0)],
        [Mention("a", "Actor", 1, 1), Mention("v", "Activity", 2, 2)],
    )
    for seed in range(10):
        out, _ = run(doc, "mention_replacement", {"p": 1.0}, seed=seed)
        assert out == doc


# --- shuffle within segments ----------------------------------------------------------


def test_shuffle_conserves_segment_multisets(corpus20):
    from spanaug.edits import free_spans

    for doc in corpus20.documents[:8]:
        out, _ = run(doc, "shuffle_within_segments", {"p": 1.0}, seed=11)
        assert validate_document(out) == []
        assert [(m.start, m.end) for m in out.mentions] == [
            (m.start, m.end) for m in doc.mentions
        ]
        for s, e in [(m.start, m.end) for m in doc.mentions] + free_spans(doc):
            before = Counter(t.text for t in doc.tokens[s : e + 1])
            after = Counter(t.text for t in out.tokens[s : e + 1])
            assert before == after


def test_shuffle_keeps_vocabulary(corpus20):
    synthetic = augment_corpus(corpus20, TechniqueConfig("shuffle_within_segments", {"p": 1.0}), 5)
    before = {t.text.lower() for d in corpus20.documents for t in d.tokens}
    after = {t.text.lower() for d in synthetic for t in d.tokens}
    assert before == after


# --- sentence reordering ----------------------------------------------------------------


def test_reordering_single_sentence_is_noop(d1):
    out, no_op = run(d1, "sentence_reordering", {"p": 1.0})
    assert no_op and out == d1


def test_reordering_conserves_sentence_bags():
    doc = random_fixture_document("multi", Random(2), n_sentences=3)
    out, _ = run(doc, "sentence_reordering", {"p": 1.0}, seed=8)
    assert validate_document(out) == []

    def bags(d):
        by_sentence = {}
        for t in d.tokens:
            by_sentence.setdefault(t.sentence, []).append(t.text)
        return sorted(map(tuple, by_sentence.values()))

    assert bags(out) == bags(doc)
    assert out != doc  # p=1 on 3 sentences always applies a non-identity order


def test_reordering_respects_max_displacement():
    doc = random_fixture_document("multi", Random(3), n_sentences=4)
    from spanaug.edits import sentence_spans

    def sentence_texts(d):
        spans = sentence_spans(d)
        return [tuple(t.text for t in d.tokens[s : e + 1]) for _, s, e in spans]

    original = sentence_texts(doc)
    for seed in range(10):
        out, _ = run(doc, "sentence_reordering", {"p": 1.0, "max_displacement": 1}, seed=seed)
        moved = sentence_texts(out)
        positions = [original.index(s) for s in moved]
        assert all(abs(new - old) <= 1 for new, old in enumerate(positions))


@pytest.mark.parametrize("max_displacement", [1, 2, 3])
def test_bounded_reordering_always_moves_a_sentence(max_displacement):
    doc = make_document("ten", [(f"s{k}", k) for k in range(10)])
    for seed in range(50):
        out, _ = run(doc, "sentence_reordering", {"p": 1.0, "max_displacement": max_displacement}, seed=seed)
        order = [int(t.text[1:]) for t in out.tokens]
        assert order != list(range(10))
        assert all(abs(new - old) <= max_displacement for new, old in enumerate(order))


@pytest.mark.parametrize("n, max_displacement", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_bounded_order_is_uniform(n, max_displacement):
    """Each order that moves no sentence more than max_displacement places
    comes up in 1/m of the draws, m being the number of such orders, to
    within five binomial standard deviations of 6,000 draws (the old
    sequential sampler drew (1, 0, 2) half the time at n=3, d=1, 27
    deviations above its share)."""
    allowed = [
        order
        for order in itertools.permutations(range(n))
        if all(abs(k - j) <= max_displacement for k, j in enumerate(order))
    ]
    draws = 6000
    rng = Random(7)
    ctx = make_context([])
    counts = Counter(tuple(techniques._bounded_order(n, max_displacement, rng, ctx)) for _ in range(draws))
    assert set(counts) == set(allowed)
    share = 1 / len(allowed)
    tolerance = 5 * (draws * share * (1 - share)) ** 0.5
    assert all(abs(counts[order] - draws * share) <= tolerance for order in allowed)
    assert ctx.order_counts(max_displacement, n)[n][(1 << max_displacement) - 1] == len(allowed)


def test_bounded_reordering_cost_is_bounded_at_the_largest_bound():
    """The completion counts grow with C(2d, d) for d = max_displacement,
    so the space stops at d = 5. There one context holds one table of
    C(10, 5) = 252 entries a level for every document and replica, and
    three draws on 300 sentences take about 0.25 s on one core (Python
    3.11): 10 s leaves room for a loaded machine."""
    largest = TECHNIQUES["sentence_reordering"].space["max_displacement"].high
    assert largest == 5
    with pytest.raises(ConfigError, match="outside"):
        TechniqueConfig("sentence_reordering", {"max_displacement": largest + 1}).resolved
    n = 300
    doc = make_document("long", [(f"s{k}", k) for k in range(n)])
    cfg = TechniqueConfig("sentence_reordering", {"p": 1.0, "max_displacement": largest})
    ctx = make_context([doc])
    started = time.perf_counter()
    for seed in range(3):
        out, _ = apply_technique(doc, cfg, Random(seed), ctx)
        order = [int(t.text[1:]) for t in out.tokens]
        assert sorted(order) == list(range(n)) and order != list(range(n))
        assert all(abs(new - old) <= largest for new, old in enumerate(order))
    assert time.perf_counter() - started < 10
    assert list(ctx._order_counts) == [largest]
    assert [len(level) for level in ctx._order_counts[largest]] == [math.comb(2 * largest, largest)] * (n + 1)


# --- sentence concatenation ------------------------------------------------------------


def test_concatenation_hand_fold():
    doc = make_document(
        "two",
        [("A", 0), ("claim", 0), (".", 0), ("The", 1), ("clerk", 1), ("files", 1), (".", 1)],
        [Mention("m0", "Activity Data", 1, 1), Mention("m1", "Actor", 4, 4)],
    )
    out, _ = run(doc, "sentence_concatenation", {"n_merges": 1})
    assert [t.text for t in out.tokens] == ["A", "claim", "The", "clerk", "files", "."]
    assert len({t.sentence for t in out.tokens}) == 1
    assert out.mention_by_id("m1").start == 3


def test_concatenation_without_punctuation_only_joins():
    doc = make_document("two", [("one", 0), ("two", 1)])
    out, _ = run(doc, "sentence_concatenation", {"n_merges": 1})
    assert [t.text for t in out.tokens] == ["one", "two"]
    assert {t.sentence for t in out.tokens} == {0}


# --- subsequence substitution ------------------------------------------------------------


def test_subsequence_substitution_conserves_tag_sequences(corpus20, lexicon):
    donor = list(corpus20.documents)
    for doc in corpus20.documents[:6]:
        out, _ = run(doc, "subsequence_substitution", {"p": 1.0}, lexicon=lexicon, donor=donor)
        assert validate_document(out) == []
        before = [lexicon.coarse_pos(t.text) for t in doc.tokens]
        after = [lexicon.coarse_pos(t.text) for t in out.tokens]
        assert before == after


def test_subsequence_substitution_without_matches_is_unchanged(d1):
    # a lexicon tagging everything OTHER and a donor with disjoint vocabulary
    donor = [make_document("don", [("zz", 0)])]
    out, _ = run(d1, "subsequence_substitution", {"p": 1.0}, lexicon=Lexicon(), donor=donor)
    # every site's tag sequence exists in the donor index only for width-1
    assert validate_document(out) == []
    assert len(out.tokens) == len(d1.tokens)


# --- paraphrase spans -----------------------------------------------------------------------


def test_paraphrase_partition_of_fixture(d1):
    from spanaug.techniques import _partition_pieces

    pieces = _partition_pieces(d1)
    assert len(pieces) == 9
    covered = sorted(i for s, e, _ in pieces for i in range(s, e + 1))
    assert covered == list(range(10))


def test_paraphrase_identity_stub_is_identity(d1):
    out, _ = run(d1, "paraphrase_spans", {}, provider=identity_stub())
    assert out == d1


def test_paraphrase_mention_rewrite_keeps_span_length(d1):
    provider = StubProvider({"a": ["the"]})
    out, _ = run(d1, "paraphrase_spans", {}, provider=provider)
    assert out.mention_by_id("M1").length == 2
    assert out.mention_texts(out.mention_by_id("M1")) == ("the", "claim")


def test_paraphrase_degrades_to_identity_on_provider_failure(d1):
    class Failing(ParaphraseProvider):
        def rewrite(self, texts, mode, pivot=None, seed=0):
            raise ProviderError("boom")

    out, _ = run(d1, "paraphrase_spans", {}, provider=Failing())
    assert out == d1


class WrongLength(ParaphraseProvider):
    """Rewrites every text to "foo" but answers with `extra` more (or
    fewer) rewrites than it was given texts."""

    def __init__(self, extra):
        self.extra = extra

    def rewrite(self, texts, mode, pivot=None, seed=0):
        return ["foo"] * (len(texts) + self.extra)


@pytest.mark.parametrize("extra", [-1, 1])
def test_paraphrase_reply_of_wrong_length_keeps_document(extra, d1, caplog):
    out, _ = run(d1, "paraphrase_spans", {}, provider=WrongLength(extra))
    assert out == d1
    assert "rewrites for 9 texts" in caplog.text


# --- model word replacement -------------------------------------------------------------------


def test_model_replacement_identity_stub(d1):
    out, _ = run(d1, "model_word_replacement", {"p": 1.0}, provider=identity_stub())
    assert out == d1


def test_model_replacement_fixed_word(d1):
    class Fixed(ParaphraseProvider):
        def rewrite(self, texts, mode, pivot=None, seed=0):
            return ["foo"] * len(texts)

    out, _ = run(d1, "model_word_replacement", {"p": 1.0, "in_mentions": False}, provider=Fixed())
    mention_positions = {i for m in d1.mentions for i in range(m.start, m.end + 1)}
    for i, t in enumerate(out.tokens):
        assert t.text == ("foo" if i not in mention_positions else d1.tokens[i].text)


@pytest.mark.parametrize("extra", [-1, 1])
def test_model_replacement_reply_of_wrong_length_keeps_document(extra, d1, caplog):
    params = {"p": 1.0, "in_mentions": True}
    out, _ = run(d1, "model_word_replacement", params, provider=WrongLength(extra))
    assert out == d1
    assert f"rewrites for {len(d1.tokens)} texts" in caplog.text


def test_model_replacement_deterministic(d1):
    provider = StubProvider({"registered": ["recorded", "filed"]})
    a, _ = run(d1, "model_word_replacement", {"p": 1.0}, seed=5, provider=provider)
    b, _ = run(d1, "model_word_replacement", {"p": 1.0}, seed=5, provider=provider)
    assert a == b


# --- shared machinery ----------------------------------------------------------------------


def test_unknown_technique_rejected(d1):
    with pytest.raises(UnknownTechniqueError):
        augment_corpus([d1], TechniqueConfig("no_such_thing", {}), 0)


def test_unknown_technique_is_a_config_error_listing_the_known_ones():
    with pytest.raises(ConfigError) as err:
        resolve_technique("no_such_thing")
    assert str(err.value) == (
        f"unknown technique 'no_such_thing'; known: {', '.join(list_techniques())}"
    )


def test_alias_lookup():
    assert resolve_technique("B.79").name == "random_token_deletion"
    assert resolve_technique("random_insert").name == "random_token_insertion"
    assert resolve_technique("b.101").name == "lexicon_substitution"


def test_out_of_range_params_rejected(d1):
    with pytest.raises(ConfigError):
        TechniqueConfig("random_token_deletion", {"p": 1.5}).resolved
    with pytest.raises(ConfigError):
        TechniqueConfig("random_token_deletion", {"nope": 1}).resolved
    for flag in (1, 0, 1.0):  # equal to True or False, but not a boolean
        with pytest.raises(ConfigError, match="in_mentions"):
            TechniqueConfig("filler_word_insertion", {"in_mentions": flag}).resolved
    for n_aug in (0, 6):  # rejected at construction
        with pytest.raises(ConfigError, match="n_aug"):
            TechniqueConfig("random_token_deletion", {}, n_aug=n_aug)


def test_n_aug_is_not_a_technique_parameter():
    assert not [name for name, t in TECHNIQUES.items() if "n_aug" in t.space]
    with pytest.raises(ConfigError, match="unknown parameter"):
        TechniqueConfig("random_token_deletion", {"n_aug": 1}).resolved


def test_config_keeps_its_own_copy_of_params():
    params = {"p": 0.5}
    cfg = TechniqueConfig("random_token_deletion", params)
    params["p"] = 0.9
    assert cfg.params == {"p": 0.5}
    assert cfg.resolved[1] == {"p": 0.5}


def test_augment_corpus_validates_the_config_once(monkeypatch, corpus20):
    calls = []
    validate = ParamSpace.validate

    def counting(self, values):
        calls.append(values)
        return validate(self, values)

    monkeypatch.setattr(ParamSpace, "validate", counting)
    cfg = TechniqueConfig("random_token_deletion", {"p": 0.5}, n_aug=2)
    out = augment_corpus(corpus20.documents[:3], cfg, 0)
    assert len(out) == 6
    assert len(calls) == 1


def test_n_aug_produces_suffixed_documents(d1):
    out = augment_corpus(
        [d1], TechniqueConfig("random_token_insertion", {"n": 1}, n_aug=3), 2
    )
    assert [doc.id for doc in out] == ["D1-aug1", "D1-aug2", "D1-aug3"]
    for doc in out:
        assert origin_id(doc.id) == "D1"


def test_origin_id_strips_nested_suffixes():
    assert origin_id("doc3-aug2") == "doc3"
    assert origin_id("doc3-aug2-aug1") == "doc3"
    assert origin_id("doc3") == "doc3"
    assert origin_id("doc-augX") == "doc-augX"


@pytest.mark.parametrize("name", sorted(TECHNIQUES))
def test_universal_conservation_and_determinism(name, corpus20, lexicon):
    cfg = TechniqueConfig(name, HOT_PARAMS[name])
    for seed in (0, 1):
        first = augment_corpus(corpus20, cfg, seed, lexicon=lexicon)
        second = augment_corpus(corpus20, cfg, seed, lexicon=lexicon)
        types = Corpus(tuple(first), corpus20.mention_types, corpus20.relation_types)
        assert serialize_corpus(types) == serialize_corpus(
            Corpus(tuple(second), corpus20.mention_types, corpus20.relation_types)
        )
        by_origin = {d.id: d for d in corpus20.documents}
        for doc in first:
            assert validate_document(doc) == []
            source = by_origin[origin_id(doc.id)]
            assert len(doc.mentions) == len(source.mentions)
            assert relation_multiset(doc) == relation_multiset(source)


DIRECTION_CHANGERS = {"sentence_reordering", "sentence_concatenation"}


@pytest.mark.parametrize("name", sorted(set(TECHNIQUES) - DIRECTION_CHANGERS))
def test_relation_direction_preserved(name, corpus20, lexicon):
    cfg = TechniqueConfig(name, HOT_PARAMS[name])
    synthetic = augment_corpus(corpus20, cfg, 3, lexicon=lexicon)
    by_origin = {d.id: d for d in corpus20.documents}

    def sign(doc, relation):
        mentions = {m.id: m for m in doc.mentions}
        return mentions[relation.head].start < mentions[relation.tail].start

    for doc in synthetic:
        source = by_origin[origin_id(doc.id)]
        source_relations = {r.id: r for r in source.relations}
        for r in doc.relations:
            assert sign(doc, r) == sign(source, source_relations[r.id])


# --- golden bytes ------------------------------------------------------------------

GOLDEN_CONFIGS = list(HOT_PARAMS.items()) + [
    ("sentence_reordering", {"p": 1.0, "max_displacement": 2}),
    ("lexicon_substitution", {"mode": "antonym_even", "k": 2}),
    ("lexicon_substitution", {"mode": "adjective_antonym", "p": 0.7}),
    ("sentence_concatenation", {"n_merges": 10}),
]
# SHA-256 over every configuration's serialized output at each seed. A
# refactor of the catalog must leave it unchanged; a change of output bytes
# updates it and says why. Last change: sentence_reordering draws bounded
# orders uniformly, which moved the bytes of its max_displacement=2
# configuration and of no other.
GOLDEN_DIGEST = "6fc206e5fa9f2249b075667595250fc0aa369a276285456dd9a9d9ecbea644c0"


def golden_corpus(corpus20):
    """corpus20 plus one document with the sites corpus20 lacks: negated
    auxiliaries (one inside a mention), a long form inside a mention, a
    short form, and adjectives with antonyms."""
    words = (
        "The CEO does n't approve the invalid PO . "
        "If the form is not valid , the Human Resources manager rejects it ."
    ).split()
    boundary = words.index(".") + 1
    extra = make_document(
        "catalog",
        [(w, int(i >= boundary)) for i, w in enumerate(words)],
        [
            Mention("c1", "Actor", 1, 1),
            Mention("c2", "Activity", 4, 4),
            Mention("c3", "Activity Data", 6, 7),
            Mention("c4", "Activity Data", 10, 14),
            Mention("c5", "Actor", 17, 19),
            Mention("c6", "Activity", 20, 20),
        ],
        [
            Relation("k1", "Actor Performer", "c2", "c1"),
            Relation("k2", "Uses", "c2", "c3"),
            Relation("k3", "Flow", "c2", "c6"),
            Relation("k4", "Actor Performer", "c6", "c5"),
            Relation("k5", "Uses", "c6", "c4"),
        ],
    )
    return Corpus(corpus20.documents + (extra,), corpus20.mention_types, corpus20.relation_types)


def test_catalog_bytes_match_recorded_digest(corpus20, lexicon):
    corpus = golden_corpus(corpus20)
    by_id = {d.id: d for d in corpus.documents}
    digest = hashlib.sha256()
    changed = set()
    for name, params in GOLDEN_CONFIGS:
        cfg = TechniqueConfig(name, params, n_aug=2)
        for seed in (0, 1, 2):
            out = augment_corpus(corpus, cfg, seed, lexicon=lexicon)
            types = (corpus.mention_types, corpus.relation_types)
            digest.update(serialize_corpus(Corpus(tuple(out), *types)))
            if any(dataclasses.replace(d, id=origin_id(d.id)) != by_id[origin_id(d.id)] for d in out):
                changed.add(name)
    assert changed == set(TECHNIQUES)
    assert digest.hexdigest() == GOLDEN_DIGEST
