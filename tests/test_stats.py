import dataclasses

import pytest

from spanaug.corpus import Corpus
from spanaug.stats import compare_stats, corpus_stats
from spanaug.techniques import TechniqueConfig, augment_corpus


def synth_corpus(base, technique, params, seed=0, n_aug=1, **resources):
    cfg = TechniqueConfig(technique, params, n_aug=n_aug)
    docs = augment_corpus(base, cfg, seed, **resources)
    return Corpus(tuple(docs), base.mention_types, base.relation_types)


def test_fixture_counts(d1_corpus):
    stats = corpus_stats(d1_corpus)
    assert stats.mentions == 4
    assert stats.mean_mention_length == pytest.approx(1.25)
    assert stats.relations == 1
    assert stats.direction_fraction == 1.0
    assert stats.tokens == 10
    assert stats.vocabulary_size == 9  # "is" appears twice; casefolded


def test_empty_corpus_degenerates_to_zero():
    stats = corpus_stats(Corpus(()))
    assert stats == dataclasses.replace(stats, vocabulary_size=0, mean_mention_length=0.0,
                                        direction_fraction=0.0, tokens=0, mentions=0, relations=0)


def test_duplicated_document_keeps_vocabulary(d1_corpus):
    doubled = Corpus(
        d1_corpus.documents + (dataclasses.replace(d1_corpus.documents[0], id="copy"),)
    )
    single = corpus_stats(d1_corpus)
    stats = corpus_stats(doubled)
    assert stats.vocabulary_size == single.vocabulary_size
    assert stats.tokens == 2 * single.tokens
    assert stats.mentions == 2 * single.mentions


def test_compare_identical_corpora(corpus20):
    delta = compare_stats(corpus20, corpus20)
    assert delta.vocabulary_delta == 0
    assert delta.mention_length_delta == 0.0
    assert delta.direction_fraction_delta == 0.0
    assert delta.direction_flip_rate == 0.0
    assert delta.matched_relations == corpus_stats(corpus20).relations
    assert delta.unmatched_relations == 0


def test_shuffle_keeps_vocab_and_mention_lengths(corpus20):
    shuffled = synth_corpus(corpus20, "shuffle_within_segments", {"p": 1.0}, seed=3)
    delta = compare_stats(corpus20, shuffled)
    assert delta.vocabulary_delta == 0
    assert delta.mention_length_delta == 0.0
    assert delta.direction_flip_rate == 0.0


def test_sentence_reordering_flips_directions(corpus20):
    reordered = synth_corpus(corpus20, "sentence_reordering", {"p": 1.0}, seed=5)
    delta = compare_stats(corpus20, reordered)
    assert delta.direction_flip_rate > 0.0
    assert delta.unmatched_relations == 0


def test_filler_inside_mentions_grows_them(corpus20):
    grown = synth_corpus(
        corpus20, "filler_word_insertion", {"p": 0.3, "in_mentions": True}, seed=8
    )
    delta = compare_stats(corpus20, grown)
    assert delta.mention_length_delta > 0.0


def test_substitution_never_shrinks_union_vocabulary(corpus20):
    synthetic = synth_corpus(
        corpus20, "lexicon_substitution", {"mode": "synonym", "p": 0.8}, seed=2
    )
    union = Corpus(corpus20.documents + synthetic.documents)
    delta = compare_stats(corpus20, union)
    assert delta.vocabulary_delta >= 0


def test_unmatched_relations_are_counted(corpus20):
    foreign = dataclasses.replace(corpus20.documents[0], id="alien")
    delta = compare_stats(
        Corpus(corpus20.documents[1:]), Corpus((foreign,))
    )
    assert delta.matched_relations == 0
    assert delta.unmatched_relations == len(foreign.relations)
    assert delta.direction_flip_rate == 0.0


def test_ratio_handles_zero_baseline():
    empty = Corpus(())
    delta = compare_stats(empty, empty)
    assert delta.vocabulary_ratio is None
    assert delta.mention_length_ratio is None
