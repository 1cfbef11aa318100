import copy
import dataclasses
import pickle
from random import Random

import pytest

from spanaug import baselines
from spanaug.baselines import (
    RelModel,
    TaggerModel,
    predict_mentions,
    predict_relations,
    predict_tags,
    train_relations,
    train_tagger,
)
from corpora import (
    fixture_corpus,
    separable_relation_corpus,
    separable_tagger_corpus,
    synonym_class_corpus,
)

from spanaug.corpus import Corpus, Document, Mention, Relation, make_document, validate_document
from spanaug.edits import sentence_spans


def mention_keys(mentions):
    return sorted((m.type, m.start, m.end) for m in mentions)


def relation_keys(relations):
    return sorted((r.type, r.head, r.tail) for r in relations)


# --- tagger -------------------------------------------------------------------


def test_tagger_fits_separable_corpus():
    corpus = separable_tagger_corpus()
    model = train_tagger(corpus, epochs=5, seed=1)
    for doc in corpus.documents:
        assert mention_keys(predict_mentions(model, doc)) == mention_keys(doc.mentions)


def test_tagger_single_document_smoke():
    corpus = separable_tagger_corpus(n_docs=1)
    model = train_tagger(corpus, epochs=1, seed=0)
    assert all(all(w == w for w in row) for row in model.weights.values())  # finite
    tags = predict_tags(model, corpus.documents[0])
    assert len(tags) == len(corpus.documents[0].tokens)
    assert set(tags) <= set(model.tags)


def test_tagger_training_is_deterministic():
    corpus = separable_tagger_corpus()
    a = train_tagger(corpus, epochs=3, seed=9)
    b = train_tagger(corpus, epochs=3, seed=9)
    assert a.tags == b.tags
    assert a.weights == b.weights


def test_tagger_rejects_empty_corpus():
    with pytest.raises(ValueError):
        train_tagger(Corpus(()), epochs=1)
    with pytest.raises(ValueError):
        train_tagger(separable_tagger_corpus(), epochs=0)


def forced_model(word_tags: dict[str, str], tags=("O", "B-Actor", "I-Actor", "B-Activity", "I-Activity")):
    weights = {}
    index = {t: i for i, t in enumerate(tags)}
    for word, tag in word_tags.items():
        row = [0.0] * len(tags)
        row[index[tag]] = 1.0
        weights[f"w={word}"] = row
    return TaggerModel(tuple(tags), weights)


def test_decode_all_outside_yields_nothing():
    model = forced_model({})
    doc = make_document("d", [("a", 0), ("b", 0)])
    assert predict_mentions(model, doc) == []


def test_decode_begin_inside_pair():
    model = forced_model({"alpha": "B-Actor", "beta": "I-Actor"})
    doc = make_document("d", [("alpha", 0), ("beta", 0), ("c", 0)])
    assert mention_keys(predict_mentions(model, doc)) == [("Actor", 0, 1)]


def test_decode_repairs_orphan_inside_tag():
    model = forced_model({"beta": "I-Activity"})
    doc = make_document("d", [("a", 0), ("beta", 0), ("c", 0)])
    assert mention_keys(predict_mentions(model, doc)) == [("Activity", 1, 1)]


def test_decode_splits_spans_at_sentence_boundary():
    model = forced_model({"beta": "I-Actor", "alpha": "B-Actor"})
    doc = make_document("d", [("alpha", 0), ("beta", 1)])
    assert mention_keys(predict_mentions(model, doc)) == [("Actor", 0, 0), ("Actor", 1, 1)]


def test_predicted_mentions_validate():
    corpus = separable_tagger_corpus()
    model = train_tagger(corpus, epochs=5, seed=1)
    for doc in corpus.documents:
        predicted = predict_mentions(model, doc)
        attached = dataclasses.replace(doc, mentions=tuple(predicted), relations=())
        assert validate_document(attached) == []


# --- relation model ----------------------------------------------------------


def test_relations_fit_separable_corpus():
    corpus = separable_relation_corpus()
    model = train_relations(corpus, epochs=5, seed=2)
    for doc in corpus.documents:
        assert relation_keys(predict_relations(model, doc)) == relation_keys(doc.relations)


def test_relations_fewer_than_two_mentions():
    corpus = separable_relation_corpus()
    model = train_relations(corpus, epochs=2, seed=0)
    lonely = make_document("l", [("files", 0)], [Mention("v0", "Activity", 0, 0)])
    assert predict_relations(model, lonely) == []


def test_relations_window_zero_excludes_cross_sentence():
    model = RelModel(("Flow",), 0, {"order=HT": [0.0, 100.0]})
    doc = make_document(
        "w",
        [("checks", 0), ("files", 1)],
        [Mention("a", "Activity", 0, 0), Mention("b", "Activity", 1, 1)],
    )
    assert predict_relations(model, doc) == []
    wide = RelModel(("Flow",), 1, {"order=HT": [0.0, 100.0]})
    assert len(predict_relations(wide, doc)) == 1


def test_relations_reject_negative_window():
    with pytest.raises(ValueError, match="window must be >= 0"):
        train_relations(separable_relation_corpus(), epochs=1, seed=0, window=-1)


def test_relations_training_deterministic():
    corpus = separable_relation_corpus()
    a = train_relations(corpus, epochs=3, seed=4)
    b = train_relations(corpus, epochs=3, seed=4)
    assert a.weights == b.weights


def test_relations_reject_empty_corpus():
    with pytest.raises(ValueError):
        train_relations(Corpus(()), epochs=1)


# --- packed training against the plain dict-of-lists perceptron ------------------


def reference_argmax(weights, feats, n):
    scores = [0.0] * n
    for f in feats:
        row = weights.get(f)
        if row is not None:
            for c in range(n):
                scores[c] += row[c]
    best = 0
    for c in range(1, n):
        if scores[c] > scores[best]:
            best = c
    return best


def reference_train(prepared, n, epochs, seed, ptags=None):
    """The averaged perceptron in its plain form, one float list per
    feature row: the reference for the packed loop of baselines._train."""
    rng = Random(seed)
    w, u = {}, {}
    step = 0
    order = list(range(len(prepared)))
    for _ in range(epochs):
        rng.shuffle(order)
        for si in order:
            prev = "<s>"
            for feats, gold in prepared[si]:
                full = feats + (f"ptag={prev}",) if ptags else feats
                pred = reference_argmax(w, full, n)
                step += 1
                if pred != gold:
                    for f in full:
                        row = w.setdefault(f, [0.0] * n)
                        urow = u.setdefault(f, [0.0] * n)
                        row[gold] += 1.0
                        urow[gold] += step
                        row[pred] -= 1.0
                        urow[pred] -= step
                if ptags:
                    prev = ptags[pred]
    steps = max(step, 1)
    return {f: [w[f][c] - u[f][c] / steps for c in range(n)] for f in sorted(w)}


def reference_token_features(d, start, end):
    """Static per-token features for the sentence tokens[start:end+1]."""
    texts = [t.text for t in d.tokens[start : end + 1]]
    lower = [t.lower() for t in texts]
    feats = []
    for i, w in enumerate(lower):
        feats.append(
            (
                f"w={w}",
                f"pre={w[:3]}",
                f"suf={w[-3:]}",
                f"cap={texts[i][:1].isupper()}",
                f"prev={lower[i - 1] if i else '<s>'}",
                f"next={lower[i + 1] if i + 1 < len(lower) else '</s>'}",
            )
        )
    return feats


def reference_bucket(value):
    mag = abs(value)
    for edge in (1, 2, 3, 4, 5, 10):
        if mag <= edge:
            label = str(edge)
            break
    else:
        label = ">10"
    return f"-{label}" if value < 0 else f"+{label}"


def reference_pair_features(d, head, tail):
    hs = d.tokens[head.start].sentence
    ts = d.tokens[tail.start].sentence
    if head.start < tail.start:
        gap = tail.start - head.end - 1
    else:
        gap = head.start - tail.end - 1
    hw = d.tokens[head.start].text.lower()
    tw = d.tokens[tail.start].text.lower()
    return (
        f"ht={head.type}",
        f"tt={tail.type}",
        f"pair={head.type}>{tail.type}",
        f"order={'HT' if head.start < tail.start else 'TH'}",
        f"dist={reference_bucket(tail.start - head.start)}",
        f"gap={reference_bucket(gap)}",
        f"sdist={ts - hs}",
        f"hw={hw}",
        f"tw={tw}",
        f"hw,tw={hw}|{tw}",
    )


def reference_candidate_pairs(d, window):
    ms = sorted(d.mentions, key=lambda m: m.start)
    pairs = []
    for head in ms:
        for tail in ms:
            if head.id == tail.id:
                continue
            if abs(d.tokens[head.start].sentence - d.tokens[tail.start].sentence) <= window:
                pairs.append((head, tail))
    return pairs


def reference_tagger_weights(corpus, epochs, seed):
    tags = baselines._tag_set(corpus.mention_types)
    index = {t: i for i, t in enumerate(tags)}
    prepared = [
        list(zip(reference_token_features(d, s, e), baselines._gold_tags(d, s, e, index)))
        for d in corpus.documents
        for _, s, e in sentence_spans(d)
    ]
    return reference_train(prepared, len(tags), epochs, seed, ptags=tags)


def reference_relation_weights(corpus, epochs, seed, window=1):
    classes = ("<none>",) + tuple(corpus.relation_types)
    index = {c: i for i, c in enumerate(classes)}
    prepared = []
    for d in corpus.documents:
        gold = {(r.head, r.tail): index[r.type] for r in d.relations}
        for head, tail in reference_candidate_pairs(d, window):
            label = gold.get((head.id, tail.id), 0)
            prepared.append([(reference_pair_features(d, head, tail), label)])
    return reference_train(prepared, len(classes), epochs, seed)


def single_token_corpus():
    docs = (
        make_document("one", [("clerk", 0)], [Mention("a", "Actor", 0, 0)]),
        make_document(
            "two",
            [("files", 0), ("clerk", 1), ("approves", 1)],
            [Mention("v", "Activity", 0, 0), Mention("a", "Actor", 1, 1), Mention("w", "Activity", 2, 2)],
            [Relation("f", "Flow", "v", "w"), Relation("p", "Actor Performer", "w", "a")],
        ),
    )
    return Corpus(docs)


def one_type_corpus():
    corpus = separable_relation_corpus()
    return Corpus(corpus.documents, mention_types=("Activity",), relation_types=("Flow",))


def conflicting_corpus():
    """Two documents with the same tokens whose golds disagree: "form" is a
    Data mention in one only, and the pair (files, clerk) is a Performer
    relation in one only. With fixed weights both copies get the same
    predictions, so no epoch can pass without a mistake."""
    tokens = [("clerk", 0), ("files", 0), ("form", 0)]
    mentions = [Mention("a", "Actor", 0, 0), Mention("v", "Activity", 1, 1)]
    docs = (
        make_document("x", tokens, mentions, [Relation("p", "Performer", "v", "a")]),
        make_document("y", tokens, mentions + [Mention("d", "Data", 2, 2)]),
    )
    return Corpus(docs, mention_types=("Actor", "Activity", "Data"), relation_types=("Performer",))


ORACLE_CORPORA = {
    "fixture": lambda: fixture_corpus(12),
    "synonym": lambda: synonym_class_corpus(30),
    "separable_tagger": separable_tagger_corpus,
    "single_token_sentences": single_token_corpus,
    "one_mention_type": one_type_corpus,
    "conflicting": conflicting_corpus,
}


@pytest.mark.parametrize("name", sorted(ORACLE_CORPORA))
@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("epochs", [1, 2, 5, 30])
def test_packed_training_equals_reference_perceptron(name, seed, epochs):
    corpus = ORACLE_CORPORA[name]()
    tagger = train_tagger(corpus, epochs=epochs, seed=seed)
    assert tagger.weights == reference_tagger_weights(corpus, epochs, seed)
    relations = train_relations(corpus, epochs=epochs, seed=seed)
    assert relations.weights == reference_relation_weights(corpus, epochs, seed)


def counting_shuffles(monkeypatch):
    """Record the length of each sequence-order shuffle baselines._train makes."""
    calls = []
    shuffle = baselines._shuffle

    def counting(x, rng):
        calls.append(len(x))
        shuffle(x, rng)

    monkeypatch.setattr(baselines, "_shuffle", counting)
    return calls


@pytest.mark.parametrize(
    "make_corpus, train, reference",
    [
        (separable_tagger_corpus, train_tagger, reference_tagger_weights),
        (separable_relation_corpus, train_relations, reference_relation_weights),
    ],
    ids=["tagger", "relations"],
)
def test_training_stops_after_the_first_clean_epoch(monkeypatch, make_corpus, train, reference):
    corpus = make_corpus()
    shuffles = counting_shuffles(monkeypatch)
    model = train(corpus, epochs=50, seed=0)
    assert 0 < len(shuffles) < 50
    assert model.weights == reference(corpus, 50, 0)


def test_an_epoch_with_one_mistake_at_its_start_is_not_clean(monkeypatch):
    # Mistakes fall on decisions 2 and 3 in epoch 1, on decision 1 alone in
    # epoch 2, on 1 and 2 in epoch 3 and on none in epoch 4, so the check
    # before epoch 4 passes and training stops after three shuffles.
    prepared = [[(("b", "c"), 0), (("b",), 2), (("a", "c"), 1)]]
    shuffles = counting_shuffles(monkeypatch)
    assert baselines._train(prepared, 3, epochs=6, seed=0) == reference_train(prepared, 3, 6, 0)
    assert len(shuffles) == 3


@pytest.mark.parametrize(
    "ptags, distinct", [(None, 2), (("ptag=t0", "ptag=t1"), 4)], ids=["relations", "tagger"]
)
def test_the_check_scores_each_distinct_decision_once(monkeypatch, ptags, distinct):
    # Every gold is class 0, which empty weights predict, so the check before
    # epoch 1 passes and nothing shuffles. A tagger decision is distinct by
    # its previous gold tag as well: "a" after "<s>" and after "t0", "b"
    # after "t0" and after "<s>". Each scored decision reads its gold
    # class's shift once, so a counting list of shifts counts them.
    calls = []

    class CountingShifts(list):
        def __getitem__(self, gold):
            calls.append(gold)
            return super().__getitem__(gold)

    gold_test = baselines._gold_test

    def counting_gold_test(n):
        shifts, *rest = gold_test(n)
        return (CountingShifts(shifts), *rest)

    monkeypatch.setattr(baselines, "_gold_test", counting_gold_test)
    shuffles = counting_shuffles(monkeypatch)
    sequence = [(("a",), 0), (("a",), 0), (("b",), 0)]
    prepared = [sequence, list(sequence), sequence[:2], [(("b",), 0)]]
    assert baselines._train(prepared, 2, 5, 0, ptags) == {}
    assert (len(calls), len(shuffles)) == (distinct, 0)


def test_the_check_scores_a_tagger_decision_after_the_previous_gold_tag(monkeypatch):
    # Epoch 1 errs on "b" alone, which moves "b" and "ptag=t0" toward class 1,
    # so the second "a", which follows a gold t0, now scores 1 and epoch 2 is
    # not clean. Scored without the previous gold tag, or after "<s>",
    # every decision would look right and training would stop too early.
    prepared = [[(("a",), 0), (("a",), 0), (("b",), 1)]]
    shuffles = counting_shuffles(monkeypatch)
    ptags = ("ptag=t0", "ptag=t1")
    assert baselines._train(prepared, 2, 2, 0, ptags) == reference_train(prepared, 2, 2, 0, ("t0", "t1"))
    assert len(shuffles) == 2


def test_training_that_never_converges_runs_every_epoch(monkeypatch):
    corpus = conflicting_corpus()
    shuffles = counting_shuffles(monkeypatch)
    train_tagger(corpus, epochs=50, seed=0)
    assert len(shuffles) == 50
    shuffles.clear()
    train_relations(corpus, epochs=50, seed=0)
    assert len(shuffles) == 50


@pytest.mark.parametrize("name", sorted(ORACLE_CORPORA))
def test_predictions_equal_reference_scoring(name):
    corpus = ORACLE_CORPORA[name]()
    tagger = train_tagger(corpus, epochs=3, seed=2)
    relations = train_relations(corpus, epochs=3, seed=2)
    classes = ("<none>",) + tuple(corpus.relation_types)
    for d in corpus.documents:
        expected = []
        for _, s, e in sentence_spans(d):
            prev = "<s>"
            for feats in reference_token_features(d, s, e):
                prev = tagger.tags[reference_argmax(tagger.weights, feats + (f"ptag={prev}",), len(tagger.tags))]
                expected.append(prev)
        assert predict_tags(tagger, d) == expected
        pairs = [
            (classes[c], head.id, tail.id)
            for head, tail in reference_candidate_pairs(d, relations.window)
            if (c := reference_argmax(relations.weights, reference_pair_features(d, head, tail), len(classes)))
        ]
        assert [(r.type, r.head, r.tail) for r in predict_relations(relations, d)] == pairs


def test_packed_scores_tie_toward_class_zero():
    # The second decision zeroes row "a", so the third sees a present row
    # whose classes all tie: it must predict class 0, which leaves "a" at
    # [-1, 0, 1] with accumulators [-2, -1, 3] after four steps (class 1
    # would have left [0, -1, 1] and [1, -4, 3]).
    prepared = [[(("a",), 1), (("a", "b"), 0), (("a",), 2), (("c",), 0)]]
    weights = baselines._train(prepared, 3, epochs=1, seed=0)
    assert weights == reference_train(prepared, 3, 1, 0)
    assert weights["a"] == [-0.5, 0.25, 0.25]


@pytest.mark.parametrize("ptags", [None, ("ptag=t0", "ptag=t1")], ids=["relations", "tagger"])
def test_training_without_a_decision_learns_no_weight(ptags):
    # no step updates a weight, so no average is taken
    assert baselines._train([], 2, 3, 0, ptags) == {}
    assert baselines._train([[]], 2, 3, 0, ptags) == {}


def test_predict_ties_toward_class_zero():
    tags = ("O", "B-Actor", "I-Actor")
    model = TaggerModel(tags, {"w=alpha": [2.0, 2.0, 2.0], "ptag=<s>": [0.5, 0.5, 0.5]})
    doc = make_document("t", [("alpha", 0), ("beta", 0)])
    assert predict_tags(model, doc) == ["O", "O"]
    relations = RelModel(("Flow",), 1, {"order=HT": [1.0, 1.0]})
    pair = make_document(
        "p", [("a", 0), ("b", 0)], [Mention("x", "Activity", 0, 0), Mention("y", "Activity", 1, 1)]
    )
    assert predict_relations(relations, pair) == []


def test_packed_field_guard(monkeypatch):
    corpus = separable_tagger_corpus(n_docs=2)  # 10 tokens
    monkeypatch.setattr(baselines, "_BIAS", 20)
    with pytest.raises(ValueError, match="training steps"):
        train_tagger(corpus, epochs=2, seed=0)  # 20 steps could reach the bias
    # One more than the steps is enough: a weight of -20 leaves its field at 1.
    monkeypatch.setattr(baselines, "_BIAS", 21)
    assert train_tagger(corpus, epochs=2, seed=0).weights == reference_tagger_weights(corpus, 2, 0)


def test_packed_sum_guard(monkeypatch):
    # A tagger decision has 7 features: six of its token's, and the previous tag.
    corpus = separable_tagger_corpus(n_docs=2)
    monkeypatch.setattr(baselines, "_MAX_FEATURES", 7)
    with pytest.raises(ValueError, match="7 features"):
        train_tagger(corpus, epochs=2, seed=0)
    monkeypatch.setattr(baselines, "_MAX_FEATURES", 8)
    assert train_tagger(corpus, epochs=2, seed=0).weights == reference_tagger_weights(corpus, 2, 0)
    monkeypatch.undo()
    # the real bound: 2**14 features could carry a field of the gold test
    wide = tuple(f"f{i}" for i in range(2**14))
    with pytest.raises(ValueError, match="16384 features"):
        baselines._train([[(wide, 1)]], 2, 1, 0)
    prepared = [[(wide[1:], 1)], [(wide[:2], 0)]]
    assert baselines._train(prepared, 2, 2, 0) == reference_train(prepared, 2, 2, 0)


# --- model inputs memoized on the document ----------------------------------------


def cold_copy(corpus):
    """The corpus with new Document objects, whose memos are empty."""
    documents = tuple(Document(d.id, d.tokens, d.mentions, d.relations) for d in corpus.documents)
    return Corpus(documents, corpus.mention_types, corpus.relation_types)


@pytest.mark.parametrize("name", sorted(ORACLE_CORPORA))
def test_a_warm_model_equals_a_cold_one(name):
    warm = ORACLE_CORPORA[name]()
    entries = []
    for _ in range(2):
        tagger = train_tagger(warm, epochs=3, seed=5)
        relations = train_relations(warm, epochs=3, seed=5)
        tags = [predict_tags(tagger, d) for d in warm.documents]
        predicted = [predict_relations(relations, d) for d in warm.documents]
        entries.append([{key: id(value) for key, value in d._model_inputs.items()} for d in warm.documents])
    # the second pass read every input from the memo and built none anew
    assert entries[0] == entries[1] and all(entries[0])
    cold = cold_copy(warm)
    # repr tells -0.0 from 0.0, so equal reprs are equal bits
    assert repr(train_tagger(cold, epochs=3, seed=5)) == repr(tagger)
    assert repr(train_relations(cold, epochs=3, seed=5)) == repr(relations)
    cold = cold_copy(warm)
    assert [predict_tags(tagger, d) for d in cold.documents] == tags
    assert [predict_relations(relations, d) for d in cold.documents] == predicted


def test_the_memo_keeps_rows_apart_by_tag_set():
    corpus = fixture_corpus(12)
    reordered = Corpus(corpus.documents, tuple(reversed(corpus.mention_types)), corpus.relation_types)
    for c in (corpus, reordered, corpus):
        assert train_tagger(c, epochs=2, seed=3).weights == reference_tagger_weights(c, 2, 3)


def test_the_memo_keeps_rows_apart_by_window_and_classes():
    corpus = fixture_corpus(12)
    reordered = Corpus(corpus.documents, corpus.mention_types, tuple(reversed(corpus.relation_types)))
    for c, window in ((corpus, 1), (corpus, 0), (reordered, 0), (corpus, 2), (corpus, 1)):
        model = train_relations(c, epochs=2, seed=3, window=window)
        assert model.weights == reference_relation_weights(c, 2, 3, window)
        cold = cold_copy(c)
        for d, fresh in zip(c.documents, cold.documents):
            assert predict_relations(model, d) == predict_relations(model, fresh)


def test_the_memo_leaves_repr_equality_and_hash_alone():
    corpus = separable_relation_corpus()
    cold = cold_copy(corpus)
    train_tagger(corpus, epochs=1, seed=0)
    train_relations(corpus, epochs=1, seed=0)
    for d, fresh in zip(corpus.documents, cold.documents):
        assert d._model_inputs and fresh._model_inputs is None
        assert repr(d) == repr(fresh)
        assert "_model_inputs" not in repr(d)
        assert d == fresh and hash(d) == hash(fresh)
        assert dataclasses.replace(d)._model_inputs is None


def test_documents_share_their_feature_strings():
    """A training call's documents share each word's token-feature
    strings, and every pair takes its distance strings from constant
    tables: one string object for each, not one per document or pair."""
    corpus = fixture_corpus(12)
    train_tagger(corpus, epochs=1, seed=0)
    train_relations(corpus, epochs=1, seed=0)
    tables = {id(f) for table in (baselines._DIST, baselines._GAP, baselines._SDIST) for f in table.values()}
    by_word = {}
    for d in corpus.documents:
        for _, _, sentence in baselines._sentence_features(d, {}):
            for feats in sentence:
                first = by_word.setdefault(feats[0], feats)
                assert all(a is b for a, b in zip(first[:3], feats[:3]))
        assert all(id(f) in tables for _, _, feats in baselines._relation_pairs(d, 1) for f in feats[4:7])
    assert len(by_word) < sum(len(d.tokens) for d in corpus.documents)


def test_a_pickled_or_copied_document_carries_no_memo():
    """Fold lanes started by spawn or forkserver receive the documents by
    pickle; they rebuild the inputs on first use instead of receiving the
    parent's."""
    corpus = separable_relation_corpus()
    train_tagger(corpus, epochs=1, seed=0)
    train_relations(corpus, epochs=1, seed=0)
    for d in corpus.documents:
        assert d._model_inputs
        for back in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
            assert back._model_inputs is None
            assert back == d and repr(back) == repr(d)
        assert d._model_inputs  # the original keeps its memo
