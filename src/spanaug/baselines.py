"""Self-contained downstream extractors used to measure augmentation gain.

Two averaged perceptrons: a BIO sequence tagger for mention detection and
a multiclass classifier over ordered mention pairs for relation
extraction. Both models memorize surface forms through their lexical
features, which is exactly the behavior the augmentation effects perturb,
so gains are measurable without external model dependencies. Training is
deterministic for a fixed (corpus, epochs, seed). While training, every
weight is a whole number, so each feature's row is packed into one int
with a 64-bit field per class: scoring a decision is one big-int sum,
whether the gold class wins is read from that sum with a few big-int
operations, and only a mistake unpacks it to find the predicted class and
updates each row with one addition. Before each epoch, training
scores each distinct decision once, as an epoch that makes no mistake
would see it, and stops if every one gets its gold class: such an epoch,
and every later one, would change nothing, so the model is the one all
``epochs`` epochs give, bit for bit. Augmented corpora repeat many
decisions, so this check costs a fraction of the epoch it replaces.

Features come from one pass per document: a word's token-feature strings
are built once per training call, each mention's relation strings once,
each type pair's once per document, and distances come from constant
tables. A document memoizes its model inputs (token features, tagger
rows per tag set, pairs per window, relation rows per window and class
set) on first use, out of its repr, equality and pickled state, for as
long as it lives: a CLI command's originals for the whole command, so
every fold, arm, trial and forked lane reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain
from operator import add, itemgetter
from random import Random
from struct import Struct

from .corpus import Corpus, Document, Mention, Relation
from .edits import sentence_spans


@dataclass
class TaggerModel:
    tags: tuple[str, ...]  # "O" plus B-/I- per mention type
    weights: dict[str, list[float]]  # feature -> per-tag averaged weights


@dataclass
class RelModel:
    relation_types: tuple[str, ...]
    window: int  # max sentence distance for candidate pairs
    weights: dict[str, list[float]]  # feature -> per-class weights, "none" last


def _tag_set(mention_types) -> tuple[str, ...]:
    tags = ["O"]
    for t in mention_types:
        tags += [f"B-{t}", f"I-{t}"]
    return tuple(tags)


def _memo(d: Document) -> dict:
    """The document's memo of model inputs, created on first use."""
    memo = d._model_inputs
    if memo is None:
        memo = {}
        object.__setattr__(d, "_model_inputs", memo)
    return memo


def _sentence_features(d: Document, words: dict) -> list[tuple[int, int, tuple[tuple[str, ...], ...]]]:
    """(start, end, per-token features) for each sentence, memoized: the
    lowercased word, its 3-letter prefix and suffix, an initial capital,
    and the neighbouring words ("<s>", "</s>" past the sentence). A word's
    strings come from ``words``, which builds them on first need; training
    shares one table among its documents, which saves memory and lets a
    weight lookup match its key by identity."""
    memo = _memo(d)
    found = memo.get("tokens")
    if found is not None:
        return found
    found = []
    for _, start, end in sentence_spans(d):
        texts = [t.text for t in d.tokens[start : end + 1]]
        strings = []
        for w in map(str.lower, texts):
            ws = words.get(w)
            if ws is None:
                ws = words[w] = (f"w={w}", f"pre={w[:3]}", f"suf={w[-3:]}", f"prev={w}", f"next={w}")
            strings.append(ws)
        word, pre, suf, prev, next_ = zip(*strings)
        cap = ["cap=True" if text[:1].isupper() else "cap=False" for text in texts]
        feats = tuple(
            zip(word, pre, suf, cap, ("prev=<s>",) + prev[:-1], next_[1:] + ("next=</s>",))
        )
        found.append((start, end, feats))
    memo["tokens"] = found
    return found


def _gold_tags(d: Document, start: int, end: int, tag_index: dict[str, int]) -> list[int]:
    tags = [0] * (end - start + 1)
    for m in d.mentions:
        if m.start < start or m.end > end:
            continue
        tags[m.start - start] = tag_index[f"B-{m.type}"]
        for i in range(m.start + 1, m.end + 1):
            tags[i - start] = tag_index[f"I-{m.type}"]
    return tags


# A packed row holds, in bits 64c..64c+63, _BIAS plus the weight of class c.
# Updates are +-1, so a weight never exceeds the number of training steps;
# with fewer steps than _BIAS = 2**48 every field stays in [1, 2**49). A
# decision has fewer than _MAX_FEATURES = 2**14 features, so each field of
# the sum of its present rows stays below 2**63, and two fields of that sum
# differ by less than 2**63: no field of the sum, or of the gold test in
# _train, borrows from or carries into its neighbour. A present row adds
# _BIAS to every field alike, which leaves the argmax unchanged.
_FIELD_BITS = 64
_BIAS = 1 << 48
_MAX_FEATURES = 1 << 14


def _gold_decisions(prepared, ptags: tuple[str, ...]):
    """Each tagger decision as a clean epoch sees it: its features plus
    the previous gold tag's feature ("ptag=<s>" at the start)."""
    for sequence in prepared:
        prev = "ptag=<s>"
        for feats, gold in sequence:
            yield feats + (prev,), gold
            prev = ptags[gold]


def _shuffle(x: list, rng: Random) -> None:
    """rng.shuffle(x), with the same draws and permutation as random.py's
    shuffle on Python 3.10 to 3.13: from the last position down, x[i]
    swaps with x[j] for j below i + 1, redrawn from (i + 1).bit_length()
    random bits while it is above i."""
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _gold_test(n: int) -> tuple[list[int], list[int], int, int, int]:
    """Constants over n fields for which class g wins the packed sum
    ``total`` (highest score, ties to the lowest class) exactly when
    ``((total >> shifts[g] & mask) * ones + rights[g] - total) & top == top``.
    ``ones`` has a 1 in each field and ``top`` each field's top bit;
    rights[g] has 2**63 - 1 in each field below g and 2**63 from g on. So
    field c keeps its top bit exactly when s_g > s_c (c < g) or s_g >= s_c
    (c >= g), as long as |s_g - s_c| < 2**63."""
    unit = [1 << (_FIELD_BITS * c) for c in range(n)]
    ones = sum(unit)
    top = ones << (_FIELD_BITS - 1)
    rights = [top - sum(unit[:g]) for g in range(n)]
    return [_FIELD_BITS * g for g in range(n)], rights, (1 << _FIELD_BITS) - 1, ones, top


def _train(
    prepared, n: int, epochs: int, seed: int, ptags: tuple[str, ...] | None = None
) -> dict[str, list[float]]:
    """Averaged perceptron over n classes. ``prepared`` is a list of
    sequences of (features, gold class); the sequence order is shuffled
    each epoch. With ``ptags`` (the tagger), each decision also sees
    ``ptags[c]`` for the class c predicted just before it in its sequence,
    or "ptag=<s>" at the start.

    Before each epoch, every distinct decision is scored once as a clean
    epoch would see it (a tagger right so far has the gold tag as its
    previous tag); if each scores its gold class, training stops. This is
    exact: while no weight changes, a prediction depends only on the
    weights and its own decision, so that epoch, and every later one in
    whatever order, would update nothing. A failed check means the epoch
    makes a mistake, so it runs as before. The averages divide by the
    planned ``steps``, so they equal those of running every epoch. The
    check draws nothing, and ``rng`` is local, so the shuffles skipped move
    no other draw. Whether the gold class wins is read from the packed sum
    (``_gold_test``): the check never unpacks a sum, and an epoch unpacks
    one only on a mistake. Raises ValueError if the steps or a decision's
    features could overflow a packed field."""
    steps = epochs * sum(map(len, prepared))
    if steps >= _BIAS:
        raise ValueError(f"{steps} training steps exceed the packed weight range ({_BIAS})")
    distinct = dict.fromkeys(
        chain.from_iterable(prepared) if ptags is None else _gold_decisions(prepared, ptags)
    )
    widest = max(map(len, map(itemgetter(0), distinct)), default=0)
    if widest >= _MAX_FEATURES:
        raise ValueError(f"a decision with {widest} features exceeds the packed sum range ({_MAX_FEATURES})")
    unit = [1 << (_FIELD_BITS * c) for c in range(n)]
    shifts, rights, mask, ones, top = _gold_test(n)
    zero = _BIAS * ones
    width = n * _FIELD_BITS // 8
    unpack = Struct(f"<{n}Q").unpack  # little-endian bytes: class 0 first

    rng = Random(seed)
    w: dict[str, int] = {}
    u: dict[str, list[float]] = {}
    get = w.get
    step = 0
    sequences = list(prepared)  # shuffled in place: the same permutations as shuffling indices
    for _ in range(epochs):
        for feats, gold in distinct:
            total = sum(filter(None, map(get, feats)))
            if ((total >> shifts[gold] & mask) * ones + rights[gold] - total) & top != top:
                break
        else:
            break  # an epoch now would be clean, and so would every later one: w and u are final
        _shuffle(sequences, rng)
        for sequence in sequences:
            prev = "ptag=<s>"
            for feats, gold in sequence:
                if ptags is not None:
                    feats = feats + (prev,)
                step += 1
                pred = gold
                total = sum(filter(None, map(get, feats)))
                if ((total >> shifts[gold] & mask) * ones + rights[gold] - total) & top != top:
                    scores = unpack(total.to_bytes(width, "little"))
                    pred = scores.index(max(scores))
                    delta = unit[gold] - unit[pred]
                    for f in feats:
                        w[f] = get(f, zero) + delta
                        urow = u.setdefault(f, [0.0] * n)
                        urow[gold] += step
                        urow[pred] -= step
                if ptags is not None:
                    prev = ptags[pred]
    return {
        f: [x - _BIAS - a / steps for x, a in zip(unpack(w[f].to_bytes(width, "little")), u[f])]
        for f in sorted(w)
    }


_add_rows = partial(map, add)


def _predict(weights: dict[str, list[float]], feats) -> int:
    """Highest-scoring class, ties to the lowest index. Each class score
    adds the present rows one by one, in feature order (not with sum(),
    whose compensated float sum on Python 3.12+ could move a near tie)."""
    rows = list(filter(None, map(weights.get, feats)))
    if not rows:
        return 0
    scores = list(reduce(_add_rows, rows))
    return scores.index(max(scores))


def train_tagger(train: Corpus, epochs: int = 5, seed: int = 0) -> TaggerModel:
    """Averaged perceptron over per-token features with greedy decoding;
    the previous *predicted* tag feeds the next decision."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not train.documents:
        raise ValueError("cannot train on an empty corpus")
    tags = _tag_set(train.mention_types)
    tag_index = {t: i for i, t in enumerate(tags)}

    prepared = []
    words: dict[str, tuple[str, ...]] = {}
    for d in train.documents:
        memo = _memo(d)
        rows = memo.get(("tagger", tags))
        if rows is None:
            rows = memo["tagger", tags] = [
                tuple(zip(feats, _gold_tags(d, s, e, tag_index)))
                for s, e, feats in _sentence_features(d, words)
            ]
        prepared += rows
    ptags = tuple(f"ptag={t}" for t in tags)
    return TaggerModel(tags, _train(prepared, len(tags), epochs, seed, ptags))


def predict_tags(model: TaggerModel, d: Document) -> list[str]:
    ptags = [f"ptag={t}" for t in model.tags]
    out = []
    for _, _, sentence in _sentence_features(d, {}):
        prev = "ptag=<s>"
        for feats in sentence:
            c = _predict(model.weights, feats + (prev,))
            out.append(model.tags[c])
            prev = ptags[c]
    return out


def predict_mentions(model: TaggerModel, d: Document) -> list[Mention]:
    """Greedy decode then BIO assembly; an I- tag without a matching open
    span is repaired to B-. Spans never cross sentence boundaries because
    decoding restarts per sentence."""
    tags = predict_tags(model, d)
    mentions: list[Mention] = []
    boundaries = {s for _, s, _ in sentence_spans(d)}
    open_type = None
    open_start = 0
    for i, tag in enumerate(tags):
        starts_sentence = i in boundaries
        if open_type is not None and (
            starts_sentence
            or tag == "O"
            or tag.startswith("B-")
            or (tag.startswith("I-") and tag[2:] != open_type)
        ):
            mentions.append(Mention(f"p{len(mentions)}", open_type, open_start, i - 1))
            open_type = None
        if tag == "O":
            continue
        if open_type is None:  # B- opens; orphan I- repaired to B-
            open_type = tag[2:]
            open_start = i
    if open_type is not None:
        mentions.append(Mention(f"p{len(mentions)}", open_type, open_start, len(tags) - 1))
    return mentions


_DIST_EDGES = (1, 2, 3, 4, 5, 10)


def _bucket(value: int) -> str:
    mag = abs(value)
    for edge in _DIST_EDGES:
        if mag <= edge:
            label = str(edge)
            break
    else:
        label = ">10"
    return f"-{label}" if value < 0 else f"+{label}"


# Distance strings shared by every pair of every document, which saves a
# string per feature of each pair and lets a weight lookup match its key by
# identity. A token distance past 11 either way has the bucket of 11; a
# sentence distance past 10 is formatted.
_DIST = {v: f"dist={_bucket(v)}" for v in range(-11, 12)}
_GAP = {v: f"gap={_bucket(v)}" for v in range(-11, 12)}
_SDIST = {v: f"sdist={v}" for v in range(-10, 11)}


def _relation_pairs(d: Document, window: int) -> list[tuple[Mention, Mention, tuple[str, ...]]]:
    """(head, tail, features) for every ordered pair of mentions whose
    first tokens lie at most ``window`` sentences apart, memoized per
    window: head-major over the mentions stable-sorted by start, skipping
    a tail with the head's id. A mention's strings are built once, and a
    type pair's once per document."""
    memo = _memo(d)
    found = memo.get(("pairs", window))
    if found is not None:
        return found
    heads, tails = [], []  # per mention: itself, its first token's sentence and word, its strings
    for m in sorted(d.mentions, key=lambda m: m.start):
        first = d.tokens[m.start]
        w = first.text.lower()
        heads.append((m, first.sentence, w, f"ht={m.type}", f"hw={w}"))
        tails.append((m, first.sentence, w, f"tt={m.type}", f"tw={w}"))
    pair_strings: dict[str, dict[str, str]] = {}
    found = []
    for head, hs, hw, ht, hw_feature in heads:
        by_tail = pair_strings.setdefault(head.type, {})
        for tail, ts, tw, tt, tw_feature in tails:
            if tail.id == head.id or abs(ts - hs) > window:
                continue
            pair = by_tail.get(tail.type)
            if pair is None:
                pair = by_tail[tail.type] = f"pair={head.type}>{tail.type}"
            if head.start < tail.start:
                order, gap = "order=HT", tail.start - head.end - 1
            else:
                order, gap = "order=TH", head.start - tail.end - 1
            dist = tail.start - head.start
            feats = (
                ht,
                tt,
                pair,
                order,
                _DIST.get(dist) or _DIST[11 if dist > 0 else -11],
                _GAP.get(gap) or _GAP[11 if gap > 0 else -11],
                _SDIST.get(ts - hs) or f"sdist={ts - hs}",
                hw_feature,
                tw_feature,
                f"hw,tw={hw}|{tw}",
            )
            found.append((head, tail, feats))
    memo["pairs", window] = found
    return found


def train_relations(
    train: Corpus, epochs: int = 5, seed: int = 0, window: int = 1
) -> RelModel:
    """Multiclass averaged perceptron over ordered candidate mention pairs
    within the sentence-distance window; classes are the relation types
    plus an explicit none."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if not train.documents:
        raise ValueError("cannot train on an empty corpus")
    # none first: an all-zero score ties toward predicting no relation
    classes = ("<none>",) + tuple(train.relation_types)
    class_index = {c: i for i, c in enumerate(classes)}

    prepared = []
    for d in train.documents:
        memo = _memo(d)
        rows = memo.get(("relations", window, classes))
        if rows is None:
            gold = {(r.head, r.tail): class_index[r.type] for r in d.relations}
            rows = memo["relations", window, classes] = [
                ((feats, gold.get((head.id, tail.id), 0)),)
                for head, tail, feats in _relation_pairs(d, window)
            ]
        prepared += rows
    weights = _train(prepared, len(classes), epochs, seed)
    return RelModel(tuple(train.relation_types), window, weights)


def predict_relations(model: RelModel, d: Document) -> list[Relation]:
    """Relations over the document's (given) mentions; requires mentions
    to be attached, gold or predicted."""
    classes = ("<none>",) + tuple(model.relation_types)
    out = []
    for head, tail, feats in _relation_pairs(d, model.window):
        pred = _predict(model.weights, feats)
        if pred != 0:
            out.append(Relation(f"r{len(out)}", classes[pred], head.id, tail.id))
    return out
