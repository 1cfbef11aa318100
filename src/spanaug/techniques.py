"""Catalog of annotation-preserving augmentation techniques.

Fifteen parameterized operations synthesize new documents from annotated
ones. An operation only proposes a list of edits; apply_technique applies
them in one apply_edits call, so every output passes through the edit
engine and validates: mention count and the relation multiset are
conserved, and each technique has an identity configuration (p=0, n=0,
k=0, or the identity rewrite stub) reproducing its input.

Techniques are pure given (document, config, rng): equal seeds give
byte-identical outputs. Corpus-level augmentation derives one rng per
(seed, document id, technique, replica), so no replica's output depends
on any other.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

from .corpus import Corpus, Document, Mention
from .edits import (
    DeleteTokens,
    InsertTokens,
    MergeSentences,
    PermuteSentences,
    ReplaceSpan,
    SwapTokens,
    apply_edit,  # unused here; the benchmark tracer rebinds techniques.apply_edit
    apply_edits,
    free_spans,
    sentence_spans,
)
from .lexicon import Lexicon, builtin_lexicon, match_case
from .providers import (
    BACK_TRANSLATE,
    CONTEXTUAL,
    ParaphraseProvider,
    ProviderError,
    default_stub,
)
from .seeding import derive_rng

logger = logging.getLogger(__name__)

AUXILIARIES = frozenset(
    "is are was were do does did can could will would should must has have had".split()
)
NEGATIONS = ("not", "n't")


class ConfigError(ValueError):
    pass


class UnknownTechniqueError(ConfigError):
    pass


@dataclass(frozen=True)
class FloatParam:
    low: float
    high: float
    default: float

    def check(self, v) -> float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"expected a number, got {v!r}")
        if not self.low <= v <= self.high:
            raise ConfigError(f"value {v} outside [{self.low}, {self.high}]")
        return float(v)

    def sample(self, rng) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class IntParam:
    low: int
    high: int
    default: int

    def check(self, v) -> int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"expected an integer, got {v!r}")
        if not self.low <= v <= self.high:
            raise ConfigError(f"value {v} outside [{self.low}, {self.high}]")
        return v

    def sample(self, rng) -> int:
        return rng.randint(self.low, self.high)


@dataclass(frozen=True)
class CatParam:
    choices: tuple
    default: Any

    def check(self, v):
        if not any(v == c and type(v) is type(c) for c in self.choices):
            raise ConfigError(f"value {v!r} not one of {self.choices}")
        return v

    def sample(self, rng):
        return self.choices[rng.randrange(len(self.choices))]


class ParamSpace(dict):
    """Named parameter dimensions with bounds/choices and defaults."""

    def validate(self, values: Mapping[str, Any]) -> dict[str, Any]:
        out = {}
        for name, param in self.items():
            if name in values:
                try:
                    out[name] = param.check(values[name])
                except ConfigError as e:
                    raise ConfigError(f"parameter {name!r}: {e}") from None
            else:
                out[name] = param.default
        unknown = set(values) - set(self)
        if unknown:
            raise ConfigError(f"unknown parameter(s): {sorted(unknown)}")
        return out

    def sample_uniform(self, rng) -> dict[str, Any]:
        return {name: param.sample(rng) for name, param in self.items()}


N_AUG = IntParam(1, 5, 1)  # synthetic documents per original


@dataclass(frozen=True)
class TechniqueConfig:
    """A technique plus parameter values; n_aug, checked at construction,
    counts synthetic documents generated per original."""

    technique_id: str
    params: Mapping[str, Any] = field(default_factory=dict)
    n_aug: int = 1

    def __post_init__(self):
        # a dict of its own: mutating the caller's cannot stale resolved
        object.__setattr__(self, "params", dict(self.params))
        try:
            N_AUG.check(self.n_aug)
        except ConfigError as e:
            raise ConfigError(f"parameter 'n_aug': {e}") from None

    @cached_property
    def resolved(self) -> tuple[Technique, dict[str, Any]]:
        """The technique and its params with defaults filled in, checked
        once, on first use."""
        technique = resolve_technique(self.technique_id)
        return technique, technique.space.validate(self.params)


@dataclass
class AugmentContext:
    """Shared resources bound before augmentation: the lexicon, the
    rewrite provider, and the donor documents for cross-document
    techniques. The tables derived from them are built once, on first
    use."""

    lexicon: Lexicon
    provider: ParaphraseProvider
    donor_documents: tuple[Document, ...]
    _order_counts: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def vocabulary(self) -> tuple[str, ...]:
        """The sorted distinct token texts of the donor documents."""
        return tuple(sorted({t.text for d in self.donor_documents for t in d.tokens}))

    @cached_property
    def donor_index(self) -> dict[tuple[str, ...], list[tuple[str, ...]]]:
        """POS-tag sequence -> free-span token subsequences over the donor
        documents."""
        index: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for doc in self.donor_documents:
            for s, e in _sentence_internal_free_spans(doc):
                texts = [t.text for t in doc.tokens[s : e + 1]]
                tags = [self.lexicon.coarse_pos(t) for t in texts]
                for a in range(len(texts)):
                    for b in range(a, len(texts)):
                        key = tuple(tags[a : b + 1])
                        index.setdefault(key, []).append(tuple(texts[a : b + 1]))
        return index

    @cached_property
    def long_forms(self) -> dict[str, list[tuple[tuple[str, ...], str]]]:
        """First word -> (lowercased words, short form) of each long form of
        two or more words, longest first, then by long form."""
        long_forms: dict[str, list[tuple[tuple[str, ...], str]]] = {}
        by_length = sorted(self.lexicon.expansions.items(), key=lambda e: (-len(e[0].split()), e[0]))
        for long, short in by_length:
            form = tuple(w.lower() for w in long.split())
            if len(form) >= 2:
                long_forms.setdefault(form[0], []).append((form, short))
        return long_forms

    def order_counts(self, max_disp: int, n: int) -> list[dict[int, int]]:
        """Completion counts of bounded sentence orders: ``counts[left][used]``
        ways to fill the last ``left`` positions, k being the first of them,
        when bit j of ``used`` tells whether sentence k - max_disp + j is
        placed (a sentence before 0 counts as placed). By then every
        sentence before k - max_disp is placed and none from k + max_disp
        on, so nothing else matters: one table per bound, extended lazily
        to the longest document, of C(2 max_disp, max_disp) entries a level."""
        counts = self._order_counts.setdefault(max_disp, [])
        if not counts:
            counts.append({used: 1 for used in range(1 << 2 * max_disp) if used.bit_count() == max_disp})
        while len(counts) <= n:
            left, after = len(counts), counts[-1]
            counts.append(
                {
                    used: sum(after[(used | 1 << j) >> 1] for j in _order_choices(used, max_disp, left))
                    for used in after
                }
            )
        return counts


def make_context(
    documents: Sequence[Document],
    lexicon: Lexicon | None = None,
    provider: ParaphraseProvider | None = None,
) -> AugmentContext:
    return AugmentContext(
        lexicon=lexicon if lexicon is not None else builtin_lexicon(),
        provider=provider if provider is not None else default_stub(),
        donor_documents=tuple(documents),
    )


def _mention_mask(d: Document) -> list[Mention | None]:
    mask: list[Mention | None] = [None] * len(d.tokens)
    for m in d.mentions:
        for i in range(m.start, m.end + 1):
            mask[i] = m
    return mask


def _strictly_inside(d: Document, position: int) -> bool:
    return any(m.start < position <= m.end for m in d.mentions)


def _sentence_internal_free_spans(d: Document) -> list[tuple[int, int]]:
    """Free spans split at sentence boundaries, so every piece lies in one
    sentence (replacements then never cross a boundary)."""
    boundaries = [(s, e) for _, s, e in sentence_spans(d)]
    pieces = []
    for fs, fe in free_spans(d):
        for ss, se in boundaries:
            s, e = max(fs, ss), min(fe, se)
            if s <= e:
                pieces.append((s, e))
    return pieces


def _partition_pieces(d: Document) -> list[tuple[int, int, bool]]:
    """Document order partition into mention spans and sentence-internal
    free pieces: (start, end, is_mention)."""
    pieces = [(m.start, m.end, True) for m in d.mentions]
    pieces += [(s, e, False) for s, e in _sentence_internal_free_spans(d)]
    return sorted(pieces)


def _split_words(text: str) -> tuple[str, ...]:
    return tuple(text.split())


# --- technique implementations ---------------------------------------------
# Each returns (edits, had_candidates): the edits to apply to d in order,
# each addressing the document the ones before it produced, and
# had_candidates=False when the document offered no applicable site at all
# ("no-op flagged"); a draw that happens to change nothing is not flagged.
# No technique applies an edit itself: apply_technique does, in one call.


def _random_token_deletion(d, params, rng, ctx):
    mask = _mention_mask(d)
    free = [i for i in range(len(d.tokens)) if mask[i] is None]
    if not free:
        return [], False
    positions = frozenset(i for i in free if rng.random() < params["p"])
    return ([DeleteTokens(positions)] if positions else []), True


def _random_token_insertion(d, params, rng, ctx):
    if not ctx.vocabulary:
        return [], False
    # Widths of the units no insertion may split (a whole mention or one
    # free token); the eligible positions are the boundaries between them,
    # and each inserted token is a new unit of width 1.
    mask = _mention_mask(d)
    widths = []
    i = 0
    while i < len(d.tokens):
        widths.append(mask[i].length if mask[i] else 1)
        i += widths[-1]
    edits = []
    for _ in range(params["n"]):
        k = rng.randrange(len(widths) + 1)
        text = ctx.vocabulary[rng.randrange(len(ctx.vocabulary))]
        edits.append(InsertTokens(sum(widths[:k]), (text,)))
        widths.insert(k, 1)
    return edits, True


def _eligible_swap_pairs(d: Document) -> list[tuple[int, int]]:
    mask = _mention_mask(d)
    free = [i for i in range(len(d.tokens)) if mask[i] is None]
    pairs = [(a, b) for k, a in enumerate(free) for b in free[k + 1 :]]
    for m in d.mentions:
        pairs += [
            (a, b)
            for a in range(m.start, m.end + 1)
            for b in range(a + 1, m.end + 1)
        ]
    return sorted(pairs)


def _random_token_swap(d, params, rng, ctx):
    pairs = _eligible_swap_pairs(d)
    if not pairs:
        return [], False
    return [SwapTokens(*pairs[rng.randrange(len(pairs))]) for _ in range(params["s"])], True


def _filler_word_insertion(d, params, rng, ctx):
    fillers = ctx.lexicon.fillers
    if not fillers or not d.tokens:
        return [], False
    points = {s for _, s, _ in sentence_spans(d)}
    points |= {i + 1 for i, t in enumerate(d.tokens) if t.text == ","}
    if not params["in_mentions"]:
        points = {p for p in points if not _strictly_inside(d, p)}
    if not points:
        return [], False
    chosen = []
    for p in sorted(points):
        if rng.random() < params["p"]:
            phrase = fillers[rng.randrange(len(fillers))]
            chosen.append((p, _split_words(phrase)))
    return [InsertTokens(p, words) for p, words in reversed(chosen)], True


def _synonym_insertion(d, params, rng, ctx):
    substitutes = ctx.lexicon.substitutes
    sites = [(i, s) for i, t in enumerate(d.tokens) if (s := substitutes(t.text, "synonym"))]
    if not sites:
        return [], False
    chosen = []
    for i, synonyms in sites:
        if rng.random() < params["p"]:
            pick = match_case(synonyms[rng.randrange(len(synonyms))], d.tokens[i].text)
            chosen.append((i, _split_words(pick) + (d.tokens[i].text,)))
    # Replace token i with [synonym..., token]: inside a mention the
    # containment rule grows the span; elsewhere this equals an insertion.
    return [ReplaceSpan(i, i, words) for i, words in reversed(chosen)], True


def _lexicon_substitution(d, params, rng, ctx):
    substitutes = ctx.lexicon.substitutes
    mode = params["mode"]
    sites = [(i, s) for i, t in enumerate(d.tokens) if (s := substitutes(t.text, mode))]
    if len(sites) < (2 if mode == "antonym_even" else 1):
        return [], False

    if mode == "antonym_even":
        count = min(2 * params["k"], len(sites) - len(sites) % 2)
        selected = sorted(rng.sample(range(len(sites)), count)) if count else []
        chosen_sites = [sites[i] for i in selected]
    else:
        chosen_sites = [site for site in sites if rng.random() < params["p"]]

    chosen = []
    for i, options in chosen_sites:
        pick = match_case(options[rng.randrange(len(options))], d.tokens[i].text)
        chosen.append((i, _split_words(pick)))
    return [ReplaceSpan(i, i, words) for i, words in reversed(chosen)], True


def _auxiliary_negation_removal(d, params, rng, ctx):
    matches = [
        i
        for i in range(1, len(d.tokens))
        if d.tokens[i].text.lower() in NEGATIONS
        and d.tokens[i - 1].text.lower() in AUXILIARIES
    ]
    if not matches:
        return [], False
    selected = [i for i in matches if rng.random() < params["p"]]
    # One delete per match so a rejection (emptying a mention) skips only
    # that occurrence.
    return [DeleteTokens(frozenset({i})) for i in reversed(selected)], True


def _abbreviation_matches(d: Document, ctx: AugmentContext) -> list[tuple[int, int, tuple[str, ...]]]:
    long_forms = ctx.long_forms
    mask = _mention_mask(d)
    lower = [t.text.lower() for t in d.tokens]
    n = len(lower)
    matches = []
    i = 0
    while i < n:
        hit = None
        for form, short in long_forms.get(lower[i], ()):
            end = i + len(form)
            if end <= n and tuple(lower[i:end]) == form and len({id(mask[j]) for j in range(i, end)}) == 1:
                hit = (i, end - 1, (short,))
                break
        if hit is None:
            long = ctx.lexicon.abbreviations.get(lower[i])
            if long:
                hit = (i, i, _split_words(long))
        if hit:
            matches.append(hit)
            i = hit[1] + 1
        else:
            i += 1
    return matches


def _abbreviation_toggle(d, params, rng, ctx):
    matches = _abbreviation_matches(d, ctx)
    if not matches:
        return [], False
    chosen = [m for m in matches if rng.random() < params["p"]]
    return [ReplaceSpan(s, e, words) for s, e, words in reversed(chosen)], True


def _mention_replacement(d, params, rng, ctx):
    by_type: dict[str, list[Mention]] = {}
    for m in d.mentions:
        by_type.setdefault(m.type, []).append(m)
    originals = {m.id: d.mention_texts(m) for m in d.mentions}
    sites = [m for m in sorted(d.mentions, key=lambda m: m.start) if len(by_type[m.type]) > 1]
    if not sites:
        return [], False
    chosen = []
    for m in sites:
        if rng.random() < params["p"]:
            candidates = [c for c in by_type[m.type] if c.id != m.id]
            donor = candidates[rng.randrange(len(candidates))]
            chosen.append((m, originals[donor.id]))
    return [ReplaceSpan(m.start, m.end, texts) for m, texts in reversed(chosen)], True


def _shuffle_within_segments(d, params, rng, ctx):
    segments = [(m.start, m.end) for m in d.mentions] + free_spans(d)
    segments = sorted(seg for seg in segments if seg[1] > seg[0])
    if not segments:
        return [], False
    edits = []
    for s, e in segments:
        if rng.random() >= params["p"]:
            continue
        k = e - s + 1
        perm = list(range(k))
        rng.shuffle(perm)
        # Realize the permutation as transpositions (legal swaps: a segment
        # is entirely one mention or entirely free).
        slots = list(range(k))
        for a in range(k):
            b = slots.index(perm[a], a)
            if b != a:
                edits.append(SwapTokens(s + a, s + b))
                slots[a], slots[b] = slots[b], slots[a]
    return edits, True


def _sentence_reordering(d, params, rng, ctx):
    n = len(sentence_spans(d))
    if n < 2:
        return [], False
    if rng.random() >= params["p"]:
        return [], True
    identity = list(range(n))
    order = identity
    while order == identity:
        order = _bounded_order(n, params["max_displacement"], rng, ctx)
    return [PermuteSentences(tuple(order))], True


def _bounded_order(n, max_disp, rng, ctx):
    """A random order of n sentences that moves none by more than max_disp
    positions (0: no bound), uniform over all such orders. Position k takes
    sentence k - max_disp while it is unused, since no later position may,
    else an unused sentence within max_disp of k, weighted by the orders
    that complete the choice (``AugmentContext.order_counts``)."""
    order = list(range(n))
    if not max_disp or max_disp >= n - 1:  # no bound
        rng.shuffle(order)
        return order
    counts = ctx.order_counts(max_disp, n)
    used = (1 << max_disp) - 1  # sentences before 0 count as placed
    for k in range(n):
        left = n - k
        r = rng.randrange(counts[left][used])
        for j in _order_choices(used, max_disp, left):
            after = (used | 1 << j) >> 1
            r -= counts[left - 1][after]
            if r < 0:
                break
        order[k] = k - max_disp + j
        used = after
    return order


def _order_choices(used, max_disp, left):
    """The sentences position k may take, as ascending offsets j from
    k - max_disp, given ``used`` as in ``AugmentContext.order_counts`` and
    the ``left`` positions from k on."""
    if not used & 1:
        return (0,)
    return [j for j in range(1, min(2 * max_disp + 1, max_disp + left)) if not used >> j & 1]


def _sentence_concatenation(d, params, rng, ctx):
    n = len(sentence_spans(d))
    if n < 2:
        return [], False
    # Merge t meets n - t sentences, so n - 1 - t adjacent pairs.
    merges = min(params["n_merges"], n - 1)
    return [MergeSentences(rng.randrange(n - 1 - t)) for t in range(merges)], True


def _subsequence_substitution(d, params, rng, ctx):
    lex = ctx.lexicon
    pieces = _sentence_internal_free_spans(d)
    if not pieces:
        return [], False
    index = ctx.donor_index
    chosen = []
    for s, e in pieces:
        if rng.random() >= params["p"]:
            continue
        length = e - s + 1
        total = length * (length + 1) // 2
        pick = rng.randrange(total)
        # Enumeration order: (a, b) by offset then end.
        for a in range(length):
            width = length - a
            if pick < width:
                b = a + pick
                break
            pick -= width
        start, end = s + a, s + b
        tags = tuple(lex.coarse_pos(t.text) for t in d.tokens[start : end + 1])
        candidates = index.get(tags)
        if not candidates:
            continue
        replacement = candidates[rng.randrange(len(candidates))]
        chosen.append((start, end, replacement))
    return [ReplaceSpan(s, e, texts) for s, e, texts in reversed(chosen)], True


def _rewrite(d, texts, mode, rng, ctx, **options) -> list[str]:
    """One rewrite per text from ctx.provider, seeded by one draw from rng;
    no rewrites at all, with a warning, when the provider fails or answers
    with a different number of rewrites, so d is kept unchanged."""
    seed = rng.getrandbits(32)
    try:
        rewrites = ctx.provider.rewrite(texts, mode, seed=seed, **options)
        if len(rewrites) != len(texts):
            raise ProviderError(f"{len(rewrites)} rewrites for {len(texts)} texts")
    except ProviderError as e:
        logger.warning("%s provider failed, keeping %s unchanged: %s", mode, d.id, e)
        return []
    return rewrites


def _paraphrase_spans(d, params, rng, ctx):
    pieces = _partition_pieces(d)
    if not pieces:
        return [], False
    texts = [" ".join(t.text for t in d.tokens[s : e + 1]) for s, e, _ in pieces]
    rewrites = _rewrite(d, texts, BACK_TRANSLATE, rng, ctx, pivot=params["pivot"])
    edits = []
    for (s, e, _), original, rewrite in zip(pieces, texts, rewrites):
        words = _split_words(rewrite)
        if not words or rewrite == original:
            continue  # empty rewrite keeps the original text
        edits.append(ReplaceSpan(s, e, words))
    return edits[::-1], True


def _model_word_replacement(d, params, rng, ctx):
    mask = _mention_mask(d)
    eligible = [
        i for i in range(len(d.tokens)) if params["in_mentions"] or mask[i] is None
    ]
    if not eligible:
        return [], False
    selected = [i for i in eligible if rng.random() < params["p"]]
    if not selected:
        return [], True
    spans = {value: (s, e) for value, s, e in sentence_spans(d)}
    marked = []
    for i in selected:
        s, e = spans[d.tokens[i].sentence]
        words = [
            f"[[{t.text}]]" if j == i else t.text
            for j, t in enumerate(d.tokens[s : e + 1], start=s)
        ]
        marked.append(" ".join(words))
    rewrites = _rewrite(d, marked, CONTEXTUAL, rng, ctx)
    edits = []
    for i, rewrite in zip(selected, rewrites):
        words = _split_words(rewrite)
        if not words or words == (d.tokens[i].text,):
            continue
        edits.append(ReplaceSpan(i, i, words))
    return edits[::-1], True


# --- registry ---------------------------------------------------------------

_P = lambda: FloatParam(0.0, 1.0, 0.1)


@dataclass(frozen=True)
class Technique:
    name: str
    aliases: tuple[str, ...]
    space: ParamSpace
    fn: Callable
    identity_params: Mapping[str, Any] = field(default_factory=dict)


TECHNIQUES: dict[str, Technique] = {
    t.name: t
    for t in [
        Technique(
            "random_token_deletion",
            ("B.79", "random_deletion"),
            ParamSpace(p=_P()),
            _random_token_deletion,
            identity_params={"p": 0.0},
        ),
        Technique(
            "random_token_insertion",
            ("random_insert",),
            ParamSpace(n=IntParam(0, 10, 1)),
            _random_token_insertion,
            identity_params={"n": 0},
        ),
        Technique(
            "random_token_swap",
            ("random_swap",),
            ParamSpace(s=IntParam(0, 10, 1)),
            _random_token_swap,
            identity_params={"s": 0},
        ),
        Technique(
            "filler_word_insertion",
            ("B.40",),
            ParamSpace(p=_P(), in_mentions=CatParam((False, True), False)),
            _filler_word_insertion,
            identity_params={"p": 0.0},
        ),
        Technique(
            "synonym_insertion",
            ("B.100",),
            ParamSpace(p=_P()),
            _synonym_insertion,
            identity_params={"p": 0.0},
        ),
        Technique(
            "lexicon_substitution",
            ("B.101", "B.3", "B.5"),
            ParamSpace(
                mode=CatParam(("synonym", "adjective_antonym", "antonym_even"), "synonym"),
                p=_P(),
                k=IntParam(0, 10, 1),
            ),
            _lexicon_substitution,
            identity_params={"p": 0.0, "k": 0},
        ),
        Technique(
            "auxiliary_negation_removal",
            ("B.6",),
            ParamSpace(p=FloatParam(0.0, 1.0, 1.0)),
            _auxiliary_negation_removal,
            identity_params={"p": 0.0},
        ),
        Technique(
            "abbreviation_toggle",
            ("B.82",),
            ParamSpace(p=_P()),
            _abbreviation_toggle,
            identity_params={"p": 0.0},
        ),
        Technique(
            "mention_replacement",
            ("B.39",),
            ParamSpace(p=_P()),
            _mention_replacement,
            identity_params={"p": 0.0},
        ),
        Technique(
            "shuffle_within_segments",
            ("B.90",),
            ParamSpace(p=_P()),
            _shuffle_within_segments,
            identity_params={"p": 0.0},
        ),
        Technique(
            "sentence_reordering",
            ("B.88",),
            # the completion counts of a bounded order grow with C(2d, d)
            ParamSpace(p=FloatParam(0.0, 1.0, 1.0), max_displacement=IntParam(0, 5, 0)),
            _sentence_reordering,
            identity_params={"p": 0.0},
        ),
        Technique(
            "sentence_concatenation",
            ("B.24",),
            ParamSpace(n_merges=IntParam(0, 10, 1)),
            _sentence_concatenation,
            identity_params={"n_merges": 0},
        ),
        Technique(
            "subsequence_substitution",
            ("B.103",),
            ParamSpace(p=_P()),
            _subsequence_substitution,
            identity_params={"p": 0.0},
        ),
        Technique(
            "paraphrase_spans",
            ("B.8", "B.62", "back_translation"),
            ParamSpace(pivot=CatParam(("de", "fr", "es"), "de")),
            _paraphrase_spans,
        ),
        Technique(
            "model_word_replacement",
            ("B.26", "B.106", "transformer_fill"),
            ParamSpace(p=_P(), in_mentions=CatParam((False, True), False)),
            _model_word_replacement,
            identity_params={"p": 0.0},
        ),
    ]
}

_ALIASES: dict[str, str] = {}
for _t in TECHNIQUES.values():
    _ALIASES[_t.name.lower()] = _t.name
    for _a in _t.aliases:
        _ALIASES[_a.lower()] = _t.name


def resolve_technique(technique_id: str) -> Technique:
    name = _ALIASES.get(technique_id.lower())
    if name is None:
        raise UnknownTechniqueError(
            f"unknown technique {technique_id!r}; known: {', '.join(list_techniques())}"
        )
    return TECHNIQUES[name]


def list_techniques() -> list[str]:
    return sorted(TECHNIQUES)


def apply_technique(
    d: Document, cfg: TechniqueConfig, rng, ctx: AugmentContext
) -> tuple[Document, bool]:
    """One synthetic document plus a no-op flag (True when the document
    offered no applicable site). The technique proposes the edits; this
    is the one place they are applied."""
    technique, params = cfg.resolved
    edits, had_candidates = technique.fn(d, params, rng, ctx)
    if not had_candidates:
        logger.debug("technique %s is a no-op on document %s", technique.name, d.id)
    doc, _ = apply_edits(d, edits)
    return doc, not had_candidates


def parent_id(doc_id: str) -> str | None:
    """The direct parent of a synthetic id ``<parent>-aug<N>``, None when
    the id has no such suffix."""
    head, sep, tail = doc_id.rpartition("-aug")
    return head if sep and tail.isdigit() else None


def origin_id(doc_id: str) -> str:
    """Provenance: the originating document id of a synthetic id."""
    while (parent := parent_id(doc_id)) is not None:
        doc_id = parent
    return doc_id


def augment_corpus(
    source: Corpus | Sequence[Document],
    cfg: TechniqueConfig,
    seed: int,
    *,
    lexicon: Lexicon | None = None,
    provider: ParaphraseProvider | None = None,
) -> list[Document]:
    """Synthetic documents for a whole corpus, n_aug per original, in
    document order and then replica order.

    Each (document, replica) gets its own rng derived from (seed, document
    id, technique, replica), so no replica's output depends on any other.
    Replica k of a document is named with its id plus the next "-aug<N>"
    that no source document holds (N counting from 1), so a synthetic id
    is never a source id, and augment output can be augmented again.
    """
    documents = source.documents if isinstance(source, Corpus) else tuple(source)
    technique, _ = cfg.resolved
    ctx = make_context(documents, lexicon, provider)
    taken = {d.id for d in documents}
    out = []
    for d in documents:
        n = 0
        for k in range(cfg.n_aug):
            n += 1
            while (name := f"{d.id}-aug{n}") in taken:
                n += 1
            rng = derive_rng(seed, d.id, technique.name, k)
            doc, _ = apply_technique(d, cfg, rng, ctx)
            out.append(Document(name, doc.tokens, doc.mentions, doc.relations))
    return out
