"""Corpus characteristics that explain what each technique changes:
vocabulary size, mean mention length, the fraction of relations whose
head precedes its tail, and original-vs-augmented deltas including the
relation direction flip rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus
from .techniques import origin_id


@dataclass(frozen=True)
class CorpusStats:
    vocabulary_size: int  # distinct lowercased token texts
    mean_mention_length: float  # tokens per mention, 0 for no mentions
    direction_fraction: float  # head mention starts before tail; 0 if no relations
    tokens: int
    mentions: int
    relations: int


@dataclass(frozen=True)
class StatsDelta:
    original: CorpusStats
    augmented: CorpusStats
    vocabulary_delta: int
    vocabulary_ratio: float | None
    mention_length_delta: float
    mention_length_ratio: float | None
    direction_fraction_delta: float
    direction_flip_rate: float  # over relations matched by id provenance
    matched_relations: int
    unmatched_relations: int


def corpus_stats(c: Corpus) -> CorpusStats:
    vocabulary = set()
    tokens = mentions = relations = forward = 0
    length_total = 0
    for d in c.documents:
        tokens += len(d.tokens)
        vocabulary.update(t.text.lower() for t in d.tokens)
        for m in d.mentions:
            mentions += 1
            length_total += m.length
        for _, head_first in _head_first(d):
            relations += 1
            forward += head_first
    return CorpusStats(
        vocabulary_size=len(vocabulary),
        mean_mention_length=length_total / mentions if mentions else 0.0,
        direction_fraction=forward / relations if relations else 0.0,
        tokens=tokens,
        mentions=mentions,
        relations=relations,
    )


def _ratio(before: float, after: float) -> float | None:
    return after / before if before else None


def _head_first(d) -> list[tuple[str, bool]]:
    """(relation id, whether its head mention starts before its tail) for
    every relation of d, in order."""
    start = {m.id: m.start for m in d.mentions}
    return [(r.id, start[r.head] < start[r.tail]) for r in d.relations]


def compare_stats(original: Corpus, augmented: Corpus) -> StatsDelta:
    """Field deltas and ratios between two corpora, plus the fraction of
    augmented-corpus relations whose head/tail text order flipped against
    the relation of the same id in the document they derive from.
    Relations without a provenance match are excluded from the flip rate
    and counted separately."""
    before = corpus_stats(original)
    after = corpus_stats(augmented)

    source_head_first = {d.id: dict(_head_first(d)) for d in original.documents}
    matched = unmatched = flipped = 0
    for doc in augmented.documents:
        source = source_head_first.get(origin_id(doc.id), {})
        for relation_id, head_first in _head_first(doc):
            counterpart = source.get(relation_id)
            if counterpart is None:
                unmatched += 1
                continue
            matched += 1
            if head_first != counterpart:
                flipped += 1

    return StatsDelta(
        original=before,
        augmented=after,
        vocabulary_delta=after.vocabulary_size - before.vocabulary_size,
        vocabulary_ratio=_ratio(before.vocabulary_size, after.vocabulary_size),
        mention_length_delta=after.mean_mention_length - before.mean_mention_length,
        mention_length_ratio=_ratio(before.mean_mention_length, after.mean_mention_length),
        direction_fraction_delta=after.direction_fraction - before.direction_fraction,
        direction_flip_rate=flipped / matched if matched else 0.0,
        matched_relations=matched,
        unmatched_relations=unmatched,
    )


DELTA_CSV_HEADER = "technique_id,vocab_delta,mention_len_delta,direction_flip_rate"


def delta_csv_row(technique_id: str, delta: StatsDelta) -> str:
    return (
        f"{technique_id},{delta.vocabulary_delta},"
        f"{delta.mention_length_delta},{delta.direction_flip_rate}"
    )


STATS_CSV_HEADER = (
    "corpus,vocabulary_size,mean_mention_length,direction_fraction,tokens,mentions,relations"
)


def stats_csv_row(label: str, stats: CorpusStats) -> str:
    return (
        f"{label},{stats.vocabulary_size},{stats.mean_mention_length},"
        f"{stats.direction_fraction},{stats.tokens},{stats.mentions},{stats.relations}"
    )
