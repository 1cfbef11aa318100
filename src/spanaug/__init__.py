"""spanaug: annotation-preserving text augmentation for span and relation
extraction corpora, with cross-validated gain measurement and TPE
parameter tuning."""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    CorpusParseError,
    CorpusValidationError,
    Document,
    Mention,
    Relation,
    Token,
    load_corpus,
    parse_corpus,
    save_corpus,
    serialize_corpus,
    validate_corpus,
    validate_document,
)
from .edits import (
    DeleteTokens,
    InsertTokens,
    MergeSentences,
    PermuteSentences,
    RemapReport,
    ReplaceSpan,
    SwapTokens,
    apply_edit,
    apply_edits,
    free_spans,
)
from .evaluation import GainReport, Score, cross_validate, score_mentions, score_relations
from .lexicon import Lexicon, builtin_lexicon, load_lexicon
from .providers import HTTPProvider, ParaphraseProvider, StubProvider, default_stub, identity_stub
from .stats import CorpusStats, StatsDelta, compare_stats, corpus_stats
from .techniques import (
    TechniqueConfig,
    augment_corpus,
    list_techniques,
    origin_id,
    resolve_technique,
)
from .tpe import TrialRecord, optimize, suggest

__all__ = [
    "Corpus",
    "CorpusParseError",
    "CorpusStats",
    "CorpusValidationError",
    "DeleteTokens",
    "Document",
    "GainReport",
    "HTTPProvider",
    "InsertTokens",
    "Lexicon",
    "Mention",
    "MergeSentences",
    "ParaphraseProvider",
    "PermuteSentences",
    "Relation",
    "RemapReport",
    "ReplaceSpan",
    "Score",
    "StatsDelta",
    "StubProvider",
    "SwapTokens",
    "TechniqueConfig",
    "Token",
    "TrialRecord",
    "apply_edit",
    "apply_edits",
    "augment_corpus",
    "builtin_lexicon",
    "compare_stats",
    "corpus_stats",
    "cross_validate",
    "default_stub",
    "free_spans",
    "identity_stub",
    "list_techniques",
    "load_corpus",
    "load_lexicon",
    "optimize",
    "origin_id",
    "parse_corpus",
    "resolve_technique",
    "save_corpus",
    "score_mentions",
    "score_relations",
    "serialize_corpus",
    "suggest",
    "validate_corpus",
    "validate_document",
]
