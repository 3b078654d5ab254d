"""Tools for building and evaluating grammatical-error-correction data:
token alignment and edit extraction, rule-based error classification,
M2 scoring, corpus filtering and synthetic error generation, and
Kneser-Ney n-gram language models for n-best re-ranking."""

from gectools.align import (
    AlignOp,
    CostParams,
    Edit,
    align,
    apply_edits,
    extract_edits,
    merge_ops,
    sub_cost,
)
from gectools.classify import POS_TAGS, char_overlap_ratio, classify_all, classify_edit
from gectools.errors import (
    DegenerateCounts,
    EmptyInput,
    EmptySentence,
    GecToolsError,
    LengthMismatch,
    MalformedArpa,
    MalformedLine,
    MalformedM2,
    MissingAnnotations,
    OverlappingEdits,
    SeveralAnnotators,
    SpanOutOfBounds,
)
from gectools.lexicon import Lexicon
from gectools.lm import (
    ArpaModel,
    Hypothesis,
    NgramCounts,
    RerankConfig,
    count_ngrams,
    logprob,
    normalized_logprob,
    perplexity,
    read_arpa,
    read_nbest,
    rerank,
    train_kneser_ney,
    write_arpa,
)
from gectools.m2 import read_m2, write_m2
from gectools.score import (
    CorpusStats,
    ScoreReport,
    compare,
    corpus_stats,
    f_beta,
    format_stats,
    group_of,
    score_corpus,
)
from gectools.synth import (
    ConfusionProvider,
    CorruptionStats,
    FilterConfig,
    SynthConfig,
    SynthStats,
    corrupt_sentence,
    diacritic_ratio,
    filter_sentence,
    generate_corpus,
)
from gectools.text import Sentence, Token, is_punct, parse_conllu, render, tokenize

__version__ = "0.1.0"

__all__ = [
    "AlignOp", "ArpaModel", "ConfusionProvider", "CorpusStats", "CorruptionStats",
    "CostParams", "DegenerateCounts", "Edit", "EmptyInput", "EmptySentence",
    "FilterConfig", "GecToolsError", "Hypothesis", "LengthMismatch", "Lexicon",
    "MalformedArpa", "MalformedLine", "MalformedM2", "MissingAnnotations",
    "NgramCounts", "OverlappingEdits", "POS_TAGS", "RerankConfig", "ScoreReport",
    "Sentence", "SeveralAnnotators", "SpanOutOfBounds", "SynthConfig", "SynthStats", "Token",
    "align", "apply_edits", "char_overlap_ratio", "classify_all", "classify_edit",
    "compare", "corpus_stats", "corrupt_sentence", "count_ngrams", "diacritic_ratio",
    "extract_edits", "f_beta", "filter_sentence", "format_stats", "generate_corpus",
    "group_of", "is_punct", "logprob", "merge_ops", "normalized_logprob",
    "parse_conllu", "perplexity", "read_arpa", "read_m2", "read_nbest", "render",
    "rerank", "score_corpus", "sub_cost", "tokenize", "train_kneser_ney",
    "write_arpa", "write_m2",
]
