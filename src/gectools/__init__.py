"""Tools for building and evaluating grammatical-error-correction data:
token alignment and edit extraction, rule-based error classification,
M2 scoring, corpus filtering and synthetic error generation, and
Kneser-Ney n-gram language models for n-best re-ranking.

The public names below resolve lazily (PEP 562): importing the package
imports none of its modules, and the first use of a name imports the
module that defines it.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

# Module -> the public names it defines.
_MODULES = {
    "align": ("AlignOp", "CostParams", "Edit", "align", "apply_edits", "extract_edits",
              "merge_ops", "sub_cost"),
    "classify": ("POS_TAGS", "char_overlap_ratio", "classify_all", "classify_edit"),
    "errors": ("DegenerateCounts", "EmptyInput", "EmptySentence", "GecToolsError",
               "LengthMismatch", "MalformedArpa", "MalformedLine", "MalformedM2",
               "MissingAnnotations", "OverlappingEdits", "SeveralAnnotators", "SpanOutOfBounds"),
    "lexicon": ("Lexicon",),
    "lm": ("ArpaModel", "Hypothesis", "NgramCounts", "RerankConfig", "count_ngrams", "logprob",
           "normalized_logprob", "perplexity", "read_arpa", "read_nbest", "rerank",
           "train_kneser_ney", "write_arpa"),
    "m2": ("read_m2", "write_m2"),
    "score": ("CorpusStats", "ScoreReport", "compare", "corpus_stats", "f_beta", "format_stats",
              "group_of", "score_corpus"),
    "synth": ("ConfusionProvider", "CorruptionStats", "FilterConfig", "SynthConfig", "SynthStats",
              "corrupt_sentence", "diacritic_ratio", "filter_sentence", "generate_corpus"),
    "text": ("Sentence", "Token", "is_punct", "parse_conllu", "render", "tokenize"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    # Importing a submodule binds it as an attribute of the package; a
    # public name of the same name (the function align) keeps its binding.
    def __setattr__(self, name, value):
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
