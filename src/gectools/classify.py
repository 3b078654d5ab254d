"""Rule-based error-type classification of extracted edits.

Rules are tried in a fixed order; the first that applies wins:

1. ORDER        both spans hold the same tokens (case-insensitive
                multiset) in a different order
2. ORTH         spans are equal once lowercased and whitespace removed
3. SPELL        one token on each side, the original is out of lexicon
                and shares more than half of its characters
4. MORPH        same lemma, different UPOS
5. POS:<T>:FORM same lemma, same UPOS T
6. POS:<T>      every token on both sides has UPOS T (or one side empty)
7. OTHER        anything else

Rules 4 and 5 apply only to single-token edits; the POS labels use the
14-tag inventory below and fall through when the tag is outside it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from gectools.align import Edit, extract_edits
from gectools.errors import MissingAnnotations
from gectools.kernels import lcs_length
from gectools.text import UD_UPOS, Sentence, Token

if TYPE_CHECKING:  # annotations only: commands without a lexicon never load it
    from gectools.lexicon import Lexicon

# Tags that may appear in POS:<T> and POS:<T>:FORM labels: the UD tags
# but proper nouns, symbols and other.
POS_TAGS = UD_UPOS - {"PROPN", "SYM", "X"}


def char_overlap_ratio(a: str, b: str) -> float:
    """Longest-common-subsequence length over the longer string's length."""
    if not a or not b:
        raise ValueError("char_overlap_ratio requires non-empty strings")
    return lcs_length(a, b) / max(len(a), len(b))


def _require_upos(tokens: Iterable[Token]) -> list[str]:
    tags = []
    for tok in tokens:
        if tok.upos is None:
            raise MissingAnnotations(f"token {tok.form!r} lacks a UPOS tag")
        tags.append(tok.upos)
    return tags


def classify_edit(edit: Edit, orig: Sentence, corr: Sentence, lexicon: Lexicon) -> str:
    """Error-type label of one edit.

    Raises MissingAnnotations when the outcome depends on lemma/UPOS
    annotations that the decisive tokens do not carry.
    """
    o_toks = orig.tokens[edit.o_start : edit.o_end]
    c_toks = corr.tokens[edit.c_start : edit.c_end]
    o_lower = [t.form.lower() for t in o_toks]
    c_lower = [t.form.lower() for t in c_toks]

    if o_toks and c_toks and sorted(o_lower) == sorted(c_lower) and o_lower != c_lower:
        return "ORDER"
    if "".join(o_lower) == "".join(c_lower):
        return "ORTH"
    if len(o_toks) == 1 and len(c_toks) == 1:
        o_tok, c_tok = o_toks[0], c_toks[0]
        if o_tok.form not in lexicon and char_overlap_ratio(o_lower[0], c_lower[0]) > 0.5:
            return "SPELL"
        if o_tok.lemma is None or c_tok.lemma is None or o_tok.upos is None or c_tok.upos is None:
            raise MissingAnnotations(
                f"edit {edit.o_text!r} -> {edit.c_text!r} needs lemma and UPOS on both tokens"
            )
        if o_tok.lemma == c_tok.lemma and o_tok.upos != c_tok.upos:
            return "MORPH"
        if o_tok.lemma == c_tok.lemma and o_tok.upos == c_tok.upos and o_tok.upos in POS_TAGS:
            return f"POS:{o_tok.upos}:FORM"

    tags = set(_require_upos(o_toks)) | set(_require_upos(c_toks))
    if len(tags) == 1:
        tag = next(iter(tags))
        if tag in POS_TAGS:
            return f"POS:{tag}"
    return "OTHER"


def classify_all(sentence_pairs: Iterable[tuple[Sentence, Sentence]], lexicon: Lexicon) -> list[list[Edit]]:
    """Extract and classify the edits of every sentence pair.

    MissingAnnotations raised for a pair is re-raised with the pair's
    index attached.
    """
    results: list[list[Edit]] = []
    for index, (orig, corr) in enumerate(sentence_pairs):
        typed: list[Edit] = []
        for edit in extract_edits(orig, corr):
            try:
                label = classify_edit(edit, orig, corr, lexicon)
            except MissingAnnotations as exc:
                raise MissingAnnotations(
                    f"sentence {index}: {exc}", sentence_index=index
                ) from exc
            typed.append(edit.with_type(label))
        results.append(typed)
    return results
