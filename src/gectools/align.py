"""Token-level alignment of original/corrected sentence pairs.

The aligner runs a Damerau-Levenshtein dynamic program over tokens with
unit insert/delete/transpose costs and a weighted substitution cost that
blends lemma identity, UPOS identity and normalized character distance.
Maximal runs of non-match operations are then merged into Edits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from gectools.errors import OverlappingEdits, SpanOutOfBounds
from gectools.kernels import dl_distance
from gectools.text import Sentence, Token, is_punct

MATCH = "match"
SUBSTITUTE = "substitute"
TRANSPOSE = "transpose"
DELETE = "delete"
INSERT = "insert"

# When costs tie, earlier kinds win.
_PREFERENCE = (MATCH, SUBSTITUTE, TRANSPOSE, DELETE, INSERT)


@dataclass(frozen=True)
class CostParams:
    """Weights of the alignment cost model."""

    w_lemma: float = 0.499
    w_pos: float = 0.25
    w_char: float = 0.25
    insert_cost: float = 1.0
    delete_cost: float = 1.0
    transpose_cost: float = 1.0

    def __post_init__(self):
        for name in ("w_lemma", "w_pos", "w_char", "insert_cost", "delete_cost", "transpose_cost"):
            value = getattr(self, name)
            if not (0 <= value < math.inf):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        # A substitution must never cost more than deleting and
        # re-inserting the token, or substitutions become unreachable.
        if self.w_lemma + self.w_pos + self.w_char >= self.insert_cost + self.delete_cost:
            raise ValueError("substitution weights must sum to less than insert_cost + delete_cost")


DEFAULT_COSTS = CostParams()


def _annotation_cost(a: Token, b: Token, params: CostParams) -> float:
    """Lemma and UPOS part of the substitution cost of two different forms."""
    if a.lemma is None or b.lemma is None:
        lemma_term = 0.5
    else:
        lemma_term = 1.0 if a.lemma != b.lemma else 0.0
    if a.upos is None or b.upos is None:
        pos_term = 0.5
    else:
        pos_term = 1.0 if a.upos != b.upos else 0.0
    return params.w_lemma * lemma_term + params.w_pos * pos_term


def sub_cost(a: Token, b: Token, params: CostParams = DEFAULT_COSTS) -> float:
    """Substitution cost between two tokens.

    Identical forms cost 0.  Otherwise each of the lemma and UPOS terms
    contributes its full weight when both sides carry the annotation and
    they differ, half weight when the annotation is missing on either
    side, and 0 when both are present and equal.  The character term is
    the Damerau-Levenshtein distance between the forms normalized by the
    longer form.
    """
    if a.form == b.form:
        return 0.0
    char_term = dl_distance(a.form, b.form) / max(len(a.form), len(b.form))
    return _annotation_cost(a, b, params) + params.w_char * char_term


@dataclass(frozen=True)
class AlignOp:
    """One step of an alignment path.

    o_index/c_index are the cursor positions in the original/corrected
    sentence when the operation is applied: the tokens consumed are
    orig[o_index:...] and corr[c_index:...] depending on the kind
    (transpose consumes two on each side, insert none on the original
    side, delete none on the corrected side).
    """

    kind: str
    o_index: int
    c_index: int


def _border_steps_exact(cost: float, count: int) -> bool:
    """True when no border cell k * cost of the alignment table exceeds
    the cell before it plus cost.

    Matching the common suffix outright relies on this.  It holds for
    whole-number costs, but float rounding breaks it for some others
    (6 * 0.1 > 5 * 0.1 + 0.1).
    """
    return all(k * cost <= (k - 1) * cost + cost for k in range(2, count + 1))


# The first pass fills the diagonals whose indel lower bound is at most
# this many times the larger indel cost above the least bound.
_BAND_MARGIN = 3.0
# Relative allowance, per table step, for float rounding in the test
# that decides a second pass (see align).
_ROUNDING = 1e-9


def _fill(
    o_toks: tuple[Token, ...], c_toks: tuple[Token, ...], n: int, m: int, width: int, params: CostParams
) -> tuple[list[list[float]], list[list[str]]]:
    """Cost and operation tables of aligning o_toks[:n] with c_toks[:m].

    Only the diagonals k = j - i from min(0, m - n) - width to
    max(0, m - n) + width are filled; cells outside read as inf.
    """
    lo, hi = min(0, m - n) - width, max(0, m - n) + width
    o_forms = [t.form for t in o_toks[:n]]
    c_forms = [t.form for t in c_toks[:m]]
    w_char, transpose_cost = params.w_char, params.transpose_cost
    delete_cost, insert_cost = params.delete_cost, params.insert_cost

    dist = [[math.inf] * (m + 1) for _ in range(n + 1)]
    op = [[""] * (m + 1) for _ in range(n + 1)]
    dist[0][0] = 0.0
    for i in range(1, min(n, -lo) + 1):
        dist[i][0] = i * delete_cost
        op[i][0] = DELETE
    for j in range(1, min(m, hi) + 1):
        dist[0][j] = j * insert_cost
        op[0][j] = INSERT

    for i in range(1, n + 1):
        a_form = o_forms[i - 1]
        a_len = len(a_form)
        prev_row, row, op_row = dist[i - 1], dist[i], op[i]
        for j in range(max(1, i + lo), min(m, i + hi) + 1):
            b_form = c_forms[j - 1]
            diag = prev_row[j - 1]
            if a_form == b_form:
                best_cost, best_kind = diag, MATCH
            else:
                best_cost, best_kind = math.inf, SUBSTITUTE  # priced below
            if i > 1 and j > 1 and a_form == c_forms[j - 2] and o_forms[i - 2] == b_form:
                cand = dist[i - 2][j - 2] + transpose_cost
                if cand < best_cost:
                    best_cost, best_kind = cand, TRANSPOSE
            cand = prev_row[j] + delete_cost
            if cand < best_cost:
                best_cost, best_kind = cand, DELETE
            cand = row[j - 1] + insert_cost
            if cand < best_cost:
                best_cost, best_kind = cand, INSERT
            # A substitution wins ties with the kinds tried above.
            if a_form != b_form and diag <= best_cost:
                a, b = o_toks[i - 1], c_toks[j - 1]
                b_len = len(b_form)
                gap = abs(a_len - b_len) or 1
                bound = _annotation_cost(a, b, params) + w_char * (gap / max(a_len, b_len))
                if diag + bound <= best_cost:
                    cand = diag + sub_cost(a, b, params)
                    if cand <= best_cost:
                        best_cost, best_kind = cand, SUBSTITUTE
            row[j] = best_cost
            op_row[j] = best_kind
    return dist, op


def _band_width(quotient: float, full: int) -> int:
    """A band of quotient diagonals, or the whole table when costs that
    overflowed to inf leave the quotient inf or NaN."""
    return min(full, int(quotient)) if math.isfinite(quotient) else full


def align(orig: Sentence, corr: Sentence, params: CostParams = DEFAULT_COSTS) -> list[AlignOp]:
    """Minimum-cost alignment path between two sentences.

    Ties are broken by preferring match > substitute > transpose >
    delete > insert, which makes the result deterministic.

    Three shortcuts leave the path unchanged.  The common suffix is
    matched outright: when the last tokens match, the last cell of the
    table backtraces as a match, so the full table would walk that
    suffix diagonally too (given _border_steps_exact; otherwise nothing
    is trimmed).  The prefix is not trimmed: tie-breaks would then pick
    different tokens, as in ``a -> a a b``, where the table inserts the
    first ``a``.  sub_cost, with its character distance, is only
    computed when a lower bound on the substitution does not already
    lose to transpose, delete or insert: the distance between two
    different forms is at least 1 and at least their length difference,
    and float rounding is monotone, so the bound never exceeds the cost
    it stands for.

    And only a band of the table's diagonals k = j - i is filled
    (Ukkonen, 1985).  Each step changes k by at most one, inserts
    raising it and deletes lowering it, and no step costs less than 0.
    So a path that leaves the diagonals between 0 and d = m - n by e
    costs at least base + e * (insert + delete), where base is the
    indels from 0 to d.  The first pass fills the e up to
    _BAND_MARGIN * max(insert, delete) / (insert + delete), with the
    cells outside at inf, which only raises values.  Its result U is
    the cost of a real path, so no optimal path leaves the diagonals
    by more than e_max = (U - base) / (insert + delete); when e_max
    exceeds the first width, a second pass fills that wider band.
    Every cell the full table's backtrace reads as a tie candidate lies
    on a path of optimal cost, so inside the band it has its exact
    value, the same kinds tie, and the path is op for op that of the
    full table.  U and the optimum are float sums of at most n + m
    steps, so each is within a relative (n + m) * 2**-53 of its real
    value, and the bounds base and e * (insert + delete) within a few
    rounding steps of theirs: e_max is taken from U raised by a
    relative _ROUNDING * (n + m + 1), which covers both many times
    over.  Costs so large that these sums overflow to inf leave no band
    to derive, and the whole table is filled.
    """
    o_toks, c_toks = orig.tokens, corr.tokens
    n, m = len(o_toks), len(c_toks)
    suffix = 0
    trim = _border_steps_exact(params.delete_cost, n) and _border_steps_exact(params.insert_cost, m)
    while trim and suffix < min(n, m) and o_toks[n - 1 - suffix].form == c_toks[m - 1 - suffix].form:
        suffix += 1
    n -= suffix
    m -= suffix

    delete_cost, insert_cost = params.delete_cost, params.insert_cost
    step = insert_cost + delete_cost
    full = min(n, m)  # a band this wide covers the whole table
    width = _band_width(_BAND_MARGIN * max(insert_cost, delete_cost) // step, full)
    dist, op = _fill(o_toks, c_toks, n, m, width, params)
    if width < full:
        base = (m - n) * insert_cost if m >= n else (n - m) * delete_cost
        budget = dist[n][m] * (1 + _ROUNDING * (n + m + 1))
        needed = _band_width((budget - base) // step, full)
        if needed > width:
            dist, op = _fill(o_toks, c_toks, n, m, needed, params)

    path: list[AlignOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        kind = op[i][j]
        if kind in (MATCH, SUBSTITUTE):
            i -= 1
            j -= 1
        elif kind == TRANSPOSE:
            i -= 2
            j -= 2
        elif kind == DELETE:
            i -= 1
        else:
            j -= 1
        path.append(AlignOp(kind, i, j))
    path.reverse()
    path.extend(AlignOp(MATCH, n + k, m + k) for k in range(suffix))
    return path


@dataclass(frozen=True)
class Edit:
    """A contiguous rewrite of orig[o_start:o_end] into corr[c_start:c_end].

    o_text/c_text are the space-joined forms of the two spans; either may
    be empty (pure insertion or deletion).  etype is the error type label
    once classified, None before.
    """

    o_start: int
    o_end: int
    c_start: int
    c_end: int
    o_text: str
    c_text: str
    etype: str | None = None

    @property
    def o_span(self) -> tuple[int, int]:
        return (self.o_start, self.o_end)

    @property
    def c_span(self) -> tuple[int, int]:
        return (self.c_start, self.c_end)

    def with_type(self, etype: str) -> "Edit":
        return replace(self, etype=etype)


def _make_edit(orig: Sentence, corr: Sentence, o_start, o_end, c_start, c_end) -> Edit:
    return Edit(
        o_start=o_start,
        o_end=o_end,
        c_start=c_start,
        c_end=c_end,
        o_text=" ".join(t.form for t in orig.tokens[o_start:o_end]),
        c_text=" ".join(t.form for t in corr.tokens[c_start:c_end]),
    )


def _touches_punct(orig: Sentence, corr: Sentence, edit: Edit) -> bool:
    spans = (
        orig.tokens[edit.o_start : edit.o_end],
        corr.tokens[edit.c_start : edit.c_end],
    )
    return any(is_punct(t.form) for span in spans for t in span)


def merge_ops(ops: list[AlignOp], orig: Sentence, corr: Sentence) -> list[Edit]:
    """Group alignment operations into edits.

    Every maximal run of non-match operations becomes one edit.  Two
    edits separated by exactly one matched punctuation token are then
    merged (bridging the punctuation) when either of them touches
    punctuation itself.
    """
    edits: list[Edit] = []
    oi = ci = 0
    run: tuple[int, int] | None = None
    for step in ops:
        if step.kind == MATCH:
            if run is not None:
                edits.append(_make_edit(orig, corr, run[0], oi, run[1], ci))
                run = None
            oi += 1
            ci += 1
            continue
        if run is None:
            run = (oi, ci)
        if step.kind == TRANSPOSE:
            oi += 2
            ci += 2
        elif step.kind == DELETE:
            oi += 1
        elif step.kind == INSERT:
            ci += 1
        else:
            oi += 1
            ci += 1
    if run is not None:
        edits.append(_make_edit(orig, corr, run[0], oi, run[1], ci))

    if not edits:
        return edits
    merged = [edits[0]]
    for edit in edits[1:]:
        prev = merged[-1]
        bridged = (
            edit.o_start == prev.o_end + 1
            and edit.c_start == prev.c_end + 1
            and is_punct(orig.tokens[prev.o_end].form)
            and (_touches_punct(orig, corr, prev) or _touches_punct(orig, corr, edit))
        )
        if bridged:
            merged[-1] = _make_edit(orig, corr, prev.o_start, edit.o_end, prev.c_start, edit.c_end)
        else:
            merged.append(edit)
    return merged


def extract_edits(orig: Sentence, corr: Sentence, params: CostParams = DEFAULT_COSTS) -> list[Edit]:
    """Edits that rewrite orig into corr, from the minimum-cost alignment."""
    return merge_ops(align(orig, corr, params), orig, corr)


def apply_edits(sentence: Sentence, edits: list[Edit]) -> Sentence:
    """Apply edits to a sentence, producing the corrected surface tokens.

    Edits must be sorted by original span and non-overlapping.  The
    resulting tokens carry no annotations.
    """
    cursor = 0
    out: list[Token] = []
    for edit in edits:
        if not (0 <= edit.o_start <= edit.o_end <= len(sentence)):
            raise SpanOutOfBounds(
                f"edit span ({edit.o_start}, {edit.o_end}) does not fit a "
                f"sentence of {len(sentence)} tokens"
            )
        if edit.o_start < cursor:
            raise OverlappingEdits(
                f"edit at ({edit.o_start}, {edit.o_end}) overlaps the previous edit"
            )
        out.extend(sentence.tokens[cursor : edit.o_start])
        out.extend(Token(form) for form in edit.c_text.split())
        cursor = edit.o_end
    out.extend(sentence.tokens[cursor:])
    return Sentence(tuple(out))
