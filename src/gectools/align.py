"""Token-level alignment of original/corrected sentence pairs.

The aligner runs a Damerau-Levenshtein dynamic program over tokens with
fixed costs: 1 for an insertion, a deletion or a transposition, and a
substitution cost that blends lemma identity, UPOS identity and
normalized character distance with the weights W_LEMMA, W_POS and
W_CHAR.  Maximal runs of non-match operations are then merged into
Edits.
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

# Tokens each kind consumes on the original and corrected sides.
_WIDTHS = {MATCH: (1, 1), SUBSTITUTE: (1, 1), TRANSPOSE: (2, 2), DELETE: (1, 0), INSERT: (0, 1)}

# Weights of the substitution cost.  They sum to less than 2, the cost
# of deleting a token and inserting another, so a substitution can win.
W_LEMMA = 0.499
W_POS = 0.25
W_CHAR = 0.25


def _annotation_cost(a: Token, b: Token) -> float:
    """Lemma and UPOS part of the substitution cost of two different forms."""
    if a.lemma is None or b.lemma is None:
        lemma_term = 0.5
    else:
        lemma_term = 1.0 if a.lemma != b.lemma else 0.0
    if a.upos is None or b.upos is None:
        pos_term = 0.5
    else:
        pos_term = 1.0 if a.upos != b.upos else 0.0
    return W_LEMMA * lemma_term + W_POS * pos_term


def sub_cost(a: Token, b: Token) -> float:
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
    return _annotation_cost(a, b) + W_CHAR * char_term


@dataclass(frozen=True)
class AlignOp:
    """One step of an alignment path.

    o_index/c_index are the cursor positions in the original/corrected
    sentence when the operation is applied: the tokens consumed start
    there, as many on each side as _WIDTHS gives for the kind.
    """

    kind: str
    o_index: int
    c_index: int


# The first pass fills the diagonals at most this far outside those
# between 0 and m - n.
_FIRST_BAND = 1
# Relative allowance, per table step, for float rounding in the test
# that decides a second pass (see align).
_ROUNDING = 1e-9


def _fill(
    o_toks: tuple[Token, ...], c_toks: tuple[Token, ...], n: int, m: int, width: int
) -> tuple[list[list[float]], list[list[str]]]:
    """Cost and operation tables of aligning o_toks[:n] with c_toks[:m].

    Only the diagonals k = j - i from min(0, m - n) - width to
    max(0, m - n) + width are filled; cells outside read as inf.
    """
    lo, hi = min(0, m - n) - width, max(0, m - n) + width
    o_forms = [t.form for t in o_toks[:n]]
    c_forms = [t.form for t in c_toks[:m]]

    dist = [[math.inf] * (m + 1) for _ in range(n + 1)]
    op = [[""] * (m + 1) for _ in range(n + 1)]
    dist[0][0] = 0.0
    for i in range(1, min(n, -lo) + 1):
        dist[i][0] = float(i)
        op[i][0] = DELETE
    for j in range(1, min(m, hi) + 1):
        dist[0][j] = float(j)
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
                cand = dist[i - 2][j - 2] + 1.0
                if cand < best_cost:
                    best_cost, best_kind = cand, TRANSPOSE
            cand = prev_row[j] + 1.0
            if cand < best_cost:
                best_cost, best_kind = cand, DELETE
            cand = row[j - 1] + 1.0
            if cand < best_cost:
                best_cost, best_kind = cand, INSERT
            # A substitution wins ties with the kinds tried above.
            if a_form != b_form and diag <= best_cost:
                a, b = o_toks[i - 1], c_toks[j - 1]
                b_len = len(b_form)
                gap = abs(a_len - b_len) or 1
                bound = _annotation_cost(a, b) + W_CHAR * (gap / max(a_len, b_len))
                if diag + bound <= best_cost:
                    cand = diag + sub_cost(a, b)
                    if cand <= best_cost:
                        best_cost, best_kind = cand, SUBSTITUTE
            row[j] = best_cost
            op_row[j] = best_kind
    return dist, op


def align(orig: Sentence, corr: Sentence) -> list[AlignOp]:
    """Minimum-cost alignment path between two sentences.

    Ties are broken by preferring match > substitute > transpose >
    delete > insert, which makes the result deterministic.

    Three shortcuts leave the path unchanged.  The common suffix is
    matched outright: when the last tokens match, the last cell of the
    table backtraces as a match, so the full table would walk that
    suffix diagonally too.  The prefix is not trimmed: tie-breaks would
    then pick different tokens, as in ``a -> a a b``, where the table
    inserts the first ``a``.  sub_cost, with its character distance, is
    only computed when a lower bound on the substitution does not
    already lose to transpose, delete or insert: the distance between
    two different forms is at least 1 and at least their length
    difference, and float rounding is monotone, so the bound never
    exceeds the cost it stands for.

    And only a band of the table's diagonals k = j - i is filled
    (Ukkonen, 1985).  Each step changes k by at most one, an insert
    raising it and a delete lowering it, each for a cost of 1, and no
    step costs less than 0.  So a path that leaves the diagonals
    between 0 and d = m - n by e costs at least |d| + 2e.  The first
    pass fills the e up to _FIRST_BAND, with the cells outside at inf,
    which only raises values.  Its result U is the cost of a real path,
    so no optimal path leaves the diagonals by more than
    e_max = (U - |d|) / 2; when e_max exceeds the first width, a second
    pass fills that wider band.  Every cell the full table's backtrace
    reads as a tie candidate lies on a path of optimal cost, so inside
    the band it has its exact value, the same kinds tie, and the path
    is op for op that of the full table.  |d| and 2e are whole numbers
    and exact, but substitution costs are not: U and the optimum are
    float sums of at most n + m steps, so each is within a relative
    (n + m) * 2**-53 of its real value, and e_max is taken from U raised
    by a relative _ROUNDING * (n + m + 1), which covers that many times
    over.  No step costs more than 1, so U is at most n + m and no sum
    overflows.
    """
    o_toks, c_toks = orig.tokens, corr.tokens
    n, m = len(o_toks), len(c_toks)
    suffix = 0
    while suffix < min(n, m) and o_toks[n - 1 - suffix].form == c_toks[m - 1 - suffix].form:
        suffix += 1
    n -= suffix
    m -= suffix

    full = min(n, m)  # a band this wide covers the whole table
    width = min(full, _FIRST_BAND)
    dist, op = _fill(o_toks, c_toks, n, m, width)
    if width < full:
        budget = dist[n][m] * (1 + _ROUNDING * (n + m + 1))
        needed = min(full, int((budget - abs(m - n)) // 2))
        if needed > width:
            dist, op = _fill(o_toks, c_toks, n, m, needed)

    path: list[AlignOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        kind = op[i][j]
        o_width, c_width = _WIDTHS[kind]
        i -= o_width
        j -= c_width
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


def merge_ops(ops: list[AlignOp], orig: Sentence, corr: Sentence) -> list[Edit]:
    """Group the alignment path of orig and corr (as align returns it)
    into edits.

    Every maximal run of non-match operations becomes one span: it
    starts at the cursor positions of its first operation and ends at
    those of the match after it, or at the ends of the sentences.  A
    span separated from the one before it by exactly one matched
    punctuation token is joined to it (bridging the punctuation) when
    either of them touches punctuation itself.
    """
    o_toks, c_toks = orig.tokens, corr.tokens
    spans: list[list[int]] = []
    run: AlignOp | None = None
    for step in (*ops, AlignOp(MATCH, len(o_toks), len(c_toks))):
        if step.kind != MATCH:
            if run is None:
                run = step
            continue
        if run is None:
            continue
        o_start, c_start, o_end, c_end = run.o_index, run.c_index, step.o_index, step.c_index
        run = None
        if spans:
            prev = spans[-1]
            if (
                o_start == prev[1] + 1
                and c_start == prev[3] + 1
                and is_punct(o_toks[prev[1]].form)
                and any(
                    is_punct(t.form)
                    for t in o_toks[prev[0] : prev[1]]
                    + c_toks[prev[2] : prev[3]]
                    + o_toks[o_start:o_end]
                    + c_toks[c_start:c_end]
                )
            ):
                prev[1], prev[3] = o_end, c_end
                continue
        spans.append([o_start, o_end, c_start, c_end])
    return [
        Edit(o, oe, c, ce, " ".join(t.form for t in o_toks[o:oe]), " ".join(t.form for t in c_toks[c:ce]))
        for o, oe, c, ce in spans
    ]


def extract_edits(orig: Sentence, corr: Sentence) -> list[Edit]:
    """Edits that rewrite orig into corr, from the minimum-cost alignment."""
    return merge_ops(align(orig, corr), orig, corr)


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
