"""Scoring hypothesis edits against reference edits.

Each sentence pair adds its counts into per-type running totals
(`_add_sentence`, which states the matching rule); the corpus totals
are the sums of the per-type counts.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Sequence

from gectools.align import Edit
from gectools.errors import LengthMismatch

# Label edits that were never classified.
UNTYPED = "UNK"
# Coarse error groups, in the order stats reports them.
ERROR_GROUPS = ("POS", "MORPH", "ORTH", "SPELL", "ORDER", "OTHER")


def f_beta(precision: float, recall: float, beta: float = 0.5) -> float:
    """Weighted harmonic mean of precision and recall.

    beta < 1 favours precision; beta = 0.5 weighs precision twice as
    much as recall.  A beta whose square overflows gets the limit as beta
    grows: recall when precision is above 0, else 0.
    """
    weight = beta * beta
    if math.isinf(weight):
        return recall if precision > 0 else 0.0
    den = weight * precision + recall
    if den == 0.0:
        return 0.0
    return (1 + weight) * precision * recall / den


@dataclass
class TypeCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0


_key = attrgetter("o_start", "o_end", "c_text")


def _add_sentence(
    per_type: defaultdict[str, TypeCounts], ref_edits: Sequence[Edit], hyp_edits: Sequence[Edit]
) -> None:
    """Add one sentence's counts into per_type, the running counts by type.

    An edit matches on its original span and its correction; the error
    type plays no part.  Duplicate edits need duplicates on the other
    side, and among edits with the same span and correction the earlier
    ones match first.  TP and FN count for the reference edit's type, FP
    for the hypothesis edit's type.
    """
    hyp_left = Counter(map(_key, hyp_edits))
    for edit in ref_edits:
        key = _key(edit)
        if hyp_left[key]:
            hyp_left[key] -= 1
            per_type[edit.etype or UNTYPED].tp += 1
        else:
            per_type[edit.etype or UNTYPED].fn += 1
    # hyp_left now counts the unmatched hypothesis edits of each key.
    # Earlier edits match first, so they are the last ones of their key.
    for edit in reversed(hyp_edits):
        key = _key(edit)
        if hyp_left[key]:
            hyp_left[key] -= 1
            per_type[edit.etype or UNTYPED].fp += 1


def _prf(tp: int, fp: int, fn: int, beta: float) -> tuple[float, float, float]:
    # Proposing nothing is perfect precision; having nothing to find is
    # perfect recall.  An edit-free corpus therefore scores 1.0 across
    # the board.
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / (tp + fn) if tp + fn > 0 else 1.0
    return precision, recall, f_beta(precision, recall, beta)


@dataclass(frozen=True)
class ScoreReport:
    """Micro-aggregated scores over a corpus."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    fscore: float
    beta: float
    per_type: dict[str, TypeCounts] = field(default_factory=dict)

    def type_prf(self, etype: str) -> tuple[float, float, float]:
        counts = self.per_type[etype]
        return _prf(counts.tp, counts.fp, counts.fn, self.beta)


def score_corpus(
    ref_edit_lists: Sequence[Sequence[Edit]],
    hyp_edit_lists: Sequence[Sequence[Edit]],
    beta: float = 0.5,
) -> ScoreReport:
    """Score a corpus of per-sentence edit lists.

    Counts are micro-aggregated over sentences: the totals are the sums
    of the per-type counts.
    """
    if len(ref_edit_lists) != len(hyp_edit_lists):
        raise LengthMismatch(
            f"reference has {len(ref_edit_lists)} sentences, "
            f"hypothesis has {len(hyp_edit_lists)}"
        )
    per_type: defaultdict[str, TypeCounts] = defaultdict(TypeCounts)
    for ref_edits, hyp_edits in zip(ref_edit_lists, hyp_edit_lists):
        _add_sentence(per_type, ref_edits, hyp_edits)
    counts = per_type.values()
    tp, fp, fn = sum(c.tp for c in counts), sum(c.fp for c in counts), sum(c.fn for c in counts)
    precision, recall, fscore = _prf(tp, fp, fn, beta)
    return ScoreReport(tp, fp, fn, precision, recall, fscore, beta, dict(per_type))


def group_of(etype: str) -> str:
    """Coarse group of an error-type label."""
    if etype.startswith("POS"):
        return "POS"
    if etype in ERROR_GROUPS:
        return etype
    return "OTHER"


@dataclass(frozen=True)
class CorpusStats:
    """Error-type distribution of a corpus of typed edits."""

    by_type: dict[str, int]
    by_group: dict[str, int]
    total: int

    def percent(self, group: str) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * self.by_group.get(group, 0) / self.total


def corpus_stats(edit_lists: Iterable[Sequence[Edit]]) -> CorpusStats:
    by_type = Counter(edit.etype or UNTYPED for edits in edit_lists for edit in edits)
    by_group: Counter[str] = Counter()
    for etype, count in by_type.items():
        by_group[group_of(etype)] += count
    return CorpusStats(by_type=dict(by_type), by_group=dict(by_group), total=sum(by_type.values()))


def format_stats(stats: CorpusStats) -> str:
    """Readable table of type counts and group percentages."""
    lines = ["type counts:"]
    for etype in sorted(stats.by_type):
        lines.append(f"  {etype:<16} {stats.by_type[etype]}")
    lines.append("group distribution:")
    for group in ERROR_GROUPS:
        if group in stats.by_group:
            lines.append(
                f"  {group:<8} {stats.by_group[group]:>8}  {stats.percent(group):6.2f}%"
            )
    lines.append(f"total edits: {stats.total}")
    return "\n".join(lines)
