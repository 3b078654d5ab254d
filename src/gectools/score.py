"""Scoring hypothesis edits against reference edits.

Edits match on (original span, replacement text); the error type plays
no part in matching and is only used to attribute counts per type.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
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


def _key(edit: Edit) -> tuple[int, int, str]:
    return (edit.o_start, edit.o_end, edit.c_text)


def _by_key(edits: Sequence[Edit]) -> dict[tuple[int, int, str], list[Edit]]:
    groups: dict[tuple[int, int, str], list[Edit]] = {}
    for edit in edits:
        groups.setdefault(_key(edit), []).append(edit)
    return groups


def _match_edits(
    ref_edits: Sequence[Edit], hyp_edits: Sequence[Edit]
) -> tuple[list[Edit], list[Edit], list[Edit]]:
    """Match one sentence's hypothesis edits against its reference edits.

    Returns (matched, missed, unmatched): the reference edits some
    hypothesis edit matches, the reference edits none matches, and the
    hypothesis edits that match none.  Matching is multiset-based:
    duplicate edits must be matched by duplicates on the other side, and
    among edits with the same key the earlier ones are matched first.
    Edits come grouped by key, in the order each key first appears.
    """
    hyp_by_key = _by_key(hyp_edits)
    matched: list[Edit] = []
    missed: list[Edit] = []
    unmatched: list[Edit] = []
    for key, redits in _by_key(ref_edits).items():
        hedits = hyp_by_key.pop(key, [])
        k = min(len(redits), len(hedits))
        matched += redits[:k]
        missed += redits[k:]
        unmatched += hedits[k:]
    for hedits in hyp_by_key.values():
        unmatched += hedits
    return matched, missed, unmatched


@dataclass
class TypeCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0


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
        p, r = _precision_recall(counts.tp, counts.fp, counts.fn)
        return p, r, f_beta(p, r, self.beta)


def _precision_recall(tp: int, fp: int, fn: int) -> tuple[float, float]:
    # Proposing nothing is perfect precision; having nothing to find is
    # perfect recall.  An edit-free corpus therefore scores 1.0 across
    # the board.
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / (tp + fn) if tp + fn > 0 else 1.0
    return precision, recall


def score_corpus(
    ref_edit_lists: Sequence[Sequence[Edit]],
    hyp_edit_lists: Sequence[Sequence[Edit]],
    beta: float = 0.5,
) -> ScoreReport:
    """Score a corpus of per-sentence edit lists.

    Counts are micro-aggregated over sentences.  Per-type counts
    attribute true positives and false negatives to the reference
    edit's type and false positives to the hypothesis edit's type.
    """
    if len(ref_edit_lists) != len(hyp_edit_lists):
        raise LengthMismatch(
            f"reference has {len(ref_edit_lists)} sentences, "
            f"hypothesis has {len(hyp_edit_lists)}"
        )
    tp = fp = fn = 0
    per_type: dict[str, TypeCounts] = {}

    def counts_for(edit: Edit) -> TypeCounts:
        return per_type.setdefault(edit.etype or UNTYPED, TypeCounts())

    for ref_edits, hyp_edits in zip(ref_edit_lists, hyp_edit_lists):
        matched, missed, unmatched = _match_edits(ref_edits, hyp_edits)
        tp += len(matched)
        fn += len(missed)
        fp += len(unmatched)
        for edit in matched:
            counts_for(edit).tp += 1
        for edit in missed:
            counts_for(edit).fn += 1
        for edit in unmatched:
            counts_for(edit).fp += 1

    precision, recall = _precision_recall(tp, fp, fn)
    return ScoreReport(
        tp=tp,
        fp=fp,
        fn=fn,
        precision=precision,
        recall=recall,
        fscore=f_beta(precision, recall, beta),
        beta=beta,
        per_type=per_type,
    )


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
    by_type: Counter[str] = Counter()
    for edits in edit_lists:
        for edit in edits:
            by_type[edit.etype or UNTYPED] += 1
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
