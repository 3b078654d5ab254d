"""Edit-level scoring: matching semantics, F-beta, and corpus stats."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gectools.align import Edit
from gectools.errors import LengthMismatch
from gectools.score import (
    corpus_stats,
    f_beta,
    format_stats,
    group_of,
    score_corpus,
)
from tests.oracles import ref_f_beta, ref_score


def edit(start, end, c_text, etype=None):
    return Edit(
        o_start=start,
        o_end=end,
        c_start=0,
        c_end=1 if c_text else 0,
        o_text="x",
        c_text=c_text,
        etype=etype,
    )


class TestFBeta:
    def test_published_style_values(self):
        assert f_beta(0.5353, 0.2636) == pytest.approx(0.4438, abs=5e-4)
        assert f_beta(1.0, 1.0) == 1.0
        assert f_beta(0.0, 0.0) == 0.0

    def test_beta_half_weighs_precision(self):
        assert f_beta(0.8, 0.2) > f_beta(0.2, 0.8)

    def test_beta_whose_square_overflows_gives_the_limit(self):
        assert f_beta(0.5, 0.25, 1e200) == 0.25
        assert f_beta(0.0, 0.25, 1e200) == 0.0

    @given(
        p=st.floats(0, 1, allow_nan=False),
        r=st.floats(0, 1, allow_nan=False),
        beta=st.floats(0.1, 2, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, p, r, beta):
        assert f_beta(p, r, beta) == pytest.approx(ref_f_beta(p, r, beta), abs=1e-12)


def counts(ref_edits, hyp_edits):
    """(tp, fp, fn) of score_corpus on one sentence's edits."""
    report = score_corpus([ref_edits], [hyp_edits])
    return report.tp, report.fp, report.fn


class TestCompare:
    """How one sentence's hypothesis edits match its reference edits."""

    def test_exact_match(self):
        ref = [edit(0, 1, "a"), edit(2, 3, "b")]
        assert counts(ref, list(ref)) == (2, 0, 0)

    def test_type_ignored_in_matching(self):
        assert counts([edit(0, 1, "a", "ORTH")], [edit(0, 1, "a", "SPELL")]) == (1, 0, 0)

    def test_correction_text_matters(self):
        assert counts([edit(0, 1, "a")], [edit(0, 1, "b")]) == (0, 1, 1)

    def test_span_matters(self):
        assert counts([edit(0, 1, "a")], [edit(0, 2, "a")]) == (0, 1, 1)

    def test_duplicates_need_duplicates(self):
        two = [edit(0, 1, "a"), edit(0, 1, "a")]
        one = [edit(0, 1, "a")]
        assert counts(two, one) == (1, 0, 1)
        assert counts(one, two) == (1, 1, 0)

    def test_empty_sides(self):
        assert counts([], []) == (0, 0, 0)
        assert counts([edit(0, 1, "a")], []) == (0, 0, 1)
        assert counts([], [edit(0, 1, "a")]) == (0, 1, 0)


class TestScoreCorpus:
    def test_perfect_empty_corpus(self):
        report = score_corpus([[], []], [[], []])
        assert (report.precision, report.recall, report.fscore) == (1.0, 1.0, 1.0)

    def test_counts_aggregate_over_sentences(self):
        ref = [[edit(0, 1, "a")], [edit(1, 2, "b")]]
        hyp = [[edit(0, 1, "a")], [edit(1, 2, "c")]]
        report = score_corpus(ref, hyp)
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)
        assert report.precision == 0.5
        assert report.recall == 0.5

    def test_per_type_attribution(self):
        # matching keys with different labels: the TP goes to the
        # reference label, there is no per-type FP
        ref = [[edit(0, 1, "a", "ORTH")]]
        hyp = [[edit(0, 1, "a", "SPELL")]]
        report = score_corpus(ref, hyp)
        assert report.per_type["ORTH"].tp == 1
        assert "SPELL" not in report.per_type

    def test_same_key_edits_match_in_order(self):
        # Two reference edits share a key; the one hypothesis edit with
        # that key is the earlier one's TP, the later one is the FN.
        ref = [[edit(0, 1, "a", "ORTH"), edit(0, 1, "a", "SPELL")]]
        hyp = [[edit(0, 1, "a", "MORPH")]]
        report = score_corpus(ref, hyp)
        assert (report.tp, report.fp, report.fn) == (1, 0, 1)
        assert (report.per_type["ORTH"].tp, report.per_type["ORTH"].fn) == (1, 0)
        assert (report.per_type["SPELL"].tp, report.per_type["SPELL"].fn) == (0, 1)
        assert "MORPH" not in report.per_type

    def test_per_type_fp_uses_hyp_label(self):
        ref = [[]]
        hyp = [[edit(0, 1, "a", "MORPH")]]
        report = score_corpus(ref, hyp)
        assert report.per_type["MORPH"].fp == 1
        p, r, f = report.type_prf("MORPH")
        assert (p, r) == (0.0, 1.0)

    def test_untyped_grouped_as_unk(self):
        report = score_corpus([[edit(0, 1, "a")]], [[]])
        assert report.per_type["UNK"].fn == 1

    def test_per_type_is_a_plain_dict(self):
        # Looking up a type no edit has adds nothing and raises.
        report = score_corpus([[edit(0, 1, "a", "ORTH")]], [[]])
        assert type(report.per_type) is dict
        with pytest.raises(KeyError):
            report.type_prf("SPELL")
        assert list(report.per_type) == ["ORTH"]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            score_corpus([[]], [[], []])

    def test_fscore_consistent_with_counts(self):
        ref = [[edit(0, 1, "a"), edit(2, 3, "b"), edit(4, 5, "c")]]
        hyp = [[edit(0, 1, "a"), edit(2, 3, "x")]]
        report = score_corpus(ref, hyp)
        assert (report.tp, report.fp, report.fn) == (1, 1, 2)
        p, r = 1 / 2, 1 / 3
        assert report.fscore == pytest.approx(f_beta(p, r, 0.5))


# Few spans, corrections and types, so keys collide: the same span with
# another correction, duplicate keys, and one key under several types.
# o_text and c_start play no part in matching.
ETYPES = st.sampled_from([None, "ORTH", "SPELL", "M:VERB"])
EDITS = st.builds(
    Edit,
    o_start=st.integers(0, 1),
    o_end=st.integers(1, 2),
    c_start=st.integers(0, 1),
    c_end=st.just(1),
    o_text=st.sampled_from(["x", "y"]),
    c_text=st.sampled_from(["", "a", "b"]),
    etype=ETYPES,
)


@st.composite
def scored_corpora(draw):
    """(reference edit lists, hypothesis edit lists) of a few sentences;
    a hypothesis often repeats reference keys under other types."""
    refs, hyps = [], []
    for _ in range(draw(st.integers(0, 4))):
        ref = draw(st.lists(EDITS, max_size=6))
        hyp = draw(st.lists(EDITS, max_size=4))
        if ref:
            copies = draw(st.lists(st.sampled_from(ref), max_size=4))
            hyp += [dataclasses.replace(e, etype=draw(ETYPES)) for e in copies]
        refs.append(ref)
        hyps.append(draw(st.permutations(hyp)))
    return refs, hyps


class TestScoreCorpusMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(corpus=scored_corpora(), beta=st.sampled_from([0.5, 1.0, 2.0]))
    def test_counts_scores_and_types(self, corpus, beta):
        refs, hyps = corpus
        report = score_corpus(refs, hyps, beta=beta)
        (tp, fp, fn, p, r, f), per_type = ref_score(refs, hyps, beta)
        assert (report.tp, report.fp, report.fn, report.precision, report.recall) == (tp, fp, fn, p, r)
        assert report.fscore == pytest.approx(f, abs=1e-12)
        assert set(report.per_type) == set(per_type)
        for etype, (type_tp, type_fp, type_fn, type_p, type_r, type_f) in per_type.items():
            counts = report.per_type[etype]
            assert (counts.tp, counts.fp, counts.fn) == (type_tp, type_fp, type_fn), etype
            got_p, got_r, got_f = report.type_prf(etype)
            assert (got_p, got_r) == (type_p, type_r), etype
            assert got_f == pytest.approx(type_f, abs=1e-12), etype


class TestStats:
    def test_group_of(self):
        assert group_of("POS:NOUN") == "POS"
        assert group_of("POS:VERB:FORM") == "POS"
        assert group_of("MORPH") == "MORPH"
        assert group_of("UNK") == "OTHER"

    def test_corpus_stats_percentages(self):
        lists = [
            [edit(0, 1, "a", "POS:NOUN"), edit(1, 2, "b", "ORTH")],
            [edit(0, 1, "c", "POS:VERB:FORM"), edit(1, 2, "d", "SPELL")],
        ]
        stats = corpus_stats(lists)
        assert stats.total == 4
        assert stats.percent("POS") == pytest.approx(50.0)
        assert stats.percent("ORTH") == pytest.approx(25.0)
        assert stats.percent("ORDER") == 0.0

    def test_corpus_stats_of_no_edits_is_zero_percent(self):
        assert corpus_stats([]).percent("POS") == 0.0

    def test_format_stats_lists_groups(self):
        lists = [[edit(0, 1, "a", "MORPH")]]
        text = format_stats(corpus_stats(lists))
        assert "MORPH" in text and "100.0" in text
