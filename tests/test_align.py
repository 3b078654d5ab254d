"""Alignment costs, optimality, edit merging, and edit application."""

import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gectools.align import (
    DELETE,
    INSERT,
    MATCH,
    SUBSTITUTE,
    TRANSPOSE,
    CostParams,
    Edit,
    align,
    apply_edits,
    extract_edits,
    merge_ops,
    sub_cost,
)
from gectools.errors import OverlappingEdits, SpanOutOfBounds
from gectools.text import Sentence, Token
from tests.oracles import path_cost, ref_align_cost, ref_align_path, ref_sub_cost


def sent(*forms, annot=None):
    """Sentence from bare forms, or (form, lemma, upos) triples in annot."""
    if annot is not None:
        toks = tuple(Token(form=f, lemma=l, upos=u) for f, l, u in annot)
    else:
        toks = tuple(Token(form=f) for f in forms)
    return Sentence(tokens=toks)


class TestSubCost:
    def test_identical_forms_free(self):
        assert sub_cost(Token(form="casa"), Token(form="casa")) == 0.0
        # even with different annotations
        a = Token(form="x", lemma="y", upos="NOUN")
        b = Token(form="x", lemma="z", upos="VERB")
        assert sub_cost(a, b) == 0.0

    def test_fully_annotated(self):
        a = Token(form="internată", lemma="interna", upos="VERB")
        b = Token(form="internate", lemma="interna", upos="ADJ")
        # lemma term 0, pos term 1, char term 1/9
        assert sub_cost(a, b) == pytest.approx(0.25 + 0.25 / 9)

    def test_missing_annotation_half_weight(self):
        a = Token(form="abc")
        b = Token(form="abd")
        # both terms half weight, char term 1/3
        expect = 0.499 * 0.5 + 0.25 * 0.5 + 0.25 * (1 / 3)
        assert sub_cost(a, b) == pytest.approx(expect)

    def test_one_side_missing_is_enough(self):
        a = Token(form="abc", lemma="abc", upos="NOUN")
        b = Token(form="abd")
        expect = 0.499 * 0.5 + 0.25 * 0.5 + 0.25 * (1 / 3)
        assert sub_cost(a, b) == pytest.approx(expect)

    @given(
        a=st.text("abcă", min_size=1, max_size=6),
        b=st.text("abcă", min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, a, b):
        ta, tb = Token(form=a), Token(form=b)
        assert sub_cost(ta, tb) == pytest.approx(ref_sub_cost(ta, tb), abs=1e-12)

    def test_bounded_by_one(self):
        a = Token(form="a", lemma="x", upos="NOUN")
        b = Token(form="zzzz", lemma="y", upos="VERB")
        assert sub_cost(a, b) <= 0.999


class TestCostParams:
    def test_rejects_degenerate_weights(self):
        with pytest.raises(ValueError):
            CostParams(w_lemma=1.5, w_pos=0.5, w_char=0.5)

    @pytest.mark.parametrize(
        "field", ["w_lemma", "w_pos", "w_char", "insert_cost", "delete_cost", "transpose_cost"]
    )
    @pytest.mark.parametrize("value", [-1.0, -1e-9, math.nan, math.inf, -math.inf])
    def test_rejects_negative_or_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            CostParams(**{field: value})

    def test_defaults(self):
        p = CostParams()
        assert (p.w_lemma, p.w_pos, p.w_char) == (0.499, 0.25, 0.25)
        assert (p.insert_cost, p.delete_cost, p.transpose_cost) == (1.0, 1.0, 1.0)


class TestAlign:
    def test_identical(self):
        s = sent("a", "b", "c")
        assert [op.kind for op in align(s, s)] == [MATCH, MATCH, MATCH]

    def test_empty_sides(self):
        e = Sentence(tokens=())
        s = sent("a", "b")
        assert align(e, e) == []
        assert [op.kind for op in align(s, e)] == [DELETE, DELETE]
        assert [op.kind for op in align(e, s)] == [INSERT, INSERT]

    def test_transposition_detected(self):
        ops = align(sent("a", "b"), sent("b", "a"))
        assert [op.kind for op in ops] == [TRANSPOSE]

    def test_match_preferred_over_transpose(self):
        ops = align(sent("a", "a"), sent("a", "a"))
        assert [op.kind for op in ops] == [MATCH, MATCH]

    def test_substitution_cheaper_than_indel(self):
        ops = align(sent("casa"), sent("masa"))
        assert [op.kind for op in ops] == [SUBSTITUTE]

    @given(
        a=st.lists(st.sampled_from("abcd"), max_size=6),
        b=st.lists(st.sampled_from("abcd"), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_optimal_vs_bruteforce(self, a, b):
        orig, corr = sent(*a), sent(*b)
        ops = align(orig, corr)
        got = path_cost(ops, orig, corr)
        expect = ref_align_cost(orig, corr)
        assert got == pytest.approx(expect, abs=1e-9)


# Forms prone to transpositions, ties and near-equal substitution costs.
_TIE_TOKENS = st.builds(
    Token,
    form=st.sampled_from(["a", "ab", "ba", "abc", "aa", ".", ","]),
    lemma=st.sampled_from([None, "a", "b"]),
    upos=st.sampled_from([None, "NOUN", "VERB"]),
)
# Indel costs that are not whole numbers (7 * 0.3 > 6 * 0.3 + 0.3 in
# floats) next to the defaults, which are.  Sums of 0.55, or of 1.3 and
# 0.1, over the sum of the two indel costs often fall just below the
# whole number they stand for, which the band test must allow for.
_AWKWARD = CostParams(w_lemma=0.3, w_pos=0.45, w_char=0.2, insert_cost=1.3, delete_cost=0.1, transpose_cost=0.5)
_PATH_PARAMS = (
    CostParams(),
    CostParams(w_lemma=0.3, w_pos=0.45, w_char=0.2, insert_cost=0.3, delete_cost=0.7, transpose_cost=0.5),
    CostParams(insert_cost=0.55, delete_cost=0.55),
    _AWKWARD,
    CostParams(transpose_cost=0.0),
)


@st.composite
def _near_pairs(draw):
    """A sentence of up to 40 tokens and a copy with up to 4 random
    inserts, deletes, substitutions or swaps: the pairs the aligner
    meets, whose paths run close to the band edge."""
    size = draw(st.integers(0, 40))
    orig = draw(st.lists(_TIE_TOKENS, min_size=size, max_size=size))
    corr = list(orig)
    kinds = st.sampled_from(("insert", "delete", "substitute", "swap"))
    for kind in draw(st.lists(kinds, min_size=draw(st.integers(0, 4)), max_size=4)):
        if kind == "insert":
            corr.insert(draw(st.integers(0, len(corr))), draw(_TIE_TOKENS))
            continue
        span = 2 if kind == "swap" else 1
        if len(corr) < span:
            continue
        at = draw(st.integers(0, len(corr) - span))
        if kind == "delete":
            del corr[at]
        elif kind == "substitute":
            corr[at] = draw(_TIE_TOKENS)
        else:
            corr[at], corr[at + 1] = corr[at + 1], corr[at]
    return Sentence(tuple(orig)), Sentence(tuple(corr))


def _annotated(forms):
    """Sentence whose tokens carry their form as lemma and one UPOS per form."""
    upos = {"a": "NOUN", "b": "VERB", "c": "ADJ", "d": "ADV"}
    return Sentence(tuple(Token(f, f, upos[f]) for f in forms.split()))


def _priced_pairs(monkeypatch):
    """List that collects the (orig, corr) token identities of every sub_cost call."""
    align_module = importlib.import_module("gectools.align")
    real, priced = align_module.sub_cost, []

    def counting(a, b, params):
        priced.append((id(a), id(b)))
        return real(a, b, params)

    monkeypatch.setattr(align_module, "sub_cost", counting)
    return priced


class TestAlignPath:
    @given(
        a=st.lists(_TIE_TOKENS, max_size=9),
        b=st.lists(_TIE_TOKENS, max_size=9),
        params=st.sampled_from(_PATH_PARAMS),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_full_table(self, a, b, params):
        orig, corr = Sentence(tuple(a)), Sentence(tuple(b))
        got = [(op.kind, op.o_index, op.c_index) for op in align(orig, corr, params)]
        assert got == ref_align_path(orig, corr, params)

    @given(pair=_near_pairs(), params=st.sampled_from(_PATH_PARAMS))
    @settings(max_examples=300, deadline=None)
    def test_near_identical_pairs_match_full_table(self, pair, params):
        orig, corr = pair
        got = [(op.kind, op.o_index, op.c_index) for op in align(orig, corr, params)]
        assert got == ref_align_path(orig, corr, params)

    @pytest.mark.parametrize(
        "orig, corr, params",
        [
            ("a a b a b c", "b c a c a a", _AWKWARD),
            ("c d a a d d", "a b b c a", CostParams(insert_cost=0.55, delete_cost=0.55)),
        ],
    )
    def test_second_pass_case(self, monkeypatch, orig, corr, params):
        # The first band ends on a path that costs exactly what the full
        # table's path does, which leaves the diagonals by one more; in
        # floats the quotient that finds the second band falls just
        # below that whole number.
        orig, corr = _annotated(orig), _annotated(corr)
        priced = _priced_pairs(monkeypatch)
        got = [(op.kind, op.o_index, op.c_index) for op in align(orig, corr, params)]
        assert got == ref_align_path(orig, corr, params)
        assert len(priced) > len(set(priced)), "no second pass: pick a case the first band misses"

    def test_first_band_is_filled_once_when_it_holds_the_optimum(self, monkeypatch):
        # The optimum deletes x and inserts y, one diagonal off the main
        # one, inside the first band: no second pass prices a pair again.
        priced = _priced_pairs(monkeypatch)
        ops = align(sent("x", "a", "b", "c"), sent("a", "b", "c", "y"))
        assert [op.kind for op in ops] == [DELETE, MATCH, MATCH, MATCH, INSERT]
        assert priced and len(priced) == len(set(priced))

    @pytest.mark.parametrize(
        "n, m, cost",
        [(60, 3, 1e307), (60, 3, 1e308), (3, 5, 1e308)],
        ids=["sum-overflows", "cost-sum-overflows", "cost-sum-overflows-short"],
    )
    def test_overflowing_costs_match_full_table(self, n, m, cost):
        # The table's sums, or insert_cost + delete_cost itself, overflow
        # to inf, so no band width can be derived from them.
        forms = "abcd"
        orig = sent(*(forms[i % 4] for i in range(n)))
        corr = sent(*(forms[(i * 3) % 4] for i in range(m)))
        params = CostParams(insert_cost=cost, delete_cost=cost)
        got = [(op.kind, op.o_index, op.c_index) for op in align(orig, corr, params)]
        assert got == ref_align_path(orig, corr, params)

    def test_common_prefix_is_not_matched_outright(self):
        ops = align(sent("a"), sent("a", "a", "b"))
        assert [(op.kind, op.o_index, op.c_index) for op in ops] == [
            (INSERT, 0, 0),
            (MATCH, 0, 1),
            (INSERT, 1, 2),
        ]


class TestMergeAndExtract:
    def test_no_edits_when_identical(self):
        s = sent("a", "b", ".")
        assert extract_edits(s, s) == []

    def test_adjacent_ops_merge(self):
        orig = sent("a", "x", "y", "d")
        corr = sent("a", "p", "d")
        edits = extract_edits(orig, corr)
        assert len(edits) == 1
        e = edits[0]
        assert e.o_span == (1, 3) and e.c_span == (1, 2)
        assert e.o_text == "x y" and e.c_text == "p"

    def test_transpose_is_one_edit(self):
        edits = extract_edits(sent("a", "b", "c", "d"), sent("a", "c", "b", "d"))
        assert len(edits) == 1
        assert edits[0].o_span == (1, 3)
        assert edits[0].o_text == "b c" and edits[0].c_text == "c b"

    def test_insertion_and_deletion_spans(self):
        edits = extract_edits(sent("a", "b"), sent("a", "x", "b"))
        assert len(edits) == 1
        e = edits[0]
        assert e.o_span == (1, 1) and e.c_span == (1, 2)
        assert e.o_text == "" and e.c_text == "x"

        edits = extract_edits(sent("a", "x", "b"), sent("a", "b"))
        assert edits[0].o_span == (1, 2) and edits[0].c_text == ""

    def test_punct_bridge_merges_when_edit_touches_punct(self):
        # two runs separated by one matched ".", left run touches "!"
        orig = sent("a", "!", ".", "b")
        corr = sent("a", "?", ".", "c")
        edits = extract_edits(orig, corr)
        assert len(edits) == 1
        assert edits[0].o_span == (1, 4)
        assert edits[0].o_text == "! . b" and edits[0].c_text == "? . c"

    def test_punct_bridge_needs_punct_in_an_edit(self):
        # same shape but no edit touches punctuation: stays split
        orig = sent("a", "x", ".", "b")
        corr = sent("a", "y", ".", "c")
        edits = extract_edits(orig, corr)
        assert len(edits) == 2

    def test_bridge_requires_single_punct_gap(self):
        # two matched tokens in between: no merge even with punct edits
        orig = sent("a", "!", ".", ".", "b")
        corr = sent("a", "?", ".", ".", "c")
        edits = extract_edits(orig, corr)
        assert len(edits) == 2


class TestApplyEdits:
    def test_roundtrip_simple(self):
        orig = sent("a", "x", "y", "d")
        corr = sent("a", "p", "d")
        assert apply_edits(orig, extract_edits(orig, corr)).forms == corr.forms

    def test_sorted_edits_required(self):
        orig = sent("a", "b", "c")
        e1 = Edit(o_start=2, o_end=3, c_start=2, c_end=3, o_text="c", c_text="z")
        e2 = Edit(o_start=0, o_end=1, c_start=0, c_end=1, o_text="a", c_text="q")
        assert apply_edits(orig, [e2, e1]).forms == ["q", "b", "z"]
        with pytest.raises(OverlappingEdits):
            apply_edits(orig, [e1, e2])

    def test_overlap_rejected(self):
        orig = sent("a", "b", "c")
        e1 = Edit(o_start=0, o_end=2, c_start=0, c_end=1, o_text="a b", c_text="q")
        e2 = Edit(o_start=1, o_end=3, c_start=1, c_end=2, o_text="b c", c_text="r")
        with pytest.raises(OverlappingEdits):
            apply_edits(orig, [e1, e2])

    def test_insertions_at_same_point_compose(self):
        orig = sent("a")
        e1 = Edit(o_start=1, o_end=1, c_start=1, c_end=2, o_text="", c_text="x")
        e2 = Edit(o_start=1, o_end=1, c_start=2, c_end=3, o_text="", c_text="y")
        assert apply_edits(orig, [e1, e2]).forms == ["a", "x", "y"]

    def test_span_out_of_bounds(self):
        orig = sent("a")
        bad = Edit(o_start=0, o_end=5, c_start=0, c_end=1, o_text="a", c_text="q")
        with pytest.raises(SpanOutOfBounds):
            apply_edits(orig, [bad])

    @given(
        a=st.lists(st.sampled_from(["casa", "masa", "are", ".", ",", "!"]), min_size=1, max_size=9),
        b=st.lists(st.sampled_from(["casa", "masa", "are", ".", ",", "!"]), min_size=1, max_size=9),
    )
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_property(self, a, b):
        orig, corr = sent(*a), sent(*b)
        edits = extract_edits(orig, corr)
        assert apply_edits(orig, edits).forms == corr.forms
