"""Alignment costs, optimality, edit merging, and edit application."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gectools.align import (
    DELETE,
    INSERT,
    MATCH,
    SUBSTITUTE,
    TRANSPOSE,
    Edit,
    align,
    apply_edits,
    extract_edits,
    merge_ops,
    sub_cost,
)
from gectools.errors import OverlappingEdits, SpanOutOfBounds
from gectools.text import Sentence, Token
from tests.oracles import path_cost, ref_align_cost, ref_align_path, ref_merge, ref_sub_cost


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

    def counting(a, b):
        priced.append((id(a), id(b)))
        return real(a, b)

    monkeypatch.setattr(align_module, "sub_cost", counting)
    return priced


class TestAlignPath:
    @given(a=st.lists(_TIE_TOKENS, max_size=9), b=st.lists(_TIE_TOKENS, max_size=9))
    @settings(max_examples=400, deadline=None)
    def test_matches_full_table(self, a, b):
        orig, corr = Sentence(tuple(a)), Sentence(tuple(b))
        got = [(op.kind, op.o_index, op.c_index) for op in align(orig, corr)]
        assert got == ref_align_path(orig, corr)

    @given(pair=_near_pairs())
    @settings(max_examples=300, deadline=None)
    def test_near_identical_pairs_match_full_table(self, pair):
        orig, corr = pair
        got = [(op.kind, op.o_index, op.c_index) for op in align(orig, corr)]
        assert got == ref_align_path(orig, corr)

    @pytest.mark.parametrize(
        "orig, corr", [("a a c b b", "b d d c a"), ("a a c c b", "d c d d c"), ("c d d b c", "a a c d d")]
    )
    def test_second_pass_case(self, monkeypatch, orig, corr):
        # The cost the first band finds leaves room for an optimal path
        # further out, so a second pass fills a wider band and prices
        # some pairs again.  In the last case the full table's path does
        # leave the first band.
        orig, corr = _annotated(orig), _annotated(corr)
        priced = _priced_pairs(monkeypatch)
        got = [(op.kind, op.o_index, op.c_index) for op in align(orig, corr)]
        assert got == ref_align_path(orig, corr)
        assert len(priced) > len(set(priced)), "no second pass: pick a case the first band misses"

    def test_first_band_is_filled_once_when_it_holds_the_optimum(self, monkeypatch):
        # The optimum deletes x and inserts y, one diagonal off the main
        # one, inside the first band: no second pass prices a pair again.
        priced = _priced_pairs(monkeypatch)
        ops = align(sent("x", "a", "b", "c"), sent("a", "b", "c", "y"))
        assert [op.kind for op in ops] == [DELETE, MATCH, MATCH, MATCH, INSERT]
        assert priced and len(priced) == len(set(priced))

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

    @given(a=st.lists(_TIE_TOKENS, max_size=9), b=st.lists(_TIE_TOKENS, max_size=9))
    @settings(max_examples=400, deadline=None)
    def test_matches_cursor_walking_merge(self, a, b):
        # Edit boundaries come from the path's stored positions; the
        # reference recomputes them from each kind's token widths.
        orig, corr = Sentence(tuple(a)), Sentence(tuple(b))
        ops = align(orig, corr)
        edits = merge_ops(ops, orig, corr)
        got = [(e.o_start, e.o_end, e.c_start, e.c_end, e.o_text, e.c_text) for e in edits]
        assert got == ref_merge([op.kind for op in ops], orig, corr)


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
