"""M2 serialization: exact line format, round-trips, malformed input."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gectools.align import extract_edits
from gectools.classify import classify_all
from gectools.errors import MalformedM2
from gectools.m2 import NOOP_LINE, read_m2, write_m2
from gectools.text import Sentence, Token


def bare(*forms):
    return Sentence(tokens=tuple(Token(form=f) for f in forms))


def dump(sentence, edits):
    buf = io.StringIO()
    write_m2(sentence, edits, buf)
    return buf.getvalue()


class TestWrite:
    def test_fixture_first_sentence(self, classify_fixture, fixture_lexicon):
        orig, corr, _ = classify_fixture
        edits = classify_all([(orig[0], corr[0])], fixture_lexicon)[0]
        text = dump(orig[0], edits)
        lines = text.splitlines()
        assert lines[0] == "S în cazul unei paciente internată joi"
        assert lines[1] == "A 4 5|||MORPH|||internate|||REQUIRED|||-NONE-|||0"
        assert lines[2] == ""

    def test_noop_block(self):
        text = dump(bare("a", "b"), [])
        assert text == "S a b\n" + NOOP_LINE + "\n\n"

    def test_untyped_written_as_unk(self):
        orig, corr = bare("a", "x"), bare("a", "y")
        text = dump(orig, extract_edits(orig, corr))
        assert "|||UNK|||" in text

    def test_deletion_written_with_empty_correction(self):
        orig, corr = bare("a", "x"), bare("a")
        text = dump(orig, extract_edits(orig, corr))
        assert "A 1 2|||UNK||||||REQUIRED|||-NONE-|||0" in text


class TestRead:
    def test_one_annotator_of_any_id(self):
        text = "S a b\nA 0 1|||R|||x|||REQUIRED|||-NONE-|||1\n\nS c\n" + NOOP_LINE[:-1] + "1\n\n"
        assert [len(edits) for _, edits in read_m2(io.StringIO(text))] == [1, 0]

    def test_noop_gives_no_edits(self):
        blocks = read_m2(io.StringIO("S a b\n" + NOOP_LINE + "\n\n"))
        assert len(blocks) == 1
        sent, edits = blocks[0]
        assert sent.forms == ["a", "b"] and edits == []

    def test_c_span_reconstruction(self):
        text = (
            "S a b c d\n"
            "A 1 2|||T1|||x y|||REQUIRED|||-NONE-|||0\n"
            "A 3 4|||T2||||||REQUIRED|||-NONE-|||0\n\n"
        )
        (_, edits), = read_m2(io.StringIO(text))
        assert edits[0].c_span == (1, 3)
        # first edit grew the sentence by one, so the deletion shifts
        assert edits[1].c_span == (4, 4)
        assert edits[1].c_text == ""

    def test_none_marker_means_empty(self):
        text = "S a b\nA 1 2|||DEL|||-NONE-|||REQUIRED|||-NONE-|||0\n\n"
        (_, edits), = read_m2(io.StringIO(text))
        assert edits[0].c_text == ""

    def test_missing_final_blank_line_ok(self):
        text = "S a\nA 0 1|||T|||b|||REQUIRED|||-NONE-|||0"
        (_, edits), = read_m2(io.StringIO(text))
        assert edits[0].c_text == "b"

    def test_whitespace_only_line_separates_sentences(self):
        text = "S a\nA 0 1|||R|||b|||REQUIRED|||-NONE-|||0\n \t\r\nS c\n" + NOOP_LINE + "\n"
        result = read_m2(io.StringIO(text))
        assert [(s.forms, [e.c_text for e in edits]) for s, edits in result] == [(["a"], ["b"]), (["c"], [])]
        # It ends the sentence: an A line after it has no S line above it.
        with pytest.raises(MalformedM2, match="^line 3: annotation line before any sentence line$"):
            read_m2(io.StringIO("S a\n  \nA 0 1|||R|||b|||REQUIRED|||-NONE-|||0\n"))

    def test_an_s_line_starts_a_new_sentence_within_a_block(self):
        text = (
            "S a b\nA 0 1|||R|||x|||REQUIRED|||-NONE-|||0\n"
            "S c\nA 0 1|||R|||y z|||REQUIRED|||-NONE-|||0\n\n"
        )
        (first, first_edits), (second, second_edits) = read_m2(io.StringIO(text))
        assert (first.forms, second.forms) == (["a", "b"], ["c"])
        assert [(e.o_span, e.c_span, e.c_text) for e in first_edits] == [((0, 1), (0, 1), "x")]
        # The corrected spans of each sentence start from its own tokens.
        assert [(e.o_span, e.c_span, e.c_text) for e in second_edits] == [((0, 1), (0, 2), "y z")]

    def test_edits_are_checked_when_the_next_s_line_is_read(self):
        # Sentence 1's edit is out of range; that is found at the S line
        # of line 3, before the stray line 4 is reached.
        text = "S a\nA 5 6|||X|||b|||REQUIRED|||-NONE-|||0\nS b\nfoo\n"
        with pytest.raises(MalformedM2) as err:
            read_m2(io.StringIO(text))
        assert str(err.value) == "line 1: edit span (5, 6) out of range"

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("A 0 1|||T|||b|||REQUIRED|||-NONE-|||0\n", "before any sentence"),
            ("S a\nA 0|||T|||b|||REQUIRED|||-NONE-|||0\n", "span"),
            ("S a\nA x y|||T|||b|||REQUIRED|||-NONE-|||0\n", "span"),
            # int() alone would read these three as numbers.
            ("S a\nA \u0660 \u0661|||T|||b|||REQUIRED|||-NONE-|||0\n", "bad span field"),
            ("S a\nA 0 1_0|||T|||b|||REQUIRED|||-NONE-|||0\n", "bad span field"),
            ("S a\nA +0 1|||T|||b|||REQUIRED|||-NONE-|||0\n", "bad span field"),
            ("S a\nA 0 5|||T|||b|||REQUIRED|||-NONE-|||0\n", "range"),
            ("S a\nA 0 1|||T|||b\n", "fields"),
            ("S a b\nA 0 2|||T|||x|||REQUIRED|||-NONE-|||0\nA 1 2|||T|||y|||REQUIRED|||-NONE-|||0\n", "overlap"),
        ],
    )
    def test_malformed(self, text, fragment):
        with pytest.raises(MalformedM2) as err:
            read_m2(io.StringIO(text))
        assert fragment in str(err.value)


class TestRoundTrip:
    def test_typed_edits_survive(self, classify_fixture, fixture_lexicon):
        orig, corr, labels = classify_fixture
        edit_lists = classify_all(zip(orig, corr), fixture_lexicon)
        buf = io.StringIO()
        for sent, edits in zip(orig, edit_lists):
            write_m2(sent, edits, buf)
        blocks = read_m2(io.StringIO(buf.getvalue()))
        assert len(blocks) == 19
        for (sent, back), orig_sent, edits, label in zip(blocks, orig, edit_lists, labels):
            assert sent.forms == orig_sent.forms
            assert [e.etype for e in back] == [label]
            assert back == edits

    @given(
        a=st.lists(st.sampled_from(["aa", "bb", "cc", "."]), min_size=1, max_size=7),
        b=st.lists(st.sampled_from(["aa", "bb", "cc", "."]), min_size=1, max_size=7),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, a, b):
        orig, corr = bare(*a), bare(*b)
        edits = extract_edits(orig, corr)
        blocks = read_m2(io.StringIO(dump(orig, edits)))
        assert len(blocks) == 1
        sent, back = blocks[0]
        assert sent.forms == orig.forms
        assert back == [e.with_type("UNK") for e in edits]
