"""Tokenization, Token/Sentence invariants, and CoNLL-U parsing."""

import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gectools.errors import EmptyInput, MalformedLine
from gectools.text import Sentence, Token, blocks, is_punct, parse_conllu, render, tokenize
from tests.oracles import ref_tokenize


class TestTokenize:
    @pytest.mark.parametrize(
        "text,forms",
        [
            ("Mergem acasă.", ["Mergem", "acasă", "."]),
            ("Mergem  acasă .", ["Mergem", "acasă", "."]),
            ("să-l văd", ["să-l", "văd"]),
            ("80% din total", ["80", "%", "din", "total"]),
            ('zice "da"!', ["zice", '"', "da", '"', "!"]),
            ("(test)...", ["(", "test", ")", ".", ".", "."]),
            ("e bine, nu?", ["e", "bine", ",", "nu", "?"]),
            (",", [","]),
        ],
    )
    def test_examples(self, text, forms):
        assert [t.form for t in tokenize(text)] == forms

    @pytest.mark.parametrize("text", ["", "   ", "\t\n"])
    def test_empty_rejected(self, text):
        with pytest.raises(EmptyInput):
            tokenize(text)

    @given(st.text(alphabet="abc ăș.,!?-\"'", min_size=1))
    @settings(max_examples=300, deadline=None)
    def test_idempotent_over_render(self, text):
        try:
            toks = tokenize(text)
        except EmptyInput:
            return
        again = tokenize(render(toks))
        assert [t.form for t in again] == [t.form for t in toks]

    # Letters and digits of several categories (Lu, Ll, Lo, Nd, No, Nl),
    # symbols (S*) and punctuation (P*) at either end of a chunk.
    @given(st.text(alphabet="aȘß中٣²Ⅻ7 $+%-_«»¿.,\"'", min_size=1))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, text):
        if not text.strip():
            return
        assert [t.form for t in tokenize(text)] == ref_tokenize(text)

    def test_tokens_carry_no_annotations(self):
        tok = tokenize("casa mare")[0]
        assert tok.lemma is None and tok.upos is None


# Every code point str.isspace() holds true for.
WHITESPACE = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]


class TestToken:
    def test_validation(self):
        with pytest.raises(ValueError):
            Token(form="")
        with pytest.raises(ValueError):
            Token(form="two words")
        with pytest.raises(ValueError):
            Token(form="ok", upos="NOPE")
        Token(form="ok", lemma="ok", upos="NOUN")

    @pytest.mark.parametrize("ch", WHITESPACE, ids=lambda ch: f"U+{ord(ch):04X}")
    def test_every_whitespace_character_is_rejected(self, ch):
        for form in (ch, f"a{ch}", f"{ch}a", f"a{ch}b"):
            with pytest.raises(ValueError, match="whitespace"):
                Token(form=form)

    def test_is_punct(self):
        assert is_punct(",") and is_punct("...") and is_punct("„")
        assert not is_punct("a.") and not is_punct("a")


class TestSentence:
    def test_sequence_protocol(self):
        s = Sentence(tokens=(Token(form="a"), Token(form="b")))
        assert len(s) == 2
        assert s[0].form == "a"
        assert [t.form for t in s] == ["a", "b"]
        assert s.forms == ["a", "b"]
        assert render(s) == "a b"


CONLLU = """\
# sent_id = s1
# text = Mergem acasă .
1\tMergem\tmerge\tVERB\t_\t_\t0\troot\t_\t_
2\tacasă\tacasă\tADV\t_\t_\t1\tadvmod\t_\t_
3\t.\t.\tPUNCT\t_\t_\t1\tpunct\t_\t_

# sent_id = s2
1-2\tsă-l\t_\t_\t_\t_\t_\t_\t_\t_
1\tsă\tsă\tPART\t_\t_\t3\tmark\t_\t_
2\tl\tel\tPRON\t_\t_\t3\tobj\t_\t_
3\tvăd\tvedea\t_\t_\t_\t0\troot\t_\t_
3.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_
"""


class TestParseConllu:
    def test_basic(self):
        sents = parse_conllu(io.StringIO(CONLLU))
        assert len(sents) == 2
        assert sents[0].source_id == "s1"
        assert sents[0].forms == ["Mergem", "acasă", "."]
        assert sents[0][0].lemma == "merge"
        assert sents[0][0].upos == "VERB"

    def test_ranges_and_empty_nodes_skipped(self):
        sents = parse_conllu(io.StringIO(CONLLU))
        assert sents[1].forms == ["să", "l", "văd"]

    def test_underscore_is_missing(self):
        sents = parse_conllu(io.StringIO(CONLLU))
        assert sents[1][2].lemma == "vedea"
        assert sents[1][2].upos is None

    def test_wrong_column_count(self):
        bad = "1\tcasa\tcasă\tNOUN\n"
        with pytest.raises(MalformedLine) as err:
            parse_conllu(io.StringIO(bad))
        assert err.value.line_no == 1

    @pytest.mark.parametrize("ch", WHITESPACE, ids=lambda ch: f"U+{ord(ch):04X}")
    def test_every_whitespace_character_in_a_form_is_rejected(self, ch):
        good = "1\tcasa\tcasă\tNOUN\t_\t_\t0\troot\t_\t_\n"
        for form in (f"a{ch}", f"{ch}a", f"a{ch}b"):
            bad = f"2\t{form}\t_\tNOUN\t_\t_\t1\tobj\t_\t_\n"
            # A tab in the form is a column break; any other whitespace
            # character stays inside the FORM column.
            match = "columns" if ch == "\t" else "whitespace"
            with pytest.raises(MalformedLine, match=match) as err:
                parse_conllu([good, bad])
            assert err.value.line_no == 2, (form, err.value)

    @pytest.mark.parametrize("token_id", ["\u00b2", "\u0661", "\uff11"])
    def test_word_id_takes_ascii_digits_only(self, token_id):
        bad = f"{token_id}\tcasa\tcasă\tNOUN\t_\t_\t0\troot\t_\t_\n"
        with pytest.raises(MalformedLine, match="bad token id"):
            parse_conllu(io.StringIO(bad))

    @staticmethod
    def token_lines(*token_ids):
        return "".join(f"{i}\tcasa\tcasă\tNOUN\t_\t_\t0\troot\t_\t_\n" for i in token_ids)

    @pytest.mark.parametrize(
        "token_ids", [["1", "1"], ["1", "3"], ["2"], ["0"], ["1", "02"]],
        ids=["repeated", "skips-ahead", "starts-at-2", "zero", "leading-zero"],
    )
    def test_word_ids_run_1_2_3(self, token_ids):
        n = len(token_ids)
        with pytest.raises(MalformedLine, match=f"bad token id: '{token_ids[-1]}', expected {n}") as err:
            parse_conllu(io.StringIO(self.token_lines(*token_ids)))
        assert err.value.line_no == n

    @pytest.mark.parametrize(
        "token_id", ["x-y", "1-y", "1-", "-1", "1-2-3", "\u0663-4", "1.x", ".1", "1.2.3", "1-2.1"]
    )
    def test_range_and_empty_node_ids_take_ascii_digits(self, token_id):
        with pytest.raises(MalformedLine, match="bad token id") as err:
            parse_conllu(io.StringIO(self.token_lines("1", token_id, "2")))
        assert err.value.line_no == 2

    @pytest.mark.parametrize("form", ["_", ""], ids=["underscore", "empty"])
    def test_a_missing_form_is_refused_on_its_line(self, form):
        lines = ["1\tcasa\tcasă\tNOUN\t_\t_\t0\troot\t_\t_\n", f"2\t{form}\t_\tNOUN\t_\t_\t1\tobj\t_\t_\n"]
        with pytest.raises(MalformedLine) as err:
            parse_conllu(io.StringIO("".join(lines)))
        assert (err.value.line_no, str(err.value)) == (2, f"line 2: bad token form: {form!r}")

    def test_bad_upos(self):
        bad = "1\tcasa\tcasă\tWRONG\t_\t_\t0\troot\t_\t_\n"
        with pytest.raises(MalformedLine):
            parse_conllu(io.StringIO(bad))

    def test_whitespace_form_error_names_line_and_form(self):
        lines = ["# sent_id = s1\n", "1\tcasa\tcasă\tNOUN\t_\t_\t0\troot\t_\t_\n",
                 "2\ta b\t_\tNOUN\t_\t_\t1\tobj\t_\t_\n"]
        with pytest.raises(MalformedLine) as err:
            parse_conllu(lines)
        assert (err.value.line_no, str(err.value)) == (3, "line 3: token form contains whitespace: 'a b'")

    def test_bad_upos_error_names_line_and_tag(self):
        lines = ["1\tcasa\tcasă\tNOUN\t_\t_\t0\troot\t_\t_\n", "\n",
                 "1\tcasa\tcasă\tWRONG\t_\t_\t0\troot\t_\t_\n"]
        with pytest.raises(MalformedLine) as err:
            parse_conllu(lines)
        assert (err.value.line_no, str(err.value)) == (3, "line 3: unknown UPOS tag: 'WRONG'")

    def test_empty_input_gives_no_sentences(self):
        assert parse_conllu(io.StringIO("")) == []

    def test_whitespace_only_line_separates_sentences(self):
        text = "# sent_id = s1\n1\tcasa\t_\t_\t_\t_\t_\t_\t_\t_\n \t\r\n1\tmasa\t_\t_\t_\t_\t_\t_\t_\t_\n"
        sents = parse_conllu(io.StringIO(text))
        assert [(s.forms, s.source_id) for s in sents] == [(["casa"], "s1"), (["masa"], None)]


class TestBlocks:
    def test_blocks_number_their_lines_and_drop_blank_ones(self):
        lines = ["a\n", " \t\n", "\r\n", "b\r\n", "c", "\n", "\n", "\x1cd\n", "\n"]
        assert list(blocks(lines)) == [[(1, "a")], [(4, "b\r"), (5, "c")], [(8, "\x1cd")]]

    def test_a_block_is_yielded_before_reading_past_its_blank_line(self):
        def lines():
            yield "a\n"
            yield " \n"
            raise AssertionError("read past the blank line ending block 1")

        split = blocks(lines())
        assert next(split) == [(1, "a")]
        with pytest.raises(AssertionError, match="read past"):
            next(split)
