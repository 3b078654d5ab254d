"""Kneser-Ney training, ARPA round-trips, querying, and re-ranking."""

import contextlib
import io
import math
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gectools import lm
from gectools.cli import main
from gectools.errors import (
    DegenerateCounts,
    EmptyInput,
    GecToolsError,
    MalformedArpa,
    MalformedLine,
    NoFiniteScore,
)
from gectools.lm import (
    EOS,
    SOS,
    UNK,
    ArpaModel,
    Hypothesis,
    count_ngrams,
    logprob,
    normalized_logprob,
    perplexity,
    read_arpa,
    read_nbest,
    rerank,
    train_kneser_ney,
    write_arpa,
)
from gectools.m2 import read_m2
from gectools.text import Sentence, Token, parse_conllu, tokenize
from tests.conftest import DATA, make_clean_lines, make_words
from tests.oracles import RefKneserNey, ref_read_arpa

# Tiny fixture corpora legitimately trip the sparse-counts fallback.
pytestmark = pytest.mark.filterwarnings("ignore::gectools.errors.DegenerateCounts")


def sent(text):
    return Sentence(tokens=tuple(Token(form=f) for f in text.split()))


def train(texts, order, discount=None):
    return train_kneser_ney(count_ngrams([sent(t) for t in texts], order), discount)


class TestCounting:
    def test_bigram_padding(self):
        counts = count_ngrams([sent("a b")], 2)
        assert counts[0] == {b"<s>": 1, b"a": 1, b"b": 1, b"</s>": 1}
        assert counts[1] == {b"<s> a": 1, b"a b": 1, b"b </s>": 1}

    def test_trigram_padding_doubles_sos(self):
        counts = count_ngrams([sent("a")], 3)
        assert counts[2] == {b"<s> <s> a": 1, b"<s> a </s>": 1}
        assert counts[1][b"<s> <s>"] == 1

    def test_order_below_1_is_refused(self):
        with pytest.raises(ValueError, match="order must be at least 1"):
            count_ngrams([sent("a")], 0)

    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(st.lists(st.sampled_from(["a", "b", "ă", "<s>", "</s>", "a\x01"]), max_size=6), max_size=4),
        order=st.integers(1, 5),
    )
    def test_keys_are_tuple_grams_joined_by_spaces(self, texts, order):
        counts = count_ngrams([Sentence(tuple(Token(w) for w in words)) for words in texts], order)
        for n in range(1, order + 1):
            expect = Counter()
            for words in texts:
                padded = [SOS] * (order - 1) + words + [EOS]
                expect.update(tuple(padded[i : i + n]) for i in range(len(padded) - n + 1))
            assert counts[n - 1] == {" ".join(gram).encode(): c for gram, c in expect.items()}


class TestTraining:
    def test_unigram_hand_example(self):
        # counts: a=5, b=2, c=1, </s>=1 over two sentences
        model = train(["a a b a", "a b c a"], 1, discount=0.5)
        # adjusted totals: 5+2+1+2(</s>) = 10
        assert 10 ** model.word_logprob("a", ()) == pytest.approx(4.5 / 10)
        assert 10 ** model.word_logprob("c", ()) == pytest.approx(0.5 / 10)
        # leftover mass 4 * 0.5 / 10 goes to <unk>
        assert 10 ** model.word_logprob(UNK, ()) == pytest.approx(0.2)

    def test_probabilities_sum_to_one_over_vocab(self):
        model = train(["a b c", "a b d", "b a c"], 3)
        for context in [(), ("a",), ("b",), ("a", "b"), ("<s>",), ("<s>", "a")]:
            total = sum(
                10 ** model.word_logprob(w, context)
                for w in model.vocab
                if w != SOS
            )
            assert total == pytest.approx(1.0, abs=1e-9), context

    def test_matches_reference_model(self):
        texts = ["a b c a", "b c a b", "a c", "c b a", "a b c c"]
        for order in (1, 2, 3, 4):
            model = train(texts, order, discount=0.4)
            ref = RefKneserNey([t.split() for t in texts], order, discounts=0.4)
            for text in texts + ["a c b", "x b"]:
                got = logprob(model, sent(text))
                expect = ref.sentence_logprob(text.split())
                assert got == pytest.approx(expect, rel=1e-9), (order, text)

    def test_estimated_discount_used(self):
        # singletons and doubletons exist: D = n1 / (n1 + 2 n2)
        model = train(["a a b c", "b c d"], 1)
        # unigram adjusted counts: a=2, b=2, c=2, d=1, </s>=2 -> n1=1, n2=4
        ref = RefKneserNey([["a", "a", "b", "c"], ["b", "c", "d"]], 1)
        assert ref.discount[0] == pytest.approx(1 / 9)
        assert 10 ** model.word_logprob("d", ()) == pytest.approx(
            ref.prob("d", ())
        )

    def test_degenerate_counts_warn_and_fall_back(self):
        with pytest.warns(DegenerateCounts):
            model = train(["a a a a a a"], 1)
        # n1 = 0 at the unigram order: fallback discount 0.75
        ref = RefKneserNey([["a"] * 6], 1, discounts=0.75)
        assert 10 ** model.word_logprob("a", ()) == pytest.approx(ref.prob("a", ()))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_discount_validation(self, bad):
        with pytest.raises(ValueError):
            train(["a b"], 2, discount=bad)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyInput):
            train_kneser_ney(count_ngrams([], 2))

    def test_checks_in_order(self):
        # An empty corpus first, then the caller's discount, then the
        # estimated ones, warned about from the lowest order up.
        with pytest.raises(EmptyInput):
            train_kneser_ney(count_ngrams([], 3), 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="got 2.0"):
                train(["a b"], 3, 2.0)
        with pytest.warns(DegenerateCounts) as record:
            train(["a b"], 3)
        assert [str(w.message)[:8] for w in record] == ["order 1:", "order 2:", "order 3:"]

    @pytest.mark.parametrize("order", [3, 5])
    def test_literal_sos_contexts_sum_to_one(self, order):
        # A literal <s> word after other words makes contexts that end in
        # <s> ("are <s>"); they get dummy entries to hold their backoff.
        texts = ["Ana are <s> mere .", "el are <s> <s> pere", "Ana are mere <s>", "<s> el are mere ."]
        model = train(texts, order)
        assert model.tables[1][b"are <s>"].real == lm.DUMMY_LOGPROB
        contexts = {()}
        for n in range(2, order + 1):
            contexts.update(tuple(gram.decode().split(" "))[:-1] for gram in model.tables[n - 1])
        assert ("are", SOS) in contexts
        words = [w for w in model.vocab if w != SOS]
        for context in contexts:
            total = sum(10 ** model.word_logprob(w, context) for w in words)
            assert total == pytest.approx(1.0, abs=1e-6), context

    def test_unk_in_vocab_and_queried_for_oov(self):
        model = train(["a b", "b a"], 2)
        assert UNK in model.vocab
        assert logprob(model, sent("zz")) == logprob(model, sent(UNK))

    def test_model_is_estimated_in_the_counts(self):
        counts = count_ngrams([sent(t) for t in ["a b c a", "<s> b a", "c"]], 4)
        model = train_kneser_ney(counts)
        for i, table in enumerate(model.tables):
            assert table is counts[i]


# A literal <s> word (after the padding, where it only lengthens the
# <s> run), and a word holding a character that sorts below the space
# ("la\x01x acasă" sorts before "la școală" as a string, after it word
# by word).
GOLDEN_CORPUS = (
    "Ana are mere și pere .\n"
    "<s> fata merge la\x01x acasă .\n"
    "Ana are pere .\n"
    "el merge acasă , ea merge la școală .\n"
    "fata are mere .\n"
)


class TestGoldenArpa:
    @pytest.mark.parametrize("discount", [None, "0.4"])
    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_lm_train_bytes(self, tmp_path, order, discount):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(GOLDEN_CORPUS, encoding="utf-8")
        out = tmp_path / "model.arpa"
        argv = ["lm-train", str(corpus), "--order", str(order), "-o", str(out)]
        if discount is not None:
            argv += ["--discount", discount]
        assert main(argv) == 0
        name = f"order{order}" + (f"_discount{discount}" if discount else "") + ".arpa"
        assert out.read_bytes() == (DATA / "lm_golden" / name).read_bytes()

    @pytest.mark.parametrize("name", ["order3.arpa", "order5.arpa"])
    def test_read_write_bytes(self, name):
        # Both hold a word that sorts below the space ("la\x01x").
        text = (DATA / "lm_golden" / name).read_bytes().decode("utf-8")
        buf = io.StringIO()
        write_arpa(read_arpa(io.StringIO(text)), buf)
        assert buf.getvalue() == text


# Models as write_arpa takes them: any finite numbers, no backoff weight
# at the highest order, words that sort below the space ("a\x01").
ROUND_TRIP_WORDS = st.sampled_from(["a", "b", "ă", "a\x01", "<s>", "</s>", "<unk>", "x\r"])
ROUND_TRIP_NUMBERS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def arpa_models(draw):
    order = draw(st.integers(1, 4))
    tables = []
    for n in range(1, order + 1):
        grams = draw(st.lists(st.lists(ROUND_TRIP_WORDS, min_size=n, max_size=n).map(" ".join), unique=True))
        grams = [gram.encode() for gram in grams]
        backoffs = ROUND_TRIP_NUMBERS if n < order else st.just(0.0)
        tables.append({gram: complex(draw(ROUND_TRIP_NUMBERS), draw(backoffs)) for gram in grams})
    return ArpaModel(tuple(tables))


class TestArpaRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(model=arpa_models())
    def test_read_gives_rounded_model_and_writes_same_bytes(self, model):
        buf = io.StringIO()
        write_arpa(model, buf)
        back = read_arpa(io.StringIO(buf.getvalue()))
        rounded = [
            {gram: complex(float(f"{v.real:.10f}"), float(f"{v.imag:.10f}")) for gram, v in table.items()}
            for table in model.tables
        ]
        assert back.order == model.order
        assert list(back.tables) == rounded
        again = io.StringIO()
        write_arpa(back, again)
        assert again.getvalue() == buf.getvalue()


class TestArpaIO:
    def test_round_trip_preserves_queries(self):
        model = train(["a b c a", "c b a"], 3)
        buf = io.StringIO()
        write_arpa(model, buf)
        back = read_arpa(io.StringIO(buf.getvalue()))
        assert back.order == model.order
        for text in ["a b c", "c c c", "b", "zz a"]:
            assert logprob(back, sent(text)) == pytest.approx(
                logprob(model, sent(text)), abs=1e-9
            )

    def test_header_counts_match_sections(self):
        model = train(["a b", "b a"], 2)
        buf = io.StringIO()
        write_arpa(model, buf)
        text = buf.getvalue()
        assert text.startswith("\\data\\\n")
        for n in (1, 2):
            declared = int(
                next(l for l in text.splitlines() if l.startswith(f"ngram {n}=")).split("=")[1]
            )
            assert declared == len(model.tables[n - 1])
        assert text.rstrip().endswith("\\end\\")

    def test_sos_entry_is_dummy(self):
        model = train(["a b", "b a"], 2)
        buf = io.StringIO()
        write_arpa(model, buf)
        line = next(l for l in buf.getvalue().splitlines() if l.split("\t")[1:2] == [SOS])
        assert float(line.split("\t")[0]) == -99.0

    @pytest.mark.parametrize(
        "text",
        [
            "not an arpa file\n",
            "\\data\\\nngram 1=2\n\\1-grams:\n-0.3\ta\n-0.5\tb\n",  # no \end\
            "\\data\\\nngram 1=2\n\\1-grams:\n-0.3\ta\n\\end\\\n",  # count mismatch
            "\\data\\\nngram 1=1\n\\1-grams:\nbad\ta\n\\end\\\n",  # bad float
            "\\data\\\nngram 1=1\nngram 2=1\n\\1-grams:\n-0.3\ta\n\\end\\\n",  # missing section
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedArpa):
            read_arpa(io.StringIO(text))

    # The stream ends where the section's entries are read as a block.
    @pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "no-newline"])
    def test_stream_ending_after_a_section_header(self, end):
        text = "\\data\\\nngram 1=1\n\n\\1-grams:" + end
        expect = "line 4: missing \\end\\ marker"
        assert _arpa_outcome(read_arpa, io.StringIO(text)) == expect
        assert _arpa_outcome(ref_read_arpa, io.StringIO(text)) == expect

    # Each error names the part that is missing: the header, or the
    # count lines after it.
    @pytest.mark.parametrize(
        "text, expect",
        [
            ("\\data\\\n\n\\end\\\n", "line 3: missing 'ngram N=count' lines"),
            ("\\data\\\n\\1-grams:\n-0.3\ta\n\\end\\\n", "line 2: n-gram section before 'ngram N=count' lines"),
            ("\n\\end\\\n", "line 2: missing \\data\\ header"),
            ("\\1-grams:\n-0.3\ta\n\\end\\\n", "line 1: n-gram section before \\data\\ header"),
        ],
    )
    def test_error_names_the_missing_part(self, text, expect):
        assert _arpa_outcome(read_arpa, io.StringIO(text)) == expect
        assert _arpa_outcome(ref_read_arpa, io.StringIO(text)) == expect

    @pytest.mark.parametrize("words", [["a", "b", "c"], ["a", "a\x01", "b"]], ids=["plain", "below-space"])
    def test_sections_sorted_word_by_word(self, words):
        # "a\x01" sorts after "a" as a word, but "a\x01 a" before "a b" as a string.
        model = train([" ".join(words), " ".join(reversed(words)), " ".join(words[:2])], 3)
        buf = io.StringIO()
        write_arpa(model, buf)
        sections = buf.getvalue().split("-grams:\n")[1:]
        for n, section in enumerate(sections, start=1):
            grams = [tuple(l.split("\t")[1].split(" ")) for l in section.split("\n\n")[0].splitlines()]
            assert len(grams) == len(model.tables[n - 1])
            assert grams == sorted(grams)

    def test_a_word_below_the_space_in_the_last_chunk_sorts_word_by_word(self):
        # The order is decided over chunks of the table's grams; the only
        # word holding "\x01" is the last gram of the third chunk.
        words = [f"w{i:04d}" for i in range(2 * lm._ARPA_CHUNK + 2)]
        unigrams = {word.encode(): complex(-1.0, -0.5) for word in [*words, "a", "a\x01"]}
        bigrams = {f"{a} {b}".encode(): complex(-0.5, 0.0) for a, b in zip(words, words[1:])}
        bigrams[b"a b"] = bigrams[b"a\x01 b"] = complex(-0.5, 0.0)
        assert len(bigrams) > 2 * lm._ARPA_CHUNK
        buf = io.StringIO()
        write_arpa(ArpaModel((unigrams, bigrams)), buf)
        section = buf.getvalue().split("\\2-grams:\n")[1].split("\n\n")[0]
        grams = [line.split("\t")[1].split(" ") for line in section.splitlines()]
        assert grams[:2] == [["a", "b"], ["a\x01", "b"]]
        assert grams == sorted(grams)

    def test_read_hand_written_model(self):
        text = (
            "\\data\\\n"
            "ngram 1=3\n"
            "\n"
            "\\1-grams:\n"
            "-0.5\ta\n"
            "-1.0\tb\n"
            "-0.7\t<unk>\n"
            "\n"
            "\\end\\\n"
        )
        model = read_arpa(io.StringIO(text))
        assert model.order == 1
        assert model.word_logprob("a", ()) == pytest.approx(-0.5)
        assert model.word_logprob("zz", ()) == pytest.approx(-0.7)


# Token forms only the Python API can make: a lone surrogate ("a\ud800",
# "\udfffb") and a surrogate pair as two code points ("\ud83d\ude00"),
# which is not the character it would pair to; beside them U+E000, the
# first code point above the surrogates, and characters outside the BMP.
# Each maps to one key and back, and sorts in code point order.
EDGE_CORPUS = ["a\ud800 \U0001f600 \u0219", "\ud83d\ude00 \U0001f600 a\ud800", "\u0219 \udfffb \ue000 \U0001f600"]
EDGE_ARPA = (
    "\\data\\\n"
    "ngram 1=9\n"
    "ngram 2=14\n"
    "ngram 3=13\n"
    "\n"
    "\\1-grams:\n"
    "-0.6989700043\t</s>\t0.0000000000\n"
    "-99.0000000000\t<s>\t-0.3979400087\n"
    "-0.6667853210\t<unk>\t0.0000000000\n"
    "-0.9098233697\ta\ud800\t-0.3979400087\n"
    "-0.9098233697\t\u0219\t-0.3979400087\n"
    "-1.3357921019\t\ud83d\ude00\t-0.3979400087\n"
    "-1.3357921019\t\udfffb\t-0.3979400087\n"
    "-1.3357921019\t\ue000\t-0.3979400087\n"
    "-0.6989700043\t\U0001f600\t-0.3979400087\n"
    "\n"
    "\\2-grams:\n"
    "-99.0000000000\t<s> <s>\t-0.3979400087\n"
    "-0.6033983421\t<s> a\ud800\t-0.3979400087\n"
    "-0.6033983421\t<s> \u0219\t-0.3979400087\n"
    "-0.6606250123\t<s> \ud83d\ude00\t-0.3979400087\n"
    "-0.4202164034\ta\ud800 </s>\t0.0000000000\n"
    "-0.4202164034\ta\ud800 \U0001f600\t-0.3979400087\n"
    "-0.4202164034\t\u0219 </s>\t0.0000000000\n"
    "-0.4969430112\t\u0219 \udfffb\t-0.3979400087\n"
    "-0.1674910873\t\ud83d\ude00 \U0001f600\t-0.3979400087\n"
    "-0.2086873036\t\udfffb \ue000\t-0.3979400087\n"
    "-0.1674910873\t\ue000 \U0001f600\t-0.3979400087\n"
    "-0.5528419687\t\U0001f600 </s>\t0.0000000000\n"
    "-0.6033983421\t\U0001f600 a\ud800\t-0.3979400087\n"
    "-0.6033983421\t\U0001f600 \u0219\t-0.3979400087\n"
    "\n"
    "\\3-grams:\n"
    "-0.5233244041\t<s> <s> a\ud800\n"
    "-0.5233244041\t<s> <s> \u0219\n"
    "-0.5415364847\t<s> <s> \ud83d\ude00\n"
    "-0.1237821594\t<s> a\ud800 \U0001f600\n"
    "-0.1382358888\t<s> \u0219 \udfffb\n"
    "-0.0594835151\t<s> \ud83d\ude00 \U0001f600\n"
    "-0.1550929006\ta\ud800 \U0001f600 \u0219\n"
    "-0.0719194251\t\u0219 \udfffb \ue000\n"
    "-0.1550929006\t\ud83d\ude00 \U0001f600 a\ud800\n"
    "-0.0594835151\t\udfffb \ue000 \U0001f600\n"
    "-0.1475200064\t\ue000 \U0001f600 </s>\n"
    "-0.1237821594\t\U0001f600 a\ud800 </s>\n"
    "-0.1237821594\t\U0001f600 \u0219 </s>\n"
    "\n"
    "\\end\\\n"
)


class TestEncodingEdge:
    def test_same_arpa_scores_and_unk_mapping(self):
        model = train(EDGE_CORPUS, 3, discount=0.4)
        buf = io.StringIO()
        write_arpa(model, buf)
        assert buf.getvalue() == EDGE_ARPA
        assert sorted(model.vocab) == [
            "</s>", "<s>", "<unk>", "a\ud800", "\u0219", "\ud83d\ude00", "\udfffb", "\ue000", "\U0001f600"
        ]
        back = read_arpa(io.StringIO(EDGE_ARPA))
        again = io.StringIO()
        write_arpa(back, again)
        assert again.getvalue() == EDGE_ARPA
        queries = ["a\ud800 \U0001f600", "\ud83d\ude00 \u0219 \udfffb", "\udbff \U0001f601 \ue000"]
        assert [lm._mapped_forms(model, sent(q)) for q in queries] == [
            ["a\ud800", "\U0001f600"], ["\ud83d\ude00", "\u0219", "\udfffb"], [UNK, UNK, "\ue000"]
        ]
        assert [logprob(model, sent(q)) for q in queries] == [
            -1.5978885408384351, -4.2390329046098, -4.562152774204559
        ]
        assert [logprob(back, sent(q)) for q in queries] == [
            -1.5978885409, -4.2390329047, -4.562152774299999
        ]


# ARPA-like texts: a header and sections as write_arpa lays them out,
# and now and then a repeated gram, a miscounted header, a 2- or
# 3-field line among the other kind, an empty word (a doubled or edge
# space), a missing or extra word, a bad number (not a finite decimal in
# ASCII digits, though float() may take it), a section number or count
# int() takes that is not ASCII digits, a stray line (blank,
# whitespace, a header, 1 or 4 fields), CRLF line ends or no \end\.
# Now and then -1e308: two of them sum to -inf, though each is good.
ARPA_WORDS = st.sampled_from(["a", "b", "ă", "<s>", "</s>", "<unk>", "x\r"])
ARPA_NUMBERS = st.sampled_from(
    ["-0.5", "-1.25", "0", "-99.0000000000", " -0.3", "1e-3", "+.5", "\x1c-2."] * 3 + ["-1e308"]
)
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
BAD_NUMBERS = ["x", "", "nan0", "nan", "NaN", "inf", "-Infinity", "1e999", "1_0", "-1_0", "\u0663", "0x10", "1e"]
ARPA_DEFECTS = st.sampled_from(
    ["none"] * 100 + ["empty word", "missing word", "extra word", "bad number", "other width"]
)
ARPA_STRAY = st.sampled_from([
    "", "  ", "\t", "\r", "\\data\\", "\\end\\", "\\1-grams:", "\\2-grams:", "\\x-grams:",
    "ngram 1=2", "ngram 2=x", "-0.5", "-0.5\ta\t-0.1\t0", "-0.5\ta b", "-0.5\ta  b\t0",
])


def rare(value, other=None, odds=10):
    """A strategy that gives value, or other once in `odds` draws."""
    return st.sampled_from([value] * (odds - 1) + [other])


@st.composite
def arpa_texts(draw):
    def integer(value):
        # Now and then a form int() reads as value.
        text = str(value)
        bad = [text.translate(ARABIC_INDIC_DIGITS), "0_" + text, f" {text}", f"{text} ", f"+{text}"]
        return draw(rare(text, draw(st.sampled_from(bad)), odds=30))

    order = draw(st.integers(1, 3))
    sections = []
    for n in range(1, order + 1):
        width = 3 if n < order else 2
        # Distinct grams, so that more texts load as models, and now and
        # then one of them again: a repeated gram is an error.
        grams = draw(st.lists(st.lists(ARPA_WORDS, min_size=n, max_size=n).map(tuple), max_size=8, unique=True))
        if grams and not draw(rare(True, False)):
            grams.insert(draw(st.integers(0, len(grams))), draw(st.sampled_from(grams)))
        rows = []
        for gram in grams:
            words = list(gram)
            numbers = [draw(ARPA_NUMBERS) for _ in range(width - 1)]
            defect = draw(ARPA_DEFECTS)
            if defect == "empty word":
                words[draw(st.integers(0, n - 1))] = ""
            elif defect == "missing word":
                words.pop()
            elif defect == "extra word":
                words.append("a")
            elif defect == "bad number":
                numbers[draw(st.integers(0, len(numbers) - 1))] = draw(st.sampled_from(BAD_NUMBERS))
            elif defect == "other width":
                numbers = numbers[:1] if width == 3 else numbers + ["-0.25"]
            rows.append("\t".join([numbers[0], " ".join(words), *numbers[1:]]))
        count = len({row.split("\t")[1] for row in rows}) + draw(rare(0, draw(st.sampled_from([-1, 1]))))
        sections.append((count, rows))
    lines = ["\\data\\"] + [f"ngram {integer(n)}={integer(count)}" for n, (count, _) in enumerate(sections, 1)]
    for n, (_, rows) in enumerate(sections, 1):
        lines += ["", f"\\{integer(n)}-grams:"] + rows
    lines += ["", "\\end\\"]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(ARPA_STRAY))
    if not draw(rare(True, False)):
        lines.remove("\\end\\")
    return draw(rare("\n", "\r\n")).join(lines) + "\n"


def _arpa_outcome(reader, lines):
    """A model as (order, per-order item lists with the UTF-8 bytes of
    space-joined keys), or a parse error as its message."""
    try:
        model = reader(lines)
    except MalformedArpa as exc:
        return str(exc)
    return model.order, [
        [(gram if isinstance(gram, bytes) else " ".join(gram).encode(), value) for gram, value in table.items()]
        for table in model.tables
    ]


class TestReadArpaMatchesLineReader:
    @pytest.mark.parametrize("feed", [io.StringIO], ids=["stream"])
    @settings(max_examples=400, deadline=None)
    @given(text=arpa_texts())
    def test_same_model_or_same_error(self, feed, text):
        assert _arpa_outcome(read_arpa, feed(text)) == _arpa_outcome(ref_read_arpa, feed(text))

    def test_written_model(self):
        model = train(["a b c a", "c b a", "b b a c"], 3)
        buf = io.StringIO()
        write_arpa(model, buf)
        got = _arpa_outcome(read_arpa, io.StringIO(buf.getvalue()))
        assert got == _arpa_outcome(ref_read_arpa, io.StringIO(buf.getvalue()))
        assert got[0] == 3 and all(got[1])

    # With reads of 1 to 64 characters, headers, entries, diacritics and
    # section ends straddle reads, sections span several chunks, and a bad
    # line can fall in a later chunk than good ones.
    @pytest.mark.parametrize("read", [1, 3, 5, 64])
    @pytest.mark.parametrize("feed", [io.StringIO], ids=["stream"])
    @settings(max_examples=300, deadline=None)
    @given(text=arpa_texts())
    def test_same_model_or_same_error_in_small_chunks(self, feed, read, text):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lm, "_ARPA_READ", read)
            assert _arpa_outcome(read_arpa, feed(text)) == _arpa_outcome(ref_read_arpa, feed(text))

    # Reads of 1 and 3 characters, and of 1024, which hold the whole model.
    @pytest.mark.parametrize("read", [1, 3, 1024])
    def test_written_model_with_one_bad_line(self, monkeypatch, read):
        monkeypatch.setattr(lm, "_ARPA_READ", read)
        self.test_written_model()
        model = train(["a b c a", "c b a", "b b a c"], 3)
        buf = io.StringIO()
        write_arpa(model, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        entries = [i for i, line in enumerate(lines) if "\t" in line]
        assert len(entries) > 20
        for i in entries:
            # A bad number in place of each number of the line.
            fields = lines[i].rstrip("\n").split("\t")
            bad_numbers = [
                "\t".join(fields[:k] + [number] + fields[k + 1 :]) + "\n"
                for k in range(0, len(fields), 2)
                for number in BAD_NUMBERS
            ]
            for bad in (
                lines[i].replace("\t", "\tx ", 1), "x" + lines[i], lines[i].rstrip("\n") + "\t-1\n", *bad_numbers
            ):
                text = "".join(lines[:i] + [bad] + lines[i + 1 :])
                got = _arpa_outcome(read_arpa, io.StringIO(text))
                assert got == _arpa_outcome(ref_read_arpa, io.StringIO(text)), (i, bad)


class TestReadArpaFastPath:
    def test_a_written_model_never_takes_the_line_path(self, monkeypatch):
        # Each section spans at least three reads; grams hold diacritics,
        # and <s> has its dummy entry.
        model = train(make_clean_lines(300, make_words(400), seed=3), 3)
        buf = io.StringIO()
        write_arpa(model, buf)
        text = buf.getvalue()
        sections = [section.split("\n\n")[0] for section in text.split("-grams:\n")[1:]]
        monkeypatch.setattr(lm, "_ARPA_READ", min(map(len, sections)) // 3)
        assert any(ch in text for ch in "ăâîșț")
        assert f"{lm.DUMMY_LOGPROB:.10f}\t{SOS}\t" in text

        def line_path(*args):
            raise AssertionError(f"an entry line was read on its own: {args}")

        monkeypatch.setattr(lm, "_entry_line", line_path)
        got = _arpa_outcome(read_arpa, io.StringIO(text))
        assert got == _arpa_outcome(ref_read_arpa, io.StringIO(text))
        assert [len(table) for table in got[1]] == [len(table) for table in model.tables]

    def test_one_block_step_per_chunk(self, monkeypatch):
        # The chunk that holds a section's end is cut there before it is
        # parsed, so no block step is refused and none is repeated.
        model = train(make_clean_lines(300, make_words(400), seed=3), 3)
        buf = io.StringIO()
        write_arpa(model, buf)
        text = buf.getvalue()
        sections = [section.split("\n\n")[0] for section in text.split("-grams:\n")[1:]]
        monkeypatch.setattr(lm, "_ARPA_READ", min(map(len, sections)) // 3)
        parse_entries = lm._parse_entries
        returns = []

        def counted(*args):
            returns.append(parse_entries(*args))
            return returns[-1]

        monkeypatch.setattr(lm, "_parse_entries", counted)
        got = _arpa_outcome(read_arpa, io.StringIO(text))
        assert len(returns) >= 3 * len(sections)
        assert 0 not in returns, returns
        assert got == _arpa_outcome(ref_read_arpa, io.StringIO(text))

    @pytest.mark.parametrize(
        "counts, sections, message",
        [
            ("ngram 1=4\n", "\\1-grams:\n-1\ta\n\n\n\n", "line 8: section 1 has 1 entries, header declared 4"),
            (
                "ngram 1=1\nngram 2=3\n",
                "\\1-grams:\n-1\ta\n\\2-grams:\n-1\ta b\nx\n\n",
                "line 8: expected 2 or 3 tab-separated fields, got 1",
            ),
        ],
        ids=["blank-lines", "a-bad-line"],
    )
    def test_a_text_too_short_for_left_entry_lines_is_offered_whole(self, monkeypatch, counts, sections, message):
        # The last section's text holds as many lines as it has entries
        # left, but fewer than 2n + 2 characters for each: it is not cut,
        # and the block step refuses it whole.
        text = f"\\data\\\n{counts}{sections}\\end\\\n"
        parse_entries = lm._parse_entries
        offered = []

        def recorded(data, n, table):
            offered.append(data)
            return parse_entries(data, n, table)

        monkeypatch.setattr(lm, "_parse_entries", recorded)
        assert _arpa_outcome(read_arpa, io.StringIO(text)) == message
        assert _arpa_outcome(ref_read_arpa, io.StringIO(text)) == message
        assert offered[-1].endswith(b"\\end\\\n")


class TestReadArpaRepeats:
    """A gram listed twice in its section, or a section header given
    twice, is an error at the line that repeats it, as in ref_read_arpa."""

    @staticmethod
    def assert_error(text, message):
        assert _arpa_outcome(read_arpa, io.StringIO(text)) == message
        assert _arpa_outcome(ref_read_arpa, io.StringIO(text)) == message

    @pytest.mark.parametrize("declared", [2, 3])
    def test_a_repeat_within_one_chunk(self, declared):
        # Under "ngram 1=2" the block holds the first two entries only.
        text = f"\\data\\\nngram 1={declared}\n\\1-grams:\n-1.0\ta\n-2.0\ta\n-3.0\tb\n\\end\\\n"
        self.assert_error(text, "line 5: repeated gram: 'a'")

    def test_a_repeat_across_chunks(self, monkeypatch):
        model = train(make_clean_lines(40, make_words(60), seed=5), 2)
        buf = io.StringIO()
        write_arpa(model, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        bigrams = [i for i, line in enumerate(lines) if line.count("\t") == 1]
        first, later = bigrams[3], bigrams[-5]
        gram = lines[first].split("\t")[1].rstrip("\n")
        lines[later] = lines[later].split("\t")[0] + "\t" + gram + "\n"
        text = "".join(lines)
        # Reads of 256 characters put the two listings many chunks apart,
        # each in a chunk of whole entries.
        monkeypatch.setattr(lm, "_ARPA_READ", 256)
        assert len("".join(lines[first:later])) > 4 * 256
        self.assert_error(text, f"line {later + 1}: repeated gram: {gram!r}")

    def test_a_repeat_on_the_line_path(self, monkeypatch):
        monkeypatch.setattr(lm, "_parse_entries", lambda *args: False)
        text = "\\data\\\nngram 1=1\nngram 2=3\n\\1-grams:\n-1\ta\t-0.5\n\\2-grams:\n-1\ta a\n-2\ta b\n-3\ta a\n\\end\\\n"
        self.assert_error(text, "line 9: repeated gram: 'a a'")

    @pytest.mark.parametrize("header", ["\\1-grams:", "\\01-grams:"])
    def test_a_repeated_section_header(self, header):
        text = f"\\data\\\nngram 1=1\n\\1-grams:\n-1\ta\n{header}\n-2\ta\n\\end\\\n"
        self.assert_error(text, f"line 5: repeated section header: {header!r}")


class TestReadArpaMemory:
    def test_peak_is_bounded_by_the_model(self):
        # The reader holds one chunk of text beside the model, not a
        # whole section.  tracemalloc counts the same allocations on every
        # run, so this is a count, not a timing.
        texts = make_clean_lines(1500, make_words(2000), seed=8)
        model = train(texts, 3)
        assert sum(map(len, model.tables)) >= 20_000
        buf = io.StringIO()
        write_arpa(model, buf)
        source = io.StringIO(buf.getvalue())
        del model, buf
        tracemalloc.start()
        try:
            loaded = read_arpa(source)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, loaded.tables)) >= 20_000
        assert peak <= 1.25 * size, (peak, size)

    def test_model_holds_at_most_120_bytes_per_gram(self):
        # Each gram is keyed by its UTF-8 bytes: most of these grams hold
        # a word with a letter above U+00FF, which as a str would take 2
        # bytes a character.  Keyed by str, this model reads 137.6 bytes
        # a gram; keyed by bytes, 110.3.
        texts = make_clean_lines(1500, make_words(2000), seed=8)
        model = train(texts, 5)
        buf = io.StringIO()
        write_arpa(model, buf)
        source = io.StringIO(buf.getvalue())
        del model, buf
        tracemalloc.start()
        try:
            loaded = read_arpa(source)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grams = sum(map(len, loaded.tables))
        assert grams >= 80_000
        assert size <= 120 * grams, (size, grams)


class TestTrainingMemory:
    def test_peak_is_bounded_by_the_model(self):
        # Each order's grams are estimated one context run at a time:
        # beyond the model, training holds one order's adjusted counts
        # (built from the next order's continuation counts) and their
        # sorted gram list, but no per-context tables, no second copy of
        # a gram string and no copy of the highest order's counts.
        # tracemalloc counts the same allocations on every run, so this
        # is a count, not a timing.
        texts = make_clean_lines(1500, make_words(2000), seed=8)
        counts = count_ngrams([sent(t) for t in texts], 5)
        tables = sum(map(sys.getsizeof, counts))
        tracemalloc.start()
        try:
            model = train_kneser_ney(counts)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, model.tables)) >= 80_000
        assert peak <= 1.08 * size, (peak, size)
        # The counts were made before tracing and stay referenced, so a
        # copy of their dicts made inside training would count in both
        # size and peak, which the ratio above cannot see.  Beside the
        # entries it writes, training holds about 7% of the tables' own
        # size here; a copy of every table adds 107%.
        entries = sum(sys.getsizeof(entry) for table in model.tables for entry in table.values())
        assert peak - entries <= 0.25 * tables, (peak, entries, tables)


class TestCountAndTrainMemory:
    def test_peak_is_bounded_by_the_model(self):
        # The model is estimated in the count dicts, so from before
        # counting on the peak stays close to the model's size.
        sentences = [sent(t) for t in make_clean_lines(1500, make_words(2000), seed=8)]
        tracemalloc.start()
        try:
            model = train_kneser_ney(count_ngrams(sentences, 5))
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, model.tables)) >= 80_000
        assert peak <= 1.08 * size, (peak, size)


# Words of random corpora: literal <s> and </s> words, and words that
# sort below the space.
TABLE_WORDS = st.sampled_from(["a", "b", "ă", "<s>", "</s>", "a\x01", "\x02"])


class TestTableTypes:
    def test_counts_are_plain_dicts_in_sorted_order(self):
        counts = count_ngrams([sent(t) for t in ["b a\x01 c", "<s> ă a", "c b a"]], 4)
        for table in counts:
            assert type(table) is dict
            assert list(table) == sorted(table)

    def test_model_tables_are_plain_dicts_of_complex(self):
        # A Counter would turn a missing suffix into 0, and its update
        # counts (gram, entry) pairs instead of storing them.
        sentences = [sent(t) for t in ["Ana are <s> mere .", "el are mere", "a\x01 are ."]]
        model = train_kneser_ney(count_ngrams(sentences, 4))
        for table in model.tables:
            assert type(table) is dict
            assert all(type(entry) is complex for entry in table.values())

    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(st.lists(TABLE_WORDS, min_size=1, max_size=6).map(" ".join), min_size=1, max_size=5),
        order=st.integers(1, 6),
        discount=st.sampled_from([None, "0.4"]),
    )
    def test_library_and_cli_write_the_same_arpa(self, lines, order, discount):
        text = "".join(line + "\n" for line in lines)
        expect = io.StringIO()
        fixed = None if discount is None else float(discount)
        write_arpa(train_kneser_ney(count_ngrams(map(tokenize, lines), order), fixed), expect)
        with tempfile.TemporaryDirectory() as tmp:
            corpus, out = Path(tmp, "corpus.txt"), Path(tmp, "model.arpa")
            corpus.write_text(text, encoding="utf-8")
            argv = ["lm-train", str(corpus), "--order", str(order), "-o", str(out)]
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv + (["--discount", discount] if discount else [])) == 0
            assert out.read_bytes() == expect.getvalue().encode("utf-8")


# M2-like texts: S lines, A lines with odd spans, labels, corrections,
# field counts and annotator ids, noop lines, and stray lines.
M2_FIELDS = st.sampled_from(["R", "noop", "x", "-NONE-", "", "REQUIRED", "0", "1", " 0", "a|b"])
M2_SPANS = st.sampled_from(["0 1", "1 1", "-1 -1", "2 0", "0 9", "1", "0 1 2", "a b", "1_0 2", "٣ 4", ""])
M2_STRAY = st.sampled_from(["", " ", "S", "S ", "A", "A ", "S\ta", "A 0 1", "x", "\r"])


@st.composite
def m2_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        lines.append("S " + " ".join(draw(st.lists(st.sampled_from(["a", "b", ".", "ă"]), max_size=4))))
        for _ in range(draw(st.integers(0, 3))):
            fields = draw(st.lists(M2_FIELDS, min_size=4, max_size=6))
            lines.append("A " + "|||".join([draw(M2_SPANS), *fields]))
        lines.append("")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(M2_STRAY))
    return "\n".join(lines) + "\n"


# CoNLL-U-like texts: 10-column token lines with odd ids, forms and
# tags, now and then another column count, comments and blank lines.
CONLLU_IDS = st.sampled_from(["1", "2", "10", "1-2", "1.1", "0", "x", "", "٣", "²"])
CONLLU_FORMS = st.sampled_from(["a", "ă", ".", "_", "", "a b", "a\r", "\x85"])
CONLLU_TAGS = st.sampled_from(["NOUN", "VERB", "PUNCT", "_", "", "noun", "XYZ"])
CONLLU_STRAY = st.sampled_from(["", "# sent_id = s1", "# sent_id =", "#", "1\ta", "\t" * 10, " "])


@st.composite
def conllu_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        for _ in range(draw(st.integers(0, 4))):
            cols = [draw(CONLLU_IDS), draw(CONLLU_FORMS), draw(CONLLU_FORMS), draw(CONLLU_TAGS)]
            cols += ["_"] * draw(rare(6, draw(st.sampled_from([5, 7]))))
            lines.append("\t".join(cols))
        lines.append("")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(CONLLU_STRAY))
    return "\n".join(lines) + "\n"


class TestParsersRaiseOnlyPackageErrors:
    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(), arpa_texts()))
    def test_any_text(self, text):
        # read_nbest is a generator: list() makes it parse every line.
        for reader in (read_arpa, lambda lines: list(read_nbest(lines))):
            try:
                reader(io.StringIO(text))
            except GecToolsError:
                pass

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(), m2_texts(), conllu_texts()))
    def test_any_m2_or_conllu_text(self, text):
        for reader in (read_m2, parse_conllu):
            try:
                reader(io.StringIO(text))
            except GecToolsError:
                pass


# Every word costs 10**500, so "a a" has a perplexity past float range.
HUGE_PERPLEXITY_ARPA = "\\data\\\nngram 1=4\n\n\\1-grams:\n-500\ta\n-500\t</s>\n-99\t<s>\n-500\t<unk>\n\n\\end\\\n"


class TestQuerying:
    def test_normalized_divides_by_len_plus_one(self):
        model = train(["a b", "b a"], 2)
        s = sent("a b")
        assert normalized_logprob(model, s) == pytest.approx(logprob(model, s) / 3)

    def test_perplexity_matches_definition(self):
        model = train(["a b", "b a"], 2)
        sents = [sent("a b"), sent("b")]
        total = logprob(model, sents[0]) + logprob(model, sents[1])
        assert perplexity(model, sents) == pytest.approx(10 ** (-total / 5))

    def test_perplexity_past_float_range_is_inf(self):
        model = read_arpa(io.StringIO(HUGE_PERPLEXITY_ARPA))
        assert perplexity(model, [sent("a a")]) == math.inf

    def test_perplexity_empty_rejected(self):
        model = train(["a b"], 2)
        with pytest.raises(EmptyInput):
            perplexity(model, [])

    def test_backoff_walk_handles_unseen_context(self):
        model = train(["a b c"], 3)
        # context never observed: must back off without error
        value = model.word_logprob("c", ("c", "c"))
        assert math.isfinite(value)


@pytest.fixture(scope="module")
def rerank_model():
    return train(["ea merge la școală", "el merge la munte", "ea merge acasă"], 2)


class TestRerank:
    def test_lm_only_picks_fluent(self, rerank_model):
        hyps = [
            Hypothesis(sent("școală la merge ea"), 0.0),
            Hypothesis(sent("ea merge la școală"), 0.0),
        ]
        best = rerank(hyps, rerank_model, lm_weight=1.0)
        assert best is hyps[1]

    def test_zero_weight_keeps_decoder_choice(self, rerank_model):
        hyps = [
            Hypothesis(sent("școală la merge ea"), -1.0),
            Hypothesis(sent("ea merge la școală"), -2.0),
        ]
        best = rerank(hyps, rerank_model, lm_weight=0.0)
        assert best is hyps[0]

    def test_tie_keeps_earliest(self, rerank_model):
        s = sent("ea merge acasă")
        hyps = [Hypothesis(s, -1.0), Hypothesis(s, -1.0)]
        assert rerank(hyps, rerank_model) is hyps[0]

    def test_length_normalize_divides_decoder_score(self, rerank_model):
        # raw scores prefer the long hypothesis, per-token scores do not
        long_hyp = Hypothesis(sent("ea merge la școală"), -4.0)
        short_hyp = Hypothesis(sent("ea"), -1.5)
        raw = rerank([long_hyp, short_hyp], rerank_model, lm_weight=0.0)
        norm = rerank([long_hyp, short_hyp], rerank_model, lm_weight=0.0, length_normalize=True)
        assert raw is short_hyp
        assert norm is long_hyp

    def test_empty_rejected(self, rerank_model):
        with pytest.raises(EmptyInput):
            rerank([], rerank_model)

    @pytest.mark.parametrize("scores", [[math.nan, math.nan], [math.inf, -math.inf], [-math.inf]])
    def test_no_finite_score_raises(self, rerank_model, scores):
        hyps = [Hypothesis(sent("ea merge"), score) for score in scores]
        with pytest.raises(NoFiniteScore, match=f"none of {len(scores)} hypotheses"):
            rerank(hyps, rerank_model)

    def test_non_finite_score_never_wins(self, rerank_model):
        hyps = [Hypothesis(sent("ea merge"), math.nan), Hypothesis(sent("ea merge"), math.inf),
                Hypothesis(sent("școală la"), -50.0)]
        assert rerank(hyps, rerank_model) is hyps[2]


class TestReadNbest:
    def test_groups_split_on_blank_lines(self):
        text = "a b\t-1.5\na c\t-2\n\nb\t-0.5\n"
        groups = list(read_nbest(io.StringIO(text)))
        assert len(groups) == 2
        assert groups[0][0].sentence.forms == ["a", "b"]
        assert groups[0][0].model_score == -1.5
        assert groups[1][0].model_score == -0.5

    def test_whitespace_only_line_separates_groups(self):
        groups = list(read_nbest(io.StringIO("a\t-1\n \t\r\nb\t-2\nc\t-3\n")))
        assert [[h.model_score for h in group] for group in groups] == [[-1.0], [-2.0, -3.0]]

    def test_missing_tab_rejected(self):
        with pytest.raises(MalformedLine):
            list(read_nbest(io.StringIO("no score here\n")))

    def test_bad_score_rejected(self):
        with pytest.raises(MalformedLine):
            list(read_nbest(io.StringIO("a b\tnot-a-number\n")))

    @pytest.mark.parametrize("score", ["-1", "+2.5", "3.", ".5", "-1.5e-3", "1E2", " -0.25 ", "\x1c-1"])
    def test_decimal_scores_read(self, score):
        assert list(read_nbest(io.StringIO(f"a\t{score}\n")))[0][0].model_score == float(score.strip())

    @pytest.mark.parametrize("score", ["nan", "inf", "-Infinity", "1e999", "1_0", "\u0663", ".", "1e", "0x10", ""])
    def test_non_decimal_or_infinite_score_rejected(self, score):
        with pytest.raises(MalformedLine, match="line 2: bad score"):
            list(read_nbest(io.StringIO(f"a\t0\nb\t{score}\n")))

    def test_group_yielded_before_reading_past_its_blank_line(self):
        def lines():
            yield "a b\t-1\n"
            yield "a c\t-2\n"
            yield "\n"
            raise AssertionError("read past the blank line ending group 1")

        groups = read_nbest(lines())
        assert [h.model_score for h in next(groups)] == [-1.0, -2.0]
        with pytest.raises(AssertionError, match="read past"):
            next(groups)
