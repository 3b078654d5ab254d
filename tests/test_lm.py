"""Kneser-Ney training, ARPA round-trips, querying, and re-ranking."""

import copy
import io
import math
import tracemalloc
import warnings
from collections import Counter

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
    RerankConfig,
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
from gectools.text import Sentence, Token, parse_conllu
from tests.conftest import DATA, make_clean_lines, make_words
from tests.oracles import RefKneserNey, ref_read_arpa

# Tiny fixture corpora legitimately trip the sparse-counts fallback.
pytestmark = pytest.mark.filterwarnings("ignore::gectools.errors.DegenerateCounts")


def sent(text):
    return Sentence(tokens=tuple(Token(form=f) for f in text.split()))


def train(texts, order, discounts=None):
    return train_kneser_ney(count_ngrams([sent(t) for t in texts], order), discounts)


class TestCounting:
    def test_bigram_padding(self):
        counts = count_ngrams([sent("a b")], 2)
        assert counts.raw(1) == {"<s>": 1, "a": 1, "b": 1, "</s>": 1}
        assert counts.raw(2) == {"<s> a": 1, "a b": 1, "b </s>": 1}

    def test_trigram_padding_doubles_sos(self):
        counts = count_ngrams([sent("a")], 3)
        assert counts.raw(3) == {"<s> <s> a": 1, "<s> a </s>": 1}
        assert counts.raw(2)["<s> <s>"] == 1

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
            assert counts.raw(n) == {" ".join(gram): c for gram, c in expect.items()}


class TestTraining:
    def test_unigram_hand_example(self):
        # counts: a=5, b=2, c=1, </s>=1 over two sentences
        model = train(["a a b a", "a b c a"], 1, discounts=0.5)
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
            model = train(texts, order, discounts=0.4)
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
            train(["a b"], 2, discounts=bad)

    def test_per_order_discounts(self):
        model = train(["a b a c", "b a c a"], 2, discounts=[0.3, 0.6])
        ref = RefKneserNey([["a", "b", "a", "c"], ["b", "a", "c", "a"]], 2, discounts=[0.3, 0.6])
        for text in ["a b", "c a b"]:
            assert logprob(model, sent(text)) == pytest.approx(
                ref.sentence_logprob(text.split()), rel=1e-9
            )

    def test_wrong_discount_count(self):
        with pytest.raises(ValueError):
            train(["a b"], 2, discounts=[0.3])

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyInput):
            train_kneser_ney(count_ngrams([], 2))

    def test_checks_in_order(self):
        # An empty corpus first, then the caller's discounts, then the
        # estimated ones, warned about from the lowest order up.
        with pytest.raises(EmptyInput):
            train_kneser_ney(count_ngrams([], 3), discounts=[0.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="got 2.0"):
                train(["a b"], 3, discounts=[0.5, 0.5, 2.0])
        with pytest.warns(DegenerateCounts) as record:
            train(["a b"], 3)
        assert [str(w.message)[:8] for w in record] == ["order 1:", "order 2:", "order 3:"]

    @pytest.mark.parametrize("order", [3, 5])
    def test_literal_sos_contexts_sum_to_one(self, order):
        # A literal <s> word after other words makes contexts that end in
        # <s> ("are <s>"); they get dummy entries to hold their backoff.
        texts = ["Ana are <s> mere .", "el are <s> <s> pere", "Ana are mere <s>", "<s> el are mere ."]
        model = train(texts, order)
        assert model.tables[1]["are <s>"].real == lm.DUMMY_LOGPROB
        contexts = {()}
        for n in range(2, order + 1):
            contexts.update(tuple(gram.split(" "))[:-1] for gram in model.tables[n - 1])
        assert ("are", SOS) in contexts
        words = [w for w in model.vocab if w != SOS]
        for context in contexts:
            total = sum(10 ** model.word_logprob(w, context) for w in words)
            assert total == pytest.approx(1.0, abs=1e-6), context

    def test_unk_in_vocab_and_queried_for_oov(self):
        model = train(["a b", "b a"], 2)
        assert UNK in model.vocab
        assert logprob(model, sent("zz")) == logprob(model, sent(UNK))

    def test_counts_left_unchanged(self):
        counts = count_ngrams([sent(t) for t in ["a b c a", "<s> b a", "c"]], 4)
        before = copy.deepcopy(counts)
        train_kneser_ney(counts)
        assert counts == before


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
        backoffs = ROUND_TRIP_NUMBERS if n < order else st.just(0.0)
        tables.append({gram: complex(draw(ROUND_TRIP_NUMBERS), draw(backoffs)) for gram in grams})
    return ArpaModel(order=order, tables=tuple(tables))


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


# ARPA-like texts: a header and sections as write_arpa lays them out,
# with duplicate grams, and now and then a miscounted header, a 2- or
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
        rows = []
        for _ in range(draw(st.integers(0, 8))):
            words = draw(st.lists(ARPA_WORDS, min_size=n, max_size=n))
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
    """A model as (order, per-order item lists with space-joined keys),
    or a parse error as its message."""
    try:
        model = reader(lines)
    except MalformedArpa as exc:
        return str(exc)
    return model.order, [
        [(gram if isinstance(gram, str) else " ".join(gram), value) for gram, value in table.items()]
        for table in model.tables
    ]


class TestReadArpaMatchesLineReader:
    @pytest.mark.parametrize(
        "feed", [io.StringIO, str.splitlines], ids=["stream", "unterminated-lines"]
    )
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

    # With chunks of 1 or 3 lines, sections span several chunks, and a bad
    # line can fall in a later chunk than good ones.
    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize(
        "feed", [io.StringIO, str.splitlines], ids=["stream", "unterminated-lines"]
    )
    @settings(max_examples=300, deadline=None)
    @given(text=arpa_texts())
    def test_same_model_or_same_error_in_small_chunks(self, feed, chunk, text):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lm, "_ARPA_CHUNK", chunk)
            assert _arpa_outcome(read_arpa, feed(text)) == _arpa_outcome(ref_read_arpa, feed(text))

    @pytest.mark.parametrize("chunk", [1, 3, lm._ARPA_CHUNK])
    def test_written_model_with_one_bad_line(self, monkeypatch, chunk):
        monkeypatch.setattr(lm, "_ARPA_CHUNK", chunk)
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


class TestReadArpaMemory:
    def test_peak_is_bounded_by_the_model(self):
        # The reader holds one chunk of lines beside the model, not a
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


class TestTrainingMemory:
    def test_peak_is_bounded_by_the_model(self):
        # Each order's grams are estimated one context run at a time:
        # beyond the model, training holds one order's adjusted counts
        # (built from the next order's continuation counts) and their
        # sorted list, but no per-context tables.  tracemalloc counts the
        # same allocations on every run, so this is a count, not a timing.
        texts = make_clean_lines(1500, make_words(2000), seed=8)
        counts = count_ngrams([sent(t) for t in texts], 5)
        tracemalloc.start()
        try:
            model = train_kneser_ney(counts)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, model.tables)) >= 80_000
        assert peak <= 1.25 * size, (peak, size)


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
        for reader in (read_arpa, read_nbest):
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
        best = rerank(hyps, rerank_model, RerankConfig(lm_weight=1.0))
        assert best is hyps[1]

    def test_zero_weight_keeps_decoder_choice(self, rerank_model):
        hyps = [
            Hypothesis(sent("școală la merge ea"), -1.0),
            Hypothesis(sent("ea merge la școală"), -2.0),
        ]
        best = rerank(hyps, rerank_model, RerankConfig(lm_weight=0.0))
        assert best is hyps[0]

    def test_tie_keeps_earliest(self, rerank_model):
        s = sent("ea merge acasă")
        hyps = [Hypothesis(s, -1.0), Hypothesis(s, -1.0)]
        assert rerank(hyps, rerank_model) is hyps[0]

    def test_length_normalize_divides_decoder_score(self, rerank_model):
        # raw scores prefer the long hypothesis, per-token scores do not
        long_hyp = Hypothesis(sent("ea merge la școală"), -4.0)
        short_hyp = Hypothesis(sent("ea"), -1.5)
        raw = rerank([long_hyp, short_hyp], rerank_model, RerankConfig(lm_weight=0.0))
        norm = rerank(
            [long_hyp, short_hyp], rerank_model,
            RerankConfig(lm_weight=0.0, length_normalize=True),
        )
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
        groups = read_nbest(io.StringIO(text))
        assert len(groups) == 2
        assert groups[0][0].sentence.forms == ["a", "b"]
        assert groups[0][0].model_score == -1.5
        assert groups[1][0].model_score == -0.5

    def test_missing_tab_rejected(self):
        with pytest.raises(MalformedLine):
            read_nbest(io.StringIO("no score here\n"))

    def test_bad_score_rejected(self):
        with pytest.raises(MalformedLine):
            read_nbest(io.StringIO("a b\tnot-a-number\n"))

    @pytest.mark.parametrize("score", ["-1", "+2.5", "3.", ".5", "-1.5e-3", "1E2", " -0.25 ", "\x1c-1"])
    def test_decimal_scores_read(self, score):
        assert read_nbest(io.StringIO(f"a\t{score}\n"))[0][0].model_score == float(score.strip())

    @pytest.mark.parametrize("score", ["nan", "inf", "-Infinity", "1e999", "1_0", "\u0663", ".", "1e", "0x10", ""])
    def test_non_decimal_or_infinite_score_rejected(self, score):
        with pytest.raises(MalformedLine, match="line 2: bad score"):
            read_nbest(io.StringIO(f"a\t0\nb\t{score}\n"))
