"""The lexicon: one word→frequency table, built the same way from a file
or from words in memory."""

import gc
import pickle
import random
import sys
import tracemalloc
from collections.abc import KeysView
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gectools.errors import InvalidEncoding, MalformedLexicon
from gectools.lexicon import Lexicon
from gectools.synth import ConfusionProvider

from tests.conftest import make_words

BOM = "\ufeff"

# A lexicon word holds no whitespace and is valid UTF-8.  The small
# alphabet makes words that fold to the same lowercased word.
WORD_CHARS = st.characters(blacklist_categories=("Cs",)).filter(lambda ch: not ch.isspace())
WORDS = st.one_of(st.text("aAbBăĂ", min_size=1, max_size=3), st.text(WORD_CHARS, min_size=1, max_size=4))
INDENTS = st.sampled_from(["", " ", "  ", "\xa0", "\u3000 "])


def write_lexicon(path, entries, bom):
    """entries: (indent, word, frequency or None), one line each."""
    lines = [indent + word + ("" if freq is None else f"\t{freq}") for indent, word, freq in entries]
    path.write_text((BOM if bom else "") + "\n".join(lines) + "\n", encoding="utf-8")


class TestOneTable:
    def test_words_is_a_read_only_view_of_the_table(self):
        lex = Lexicon.from_words(["Casa", "masa"], {"casa": 3})
        assert lex.frequencies == {"casa": 3, "masa": 0}
        assert isinstance(lex.words, KeysView)
        assert lex.words == {"casa", "masa"}
        assert "CASA" in lex and "ceva" not in lex
        assert len(lex) == 2 and lex.freq("Masa") == 0 and lex.freq("ceva") == 0
        assert lex.sorted_words == ("casa", "masa")
        with pytest.raises(AttributeError):
            lex.words = frozenset({"ceva"})

    def test_the_table_is_read_only(self):
        lex = Lexicon.from_words(["casa", "masa"])
        with pytest.raises(TypeError):
            lex.frequencies["vasa"] = 3
        with pytest.raises(TypeError):
            del lex.frequencies["casa"]
        assert "vasa" not in lex and len(lex) == 2

    def test_the_callers_table_stays_the_callers(self):
        table = {"casa": 1, "masa": 0}
        lex = Lexicon(table)
        assert lex.sorted_words == ("casa", "masa")
        table["vasa"] = 3
        del table["casa"]
        assert "vasa" not in lex and "casa" in lex and len(lex) == 2
        assert lex.frequencies == {"casa": 1, "masa": 0}

    def test_lexicon_and_provider_survive_pickling(self):
        # synth --jobs hands the provider to a pool, which pickles it
        # under the spawn start method.
        lex = Lexicon.from_words(["casa", "masa", "vasa", "cast", "mare"], {"casa": 3, "mare": 7})
        provider = ConfusionProvider(lex, max_distance=2)
        lex_copy, provider_copy = pickle.loads(pickle.dumps((lex, provider)))
        assert list(lex_copy.frequencies.items()) == list(lex.frequencies.items())
        assert lex_copy == lex
        with pytest.raises(TypeError):
            lex_copy.frequencies["vasa"] = 3
        assert list(provider_copy.lexicon.frequencies.items()) == list(lex.frequencies.items())
        for word in ["casa", "masa", "Cast", "mere", "x"]:
            assert provider_copy.confusion_set(word) == provider.confusion_set(word)

    def test_an_empty_lexicon_is_refused(self):
        with pytest.raises(ValueError, match="at least one word"):
            Lexicon.from_words(["", "  "])


class TestTableRules:
    """Lexicon(table) builds its table by from_words's rules."""

    def test_words_fold_and_their_frequencies_sum(self):
        lex = Lexicon({"Casa": 1, "casa": 2, " masa": "4"})
        assert lex.frequencies == {"casa": 3, "masa": 4}
        assert "CASA" in lex and lex.freq("Casa") == 3
        assert lex == Lexicon.from_words(["Casa", "casa", " masa"], {"Casa": 1, "casa": 2, " masa": 4})

    @pytest.mark.parametrize("table", [{"a b": 1}, {"x": -1}], ids=["whitespace", "negative"])
    def test_a_bad_table_is_refused(self, table):
        with pytest.raises(ValueError):
            Lexicon(table)

    # int() would read these as 2, 2, 1, 10 and 4; a file refuses them all.
    @pytest.mark.parametrize("freq", [2.7, 2.9, True, "1_0", " 4"])
    def test_a_frequency_that_is_not_a_whole_number_is_refused(self, freq):
        with pytest.raises(ValueError, match="neither an int nor ASCII digits"):
            Lexicon({"casa": freq})
        with pytest.raises(ValueError, match="neither an int nor ASCII digits"):
            Lexicon.from_words(["casa"], {"casa": freq})

    # Past int()'s 4,300-digit limit, as from_file refuses the same line.
    def test_a_frequency_of_too_many_digits_names_its_word(self):
        message = r"^frequency of 5000 digits for 'a' is too long$"
        with pytest.raises(ValueError, match=message):
            Lexicon({"a": "1" * 5000})
        with pytest.raises(ValueError, match=message):
            Lexicon.from_words(["a"], {"a": "1" * 5000})


class TestFileErrors:
    def test_errors_name_the_file_and_dash_is_a_file_name(self, tmp_path, monkeypatch):
        # "-" is a file here, not standard input.
        monkeypatch.chdir(tmp_path)
        Path("-").write_bytes("casa\ncaf\xe9\n".encode("latin-1"))
        with pytest.raises(InvalidEncoding, match=r"^-: not valid UTF-8 \(byte 0xe9\)$"):
            Lexicon.from_file("-")
        Path("-").write_text("casa\nmasa\tx\n", encoding="utf-8")
        with pytest.raises(MalformedLexicon, match=r"^-: line 2: frequency 'x' is not ASCII digits$") as err:
            Lexicon.from_file("-")
        assert (err.value.path, err.value.line_no) == ("-", 2)


class TestFromWordsRules:
    def test_words_are_stripped_and_whitespace_inside_is_refused(self):
        lex = Lexicon.from_words([" casa", "masa\t", "", "   "])
        assert lex.frequencies == {"casa": 0, "masa": 0}
        # The confusion sets hold the stripped words.
        assert ConfusionProvider(lex).confusion_set("casa") == ["masa"]
        with pytest.raises(ValueError, match="'a b'"):
            Lexicon.from_words(["casa", "a b"])

    def test_frequencies_fold_and_sum_as_in_a_file(self, tmp_path):
        lex = Lexicon.from_words(["Casa", "casa", "masa"], {"Casa": 3, "casa": 2})
        assert lex.freq("casa") == 5
        path = tmp_path / "lex.txt"
        write_lexicon(path, [("", "Casa", 3), ("", "casa", 2), ("", "masa", None)], bom=False)
        assert Lexicon.from_file(path) == lex

    def test_a_frequency_for_an_unlisted_word_is_refused(self):
        with pytest.raises(ValueError, match="'ceva'"):
            Lexicon.from_words(["casa"], {"ceva": 4})

    def test_a_negative_frequency_is_refused(self):
        with pytest.raises(ValueError, match="negative"):
            Lexicon.from_words(["casa"], {"casa": -1})


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(st.tuples(INDENTS, WORDS, st.none() | st.integers(0, 10**6)), min_size=1, max_size=12),
    bom=st.booleans(),
)
def test_from_file_equals_from_words(tmp_path_factory, entries, bom):
    path = tmp_path_factory.mktemp("lex") / "lex.txt"
    write_lexicon(path, entries, bom)
    frequencies: dict[str, int] = {}
    for indent, word, freq in entries:
        if freq is not None:
            frequencies[indent + word] = frequencies.get(indent + word, 0) + freq
    from_file = Lexicon.from_file(path)
    from_words = Lexicon.from_words([indent + word for indent, word, _ in entries], frequencies)
    assert list(from_file.frequencies.items()) == list(from_words.frequencies.items())


class TestLexiconMemory:
    def test_retained_memory_is_the_table(self, tmp_path):
        # Each word is held once, as a key of the frequency table: what a
        # load retains is the table, its keys, the frequencies that are
        # not the interpreter's cached small ints, and the instance.  The
        # slack is one free list of 3-tuples (the interpreter keeps up to
        # 2,000 freed ones), as the loader partitions each line into one;
        # a warm-up load imports the file's codec first.  A second copy
        # of the words, such as a set of them (about 0.5 MB for these 10k
        # words), fails the bound.  tracemalloc counts the same
        # allocations on every run, so this is a count, not a timing.
        rng = random.Random(5)
        words = make_words(10_000)
        path = tmp_path / "lex.txt"
        path.write_text("".join(f"{w}\t{rng.randint(0, 100_000)}\n" for w in words), encoding="utf-8")
        Lexicon.from_file(path)
        tracemalloc.start()
        try:
            lex = Lexicon.from_file(path)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        proxy = lex.frequencies
        (table,) = gc.get_referents(proxy)  # the dict behind the read-only proxy
        expected = (
            sys.getsizeof(table)
            + sys.getsizeof(proxy)
            + sum(map(sys.getsizeof, table))
            + sum(sys.getsizeof(v) for v in table.values() if not -5 <= v <= 256)
            + sys.getsizeof(lex)
            + sys.getsizeof(vars(lex))
        )
        free_list = 2000 * sys.getsizeof((0, 0, 0))
        assert len(lex) == 10_000
        assert size <= expected + free_list, (size, expected)
