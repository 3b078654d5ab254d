"""Corpus filter, confusion sets, and the stochastic corruption process."""

import io
import random
import time
from pathlib import Path

import pytest

from gectools import synth
from gectools.errors import EmptySentence
from gectools.lexicon import Lexicon
from gectools.synth import (
    ConfusionProvider,
    CorruptionStats,
    FilterConfig,
    SynthConfig,
    _draw_op,
    corrupt_sentence,
    diacritic_ratio,
    filter_sentence,
    generate_corpus,
)
from gectools.text import Sentence, Token, tokenize
from tests.conftest import make_clean_lines, make_words
from tests.oracles import ref_confusion_ranking, ref_confusion_set, ref_filter

FIXTURE = Path(__file__).parent / "data" / "filter_fixture.tsv"


def load_filter_fixture():
    rows = []
    for line in FIXTURE.read_text(encoding="utf-8").splitlines():
        expect, text = line.split("\t")
        rows.append((None if expect == "-" else int(expect), text))
    return rows


class TestDiacriticRatio:
    def test_values(self):
        assert diacritic_ratio("română") == 0.5
        assert diacritic_ratio("abc") == 0.0
        assert diacritic_ratio("") == 0.0
        assert diacritic_ratio("ăă") == 0.0
        assert diacritic_ratio("casă") == pytest.approx(1 / 3)

    def test_legacy_cedilla_counts(self):
        assert diacritic_ratio("aş") == 1.0


class TestFilter:
    def test_fixture_decisions(self):
        rows = load_filter_fixture()
        assert len(rows) == 14
        for expect, text in rows:
            assert filter_sentence(text) == expect, text

    def test_fixture_agrees_with_reference(self):
        for _, text in load_filter_fixture():
            assert filter_sentence(text) == ref_filter(text), text

    def test_first_failing_rule_wins(self):
        # lowercase AND too short: rule 1 is reported
        assert filter_sentence("doar trei cuvinte ș.") == 1

    def test_link_markers(self):
        base = "Aceasta este o propoziție franțuzească bună despre multe lucruri frumoase"
        assert filter_sentence(base + " .") is None
        assert filter_sentence(base + " www.un-link.ro .") == 2
        assert filter_sentence(base + " http(s) .") == 2

    def test_config_overrides(self):
        cfg = FilterConfig(min_words=3)
        assert filter_sentence("Mâncăm ceva bun astăzi .", cfg) is None


class TestConfusionProvider:
    @pytest.fixture
    def provider(self):
        lex = Lexicon.from_words(
            ["casa", "casă", "masa", "ceva"], frequencies={"masa": 5}
        )
        return ConfusionProvider(lex)

    def test_rank_distance_then_frequency(self, provider):
        # casă and masa are both at distance 1; masa has higher frequency
        assert provider.confusion_set("casa", 2) == ["masa", "casă"]

    def test_full_set(self, provider):
        assert provider.confusion_set("casa", 20) == ["masa", "casă", "ceva"]

    def test_word_itself_excluded(self, provider):
        assert "casa" not in provider.confusion_set("casa", 20)

    def test_case_insensitive(self, provider):
        assert provider.confusion_set("Casa", 20) == provider.confusion_set("casa", 20)

    def test_distance_beyond_max_excluded(self, provider):
        assert provider.confusion_set("xyzqw", 20) == []

    def test_cache_returns_same_answer(self, provider):
        first = provider.confusion_set("casa", 2)
        assert provider.confusion_set("casa", 2) == first

    def test_cache_starts_over_at_its_limit_with_the_same_answers(self, provider, monkeypatch):
        queries = ["casa", "masa", "Casa", "ceva", "xyzqw", "casa", "masa"]
        expected = [provider.confusion_set(word, 2) for word in queries]
        monkeypatch.setattr(synth, "CONFUSION_CACHE_LIMIT", 2)
        limited = ConfusionProvider(provider.lexicon)
        assert [limited.confusion_set(word, 2) for word in queries] == expected
        assert len(limited._cache) <= 2 < len(provider._cache)


def noisy_queries(words, n, seed):
    """n lexicon words with 0-3 random character edits, some upper-cased
    or carrying a letter no test lexicon has, plus an empty word and
    words made of such letters only."""
    rng = random.Random(seed)
    alphabet = sorted(set("".join(words)))
    queries = ["", "ß", "xyzqw", "ÇÉ", "42", "q"]
    for _ in range(n):
        chars = list(rng.choice(words))
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(chars) + 1)
            letter = rng.choice(alphabet) if rng.random() < 0.9 else rng.choice("xqéß")
            op = rng.randrange(4)
            if op == 0 and i < len(chars):
                del chars[i]
            elif op == 1:
                chars.insert(i, letter)
            elif op == 2 and i < len(chars):
                chars[i] = letter
            elif op == 3 and i + 1 < len(chars):
                chars[i], chars[i + 1] = chars[i + 1], chars[i]
        query = "".join(chars)
        queries.append(query.upper() if rng.random() < 0.2 else query)
    return queries


def frequency_lexicon():
    """2,000 words of mixed length with small, often tied frequencies."""
    rng = random.Random(11)
    words = make_words(8000)[::4]
    return Lexicon.from_words(words, {w: rng.randint(0, 3) for w in words})


class TestConfusionSetAgainstScan:
    """The two-step search returns exactly what a linear scan of the
    lexicon ranks first, for every max_distance and k."""

    @pytest.fixture(params=["synth", "frequencies", "fixture"])
    def case(self, request, synth_lexicon, fixture_lexicon):
        if request.param == "synth":
            return synth_lexicon, 10
        if request.param == "frequencies":
            return frequency_lexicon(), 60
        return fixture_lexicon, 100

    def test_matches_oracle(self, case):
        lexicon, n_queries = case
        queries = noisy_queries(lexicon.sorted_words, n_queries, seed=len(lexicon))
        providers = [ConfusionProvider(lexicon, max_distance=d) for d in range(4)]
        mismatches = []
        shortcut = scanned = 0
        for query in queries:
            ranked = ref_confusion_ranking(lexicon, query, 3)
            at_one = sum(1 for dist, _, _ in ranked if dist == 1)
            for max_distance, provider in enumerate(providers):
                within = [cand for dist, _, cand in ranked if dist <= max_distance]
                for k in (1, 5, 20, 100):
                    if max_distance >= 2:
                        shortcut += at_one >= k
                        scanned += at_one < k
                    got = provider.confusion_set(query, k)
                    if got != within[:k]:
                        mismatches.append(f"{query!r} d={max_distance} k={k}: {got} != {within[:k]}")
        assert not mismatches, mismatches[:5]
        # both steps of the search were exercised
        assert shortcut and scanned

    def test_huge_max_distance(self, fixture_lexicon):
        # No distance exceeds the longer string's length, so past the
        # longest query and lexicon word a larger max_distance finds no
        # more.  A lookup visits the lexicon's word lengths: a loop over
        # every length within 10**8 takes about 7 s.
        words = fixture_lexicon.sorted_words
        queries = noisy_queries(words, 30, seed=5)
        huge = ConfusionProvider(fixture_lexicon, max_distance=10**8)
        start = time.perf_counter()
        huge.confusion_set(queries[-1], 100)
        assert time.perf_counter() - start < 1.0
        bounded = ConfusionProvider(fixture_lexicon, max_distance=max(map(len, [*words, *queries])))
        for query in queries:
            assert huge.confusion_set(query, 100) == bounded.confusion_set(query, 100), query


class TestLetterFilterLimits:
    """Buckets and queries past what the letter filter's one byte per word
    and letter holds get the same answers as the linear scan."""

    @staticmethod
    def assert_matches_oracle(lexicon, queries, max_distance):
        provider = ConfusionProvider(lexicon, max_distance=max_distance)
        for query in queries:
            ranked = [cand for _, _, cand in ref_confusion_ranking(lexicon, query, max_distance)]
            for k in (1, 5, 100):
                assert provider.confusion_set(query, k) == ranked[:k], (query[:20], len(query), k)

    def test_words_longer_than_255(self):
        # Buckets of length 254-258 and 298-302: the longer ones and the
        # 256-258 ones are scanned unfiltered.
        rng = random.Random(3)
        base = ["".join(rng.choice("abcă") for _ in range(300)), "ab" * 128]
        words = {"casa", "masa"}
        for word in base:
            for i in (1, 100):
                words.update((word[:i] + word[i + 1 :], word[:i] + "c" + word[i:], word[:i] + "ș" + word[i + 1 :]))
            words.add(word[:-2])
        queries = [base[0], base[1], base[0][:150] + base[0][151:], base[1][:-1] + "x"]
        self.assert_matches_oracle(Lexicon.from_words(words), queries, 2)

    def test_more_than_255_distinct_letters(self):
        rng = random.Random(5)
        cjk = [chr(0x4E00 + i) for i in range(300)]
        words = {"".join(rng.choice(cjk) for _ in range(rng.randint(2, 4))) for _ in range(600)}
        words.update(make_words(300))
        lexicon = Lexicon.from_words(words)
        assert len(set("".join(w for w in words if len(w) == 3))) > 255
        queries = noisy_queries(lexicon.sorted_words, 40, seed=9)
        self.assert_matches_oracle(lexicon, queries, 2)

    @pytest.mark.parametrize("max_distance", [3, 4, 6])
    def test_max_distance_at_least_query_length(self, max_distance):
        words = make_words(4000)[::8]
        lexicon = Lexicon.from_words(words + ["a", "ba", "ab", "abc"])
        queries = ["a", "ab", "ba", "bac", "pa", "ma"]
        assert all(len(q) <= max_distance for q in queries)
        self.assert_matches_oracle(lexicon, queries, max_distance)

    def test_query_with_more_than_255_copies_of_a_letter(self):
        words = ["a" * n for n in range(253, 262)] + ["a" * 254 + "b", "b" + "a" * 256, "a" * 128 + "b" * 128]
        queries = ["a" * 257, "a" * 256 + "b", "a" * 300]
        self.assert_matches_oracle(Lexicon.from_words(words + ["casa"]), queries, 2)


class OracleProvider(ConfusionProvider):
    """A provider whose confusion sets come from the linear-scan oracle."""

    def confusion_set(self, word, k=20):
        key = (word.lower(), k)
        if key not in self._cache:
            self._cache[key] = ref_confusion_set(self.lexicon, word, k, self.max_distance)
        return self._cache[key]


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_generate_corpus_same_as_with_oracle_provider(seed):
    words = make_words(6000)[::15]
    lex = Lexicon.from_words(words, {w: i % 7 for i, w in enumerate(words)})
    lines = make_clean_lines(100, words, seed=seed)

    def run(provider, jobs):
        out = io.StringIO()
        stats = generate_corpus(lines, FilterConfig(), SynthConfig(seed=seed), provider, out, jobs=jobs)
        return out.getvalue(), stats

    expected, stats = run(OracleProvider(lex), jobs=1)
    subs = stats.corruption.word_ops["substitute"]
    assert stats.accepted == 100 and subs > stats.corruption.no_candidate_subs
    for jobs in (1, 2):
        assert run(ConfusionProvider(lex), jobs)[0] == expected


def make_sentence(*forms):
    return Sentence(tokens=tuple(Token(form=f) for f in forms))


@pytest.fixture(scope="module")
def provider(synth_lexicon):
    return ConfusionProvider(synth_lexicon)


class TestCorruptSentence:
    def test_empty_rejected(self, provider):
        with pytest.raises(EmptySentence):
            corrupt_sentence(Sentence(tokens=()), SynthConfig(), provider, random.Random(1))

    def test_deterministic_for_seed(self, provider):
        sent = tokenize("bace bice boba cuba ricema tibe .")
        a = corrupt_sentence(sent, SynthConfig(), provider, random.Random(42))
        b = corrupt_sentence(sent, SynthConfig(), provider, random.Random(42))
        assert a.forms == b.forms

    def test_high_rate_changes_every_word(self, provider, monkeypatch):
        # mean 5.0 with tiny std clamps to 1.0: every position is hit
        monkeypatch.setattr(synth, "_draw_op", lambda rng: "substitute")
        cfg = SynthConfig(mean_error_rate=5.0, std_error_rate=0.001)
        sent = tokenize("bace bice boba cuba tibe")
        stats = CorruptionStats()
        corrupt_sentence(sent, cfg, provider, random.Random(7), stats)
        assert stats.changed_fraction_sum == pytest.approx(1.0)
        assert stats.word_ops["substitute"] == len(sent)

    def test_zero_rate_changes_nothing(self, provider):
        cfg = SynthConfig(mean_error_rate=-5.0, std_error_rate=0.001)
        sent = tokenize("bace bice boba")
        out = corrupt_sentence(sent, cfg, provider, random.Random(7))
        # word stage is off; only char noise may touch the words
        assert len(out) == 3

    def test_swap_on_singleton_is_noop_but_counted(self, provider, monkeypatch):
        monkeypatch.setattr(synth, "_draw_op", lambda rng: "swap")
        cfg = SynthConfig(mean_error_rate=5.0, std_error_rate=0.001, char_word_rate=0.0)
        sent = make_sentence("bace")
        stats = CorruptionStats()
        out = corrupt_sentence(sent, cfg, provider, random.Random(7), stats)
        assert out.forms == ["bace"]
        assert stats.word_ops["swap"] == 1

    def test_oov_substitution_is_noop_and_counted(self, provider, monkeypatch):
        monkeypatch.setattr(synth, "_draw_op", lambda rng: "substitute")
        cfg = SynthConfig(mean_error_rate=5.0, std_error_rate=0.001, char_word_rate=0.0)
        sent = make_sentence("qqqqqqqqqq")
        stats = CorruptionStats()
        out = corrupt_sentence(sent, cfg, provider, random.Random(7), stats)
        assert out.forms == ["qqqqqqqqqq"]
        assert stats.no_candidate_subs == 1

    def test_delete_everything(self, provider, monkeypatch):
        monkeypatch.setattr(synth, "_draw_op", lambda rng: "delete")
        cfg = SynthConfig(mean_error_rate=5.0, std_error_rate=0.001, char_word_rate=0.0)
        sent = make_sentence("bace", "bice")
        out = corrupt_sentence(sent, cfg, provider, random.Random(7))
        assert len(out) == 0

    def test_insert_grows_sentence(self, provider, monkeypatch):
        monkeypatch.setattr(synth, "_draw_op", lambda rng: "insert")
        cfg = SynthConfig(mean_error_rate=5.0, std_error_rate=0.001, char_word_rate=0.0)
        sent = make_sentence("bace", "bice")
        out = corrupt_sentence(sent, cfg, provider, random.Random(7))
        assert len(out) == 4

    def test_swap_exchanges_neighbours(self, provider, monkeypatch):
        monkeypatch.setattr(synth, "_draw_op", lambda rng: "swap")
        cfg = SynthConfig(mean_error_rate=5.0, std_error_rate=0.001, char_word_rate=0.0)
        sent = make_sentence("bace", "bice")
        out = corrupt_sentence(sent, cfg, provider, random.Random(7))
        # both positions drawn, each swap flips the pair, net identity
        assert sorted(out.forms) == ["bace", "bice"]

    def test_char_noise_only(self, provider):
        cfg = SynthConfig(mean_error_rate=-5.0, std_error_rate=0.001, char_word_rate=1.0)
        sent = make_sentence("bacemace", "bicemice")
        stats = CorruptionStats()
        corrupt_sentence(sent, cfg, provider, random.Random(3), stats)
        assert sum(stats.char_ops.values()) == 2


class _FixedDraw:
    """A stand-in rng whose random() returns one value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestDrawOp:
    @pytest.mark.parametrize(
        "value, op",
        [
            (0.0, "substitute"),
            (0.6999999999999999, "substitute"),
            (0.7, "delete"),
            # 0.7 + 0.1 as a float: a literal bound 0.8 would say delete
            (0.7999999999999999, "insert"),
            (0.8, "insert"),
            # 0.7 + 0.1 + 0.1: a literal bound 0.9 would say insert
            (0.8999999999999999, "swap"),
            (0.9, "swap"),
            (0.9999999999999999, "swap"),
        ],
    )
    def test_bounds(self, value, op):
        assert _draw_op(_FixedDraw(value)) == op


class TestGenerateCorpus:
    def make_lines(self):
        return [
            "Bace bice boba cuba ricema tibe lobă masă cevat toba .",
            "lipsă de majusculă la început deci respins imediat azi .",
            "Bobă cuba tibe ricema bace bice cevat mură dovă sobă .",
        ]

    def run(self, jobs):
        lex = Lexicon.from_words(
            ["bace", "bice", "boba", "cuba", "ricema", "tibe", "lobă",
             "masă", "cevat", "toba", "bobă", "mură", "dovă", "sobă"]
        )
        provider = ConfusionProvider(lex)
        out = io.StringIO()
        stats = generate_corpus(
            self.make_lines(), FilterConfig(), SynthConfig(seed=99), provider, out, jobs=jobs
        )
        return out.getvalue(), stats

    def test_filtering_and_format(self):
        text, stats = self.run(jobs=1)
        assert stats.total_lines == 3
        assert stats.accepted == 2
        assert stats.rejected_by_rule[1] == 1
        lines = text.splitlines()
        assert len(lines) == 2
        for line in lines:
            corrupted, original = line.split("\t")
            assert corrupted and original
        # the original column is the tokenized clean sentence
        assert lines[0].split("\t")[1] == "Bace bice boba cuba ricema tibe lobă masă cevat toba ."

    def test_parallel_is_byte_identical(self):
        serial, _ = self.run(jobs=1)
        parallel, _ = self.run(jobs=2)
        assert serial == parallel

    def test_stats_format_mentions_rules(self):
        _, stats = self.run(jobs=1)
        text = stats.format()
        assert "rejected by rule 1" in text
        assert "accepted: 2" in text
