"""String-kernel tests against slow reference matrices."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from gectools import kernels
from tests.oracles import ref_char_dl, ref_lcs

ALPHA = "abcăș"
words = st.text(alphabet=ALPHA, max_size=12)
# Long enough to need bit vectors of more than 64 bits.
long_words = st.text(alphabet=ALPHA, max_size=100)
# Every string of length <= 4 over a 3-letter alphabet: 121 strings.
SMALL = ["".join(chars) for n in range(5) for chars in product("abc", repeat=n)]


class TestDlDistance:
    def test_known_values(self):
        assert kernels.dl_distance("", "") == 0
        assert kernels.dl_distance("abc", "") == 3
        assert kernels.dl_distance("", "abc") == 3
        assert kernels.dl_distance("abc", "abc") == 0
        assert kernels.dl_distance("ab", "ba") == 1
        assert kernels.dl_distance("casa", "ceva") == 2
        assert kernels.dl_distance("internată", "internate") == 1
        assert kernels.dl_distance("abcdef", "badcfe") == 3

    @given(a=words, b=words)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, a, b):
        expect = ref_char_dl(a, b)
        assert kernels.dl_distance(a, b) == expect

    def test_every_small_pair(self):
        for a in SMALL:
            for b in SMALL:
                assert kernels.dl_distance(a, b) == ref_char_dl(a, b), (a, b)

    @given(a=long_words, b=long_words)
    @settings(max_examples=100, deadline=None)
    def test_long_strings_match_reference(self, a, b):
        assert kernels.dl_distance(a, b) == ref_char_dl(a, b)

    @given(a=words, b=words)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b):
        assert kernels.dl_distance(a, b) == kernels.dl_distance(b, a)


class TestLcsLength:
    def test_known_values(self):
        assert kernels.lcs_length("", "") == 0
        assert kernels.lcs_length("abc", "") == 0
        assert kernels.lcs_length("abc", "abc") == 3
        assert kernels.lcs_length("vroiați", "voiați") == 6
        assert kernels.lcs_length("abcde", "ace") == 3

    @given(a=words, b=words)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, a, b):
        expect = ref_lcs(a, b)
        assert kernels.lcs_length(a, b) == expect

    def test_every_small_pair(self):
        for a in SMALL:
            for b in SMALL:
                assert kernels.lcs_length(a, b) == ref_lcs(a, b), (a, b)

    @given(a=long_words, b=long_words)
    @settings(max_examples=100, deadline=None)
    def test_long_strings_match_reference(self, a, b):
        # Words past 64 characters need bit vectors wider than a machine word.
        assert kernels.lcs_length(a, b) == ref_lcs(a, b)


class TestScanDistances:
    def test_filters_by_max_dist(self):
        cands = ["casă", "masa", "ceva", "altceva"]
        got = kernels.scan_distances("casa", cands, 2)
        assert got == [("casă", 1), ("masa", 1), ("ceva", 2)]

    def test_every_small_pair(self):
        for word in SMALL:
            expect = [(c, ref_char_dl(word, c)) for c in SMALL]
            assert kernels.scan_distances(word, SMALL, 10) == expect, word

    def test_empty_query_and_candidates(self):
        assert kernels.scan_distances("", ["", "a", "abc", "abcd"], 3) == [("", 0), ("a", 1), ("abc", 3)]
        assert kernels.scan_distances("casa", [], 2) == []
        assert kernels.scan_distances("", [], 2) == []

    @given(word=long_words, cands=st.lists(long_words, max_size=4), max_dist=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_long_strings_match_pairwise(self, word, cands, max_dist):
        expect = [(c, d) for c in cands if (d := ref_char_dl(word, c)) <= max_dist]
        assert kernels.scan_distances(word, cands, max_dist) == expect

    @given(word=words, cands=st.lists(words, max_size=8), max_dist=st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise(self, word, cands, max_dist):
        expect = [
            (c, ref_char_dl(word, c)) for c in cands if ref_char_dl(word, c) <= max_dist
        ]
        assert kernels.scan_distances(word, cands, max_dist) == expect
