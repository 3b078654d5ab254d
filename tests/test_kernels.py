"""String-kernel tests against slow reference matrices."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gectools import kernels
from tests.oracles import ref_char_dl, ref_lcs

ALPHA = "abcăș"
words = st.text(alphabet=ALPHA, max_size=12)


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

    @given(a=words, b=words, cutoff=st.integers(min_value=0, max_value=6))
    @settings(max_examples=300, deadline=None)
    def test_cutoff_contract(self, a, b, cutoff):
        # With a cutoff the result is exact when <= cutoff, otherwise
        # any value strictly greater than the cutoff may come back.
        expect = ref_char_dl(a, b)
        got = kernels.dl_distance(a, b, cutoff)
        if expect <= cutoff:
            assert got == expect
        else:
            assert got > cutoff

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


class TestScanDistances:
    def test_filters_by_max_dist(self):
        cands = ["casă", "masa", "ceva", "altceva"]
        got = kernels.scan_distances("casa", cands, 2)
        assert got == [("casă", 1), ("masa", 1), ("ceva", 2)]

    @given(word=words, cands=st.lists(words, max_size=8), max_dist=st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise(self, word, cands, max_dist):
        expect = [
            (c, ref_char_dl(word, c)) for c in cands if ref_char_dl(word, c) <= max_dist
        ]
        assert kernels.scan_distances(word, cands, max_dist) == expect
