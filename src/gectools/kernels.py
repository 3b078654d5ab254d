"""Character distance kernels: edit distance, LCS length and a distance scan."""

from __future__ import annotations

from typing import Iterable, Iterator


def _match_masks(word: str) -> dict[str, int]:
    """Per character of word, the bit vector of the positions holding it."""
    peq: dict[str, int] = {}
    for i, ch in enumerate(word):
        peq[ch] = peq.get(ch, 0) | 1 << i
    return peq


def _distances(word: str, candidates: Iterable[str]) -> Iterator[int]:
    """Restricted Damerau-Levenshtein distance from word to each candidate.

    The bit-vector algorithm of Hyyrö (2003, "A bit-vector algorithm for
    computing Levenshtein and Damerau edit distances"), which extends
    Myers (1999, JACM 46(3)) with adjacent transpositions.  One column of
    the DP matrix over word is held as two bit vectors of vertical +1 and
    -1 differences (vp, vn); each candidate character updates the whole
    column in a fixed number of int operations, and score follows the
    column's last cell.  Python ints grow, so word may be of any length.
    """
    m = len(word)
    if m == 0:
        yield from map(len, candidates)
        return
    get = _match_masks(word).get
    full = (1 << m) - 1
    top = 1 << (m - 1)
    for cand in candidates:
        vp, vn, d0, pm_prev, score = full, 0, 0, 0, m
        for ch in cand:
            pm = get(ch, 0)
            # Diagonal zero differences: matches, carried runs of them,
            # and transpositions of this and the previous character.
            d0 = ((((pm & vp) + vp) ^ vp) | pm | vn | (((~d0 & pm) << 1) & pm_prev)) & full
            hp = vn | ~(d0 | vp)
            hn = d0 & vp
            if hp & top:
                score += 1
            elif hn & top:
                score -= 1
            hp = ((hp << 1) | 1) & full
            hn = (hn << 1) & full
            vp = hn | ~(d0 | hp)
            vn = hp & d0
            pm_prev = pm
        yield score


def dl_distance(a: str, b: str) -> int:
    """Restricted Damerau-Levenshtein distance between two strings.

    Unit costs for insertion, deletion, substitution and transposition of
    adjacent characters.
    """
    return next(_distances(a, (b,)))


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence of two strings.

    The bit-vector algorithm of Allison and Dix (1986) as Hyyrö (2004)
    gives it: the zero bits of v mark where the LCS row over a steps up,
    and each character of b updates the whole row with one add.
    """
    get = _match_masks(a).get
    v = full = (1 << len(a)) - 1
    for ch in b:
        u = v & get(ch, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def scan_distances(word: str, candidates: list[str], max_dist: int) -> list[tuple[str, int]]:
    """Distances from word to every candidate within max_dist.

    Returns (candidate, distance) pairs in candidate order, keeping only
    those with dl_distance(word, candidate) <= max_dist.  The query's
    match masks are built once for the whole list.
    """
    return [(cand, d) for cand, d in zip(candidates, _distances(word, candidates)) if d <= max_dist]
