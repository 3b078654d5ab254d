"""Character distance kernels: edit distance, LCS length and a distance scan."""

from __future__ import annotations

from typing import Iterable, Iterator


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
    peq: dict[str, int] = {}
    for i, ch in enumerate(word):
        peq[ch] = peq.get(ch, 0) | 1 << i
    get = peq.get
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
    """Length of the longest common subsequence of two strings."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return 0
    prev = [0] * (m + 1)
    cur = [0] * (m + 1)
    for i in range(1, n + 1):
        ca = a[i - 1]
        for j in range(1, m + 1):
            if ca == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = prev[j] if prev[j] >= cur[j - 1] else cur[j - 1]
        prev, cur = cur, prev
    return prev[m]


def scan_distances(word: str, candidates: list[str], max_dist: int) -> list[tuple[str, int]]:
    """Distances from word to every candidate within max_dist.

    Returns (candidate, distance) pairs in candidate order, keeping only
    those with dl_distance(word, candidate) <= max_dist.  The query's
    match masks are built once for the whole list.
    """
    return [(cand, d) for cand, d in zip(candidates, _distances(word, candidates)) if d <= max_dist]
