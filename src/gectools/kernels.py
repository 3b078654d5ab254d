"""Character distance kernels: edit distance, LCS length and a distance scan."""

from __future__ import annotations


def dl_distance(a: str, b: str, cutoff: int = -1) -> int:
    """Restricted Damerau-Levenshtein distance between two strings.

    Unit costs for insertion, deletion, substitution and transposition of
    adjacent characters.  With cutoff >= 0 the scan may stop early; any
    return value greater than cutoff only means the true distance exceeds
    cutoff.
    """
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    if cutoff >= 0 and abs(n - m) > cutoff:
        return cutoff + 1

    prev2 = [0] * (m + 1)
    prev = list(range(m + 1))
    cur = [0] * (m + 1)
    for i in range(1, n + 1):
        ca = a[i - 1]
        cur[0] = i
        best = i
        for j in range(1, m + 1):
            cost = 0 if ca == b[j - 1] else 1
            val = prev[j - 1] + cost
            if prev[j] + 1 < val:
                val = prev[j] + 1
            if cur[j - 1] + 1 < val:
                val = cur[j - 1] + 1
            if i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == b[j - 1]:
                if prev2[j - 2] + 1 < val:
                    val = prev2[j - 2] + 1
            cur[j] = val
            if val < best:
                best = val
        if cutoff >= 0 and best > cutoff:
            return cutoff + 1
        prev2, prev, cur = prev, cur, prev2
    return prev[m]


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
    those with dl_distance(word, candidate) <= max_dist.
    """
    out = []
    for cand in candidates:
        d = dl_distance(word, cand, max_dist)
        if d <= max_dist:
            out.append((cand, d))
    return out
