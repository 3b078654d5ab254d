"""Independent reference implementations used only by the test suite.

Everything here is deliberately written with different algorithms and
data structures than the package (full DP matrices instead of rolling
rows, plain recursion instead of backtraced tables, sets instead of
keyed counters) so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Iterable

from gectools.errors import MalformedArpa
from gectools.lm import ArpaModel


# --- character-level distances (full-matrix reference) ---------------------


def ref_char_dl(a: str, b: str) -> int:
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[n][m]


def ref_lcs(a: str, b: str) -> int:
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                d[i][j] = d[i - 1][j - 1] + 1
            else:
                d[i][j] = max(d[i - 1][j], d[i][j - 1])
    return d[n][m]


# --- confusion sets (linear scan over the whole lexicon) --------------------


def ref_confusion_ranking(lexicon, word: str, max_distance: int):
    """(distance, -frequency, candidate) for every lexicon word within
    max_distance of the lowercased word, sorted.

    A plain scan of every non-empty lexicon word other than the query,
    with the full-matrix distance above; words whose length differs by
    more than max_distance are skipped, since that difference is a lower
    bound on the distance.  Ranking at a larger max_distance and then
    dropping the farther words gives the ranking at a smaller one.
    """
    query = word.lower()
    ranked = []
    for cand in lexicon.words:
        if not cand or cand == query or abs(len(cand) - len(query)) > max_distance:
            continue
        dist = ref_char_dl(query, cand)
        if dist <= max_distance:
            ranked.append((dist, -lexicon.freq(cand), cand))
    ranked.sort()
    return ranked


def ref_confusion_set(lexicon, word: str, k: int, max_distance: int) -> list[str]:
    """Up to k candidates of word in the order ConfusionProvider ranks them."""
    return [cand for _, _, cand in ref_confusion_ranking(lexicon, word, max_distance)[:k]]


# --- token alignment cost (plain recursion) --------------------------------


class RefParams:
    """Pinned default cost constants, kept separate from the package."""

    w_lemma = 0.499
    w_pos = 0.25
    w_char = 0.25
    insert_cost = 1.0
    delete_cost = 1.0
    transpose_cost = 1.0


REF_PARAMS = RefParams()


def ref_sub_cost(a, b, params=REF_PARAMS) -> float:
    """a, b: objects with .form/.lemma/.upos; params: CostParams-like."""
    if a.form == b.form:
        return 0.0
    if a.lemma is None or b.lemma is None:
        lemma = 0.5
    else:
        lemma = 1.0 if a.lemma != b.lemma else 0.0
    if a.upos is None or b.upos is None:
        pos = 0.5
    else:
        pos = 1.0 if a.upos != b.upos else 0.0
    char = ref_char_dl(a.form, b.form) / max(len(a.form), len(b.form))
    return params.w_lemma * lemma + params.w_pos * pos + params.w_char * char


def path_cost(ops, orig, corr, params=REF_PARAMS) -> float:
    """Total cost of an alignment path, priced with the reference costs.

    ops: objects with .kind/.o_index/.c_index as produced by the package
    aligner; only duck typing is used so this stays independent.
    """
    o, c = list(orig), list(corr)
    total = 0.0
    for op in ops:
        if op.kind == "match":
            assert o[op.o_index].form == c[op.c_index].form
        elif op.kind == "substitute":
            total += ref_sub_cost(o[op.o_index], c[op.c_index], params)
        elif op.kind == "transpose":
            assert o[op.o_index].form == c[op.c_index + 1].form
            assert o[op.o_index + 1].form == c[op.c_index].form
            total += params.transpose_cost
        elif op.kind == "delete":
            total += params.delete_cost
        elif op.kind == "insert":
            total += params.insert_cost
        else:
            raise AssertionError(f"unknown op kind {op.kind!r}")
    return total


def ref_align_cost(orig, corr, params=REF_PARAMS) -> float:
    """Minimum alignment cost by exhaustive recursion (no memoization)."""
    o, c = list(orig), list(corr)

    def rec(i: int, j: int) -> float:
        if i == len(o) and j == len(c):
            return 0.0
        best = math.inf
        if i < len(o) and j < len(c):
            step = 0.0 if o[i].form == c[j].form else ref_sub_cost(o[i], c[j], params)
            best = min(best, step + rec(i + 1, j + 1))
        if (
            i + 1 < len(o)
            and j + 1 < len(c)
            and o[i].form == c[j + 1].form
            and o[i + 1].form == c[j].form
        ):
            best = min(best, params.transpose_cost + rec(i + 2, j + 2))
        if i < len(o):
            best = min(best, params.delete_cost + rec(i + 1, j))
        if j < len(c):
            best = min(best, params.insert_cost + rec(i, j + 1))
        return best

    return rec(0, 0)


def ref_align_path(orig, corr, params=REF_PARAMS) -> list[tuple[str, int, int]]:
    """Minimum-cost alignment path as (kind, o_index, c_index) triples.

    The full table with no shortcuts: every non-matching cell priced
    with the reference substitution cost, ties broken match > substitute
    > transpose > delete > insert.  The package aligner trims the common
    suffix and skips substitutions that cannot win, and must still give
    this path op for op.
    """
    n, m = len(orig), len(corr)
    o_toks, c_toks = list(orig), list(corr)

    dist = [[0.0] * (m + 1) for _ in range(n + 1)]
    op = [[""] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i * params.delete_cost
        op[i][0] = "delete"
    for j in range(1, m + 1):
        dist[0][j] = j * params.insert_cost
        op[0][j] = "insert"

    for i in range(1, n + 1):
        a = o_toks[i - 1]
        for j in range(1, m + 1):
            b = c_toks[j - 1]
            if a.form == b.form:
                best_cost = dist[i - 1][j - 1]
                best_kind = "match"
            else:
                best_cost = dist[i - 1][j - 1] + ref_sub_cost(a, b, params)
                best_kind = "substitute"
            if (
                i > 1
                and j > 1
                and a.form == c_toks[j - 2].form
                and o_toks[i - 2].form == b.form
            ):
                cand = dist[i - 2][j - 2] + params.transpose_cost
                if cand < best_cost:
                    best_cost, best_kind = cand, "transpose"
            cand = dist[i - 1][j] + params.delete_cost
            if cand < best_cost:
                best_cost, best_kind = cand, "delete"
            cand = dist[i][j - 1] + params.insert_cost
            if cand < best_cost:
                best_cost, best_kind = cand, "insert"
            dist[i][j] = best_cost
            op[i][j] = best_kind

    path = []
    i, j = n, m
    while i > 0 or j > 0:
        kind = op[i][j]
        if kind in ("match", "substitute"):
            i -= 1
            j -= 1
        elif kind == "transpose":
            i -= 2
            j -= 2
        elif kind == "delete":
            i -= 1
        else:
            j -= 1
        path.append((kind, i, j))
    path.reverse()
    return path


# --- Kneser-Ney (direct interpolation over adjusted counts) ----------------

SOS, EOS, UNK = "<s>", "</s>", "<unk>"


class RefKneserNey:
    """Evaluates interpolated Kneser-Ney probabilities straight from the
    recursive definition, without building probability tables."""

    def __init__(self, token_lists, order, discounts=None):
        self.order = order
        raw = [defaultdict(int) for _ in range(order)]
        for tokens in token_lists:
            padded = [SOS] * (order - 1) + list(tokens) + [EOS]
            for n in range(1, order + 1):
                for i in range(len(padded) - n + 1):
                    raw[n - 1][tuple(padded[i : i + n])] += 1
        self.adj = [dict() for _ in range(order)]
        self.adj[order - 1] = {
            g: c for g, c in raw[order - 1].items() if g[-1] != SOS
        }
        for n in range(order - 1, 0, -1):
            predecessors = defaultdict(set)
            for gram in raw[n]:
                predecessors[gram[1:]].add(gram[0])
            table = {}
            for gram, c in raw[n - 1].items():
                if gram[-1] == SOS:
                    continue
                if gram[0] == SOS:
                    table[gram] = c
                else:
                    count = len(predecessors.get(gram, ()))
                    if count:
                        table[gram] = count
            self.adj[n - 1] = table

        self.discount = []
        for n in range(1, order + 1):
            if discounts is not None:
                d = discounts[n - 1] if isinstance(discounts, (list, tuple)) else discounts
            else:
                values = list(self.adj[n - 1].values())
                n1, n2 = values.count(1), values.count(2)
                d = 0.75 if n1 == 0 or n2 == 0 else n1 / (n1 + 2 * n2)
            self.discount.append(d)

        self.den = [defaultdict(int) for _ in range(order)]
        self.distinct = [defaultdict(int) for _ in range(order)]
        for n in range(2, order + 1):
            for gram, c in self.adj[n - 1].items():
                self.den[n - 1][gram[:-1]] += c
                self.distinct[n - 1][gram[:-1]] += 1
        self.total_unigrams = sum(self.adj[0].values())
        self.gamma_empty = self.discount[0] * len(self.adj[0]) / self.total_unigrams
        self.vocab = {g[0] for g in self.adj[0]} | {UNK}

    def prob(self, word, context) -> float:
        context = tuple(context)
        if not context:
            base = max(self.adj[0].get((word,), 0) - self.discount[0], 0.0) / self.total_unigrams
            if word == UNK:
                base += self.gamma_empty
            return base
        n = len(context) + 1
        den = self.den[n - 1].get(context, 0)
        if den == 0:
            return self.prob(word, context[1:])
        d = self.discount[n - 1]
        count = self.adj[n - 1].get(context + (word,), 0)
        gamma = d * self.distinct[n - 1][context] / den
        return max(count - d, 0.0) / den + gamma * self.prob(word, context[1:])

    def sentence_logprob(self, tokens) -> float:
        mapped = [w if (w,) in self.adj[0] else UNK for w in tokens]
        history = [SOS] * (self.order - 1)
        total = 0.0
        for word in mapped + [EOS]:
            context = tuple(history[len(history) - (self.order - 1):]) if self.order > 1 else ()
            total += math.log10(self.prob(word, context))
            history.append(word)
        return total


# --- ARPA reading (line by line, tuple keys) ------------------------------


def ref_decimal(field: str) -> float | None:
    """The value of field if, stripped, it is a finite decimal in ASCII
    digits (optional sign, point and exponent), else None; checked
    character by character instead of by a pattern."""
    text = field.strip()
    mantissa, e, exponent = text.replace("E", "e", 1).partition("e")
    if e and not _ref_digits(exponent[1:] if exponent[:1] in ("+", "-") else exponent):
        return None
    mantissa = mantissa[1:] if mantissa[:1] in ("+", "-") else mantissa
    if mantissa.count(".") > 1 or not _ref_digits(mantissa.replace(".", "")):
        return None
    value = float(text)
    return value if math.isfinite(value) else None


def _ref_digits(text: str) -> bool:
    return bool(text) and all(ch in "0123456789" for ch in text)


def ref_arpa_int(text: str) -> int:
    """An ARPA section number or count: ASCII digits only."""
    if not _ref_digits(text):
        raise ValueError(text)
    return int(text)


def ref_read_arpa(lines: Iterable[str]) -> ArpaModel:
    """Parse a textual ARPA model line by line, keyed by word tuples.

    The package reader parses whole blocks of entry lines at once and
    keys grams by their space-joined words; it must give the same tables,
    in the same order, or fail with the same message on the same line.
    """
    declared: list[int] = []
    tables: list[dict[tuple[str, ...], complex]] = []
    section = 0  # 0: preamble, 1: \data\, 2: n-gram sections
    current = -1
    saw_end = False
    last_line_no = 0

    for line_no, raw_line in enumerate(lines, start=1):
        last_line_no = line_no
        line = raw_line.rstrip("\n")
        if not line.strip():
            continue
        if line == "\\data\\":
            section = 1
            continue
        if line == "\\end\\":
            saw_end = True
            break
        if line.startswith("\\") and line.endswith("-grams:"):
            try:
                current = ref_arpa_int(line[1:-7])
            except ValueError:
                raise MalformedArpa(line_no, f"bad section header: {line!r}") from None
            if not declared:
                raise MalformedArpa(line_no, "n-gram section before \\data\\ header")
            if not 1 <= current <= len(declared):
                raise MalformedArpa(line_no, f"unexpected section order {current}")
            section = 2
            continue
        if section == 1:
            if not line.startswith("ngram "):
                raise MalformedArpa(line_no, f"expected 'ngram N=count', got {line!r}")
            body = line[len("ngram "):]
            n_str, _, count_str = body.partition("=")
            try:
                n, count = ref_arpa_int(n_str), ref_arpa_int(count_str)
            except ValueError:
                raise MalformedArpa(line_no, f"bad count line: {line!r}") from None
            if n != len(declared) + 1:
                raise MalformedArpa(line_no, f"out-of-order count line: {line!r}")
            declared.append(count)
            tables.append({})
            continue
        if section == 2 and current > 0:
            fields = line.split("\t")
            if len(fields) not in (2, 3):
                raise MalformedArpa(line_no, f"expected 2 or 3 tab-separated fields, got {len(fields)}")
            logp = ref_decimal(fields[0])
            logbo = ref_decimal(fields[2]) if len(fields) == 3 else 0.0
            if logp is None or logbo is None:
                raise MalformedArpa(line_no, f"bad numeric field in {line!r}")
            gram = tuple(fields[1].split(" "))
            if len(gram) != current or any(not w for w in gram):
                raise MalformedArpa(line_no, f"gram does not match section order: {fields[1]!r}")
            tables[current - 1][gram] = complex(logp, logbo)
            continue
        raise MalformedArpa(line_no, f"unexpected line: {line!r}")

    if not saw_end:
        raise MalformedArpa(last_line_no, "missing \\end\\ marker")
    if not declared:
        raise MalformedArpa(last_line_no, "missing \\data\\ header")
    for n, count in enumerate(declared, start=1):
        if len(tables[n - 1]) != count:
            raise MalformedArpa(
                last_line_no,
                f"section {n} has {len(tables[n - 1])} entries, header declared {count}",
            )
    return ArpaModel(order=len(declared), tables=tuple(tables))


# --- corpus filter (independent straight-line version) ---------------------

REF_DIACRITICS = set("ăâîșțşţ") | set("ăâîșțşţ".upper())
REF_QUOTES = set('"\'«»„“”‘’‚‹›')
REF_ABBREVIATIONS = {"etc", "nr", "dl", "dna", "dr", "str", "art", "ex", "pag", "tel", "vol", "sec"}


def ref_filter(text: str, min_words: int = 9) -> int | None:
    import unicodedata

    def punct(ch):
        return unicodedata.category(ch).startswith("P")

    alphas = [ch for ch in text if ch.isalpha()]
    if not alphas or not alphas[0].isupper():
        return 1
    if set(text) & REF_QUOTES:
        return 2
    low = text.lower()
    if "www." in low or "http" in low:
        return 2
    if text.count("(") != text.count(")") or text.count("[") != text.count("]"):
        return 3
    puncts = [ch for ch in text if punct(ch)]
    if not puncts or puncts[-1] not in ".!?":
        return 4
    if puncts[-1] == ".":
        final = text.split()[-1]
        stripped = final
        while stripped and punct(stripped[0]):
            stripped = stripped[1:]
        while stripped and punct(stripped[-1]):
            stripped = stripped[:-1]
        if stripped.lower() in REF_ABBREVIATIONS:
            return 4
    dia = sum(ch in REF_DIACRITICS for ch in text)
    non_dia = len(text) - dia
    ratio = dia / non_dia if non_dia else 0.0
    if ratio <= 0.01:
        return 5
    foreign = sum(1 for ch in text if ord(ch) > 127 and ch not in REF_DIACRITICS)
    native = len(text) - foreign
    if native == 0 or foreign / native > 0.025:
        return 6
    if len(text.split()) < min_words:
        return 7
    return None


# --- Monte-Carlo expectation of the clamped error rate ---------------------


def mc_clamped_normal_mean(mu: float, sigma: float, draws: int, seed: int) -> float:
    rng = random.Random(seed)
    acc = 0.0
    for _ in range(draws):
        x = rng.gauss(mu, sigma)
        acc += 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)
    return acc / draws


def mc_changed_fraction(mu: float, sigma: float, lengths, draws: int, seed: int) -> float:
    """Expected changed-word fraction: a clamped normal rate is scaled
    by the sentence length, rounded half away from zero, and divided by
    the length again.  lengths: the sentence-length population."""
    rng = random.Random(seed)
    lengths = list(lengths)
    acc = 0.0
    for _ in range(draws):
        n = lengths[rng.randrange(len(lengths))]
        x = rng.gauss(mu, sigma)
        p = 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)
        acc += int(p * n + 0.5) / n
    return acc / draws


# --- F-beta reference -------------------------------------------------------


def ref_f_beta(p: float, r: float, beta: float) -> float:
    if p == 0.0 and r == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * p * r / (b2 * p + r) if (b2 * p + r) > 0 else 0.0
