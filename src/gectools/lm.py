"""Kneser-Ney n-gram language models.

Counting pads each sentence with order-1 <s> tokens and one </s>.
Estimation is interpolated Kneser-Ney with a single discount per order,
estimated from count-of-counts as n1/(n1 + 2*n2).  Lower-order counts
are continuation counts (the number of distinct left extensions) except
for grams starting with <s>, which keep their raw counts.  Models are
stored the standard ARPA way: per-gram log10 probability plus a log10
backoff weight on every gram that serves as a context.  In memory the
two numbers of a gram are one complex value, complex(log10 probability,
log10 backoff): the same two doubles in one small object the garbage
collector does not track.

<s> is never predicted.  Grams ending in <s> (the runs of <s> from the
padding, or grams ending in a literal <s> word of the text) therefore
carry no probability mass; those that serve as a context appear as
dummy entries with log10 probability -99 so they can hold their backoff
weight, mirroring the conventional treatment of the <s> unigram.  With
that convention, the probabilities of any observed context sum to one
over the vocabulary minus <s>.

Training estimates one order at a time, so beside the counts and the
model only that order's adjusted counts are held.  It walks them in
sorted order, where the grams of one context form one run, and finishes
each run before the next, so it keeps no per-context tables.  Reading
holds a bounded chunk of lines beside the model.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby, islice, repeat
from typing import IO, Iterable, Sequence

from gectools.errors import DegenerateCounts, EmptyInput, MalformedArpa, MalformedLine, NoFiniteScore
from gectools.text import ASCII_DIGITS, Sentence, Token

SOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

DUMMY_LOGPROB = -99.0
FALLBACK_DISCOUNT = 0.75


@dataclass(frozen=True)
class NgramCounts:
    """Raw n-gram counts for every order up to `order`.

    counts[n-1] maps each n-gram, written as its words joined by single
    spaces like the keys of ArpaModel.tables ("<s> fata merge"), to its
    count.  Words contain no space.
    """

    order: int
    counts: tuple[dict[str, int], ...]

    def raw(self, n: int) -> dict[str, int]:
        return self.counts[n - 1]


def count_ngrams(sentences: Iterable[Sentence], order: int) -> NgramCounts:
    """Count n-grams of all orders 1..order over a sentence stream."""
    if order < 1:
        raise ValueError("order must be at least 1")
    counts = tuple(Counter() for _ in range(order))
    pad = [SOS] * (order - 1)
    for sentence in sentences:
        words = pad + [t.form for t in sentence.tokens] + [EOS]
        grams = words
        counts[0].update(grams)
        # Each order's grams are the previous order's plus the next word.
        for n in range(2, order + 1):
            grams = [f"{gram} {word}" for gram, word in zip(grams, words[n - 1 :])]
            counts[n - 1].update(grams)
    return NgramCounts(order=order, counts=counts)


def _adjusted_counts(counts: NgramCounts, n: int) -> dict[str, int]:
    """Order n's Kneser-Ney adjusted counts, with grams ending in <s> removed.

    The highest order keeps raw counts.  Below it, a gram's count is the
    number of distinct words that precede it, except that grams starting
    with <s> (which can never be preceded) keep their raw counts.
    """
    # A gram's first or last word is <s> when it starts or ends with one
    # of these, or is <s> itself.
    sos_first, sos_last = SOS + " ", " " + SOS
    if n == counts.order:
        return {gram: c for gram, c in counts.raw(n).items() if not (gram.endswith(sos_last) or gram == SOS)}
    continuation: dict[str, int] = {}
    for gram in counts.raw(n + 1):
        suffix = gram[gram.find(" ") + 1 :]
        if not (suffix.startswith(sos_first) or suffix == SOS):
            continuation[suffix] = continuation.get(suffix, 0) + 1
    table = {}
    for gram, c in counts.raw(n).items():
        if gram.endswith(sos_last) or gram == SOS:
            continue
        if gram.startswith(sos_first):
            table[gram] = c
        else:
            cont = continuation.get(gram, 0)
            if cont > 0:
                table[gram] = cont
    return table


def _estimate_discount(adjusted: dict[str, int], n: int) -> float:
    n1 = sum(1 for c in adjusted.values() if c == 1)
    n2 = sum(1 for c in adjusted.values() if c == 2)
    if n1 == 0 or n2 == 0:
        warnings.warn(
            f"order {n}: count-of-counts too sparse to estimate a discount "
            f"(n1={n1}, n2={n2}); using {FALLBACK_DISCOUNT}",
            DegenerateCounts,
        )
        return FALLBACK_DISCOUNT
    return n1 / (n1 + 2 * n2)


@dataclass(frozen=True)
class ArpaModel:
    """A backoff n-gram model in memory.

    tables[n-1] maps each n-gram, written as its words joined by single
    spaces exactly as in an ARPA file ("<s> ea merge"), to complex(log10
    probability, log10 backoff weight): .real is the probability and
    .imag the backoff weight, which is 0.0 for grams that never serve as
    a context and for grams of the highest order.  Words contain no
    space.
    """

    order: int
    tables: tuple[dict[str, complex], ...]

    @property
    def vocab(self) -> frozenset[str]:
        return frozenset(self.tables[0])

    def word_logprob(self, word: str, context: tuple[str, ...]) -> float:
        """log10 P(word | context), backing off as needed.

        The context must already be truncated to at most order-1 words;
        out-of-vocabulary words must already be mapped to <unk>.
        """
        acc = 0.0
        n = len(context)
        ctx = " ".join(context)
        while True:
            entry = self.tables[n].get(f"{ctx} {word}" if n else word)
            if entry is not None:
                return acc + entry.real
            if not n:
                unk = self.tables[0].get(UNK)
                return acc + (unk.real if unk is not None else DUMMY_LOGPROB)
            ctx_entry = self.tables[n - 1].get(ctx)
            if ctx_entry is not None:
                acc += ctx_entry.imag
            ctx = ctx.partition(" ")[2]
            n -= 1


def train_kneser_ney(
    counts: NgramCounts, discounts: float | Sequence[float] | None = None
) -> ArpaModel:
    """Estimate an interpolated Kneser-Ney model from counts.

    discounts may be a single value for all orders or one per order;
    each must lie strictly between 0 and 1.  When omitted, each order's
    discount is estimated from its count-of-counts, falling back to 0.75
    (with a DegenerateCounts warning) when the statistics are too sparse.
    """
    order = counts.order
    unigrams = _adjusted_counts(counts, 1)
    if not unigrams:
        raise EmptyInput("cannot train a model from an empty corpus")

    ds: list[float | None] = [None] * order
    if discounts is not None:
        if isinstance(discounts, (int, float)):
            ds = [float(discounts)] * order
        else:
            ds = [float(d) for d in discounts]
            if len(ds) != order:
                raise ValueError(f"expected {order} discounts, got {len(ds)}")
        for d in ds:
            if not 0.0 < d < 1.0:
                raise ValueError(f"discount must lie strictly between 0 and 1, got {d}")

    tables: list[dict[str, complex]] = [dict() for _ in range(order)]
    # Dummy entries for the all-<s> grams, which the padding of any
    # sentence holds, so they can carry backoff weights; and the <s>
    # unigram itself even in a unigram model.
    for n in range(1, max(order, 2)):
        tables[n - 1][" ".join([SOS] * n)] = complex(DUMMY_LOGPROB, 0.0)

    # Unigrams: leftover mass goes to <unk>.
    d1 = _estimate_discount(unigrams, 1) if ds[0] is None else ds[0]
    total = sum(unigrams.values())
    probs: dict[str, float] = {gram: (c - d1) / total for gram, c in unigrams.items()}
    probs[UNK] = probs.get(UNK, 0.0) + d1 * len(unigrams) / total
    tables[0].update((gram, complex(math.log10(p), 0.0)) for gram, p in probs.items())
    del unigrams, probs

    # One order at a time: its adjusted counts are gone before the next
    # order's are built.
    for n in range(2, order + 1):
        _estimate_order(_adjusted_counts(counts, n), n, ds[n - 1], tables[n - 2], tables[n - 1])

    return ArpaModel(order=order, tables=tuple(tables))


def _estimate_order(
    adjusted: dict[str, int],
    n: int,
    dn: float | None,
    lower: dict[str, complex],
    table: dict[str, complex],
) -> None:
    """Fill table with order n's entries and put its backoff weights on
    their contexts in lower, the finished table of order n - 1.

    The grams of one context all start with "context ", so in sorted
    order they form one run: each run is summed, weighted and written
    before the next is read.
    """
    if dn is None:
        dn = _estimate_discount(adjusted, n)
    for ctx, run in groupby(sorted(adjusted), key=lambda gram: gram[: gram.rfind(" ")]):
        run = list(run)
        total = sum(map(adjusted.__getitem__, run))
        gamma = dn * len(run) / total
        for gram in run:
            # Suffix closure: the next-lower-order gram, the gram without
            # its first word, is always present.
            p_low = 10.0 ** lower[gram[gram.find(" ") + 1 :]].real
            p = max(adjusted[gram] - dn, 0.0) / total + gamma * p_low
            table[gram] = complex(math.log10(p), 0.0)
        # A context ending in a literal <s> word of the text has no entry
        # of its own: it gets a dummy one to carry its backoff weight.
        entry = lower.get(ctx)
        lower[ctx] = complex(DUMMY_LOGPROB if entry is None else entry.real, math.log10(gamma))


# Characters that sort before the space separating a gram's words.
_BELOW_SPACE = re.compile("[\x00-\x1f]")


def write_arpa(model: ArpaModel, out: IO[str]) -> None:
    """Write the model in the textual ARPA format.

    Fields are tab-separated: log10 probability, the space-joined gram,
    and (below the highest order) the log10 backoff weight.  Entries are
    sorted word by word so output is reproducible.
    """
    out.write("\\data\\\n")
    for n in range(1, model.order + 1):
        out.write(f"ngram {n}={len(model.tables[n - 1])}\n")
    for n in range(1, model.order + 1):
        table = model.tables[n - 1]
        out.write(f"\n\\{n}-grams:\n")
        # Gram strings sort as their word tuples unless some word holds a
        # character that sorts before the separating space.
        key = (lambda g: g.split(" ")) if any(map(_BELOW_SPACE.search, table)) else None
        for gram in sorted(table, key=key):
            entry = table[gram]
            if n < model.order:
                out.write(f"{entry.real:.10f}\t{gram}\t{entry.imag:.10f}\n")
            else:
                out.write(f"{entry.real:.10f}\t{gram}\n")
    out.write("\n\\end\\\n")


# A decimal number in ASCII digits, as ARPA and n-best fields hold it
# around optional whitespace.
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _decimal(field: str) -> float | None:
    """field as a float if, stripped, it is a finite decimal in ASCII
    digits, else None."""
    # float() itself does not strip "\x1c" to "\x1f", which str.strip does.
    field = field.strip()
    if not _DECIMAL.fullmatch(field):
        return None
    value = float(field)
    return value if math.isfinite(value) else None


def _integer(field: str) -> int:
    """field as an int if it is ASCII digits, else ValueError.  int()
    alone also takes "0_2", " 2", "+2" and non-ASCII digits."""
    if not ASCII_DIGITS.fullmatch(field):
        raise ValueError(f"not ASCII digits: {field!r}")
    return int(field)


# Lines of a section parsed as one block: this bounds the working lists
# read_arpa holds beside the model.
_ARPA_CHUNK = 1024


def _parse_block(block: list[str], n: int, table: dict[str, complex]) -> bool:
    """Add the entries of a non-empty block of order-n entry lines to
    table and return True, or return False and leave table as it was.

    Each step works on the whole block.  False means some line is not an
    entry, may be malformed, or has a field count other lines do not
    share; the caller then parses the block line by line, which reports
    the first bad line or accepts a block mixing 2- and 3-field lines.
    """
    rows = list(map(str.rstrip, block, repeat("\n")))
    tabs = set(map(str.count, rows, repeat("\t")))
    if tabs != {1} and tabs != {2}:
        return False
    width = tabs.pop() + 1
    fields = "\t".join(rows).split("\t")
    grams = fields[1::width]
    if set(map(str.count, grams, repeat(" "))) != {n - 1}:
        return False
    # With n - 1 spaces in each gram, an empty word shows as a doubled
    # space or a space at either end of the joined grams.
    joined = " ".join(grams)
    if not joined or joined[0] == " " or joined[-1] == " " or "  " in joined:
        return False
    # float() also takes "1_0", non-ASCII digits, "nan", "inf" and
    # "1e999" (as inf).  Number fields that are ASCII and hold no "_" are
    # decimals, NaN or infinities, or fail float(); a finite sum leaves
    # none of the latter two.  A doubtful block goes to the line path,
    # which decides.
    logp_fields = fields[0::width]
    logbo_fields = fields[2::width] if width == 3 else []
    numbers = "".join(logp_fields) + "".join(logbo_fields)
    if not numbers.isascii() or "_" in numbers:
        return False
    try:
        logps = list(map(float, logp_fields))
        logbos = list(map(float, logbo_fields))
    except ValueError:
        return False
    if not math.isfinite(sum(logps) + sum(logbos)):
        return False
    table.update(zip(grams, map(complex, logps, logbos if width == 3 else repeat(0.0))))
    return True


def read_arpa(lines: Iterable[str]) -> ArpaModel:
    """Parse a textual ARPA model.

    Every number of an entry is a finite decimal in ASCII digits (see
    _decimal); section numbers and counts are ASCII digits alone.  The lines after a section header, as many as the header
    declared, are parsed in blocks of at most _ARPA_CHUNK lines (see
    _parse_block); from the first block that does not parse whole on,
    the file is read line by line instead, so errors and their line
    numbers are those of a plain line-by-line reader.
    """
    declared: list[int] = []
    tables: list[dict[str, complex]] = []
    section = 0  # 0: preamble, 1: \data\, 2: n-gram sections
    current = -1
    saw_end = False
    line_no = 0
    rows = iter(lines)

    while (raw_line := next(rows, None)) is not None:
        line_no += 1
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
                current = _integer(line[1:-7])
            except ValueError:
                raise MalformedArpa(line_no, f"bad section header: {line!r}") from None
            if not declared:
                raise MalformedArpa(line_no, "n-gram section before \\data\\ header")
            if not 1 <= current <= len(declared):
                raise MalformedArpa(line_no, f"unexpected section order {current}")
            section = 2
            left = declared[current - 1]
            while left > 0 and (block := list(islice(rows, min(left, _ARPA_CHUNK)))):
                if not _parse_block(block, current, tables[current - 1]):
                    rows = chain(block, rows)
                    break
                line_no += len(block)
                left -= len(block)
            continue
        if section == 1:
            if not line.startswith("ngram "):
                raise MalformedArpa(line_no, f"expected 'ngram N=count', got {line!r}")
            body = line[len("ngram "):]
            n_str, _, count_str = body.partition("=")
            try:
                n, count = _integer(n_str), _integer(count_str)
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
            logp = _decimal(fields[0])
            logbo = _decimal(fields[2]) if len(fields) == 3 else 0.0
            if logp is None or logbo is None:
                raise MalformedArpa(line_no, f"bad numeric field in {line!r}")
            words = fields[1].split(" ")
            if len(words) != current or any(not w for w in words):
                raise MalformedArpa(line_no, f"gram does not match section order: {fields[1]!r}")
            tables[current - 1][fields[1]] = complex(logp, logbo)
            continue
        raise MalformedArpa(line_no, f"unexpected line: {line!r}")

    if not saw_end:
        raise MalformedArpa(line_no, "missing \\end\\ marker")
    if not declared:
        raise MalformedArpa(line_no, "missing \\data\\ header")
    for n, count in enumerate(declared, start=1):
        if len(tables[n - 1]) != count:
            raise MalformedArpa(
                line_no,
                f"section {n} has {len(tables[n - 1])} entries, header declared {count}",
            )
    return ArpaModel(order=len(declared), tables=tuple(tables))


def _mapped_forms(model: ArpaModel, sentence: Sentence) -> list[str]:
    vocab = model.tables[0]
    return [t.form if t.form in vocab else UNK for t in sentence.tokens]


def logprob(model: ArpaModel, sentence: Sentence) -> float:
    """log10 probability of the sentence, </s> included."""
    words = _mapped_forms(model, sentence) + [EOS]
    history = [SOS] * (model.order - 1)
    total = 0.0
    for word in words:
        context = tuple(history[len(history) - (model.order - 1):]) if model.order > 1 else ()
        total += model.word_logprob(word, context)
        history.append(word)
    return total


def normalized_logprob(model: ArpaModel, sentence: Sentence) -> float:
    """Sentence log10 probability per predicted token (</s> counts)."""
    return logprob(model, sentence) / (len(sentence) + 1)


def perplexity(model: ArpaModel, sentences: Iterable[Sentence]) -> float:
    """Corpus perplexity, </s> included in the token count."""
    total = 0.0
    tokens = 0
    for sentence in sentences:
        total += logprob(model, sentence)
        tokens += len(sentence) + 1
    if tokens == 0:
        raise EmptyInput("cannot compute perplexity of an empty corpus")
    return 10.0 ** (-total / tokens)


@dataclass(frozen=True)
class Hypothesis:
    """One candidate correction with the decoder's score."""

    sentence: Sentence
    model_score: float


@dataclass(frozen=True)
class RerankConfig:
    lm_weight: float = 1.0
    length_normalize: bool = False


def rerank(hypotheses: Sequence[Hypothesis], model: ArpaModel, cfg: RerankConfig = RerankConfig()) -> Hypothesis:
    """Pick the best hypothesis by decoder score plus weighted LM score.

    The LM contributes its normalized log probability.  Ties keep the
    earliest hypothesis.  A combined score that is not finite (NaN, or a
    sum that overflows) never wins; NoFiniteScore is raised when no
    hypothesis has a finite one.
    """
    if not hypotheses:
        raise EmptyInput("cannot rerank an empty hypothesis list")
    best = None
    best_score = -math.inf
    for hyp in hypotheses:
        base = hyp.model_score
        if cfg.length_normalize:
            base = base / max(len(hyp.sentence), 1)
        combined = base + cfg.lm_weight * normalized_logprob(model, hyp.sentence)
        if math.isfinite(combined) and (best is None or combined > best_score):
            best, best_score = hyp, combined
    if best is None:
        raise NoFiniteScore(
            f"none of {len(hypotheses)} hypotheses has a finite combined score "
            f"(decoder score + {cfg.lm_weight:g} x LM score)"
        )
    return best


def read_nbest(lines: Iterable[str]) -> list[list[Hypothesis]]:
    """Parse n-best lists: "tokens<TAB>score" lines, blank-line separated.

    Sentences are split on whitespace (decoder output is assumed to be
    tokenized already).  A score is a finite decimal number in ASCII
    digits, with optional sign, point and exponent.
    """
    groups: list[list[Hypothesis]] = []
    current: list[Hypothesis] = []
    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.rstrip("\n")
        if not line.strip():
            if current:
                groups.append(current)
                current = []
            continue
        text, sep, score_str = line.rpartition("\t")
        if not sep:
            raise MalformedLine(line_no, "expected 'sentence<TAB>score'")
        score = _decimal(score_str)
        if score is None:
            raise MalformedLine(line_no, f"bad score: {score_str!r}")
        tokens = tuple(Token(f) for f in text.split())
        current.append(Hypothesis(sentence=Sentence(tokens), model_score=score))
    if current:
        groups.append(current)
    return groups
