"""Kneser-Ney n-gram language models.

Counting pads each sentence with order-1 <s> tokens and one </s>.
Estimation is interpolated Kneser-Ney with a single discount per order,
estimated from count-of-counts as n1/(n1 + 2*n2), or one fixed discount
for all orders.  Lower-order counts are continuation counts (the number
of distinct left extensions) except for grams starting with <s>, which
keep their raw counts.  Models are stored the standard ARPA way:
per-gram log10 probability plus a log10 backoff weight on every gram
that serves as a context.  In memory the two numbers of a gram are one
complex value, complex(log10 probability, log10 backoff): the same two
doubles in one small object the garbage collector does not track.

<s> is never predicted.  Grams ending in <s> (the runs of <s> from the
padding, or grams ending in a literal <s> word of the text) therefore
carry no probability mass; those that serve as a context appear as
dummy entries with log10 probability -99 so they can hold their backoff
weight, mirroring the conventional treatment of the <s> unigram.  With
that convention, the probabilities of any observed context sum to one
over the vocabulary minus <s>.

Counts and model tables key each gram by the UTF-8 bytes of its words
joined by single spaces (b"<s> fata merge").  Gram keys are the largest
part of an n-gram model's memory, and Romanian's ă, ș and ț lie above
U+00FF, so as a str a gram holding one takes 2 bytes a character plus a
72-byte header; its bytes take 1 for an ASCII letter and 2 for each of
those, plus 33.  A bytes object is never larger than the str it encodes.
Encoding uses errors="surrogatepass", so every str maps to exactly one
key and back.  UTF-8 bytes sort in code point order, so sorted keys are
sorted text.  The query API stays str: ArpaModel.vocab and word_logprob
take and give str words, read_arpa reads a text stream and write_arpa
writes one.

train_kneser_ney writes the model into the count dicts themselves,
which become the model's tables: each order's entries overwrite its raw
counts once that order's adjusted counts exist, so training consumes
its counts.  Beside those tables training holds only one order's
adjusted counts and sorted gram list.  No gram is held twice: the
continuation counts are keyed by the order's own raw-count keys, and
the highest order is read in place from its raw counts.
count_ngrams inserts each order's grams in sorted order and the model
keeps it, so the sorts of training and write_arpa get sorted input.
Training walks the sorted grams, where the grams of one context form
one run, and finishes each run before the next, so it keeps no
per-context tables.  Reading holds a bounded chunk of characters
beside the model, writing a bounded chunk of lines, and read_nbest
yields an n-best file one group at a time.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import groupby, islice, repeat
from typing import IO, Iterable, Iterator, Sequence

from gectools.errors import DegenerateCounts, EmptyInput, MalformedArpa, MalformedLine, NoFiniteScore
from gectools.text import ASCII_DIGITS, Sentence, Token, blocks

SOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

# Every str maps to exactly one key and back: lone surrogates, which
# strict UTF-8 refuses, encode to their own three bytes.
_ENCODING = ("utf-8", "surrogatepass")
_SOS, _EOS, _UNK = (word.encode(*_ENCODING) for word in (SOS, EOS, UNK))

DUMMY_LOGPROB = -99.0
FALLBACK_DISCOUNT = 0.75


def count_ngrams(sentences: Iterable[Sentence], order: int) -> tuple[dict[bytes, int], ...]:
    """Count n-grams of all orders 1..order over a sentence stream.

    Item n-1 of the result is a plain dict that maps each n-gram, written
    as the UTF-8 bytes of its words joined by single spaces like the keys
    of ArpaModel.tables (b"<s> fata merge"), to its count.  The grams are
    inserted in sorted bytes order, so each dict iterates sorted.  Words
    contain no space.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    counts = [Counter() for _ in range(order)]
    pad = [_SOS] * (order - 1)
    for sentence in sentences:
        words = pad + [t.form.encode(*_ENCODING) for t in sentence.tokens] + [_EOS]
        grams = words
        counts[0].update(grams)
        # Each order's grams are the previous order's plus the next word.
        for n in range(2, order + 1):
            grams = list(map(b" ".join, zip(grams, words[n - 1 :])))
            counts[n - 1].update(grams)
    # One sort per order: a model estimated in these dicts keeps their
    # order, so training's and write_arpa's sorts get sorted input.  Each
    # Counter is freed before the next order's dict is built.
    for n, counter in enumerate(counts):
        counts[n] = {gram: counter[gram] for gram in sorted(counter)}
    return tuple(counts)


def _adjusted_counts(counts: tuple[dict[bytes, int], ...], n: int) -> tuple[dict[bytes, int], list[bytes]]:
    """Order n's Kneser-Ney adjusted counts and the sorted list of the
    grams that have one, grams ending in <s> left out.

    The highest order keeps raw counts: its adjusted counts are
    counts[n - 1] itself.  Below it, a gram's count is the number of
    distinct words that precede it, except that grams starting with <s>
    (which can never be preceded) keep their raw counts.  Every key is a
    key of counts[n - 1]: no gram is held twice.
    """
    # A gram's first or last word is <s> when it starts or ends with one
    # of these, or is <s> itself.
    sos_first, sos_last = _SOS + b" ", b" " + _SOS
    raw = counts[n - 1]
    if n == len(counts):
        adjusted = raw
    else:
        # Suffix closure: every suffix of an order n+1 gram is a key of
        # raw, so each count lands on that key's bytes and the sliced
        # suffix is freed right after its lookup.
        adjusted = Counter(dict.fromkeys(raw, 0))
        adjusted.update(gram[gram.find(b" ") + 1 :] for gram in counts[n])
        # Grams starting with <s> keep their raw counts, in place of the
        # continuation counts just tallied.  (The all-<s> grams hold
        # their dummy entries by now; they end in <s>, so no gram below.)
        for gram, c in raw.items():
            if gram.startswith(sos_first):
                adjusted[gram] = c
    grams = sorted(gram for gram in raw if adjusted[gram] and not (gram.endswith(sos_last) or gram == _SOS))
    return adjusted, grams


def _estimate_discount(adjusted: dict[bytes, int], grams: list[bytes], n: int) -> float:
    count_of_counts = Counter(map(adjusted.__getitem__, grams))
    n1, n2 = count_of_counts[1], count_of_counts[2]
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

    tables[n-1] maps each n-gram, written as the UTF-8 bytes of its
    words joined by single spaces exactly as in an ARPA file
    (b"<s> ea merge"), to complex(log10 probability, log10 backoff
    weight): .real is the probability and .imag the backoff weight, which
    is 0.0 for grams that never serve as a context and for grams of the
    highest order.  Words contain no space.  Bytes keys take about half
    the memory of str keys for Romanian text (see the module docstring).
    vocab and word_logprob keep a str API and encode inside.
    """

    tables: tuple[dict[bytes, complex], ...]

    @property
    def order(self) -> int:
        return len(self.tables)

    @property
    def vocab(self) -> frozenset[str]:
        return frozenset(gram.decode(*_ENCODING) for gram in self.tables[0])

    def word_logprob(self, word: str, context: tuple[str, ...]) -> float:
        """log10 P(word | context), backing off as needed.

        The context must already be truncated to at most order-1 words;
        out-of-vocabulary words must already be mapped to <unk>.
        """
        acc = 0.0
        n = len(context)
        key = word.encode(*_ENCODING)
        ctx = " ".join(context).encode(*_ENCODING)
        while True:
            entry = self.tables[n].get(ctx + b" " + key if n else key)
            if entry is not None:
                return acc + entry.real
            if not n:
                unk = self.tables[0].get(_UNK)
                return acc + (unk.real if unk is not None else DUMMY_LOGPROB)
            ctx_entry = self.tables[n - 1].get(ctx)
            if ctx_entry is not None:
                acc += ctx_entry.imag
            ctx = ctx.partition(b" ")[2]
            n -= 1


def train_kneser_ney(counts: tuple[dict[bytes, int], ...], discount: float | None = None) -> ArpaModel:
    """Estimate an interpolated Kneser-Ney model from counts, consuming them.

    discount, when given, is used for every order and must lie strictly
    between 0 and 1.  When omitted, each order's discount is estimated
    from its count-of-counts, falling back to 0.75 (with a
    DegenerateCounts warning) when the statistics are too sparse.

    The model is written into the dicts of counts, which become its
    tables: model.tables[i] is counts[i].  Each order's entries
    overwrite its raw counts once that order's adjusted counts exist;
    below the highest order those are built from the next order's raw
    counts, which are still counts then.  A key that ends up holding no
    model entry, such as a highest-order gram ending in a literal <s>
    word, still holds an int at the end and is deleted.  Count again to
    train a second model.
    """
    adjusted, grams = _adjusted_counts(counts, 1)
    if not grams:
        raise EmptyInput("cannot train a model from an empty corpus")
    if discount is not None and not 0.0 < discount < 1.0:
        raise ValueError(f"discount must lie strictly between 0 and 1, got {discount}")

    tables: tuple[dict[bytes, complex | int], ...] = counts
    # Dummy entries for the all-<s> grams, which the padding of any
    # sentence holds, so they can carry backoff weights; and the <s>
    # unigram itself even in a unigram model.  Grams ending in <s> are
    # never estimated, so no order's adjusted counts need these counts.
    for n in range(1, max(len(counts), 2)):
        tables[n - 1][b" ".join([_SOS] * n)] = complex(DUMMY_LOGPROB, 0.0)

    # Unigrams: leftover mass goes to <unk>.
    d1 = _estimate_discount(adjusted, grams, 1) if discount is None else discount
    total = sum(map(adjusted.__getitem__, grams))
    probs: dict[bytes, float] = {gram: (adjusted[gram] - d1) / total for gram in grams}
    probs[_UNK] = probs.get(_UNK, 0.0) + d1 * len(grams) / total
    tables[0].update((gram, complex(math.log10(p), 0.0)) for gram, p in probs.items())
    del adjusted, grams, probs

    # One order at a time: its adjusted counts are gone before the next
    # order's are built.
    for n in range(2, len(counts) + 1):
        _estimate_order(*_adjusted_counts(counts, n), n, discount, tables[n - 2], tables[n - 1])

    for table in tables:
        for gram in [gram for gram, entry in table.items() if type(entry) is not complex]:
            del table[gram]
    return ArpaModel(tables)


def _estimate_order(
    adjusted: dict[bytes, int],
    grams: list[bytes],
    n: int,
    dn: float | None,
    lower: dict[bytes, complex | int],
    table: dict[bytes, complex | int],
) -> None:
    """Write order n's entries into table and put its backoff weights on
    their contexts in lower, whose order n - 1 entries are finished.

    grams is the sorted list of the grams that have an adjusted count.
    The grams of one context all start with b"context ", so they form one
    run: each run is summed, weighted and written before the next is read.
    In lower, an entry that is not complex is a leftover raw count and
    counts as missing.
    """
    if dn is None:
        dn = _estimate_discount(adjusted, grams, n)
    for ctx, run in groupby(grams, key=lambda gram: gram[: gram.rfind(b" ")]):
        run = list(run)
        total = sum(map(adjusted.__getitem__, run))
        gamma = dn * len(run) / total
        for gram in run:
            # Suffix closure: the next-lower-order gram, the gram without
            # its first word, is always present.
            p_low = 10.0 ** lower[gram[gram.find(b" ") + 1 :]].real
            # Every gram of grams has an adjusted count of at least 1, and
            # a discount, estimated, fallen back to or given, lies strictly
            # between 0 and 1: the discounted count needs no floor at 0.
            p = (adjusted[gram] - dn) / total + gamma * p_low
            table[gram] = complex(math.log10(p), 0.0)
        # A context ending in a literal <s> word of the text has no entry
        # of its own: it gets a dummy one to carry its backoff weight.
        entry = lower.get(ctx)
        lower[ctx] = complex(entry.real if type(entry) is complex else DUMMY_LOGPROB, math.log10(gamma))


# Bytes that sort before the space separating a gram's words.
_BELOW_SPACE = bytes(range(0x20))


def _holds_below_space(table: dict[bytes, complex]) -> bool:
    """Whether some gram of table holds a byte of _BELOW_SPACE.  The
    grams are joined _ARPA_CHUNK at a time, never the whole table at
    once."""
    grams = iter(table)
    for _ in range(0, len(table), _ARPA_CHUNK):
        joined = b"".join(islice(grams, _ARPA_CHUNK))
        if len(joined.translate(None, _BELOW_SPACE)) < len(joined):
            return True
    return False


def write_arpa(model: ArpaModel, out: IO[str]) -> None:
    """Write the model in the textual ARPA format.

    Fields are tab-separated: log10 probability, the space-joined gram,
    and (below the highest order) the log10 backoff weight.  Entries are
    sorted word by word so output is reproducible.  UTF-8 bytes sort in
    code point order, so the order is that of the words as str.  Each
    chunk of at most _ARPA_CHUNK entries is formatted as bytes and
    written decoded.
    """
    out.write("\\data\\\n")
    for n in range(1, model.order + 1):
        out.write(f"ngram {n}={len(model.tables[n - 1])}\n")
    for n in range(1, model.order + 1):
        table = model.tables[n - 1]
        out.write(f"\n\\{n}-grams:\n")
        # Grams sort as their word tuples unless some word holds a byte
        # that sorts before the separating space.
        key = (lambda g: g.split(b" ")) if _holds_below_space(table) else None
        grams = sorted(table, key=key)
        for start in range(0, len(grams), _ARPA_CHUNK):
            chunk = grams[start : start + _ARPA_CHUNK]
            entries = zip(chunk, map(table.__getitem__, chunk))
            if n < model.order:
                lines = [b"%.10f\t%s\t%.10f\n" % (e.real, g, e.imag) for g, e in entries]
            else:
                lines = [b"%.10f\t%s\n" % (e.real, g) for g, e in entries]
            out.write(b"".join(lines).decode(*_ENCODING))
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


# Lines of a section written as one block: this bounds the working
# lists write_arpa holds beside the model.
_ARPA_CHUNK = 1024

# Characters read_arpa asks its text stream for at a time: this bounds
# the text read_arpa holds beside the model.
_ARPA_READ = 32 * 1024

# Every byte but the tab, newline and space that lay out an entry line.
_NOT_LAYOUT = bytes(b for b in range(256) if b not in b"\t\n ")


def _parse_entries(data: bytes, n: int, table: dict[bytes, complex]) -> int:
    """Add the entries of data to table and return how many there are,
    when data is one or more order-n entry lines that parse whole; else
    return 0 and leave table with the grams it had.

    data is whole lines: it ends with a newline or holds none.  With
    every byte but tabs, spaces and newlines deleted, an entry line is a
    tab, n - 1 spaces, then a tab and a newline (3 fields) or a newline
    (2 fields).  What is left of data must be that pattern repeated once
    per line: this one comparison fixes each line's field count, each
    gram's word count and the number of lines.

    0 also means that some gram holds an empty word, some number may be
    malformed, or some gram is listed twice, in data or before it; the
    caller then parses the lines one by one, which reports the first bad
    line.  Only in the last case may the entry of a gram listed before
    data have changed, and the line path then raises at its repeat.
    """
    skeleton = data.translate(None, _NOT_LAYOUT)
    width = 3 if skeleton[n : n + 1] == b"\t" else 2
    line = b"\t" + b" " * (n - 1) + (b"\t\n" if width == 3 else b"\n")
    lines = len(skeleton) // len(line)
    if not lines or skeleton != line * lines:
        return 0
    fields = data.replace(b"\n", b"\t").split(b"\t")
    fields.pop()  # the empty field after the last newline
    grams = fields[1::width]
    # With as many spaces in each gram as the order less one, an empty
    # word shows as a doubled space or a space at either end of the
    # joined grams.
    joined = b" ".join(grams)
    if not joined or joined.startswith(b" ") or joined.endswith(b" ") or b"  " in joined:
        return 0
    # float() also takes "1_0", "nan", "inf" and "1e999" (as inf).  On
    # bytes it takes ASCII alone and strips no "\x1c" to "\x1f", so a
    # field with other digits or such a byte fails it.  Number fields
    # that hold no "_" are decimals, NaN or infinities, or fail float();
    # a finite sum leaves none of the latter two.  A doubtful chunk goes
    # to the line path, which decides.
    logp_fields = fields[0::width]
    logbo_fields = fields[2::width] if width == 3 else []
    if b"_" in data and b"_" in b"".join(logp_fields + logbo_fields):
        return 0
    try:
        logps = list(map(float, logp_fields))
        logbos = list(map(float, logbo_fields))
    except ValueError:
        return 0
    if not math.isfinite(sum(logps) + sum(logbos)):
        return 0
    before = len(table)
    table.update(zip(grams, map(complex, logps, logbos if width == 3 else repeat(0.0))))
    if len(table) - before == len(grams):
        return lines
    # Some gram is listed twice.  The grams data added are the last ones
    # of the table, which keeps insertion order: take them out again.
    for gram in list(islice(table, before, None)):
        del table[gram]
    return 0


def _entry_line(line_no: int, line: str, n: int, table: dict[bytes, complex]) -> None:
    """Add the entry of an order-n entry line, read on its own, to table:
    the line path of read_arpa.  A gram table holds already is an error."""
    fields = line.split("\t")
    if len(fields) not in (2, 3):
        raise MalformedArpa(line_no, f"expected 2 or 3 tab-separated fields, got {len(fields)}")
    logp = _decimal(fields[0])
    logbo = _decimal(fields[2]) if len(fields) == 3 else 0.0
    if logp is None or logbo is None:
        raise MalformedArpa(line_no, f"bad numeric field in {line!r}")
    words = fields[1].split(" ")
    if len(words) != n or any(not w for w in words):
        raise MalformedArpa(line_no, f"gram does not match section order: {fields[1]!r}")
    gram = fields[1].encode(*_ENCODING)
    if gram in table:
        raise MalformedArpa(line_no, f"repeated gram: {fields[1]!r}")
    table[gram] = complex(logp, logbo)


class _ArpaText:
    """The text of an ARPA stream, read as lines or, after a section
    header, as blocks of entry lines.  The stream is read _ARPA_READ
    characters at a time and each read cut at its last newline, so the
    text held is whole lines but at the end of a stream without a final
    newline."""

    def __init__(self, source: IO[str]):
        self._source = source
        self._text = ""
        self._pos = 0  # where the text not yet read starts
        self._tail: str | None = ""  # read after the last newline; None at the end

    def _more(self) -> bool:
        """Whether text is left to read; reads on when the text held is
        read."""
        while self._pos == len(self._text):
            if self._tail is None:
                return False
            piece = self._source.read(_ARPA_READ)
            cut = piece.rfind("\n") + 1
            if cut:
                self._text, self._pos, self._tail = self._tail + piece[:cut], 0, piece[cut:]
            elif piece:
                self._tail += piece
            else:
                self._text, self._pos, self._tail = self._tail, 0, None
        return True

    def line(self) -> str | None:
        """The next line, with its newline if it has one; None at the end."""
        if not self._more():
            return None
        end = self._text.find("\n", self._pos) + 1 or len(self._text)
        line, self._pos = self._text[self._pos : end], end
        return line

    def entries(self, n: int, left: int, table: dict[bytes, complex]) -> int:
        """Add the order-n entries of the next lines, up to the end of the
        text held and at most left of them, to table and return how many
        were read; or return 0, reading nothing, when those lines do not
        parse whole."""
        if not self._more():
            return 0
        text = self._text[self._pos :]
        # A line the block step takes holds 2n + 2 characters or more (a tab,
        # n - 1 spaces, a newline, n + 1 fields), so it refuses any left lines
        # shorter than left * (2n + 2): only a longer text is worth counting.
        if len(text) >= left * (2 * n + 2) and text.count("\n") >= left:
            # The section may end in this text: offer its first left lines.
            text = text[: len(text) - len(text.split("\n", left)[-1])]
        parsed = _parse_entries(text.encode(*_ENCODING), n, table)
        if parsed:
            self._pos += len(text)
        return parsed


def read_arpa(source: IO[str]) -> ArpaModel:
    """Parse a textual ARPA model from a text stream, such as an open
    file or io.StringIO.

    The stream is read _ARPA_READ characters at a time, each read cut at
    its last newline, so the text held beside the model stays bounded.
    Every number of an entry is a finite decimal in ASCII digits (see
    _decimal); section numbers and counts are ASCII digits alone.  A
    section lists each gram once, and its header comes once.

    The lines after a section header, as many as the header declared,
    are parsed a chunk at a time (see _parse_entries),
    with no str made per line.  From the first chunk that does not parse
    whole up to the next section header, lines are read one by one
    instead, so errors and their line numbers are those of a plain
    line-by-line reader.  Both paths key each gram by its UTF-8 bytes.

    A stream decodes each read whole.  When one read holds both bytes
    the stream cannot decode and a malformed line, the stream's
    UnicodeDecodeError is raised even if the malformed line comes first.
    (Iterating a text file decodes it about 8 KiB at a time.)
    """
    declared: list[int] = []
    tables: list[dict[bytes, complex]] = []
    section = 0  # 0: preamble, 1: \data\, 2: n-gram sections
    current = -1
    headers: set[int] = set()  # the sections whose header was read
    saw_end = False
    line_no = 0
    arpa = _ArpaText(source)

    while (raw_line := arpa.line()) is not None:
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
                missing = "'ngram N=count' lines" if section else "\\data\\ header"
                raise MalformedArpa(line_no, f"n-gram section before {missing}")
            if not 1 <= current <= len(declared):
                raise MalformedArpa(line_no, f"unexpected section order {current}")
            if current in headers:
                raise MalformedArpa(line_no, f"repeated section header: {line!r}")
            headers.add(current)
            section = 2
            left = declared[current - 1]
            while left and (parsed := arpa.entries(current, left, tables[current - 1])):
                line_no += parsed
                left -= parsed
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
        if section == 2:
            _entry_line(line_no, line, current, tables[current - 1])
            continue
        raise MalformedArpa(line_no, f"unexpected line: {line!r}")

    if not saw_end:
        raise MalformedArpa(line_no, "missing \\end\\ marker")
    if not declared:
        raise MalformedArpa(line_no, "missing 'ngram N=count' lines" if section else "missing \\data\\ header")
    for n, count in enumerate(declared, start=1):
        if len(tables[n - 1]) != count:
            raise MalformedArpa(
                line_no,
                f"section {n} has {len(tables[n - 1])} entries, header declared {count}",
            )
    return ArpaModel(tuple(tables))


def _mapped_forms(model: ArpaModel, sentence: Sentence) -> list[str]:
    vocab = model.tables[0]
    return [t.form if t.form.encode(*_ENCODING) in vocab else UNK for t in sentence.tokens]


def logprob(model: ArpaModel, sentence: Sentence) -> float:
    """log10 probability of the sentence, </s> included."""
    width = model.order - 1
    words = [SOS] * width + _mapped_forms(model, sentence) + [EOS]
    total = 0.0
    for i in range(width, len(words)):
        total += model.word_logprob(words[i], tuple(words[i - width : i]))
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
    return perplexity_of(total, tokens)


def perplexity_of(total_logprob: float, tokens: int) -> float:
    """Perplexity of tokens whose log10 probabilities sum to total_logprob,
    or inf when it passes float range."""
    try:
        return 10.0 ** (-total_logprob / tokens)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Hypothesis:
    """One candidate correction with the decoder's score."""

    sentence: Sentence
    model_score: float


def rerank(
    hypotheses: Sequence[Hypothesis], model: ArpaModel, lm_weight: float = 1.0, length_normalize: bool = False
) -> Hypothesis:
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
        if length_normalize:
            base = base / max(len(hyp.sentence), 1)
        combined = base + lm_weight * normalized_logprob(model, hyp.sentence)
        if math.isfinite(combined) and combined > best_score:
            best, best_score = hyp, combined
    if best is None:
        raise NoFiniteScore(
            f"none of {len(hypotheses)} hypotheses has a finite combined score "
            f"(decoder score + {lm_weight:g} x LM score)"
        )
    return best


def _hypothesis(line_no: int, line: str) -> Hypothesis:
    text, sep, score_str = line.rpartition("\t")
    if not sep:
        raise MalformedLine(line_no, "expected 'sentence<TAB>score'")
    score = _decimal(score_str)
    if score is None:
        raise MalformedLine(line_no, f"bad score: {score_str!r}")
    return Hypothesis(sentence=Sentence(tuple(Token(f) for f in text.split())), model_score=score)


def read_nbest(lines: Iterable[str]) -> Iterator[list[Hypothesis]]:
    """Parse n-best lists: "tokens<TAB>score" lines, each block of
    text.blocks(lines) one group.

    Sentences are split on whitespace (decoder output is assumed to be
    tokenized already).  A score is a finite decimal number in ASCII
    digits, with optional sign, point and exponent.  Each group is
    yielded as soon as the blank line (or the end of lines) that ends it
    is read, so a caller can finish a group before the next one is
    parsed; a malformed line raises when the iteration reaches its group.
    """
    for block in blocks(lines):
        yield [_hypothesis(line_no, line) for line_no, line in block]
