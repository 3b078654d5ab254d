"""Word-list lexicon with optional frequencies, held as one word→frequency table."""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, KeysView, Mapping

from gectools.errors import EmptyInput, MalformedLexicon, naming
from gectools.text import ASCII_DIGITS

# Lexicon lines are read and checked this many at a time.
_BLOCK = 1024


def _check_line(line_no: int, word: str, count: str) -> None:
    """Raise MalformedLexicon if the line, split at its first tab, has a
    frequency but no word, a word holding whitespace, or a frequency
    that is not ASCII digits."""
    if not word and count:
        raise MalformedLexicon(line_no, f"frequency {count!r} has no word")
    if any(ch.isspace() for ch in word):
        raise MalformedLexicon(line_no, f"word {word!r} contains whitespace")
    if count and not ASCII_DIGITS.fullmatch(count):
        raise MalformedLexicon(line_no, f"frequency {count!r} is not ASCII digits")


def _check_block(block: list[tuple[str, str, str]], first_line_no: int) -> list[tuple[str, str, str]]:
    """The block of right-stripped lines, each split at its first tab,
    with leading whitespace stripped from each word.

    One check over the block's joined words and one over its joined
    frequencies pass a block with no indented word, no word holding
    whitespace and no bad frequency; only a block that fails one is
    checked line by line, raising for its first line that fails
    _check_line.  A block that passes may still hold a line with a
    frequency but no word: the caller checks each line whose word is
    empty.
    """
    text = "".join([word for word, _, _ in block])
    digits = "".join([count for _, _, count in block])
    if text.split() == [text] and ASCII_DIGITS.fullmatch(digits or "0"):
        return block
    checked = []
    for line_no, (word, tab, count) in enumerate(block, first_line_no):
        word = word.lstrip()
        _check_line(line_no, word, count)
        checked.append((word, tab, count))
    return checked


def _folded(words: Iterable[str], frequencies: Mapping[str, int]) -> dict[str, int]:
    table: dict[str, int] = {}
    for word in words:
        word = word.strip()
        if any(ch.isspace() for ch in word):
            raise ValueError(f"word {word!r} contains whitespace")
        if word:
            table[word.lower()] = 0
    for word, count in frequencies.items():
        key = word.strip().lower()
        if key not in table:
            raise ValueError(f"frequency given for {word!r}, which is not a word of the lexicon")
        # int() would also truncate 2.7, read True as 1 and "1_0" as 10.
        if isinstance(count, str) and ASCII_DIGITS.fullmatch(count):
            try:
                count = int(count)
            except ValueError:  # more digits than int() converts
                raise ValueError(f"frequency of {len(count)} digits for {word!r} is too long") from None
        elif not isinstance(count, int) or isinstance(count, bool):
            raise ValueError(f"frequency {count!r} of {word!r} is neither an int nor ASCII digits")
        if count < 0:
            raise ValueError(f"frequency {count} of {word!r} is negative")
        table[key] += count
    if not table:
        raise ValueError("lexicon must contain at least one word")
    return table


class Lexicon:
    """A case-insensitive word list with frequencies, held as one table.

    Each key of the table is a word, stripped, lowercased and free of
    whitespace, mapped to the summed non-negative frequencies of the
    words that fold to it (0 when none was given).  Lexicon(table),
    from_words and from_file share this rule; Lexicon(table) builds a
    table of its own, so the caller's table stays the caller's.  The
    table is the only copy of the words: frequencies shows it read-only
    (writing raises TypeError), and words is a read-only view of its keys.
    """

    def __init__(self, frequencies: Mapping[str, int]):
        self._table = _folded(frequencies, frequencies)

    @classmethod
    def _holding(cls, table: dict[str, int]) -> "Lexicon":
        """A lexicon holding table itself: a folded dict that no one else holds."""
        lexicon = cls.__new__(cls)
        lexicon._table = table
        return lexicon

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lexicon) and self._table == other._table

    @property
    def frequencies(self) -> Mapping[str, int]:
        return MappingProxyType(self._table)

    @property
    def words(self) -> KeysView[str]:
        return self._table.keys()

    @classmethod
    def from_words(cls, words: Iterable[str], frequencies: Mapping[str, int] | None = None) -> "Lexicon":
        """A lexicon of words, by the class's rule.

        An empty word is skipped; frequencies maps words, folded the same
        way, to their frequencies, each an int or a str of ASCII digits.
        A word that holds whitespace once stripped, a frequency for a word
        not in words, of another type, below 0 or of more digits than int()
        converts, or no word at all raises ValueError.
        """
        return cls._holding(_folded(words, frequencies or {}))

    @classmethod
    def from_file(cls, path: str | Path) -> "Lexicon":
        """Load a lexicon from a text file.

        One word per line, stripped of surrounding whitespace and
        lowercased; an optional tab-separated run of ASCII digits after
        the word is taken as its frequency, and the frequencies of lines
        whose words fold to the same lowercased word sum.  A leading
        UTF-8 byte order mark is not part of the first word.  Raises
        InvalidEncoding, MalformedLexicon or EmptyInput for a file that
        is not UTF-8, has a frequency but no word, a word holding
        whitespace or a frequency that is not ASCII digits, or holds no
        word; each names path (errors.naming).
        """
        table: dict[str, int] = {}
        with naming(path), open(path, encoding="utf-8-sig") as fh:
            first = 1
            while block := [line.rstrip().partition("\t") for line in islice(fh, _BLOCK)]:
                for line_no, (word, _, count) in enumerate(_check_block(block, first), first):
                    if not word:
                        # A frequency with no word passes the block check.
                        _check_line(line_no, word, count)
                        continue
                    freq = 0
                    if count:
                        try:
                            freq = int(count)
                        except ValueError:  # more digits than int() converts
                            raise MalformedLexicon(
                                line_no, f"frequency of {len(count)} digits is too long"
                            ) from None
                    word = word.lower()
                    table[word] = table.get(word, 0) + freq
                first += len(block)
        if not table:
            raise EmptyInput(f"{path}: lexicon has no words")
        return cls._holding(table)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._table

    def __len__(self) -> int:
        return len(self._table)

    def freq(self, word: str) -> int:
        return self._table.get(word.lower(), 0)

    @cached_property
    def sorted_words(self) -> tuple[str, ...]:
        return tuple(sorted(self._table))
