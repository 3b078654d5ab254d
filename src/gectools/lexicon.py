"""Word-list lexicon with optional frequencies, held as one word→frequency table."""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class Lexicon:
    """A case-insensitive word list with frequencies, held as one table.

    frequencies maps every lowercased word to its summed frequency (0
    when none was given); it is the only copy of the words, held behind
    a read-only proxy, so writing to it raises TypeError.  Lexicon(table)
    copies the mapping it is given, so the caller's table stays the
    caller's; from_file and from_words hand over a dict of their own
    uncopied.  words is a read-only view of its keys, which supports
    membership, iteration and set operations.
    """

    frequencies: Mapping[str, int]

    def __post_init__(self):
        self._hold(dict(self.frequencies))

    def _hold(self, table: dict[str, int]) -> None:
        if not table:
            raise ValueError("lexicon must contain at least one word")
        object.__setattr__(self, "frequencies", MappingProxyType(table))

    @classmethod
    def _taking(cls, table: dict[str, int]) -> "Lexicon":
        """A lexicon holding table itself: a dict that no one else holds."""
        lexicon = object.__new__(cls)
        lexicon._hold(table)
        return lexicon

    def __reduce__(self):
        # A proxy does not pickle; the plain table it shows does.
        return type(self)._taking, (dict(self.frequencies),)

    @property
    def words(self) -> KeysView[str]:
        return self.frequencies.keys()

    @classmethod
    def from_words(cls, words: Iterable[str], frequencies: dict[str, int] | None = None) -> "Lexicon":
        """A lexicon of words, by from_file's rules.

        Each word is stripped of surrounding whitespace and lowercased;
        an empty word is skipped, and one that still holds whitespace
        raises ValueError.  frequencies maps words (stripped and
        lowercased the same way) to non-negative frequencies, and words
        that fold to the same lowercased word sum theirs.  A frequency
        for a word that is not in words, or one below 0, raises
        ValueError.
        """
        table: dict[str, int] = {}
        for word in words:
            word = word.strip()
            if any(ch.isspace() for ch in word):
                raise ValueError(f"word {word!r} contains whitespace")
            if word:
                table[word.lower()] = 0
        for word, count in (frequencies or {}).items():
            key = word.strip().lower()
            if key not in table:
                raise ValueError(f"frequency given for {word!r}, which is not a word of the lexicon")
            count = int(count)
            if count < 0:
                raise ValueError(f"frequency {count} of {word!r} is negative")
            table[key] += count
        return cls._taking(table)

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
        return cls._taking(table)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.frequencies

    def __len__(self) -> int:
        return len(self.frequencies)

    def freq(self, word: str) -> int:
        return self.frequencies.get(word.lower(), 0)

    @cached_property
    def sorted_words(self) -> tuple[str, ...]:
        return tuple(sorted(self.frequencies))
