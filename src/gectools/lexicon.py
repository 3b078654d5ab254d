"""Word-list lexicon with optional frequencies."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

from gectools.errors import EmptyInput, InvalidEncoding, MalformedLexicon


@dataclass(frozen=True)
class Lexicon:
    """A case-insensitive word list; words are stored lowercased."""

    words: frozenset[str]
    frequencies: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.words:
            raise ValueError("lexicon must contain at least one word")

    @classmethod
    def from_words(cls, words: Iterable[str], frequencies: dict[str, int] | None = None) -> "Lexicon":
        lowered = frozenset(w.lower() for w in words if w.strip())
        freqs = {w.lower(): int(c) for w, c in (frequencies or {}).items()}
        return cls(words=lowered, frequencies=freqs)

    @classmethod
    def from_file(cls, path: str | Path) -> "Lexicon":
        """Load a lexicon from a text file.

        One word per line; an optional tab-separated integer after the
        word is taken as its frequency.  Raises InvalidEncoding,
        MalformedLexicon or EmptyInput for a file that is not UTF-8, has
        a frequency that is not an integer, or holds no word.
        """
        words: list[str] = []
        freqs: dict[str, int] = {}
        try:
            with open(path, encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    word, _, count = line.partition("\t")
                    word = word.lower()
                    words.append(word)
                    if count.strip():
                        try:
                            freq = int(count)
                        except ValueError:
                            raise MalformedLexicon(
                                line_no, f"frequency {count.strip()!r} is not an integer", path
                            ) from None
                        freqs[word] = freqs.get(word, 0) + freq
        except UnicodeDecodeError as exc:
            raise InvalidEncoding(path, exc) from exc
        if not words:
            raise EmptyInput(f"{path}: lexicon has no words")
        # Words are lowercased, stripped and non-empty already.
        return cls(words=frozenset(words), frequencies=freqs)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.words

    def __len__(self) -> int:
        return len(self.words)

    def freq(self, word: str) -> int:
        return self.frequencies.get(word.lower(), 0)

    @cached_property
    def sorted_words(self) -> tuple[str, ...]:
        return tuple(sorted(self.words))
