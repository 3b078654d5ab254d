"""Tokens, sentences, tokenization and CoNLL-U parsing."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Iterator

from gectools.errors import EmptyInput, MalformedLine

# Universal Dependencies part-of-speech inventory.
UD_UPOS = frozenset(
    {
        "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
        "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
    }
)


def _is_punct_char(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def is_punct(text: str) -> bool:
    """True when every character of text is Unicode punctuation."""
    return bool(text) and all(_is_punct_char(ch) for ch in text)


def peel_punct(chunk: str) -> tuple[int, int]:
    """Bounds (start, end) of chunk without its leading and trailing
    punctuation characters; start == end when chunk is all punctuation."""
    start, end = 0, len(chunk)
    while start < end and _is_punct_char(chunk[start]):
        start += 1
    while end > start and _is_punct_char(chunk[end - 1]):
        end -= 1
    return start, end


@dataclass(frozen=True)
class Token:
    """A surface token with optional lemma and UPOS annotations."""

    form: str
    lemma: str | None = None
    upos: str | None = None

    def __post_init__(self):
        if not self.form:
            raise ValueError("token form must be non-empty")
        # One C call: split() breaks on exactly the str.isspace() characters.
        if self.form.split() != [self.form]:
            raise ValueError(f"token form contains whitespace: {self.form!r}")
        if self.upos is not None and self.upos not in UD_UPOS:
            raise ValueError(f"unknown UPOS tag: {self.upos!r}")


@dataclass(frozen=True)
class Sentence:
    """An immutable sequence of tokens, optionally tagged with a source id."""

    tokens: tuple[Token, ...]
    source_id: str | None = None

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def __getitem__(self, index):
        return self.tokens[index]

    @property
    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]


def tokenize(text: str) -> Sentence:
    """Split raw text into tokens.

    Whitespace separates tokens; leading and trailing punctuation of each
    chunk is peeled off one character at a time into tokens of its own.
    Word-internal punctuation (hyphens in particular) is kept, so a form
    like "să-l" stays a single token.
    """
    if not text.strip():
        raise EmptyInput("cannot tokenize empty text")
    forms: list[str] = []
    for chunk in text.split():
        # No alphanumeric character is punctuation (Unicode category P),
        # so such a chunk has nothing to peel.
        if chunk[0].isalnum() and chunk[-1].isalnum():
            forms.append(chunk)
            continue
        start, end = peel_punct(chunk)
        forms.extend(chunk[:start])
        if start < end:
            forms.append(chunk[start:end])
        forms.extend(chunk[end:])
    return Sentence(tuple(Token(f) for f in forms))


def render(sentence: Sentence) -> str:
    """Inverse of tokenize up to spacing: space-joined token forms."""
    return " ".join(t.form for t in sentence.tokens)


# A CoNLL-U word id or a lexicon frequency: ASCII digits only
# (str.isdigit would also take "²").
ASCII_DIGITS = re.compile(r"[0-9]+")


def _field(value: str) -> str | None:
    return None if value == "_" else value


def blocks(lines: Iterable[str]) -> Iterator[list[tuple[int, str]]]:
    """Each run of non-blank lines as (line number from 1, line without
    its newline) pairs; a line of only whitespace is blank.  A block is
    yielded as soon as the line (or the end of lines) ending it is read."""
    block: list[tuple[int, str]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line.strip():
            block.append((line_no, line))
        elif block:
            yield block
            block = []
    if block:
        yield block


def parse_conllu(lines: Iterable[str]) -> list[Sentence]:
    """Parse CoNLL-U input into sentences, one per block of blocks(lines)
    that holds a token line.

    Only the FORM, LEMMA and UPOS columns are retained.  Word ids run
    1, 2, ... within a sentence; multiword range lines (id "3-4") and
    empty nodes (id "5.1") are skipped.  Any other id is a MalformedLine.
    A "# sent_id = ..." comment becomes the sentence's source_id.
    """
    sentences: list[Sentence] = []
    for block in blocks(lines):
        tokens: list[Token] = []
        source_id: str | None = None
        for line_no, line in block:
            if line.startswith("#"):
                comment = line[1:].strip()
                if comment.startswith("sent_id"):
                    _, _, value = comment.partition("=")
                    source_id = value.strip() or None
                continue
            cols = line.split("\t")
            if len(cols) != 10:
                raise MalformedLine(line_no, f"expected 10 tab-separated columns, got {len(cols)}")
            token_id, form, lemma, upos = cols[0], cols[1], cols[2], cols[3]
            if token_id != str(len(tokens) + 1):
                first, sep, last = token_id.partition("-" if "-" in token_id else ".")
                if sep and ASCII_DIGITS.fullmatch(first) and ASCII_DIGITS.fullmatch(last):
                    continue
                raise MalformedLine(line_no, f"bad token id: {token_id!r}, expected {len(tokens) + 1}")
            if not form or form == "_":
                raise MalformedLine(line_no, f"bad token form: {form!r}")
            try:
                token = Token(form=form, lemma=_field(lemma), upos=_field(upos))
            except ValueError as exc:
                raise MalformedLine(line_no, str(exc)) from None
            tokens.append(token)
        if tokens:
            sentences.append(Sentence(tuple(tokens), source_id=source_id))
    return sentences
