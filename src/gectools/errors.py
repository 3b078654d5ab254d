"""Exception and warning types shared across the package."""

import contextlib


class GecToolsError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(GecToolsError):
    """Raised when an operation receives empty input it cannot act on."""


class InvalidEncoding(GecToolsError):
    """An input file is not valid UTF-8."""

    def __init__(self, path, exc: UnicodeDecodeError):
        super().__init__(f"{path}: not valid UTF-8 (byte 0x{exc.object[exc.start]:02x})")
        self.path = path


class MalformedLine(GecToolsError):
    """A line of an input file does not match the expected format."""

    def __init__(self, line_no, message, path=None):
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.message = message
        self.path = path


@contextlib.contextmanager
def naming(path):
    """Raise a decode error in the with-block as InvalidEncoding, and a
    MalformedLine without a path as its own class with path."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(path, exc) from exc
    except MalformedLine as exc:
        if exc.path is not None:
            raise
        raise type(exc)(exc.line_no, exc.message, path) from exc


class MalformedM2(MalformedLine):
    """An M2 file entry is structurally invalid."""


class SeveralAnnotators(MalformedM2):
    """An M2 file holds the edits of more than one annotator."""


class MalformedArpa(MalformedLine):
    """An ARPA language-model file is structurally invalid."""


class MalformedLexicon(MalformedLine):
    """A lexicon line is not one word with an optional ASCII-digit frequency."""


class LengthMismatch(GecToolsError):
    """Paired inputs (files, sentence lists) differ in length."""


class SentenceMismatch(GecToolsError):
    """Paired inputs hold different sentences at the same position."""


class OverlappingEdits(GecToolsError):
    """Edits passed to apply_edits overlap or are out of order."""


class SpanOutOfBounds(GecToolsError):
    """An edit span does not fit the sentence it is applied to."""


class MissingAnnotations(GecToolsError):
    """Classification reached a rule that needs lemma/upos annotations
    which are absent on the decisive tokens."""

    def __init__(self, message, sentence_index=None):
        super().__init__(message)
        self.sentence_index = sentence_index


class NoFiniteScore(GecToolsError):
    """No hypothesis of an n-best list has a finite combined score."""


class EmptySentence(GecToolsError):
    """A sentence with zero tokens was passed where at least one token
    is required."""


class DegenerateCounts(UserWarning):
    """Count-of-count statistics were too sparse to estimate a discount;
    a default was used instead."""
