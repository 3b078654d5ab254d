"""Reading and writing edits in the M2 annotation format.

Each sentence is a block: an "S" line with the tokenized original text,
one "A" line per edit, and a blank line.  A sentence without edits gets
the conventional noop annotation.  Spans index original tokens; the
corrected span of each edit is reconstructed on read from the running
length difference of the preceding edits.  A file holds the edits of
one annotator: the last field of every "A" line, noop lines included,
carries the same annotator id.
"""

from __future__ import annotations

import re
from typing import IO, Iterable

from gectools.align import Edit
from gectools.errors import GecToolsError, MalformedM2, SeveralAnnotators
from gectools.score import UNTYPED
from gectools.text import Sentence, Token, blocks, render

NOOP_LINE = "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0"
# A span bound: ASCII digits, signed for the noop line's -1.
_SPAN_NUMBER = re.compile(r"-?[0-9]+")


def write_m2(sentence: Sentence, edits: Iterable[Edit], out: IO[str]) -> None:
    """Write one sentence block.

    A correction that M2 would read back as another one, holding the
    field separator ||| or being exactly -NONE- (a deletion), is refused
    with GecToolsError.
    """
    out.write(f"S {render(sentence)}".rstrip() + "\n")
    wrote_any = False
    for edit in edits:
        if "|||" in edit.c_text or edit.c_text == "-NONE-":
            raise GecToolsError(f"correction {edit.c_text!r} cannot be written to M2")
        label = edit.etype or UNTYPED
        out.write(
            f"A {edit.o_start} {edit.o_end}|||{label}|||{edit.c_text}|||REQUIRED|||-NONE-|||0\n"
        )
        wrote_any = True
    if not wrote_any:
        out.write(NOOP_LINE + "\n")
    out.write("\n")


def _sentence_edits(
    tokens: tuple[Token, ...], raw: list[tuple[int, int, str, str]], s_line_no: int
) -> tuple[Sentence, list[Edit]]:
    """(Sentence(tokens), its edits from raw (start, end, label, correction) tuples)."""
    raw = sorted(raw, key=lambda r: (r[0], r[1]))
    edits: list[Edit] = []
    delta = 0
    prev_end = 0
    for start, end, label, c_text in raw:
        if not (0 <= start <= end <= len(tokens)):
            raise MalformedM2(s_line_no, f"edit span ({start}, {end}) out of range")
        if start < prev_end:
            raise MalformedM2(s_line_no, f"overlapping edit at ({start}, {end})")
        prev_end = end
        c_forms = c_text.split()
        c_start = start + delta
        c_end = c_start + len(c_forms)
        delta += len(c_forms) - (end - start)
        edits.append(
            Edit(
                o_start=start,
                o_end=end,
                c_start=c_start,
                c_end=c_end,
                o_text=" ".join(t.form for t in tokens[start:end]),
                c_text=" ".join(c_forms),
                etype=label,
            )
        )
    return Sentence(tokens), edits


def read_m2(lines: Iterable[str]) -> list[tuple[Sentence, list[Edit]]]:
    """Parse an M2 stream, split by text.blocks, into (sentence, edits)
    pairs.  An "S" line also starts a new sentence; a sentence's edits
    are built and checked when the next "S" line or its block's end is
    reached."""
    results: list[tuple[Sentence, list[Edit]]] = []
    annotator: tuple[str, int] | None = None  # the first id seen, and its line
    for block in blocks(lines):
        pending = None  # the sentence being read: (tokens, raw edits, "S" line number)
        for line_no, line in block:
            if line == "S" or line.startswith("S "):
                if pending is not None:
                    results.append(_sentence_edits(*pending))
                pending = (tuple(Token(f) for f in line[2:].split()), [], line_no)
                continue
            if not line.startswith("A "):
                raise MalformedM2(line_no, f"unrecognized line: {line!r}")
            if pending is None:
                raise MalformedM2(line_no, "annotation line before any sentence line")
            fields = line[2:].split("|||")
            if len(fields) < 6:
                raise MalformedM2(line_no, f"expected 6 '|||'-separated fields, got {len(fields)}")
            span = fields[0].split()
            if len(span) != 2 or not all(_SPAN_NUMBER.fullmatch(x) for x in span):
                raise MalformedM2(line_no, f"bad span field: {fields[0]!r}")
            try:
                start, end = int(span[0]), int(span[1])
            except ValueError:  # more digits than int() converts
                raise MalformedM2(
                    line_no, f"bad span field: a number of {max(map(len, span))} characters is too long"
                ) from None
            annotator_id = fields[5].strip()
            if annotator is None:
                annotator = (annotator_id, line_no)
            elif annotator_id != annotator[0]:
                raise SeveralAnnotators(
                    line_no,
                    f"annotator {annotator_id!r} after annotator {annotator[0]!r} of line "
                    f"{annotator[1]}; files with several annotators are not supported",
                )
            label, correction = fields[1], fields[2]
            if label != "noop":
                pending[1].append((start, end, label, "" if correction == "-NONE-" else correction))
        if pending is not None:
            results.append(_sentence_edits(*pending))
    return results
