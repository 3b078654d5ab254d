"""Command-line interface.

Subcommands cover the full pipeline: edit extraction (extract), scoring
(score), corpus statistics (stats), corpus filtering (filter), synthetic
error generation (synth), language-model training and scoring (lm-train,
lm-score) and n-best re-ranking (rerank).

Every input file, standard input and the lexicon are read as UTF-8.  A
leading UTF-8 byte order mark is not data: it is skipped, so a file
saved with one reads as the same file without it.

Exit codes: 0 on success, 1 on data errors (malformed, inconsistent or
non-UTF-8 input files), 2 on usage errors: a malformed or out-of-range
option value, a missing argument, both inputs of a command given as
'-' (stdin), or paired inputs that do not pair up (their lengths, or
the sentences at one position, differ).  Each error is one line
starting with "error:", each warning (such as a discount lm-train could
not estimate) one line starting with "warning:".  An output file given
with -o is replaced only when the command succeeds.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import math
import os
import shutil
import sys
import warnings
from dataclasses import fields
from typing import IO, Iterator

# gectools.lexicon, gectools.lm and gectools.synth are imported by the
# commands that use them.  The names extract, score and stats call are
# imported here: perfbench/tracing.py wraps them as attributes of this
# module.
from gectools.align import extract_edits
from gectools.classify import classify_all
from gectools.errors import DegenerateCounts, GecToolsError, LengthMismatch, SentenceMismatch, naming
from gectools.m2 import read_m2, write_m2
from gectools.score import corpus_stats, format_stats, score_corpus
from gectools.text import parse_conllu, render, tokenize


# The highest lm-train order: KenLM's default build limit, so a default
# KenLM build loads every model lm-train writes.
MAX_ORDER = 6
# The most worker processes synth --jobs may start.
MAX_JOBS = 128
# The input files of each command that reads two: at most one of them
# can be standard input ('-').
_TWO_INPUTS = {"extract": ("orig", "corr"), "score": ("ref", "hyp"),
               "lm-score": ("model", "input"), "rerank": ("model", "nbest")}


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as one "error:" line."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@contextlib.contextmanager
def _open_in(path: str) -> Iterator[IO[str]]:
    """Input file ('-' for stdin), read as strict UTF-8; a leading
    byte order mark is skipped.  Errors raised while the file is read
    name it, by errors.naming.
    """
    with naming("<stdin>" if path == "-" else path):
        if path != "-":
            with open(path, encoding="utf-8-sig") as fh:
                yield fh
        elif getattr(sys.stdin, "buffer", None) is None:
            yield sys.stdin
        else:
            # sys.stdin itself decodes with surrogateescape under a POSIX
            # locale, which lets bad bytes through to fail at output.
            stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig")
            try:
                yield stdin
            finally:
                stdin.detach()


def _create_beside(target: str) -> tuple[int, str]:
    """A new file in target's directory, created as open(..., "w") would."""
    directory, name = os.path.split(target)
    while True:
        tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


@contextlib.contextmanager
def _open_out(path: str | None) -> Iterator[IO[str]]:
    """Output file (None or '-' for stdout).

    A regular file is written under a temporary name beside it and moved
    over it only when the command succeeds, so a failed run leaves an
    earlier file as it was.  A target that exists and is not a regular
    file, such as /dev/stdout, is written in place.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    exists = os.path.exists(path)
    if exists and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    if exists and not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    try:
        fd, tmp = _create_beside(target)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        if exists:
            shutil.copymode(target, tmp)
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _sentences(lines):
    """The tokenized sentence of each non-blank line."""
    for line in lines:
        if line.strip():
            yield tokenize(line)


def _read_sentences(path: str, conllu: bool):
    with _open_in(path) as fh:
        return parse_conllu(fh) if conllu else list(_sentences(fh))


def _pair(path_a: str, a: list, path_b: str, b: list) -> list:
    """zip(a, b) as a list; LengthMismatch naming both paths if their lengths differ."""
    if len(a) != len(b):
        raise LengthMismatch(f"{path_a} has {len(a)} sentences, {path_b} has {len(b)}")
    return list(zip(a, b))


def cmd_extract(args) -> int:
    pairs = _pair(args.orig, _read_sentences(args.orig, args.conllu),
                  args.corr, _read_sentences(args.corr, args.conllu))
    if args.lexicon:
        from gectools.lexicon import Lexicon

        edit_lists = classify_all(pairs, Lexicon.from_file(args.lexicon))
    else:
        edit_lists = [extract_edits(orig, corr) for orig, corr in pairs]
    with _open_out(args.output) as out:
        for (orig, _), edits in zip(pairs, edit_lists):
            write_m2(orig, edits, out)
    return 0


def cmd_score(args) -> int:
    with _open_in(args.ref) as fh:
        ref = read_m2(fh)
    with _open_in(args.hyp) as fh:
        hyp = read_m2(fh)
    pairs = _pair(args.ref, ref, args.hyp, hyp)
    for i, ((ref_sentence, _), (hyp_sentence, _)) in enumerate(pairs, start=1):
        if ref_sentence.forms != hyp_sentence.forms:
            raise SentenceMismatch(
                f"sentence {i} differs: {args.ref} has {render(ref_sentence)!r}, "
                f"{args.hyp} has {render(hyp_sentence)!r}"
            )
    report = score_corpus([edits for _, edits in ref], [edits for _, edits in hyp], beta=args.beta)
    print(f"TP {report.tp}  FP {report.fp}  FN {report.fn}")
    print(
        f"Precision {report.precision:.4f}  Recall {report.recall:.4f}  "
        f"F{report.beta:g} {report.fscore:.4f}"
    )
    for etype in sorted(report.per_type):
        counts = report.per_type[etype]
        p, r, f = report.type_prf(etype)
        print(
            f"{etype:<16} tp={counts.tp:<5} fp={counts.fp:<5} fn={counts.fn:<5} "
            f"P={p:.4f} R={r:.4f} F{report.beta:g}={f:.4f}"
        )
    return 0


def cmd_stats(args) -> int:
    with _open_in(args.m2) as fh:
        entries = read_m2(fh)
    print(format_stats(corpus_stats([edits for _, edits in entries])))
    return 0


def _config(cls, args):
    """The config dataclass cls, each field taken from the flag of its
    name (--min-words sets min_words).  It reads dataclasses.fields: if
    the configs stop being dataclasses, this must change with them."""
    return cls(**{field.name: getattr(args, field.name) for field in fields(cls)})


def _add_filter_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-words", type=int, default=9, help="minimum word count (default %(default)s)")
    parser.add_argument(
        "--min-diacritic-ratio",
        type=float,
        default=0.01,
        help="minimum diacritic/non-diacritic ratio (default %(default)s)",
    )
    parser.add_argument(
        "--max-foreign-ratio",
        type=float,
        default=0.025,
        help="maximum foreign-character ratio (default %(default)s)",
    )


def cmd_filter(args) -> int:
    from gectools import synth as synth_mod

    cfg = _config(synth_mod.FilterConfig, args)
    stats = synth_mod.SynthStats()
    with _open_in(args.input) as fh, _open_out(args.output) as out:
        for raw_line in fh:
            line = raw_line.rstrip("\n")
            if stats.count(synth_mod.filter_sentence(line, cfg)):
                out.write(line + "\n")
    print(stats.format(), file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    from gectools import synth as synth_mod
    from gectools.lexicon import Lexicon

    filter_cfg = _config(synth_mod.FilterConfig, args)
    synth_cfg = _config(synth_mod.SynthConfig, args)
    lexicon = Lexicon.from_file(args.lexicon)
    provider = synth_mod.ConfusionProvider(lexicon, max_distance=args.max_distance)
    with _open_in(args.input) as fh, _open_out(args.output) as out:
        stats = synth_mod.generate_corpus(fh, filter_cfg, synth_cfg, provider, out, jobs=args.jobs)
    print(stats.format(), file=sys.stderr)
    return 0


def cmd_lm_train(args) -> int:
    from gectools import lm as lm_mod

    with _open_in(args.input) as fh, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateCounts)
        counts = lm_mod.count_ngrams(_sentences(fh), args.order)
        model = lm_mod.train_kneser_ney(counts, args.discount)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    with _open_out(args.output) as out:
        lm_mod.write_arpa(model, out)
    return 0


def cmd_lm_score(args) -> int:
    from gectools import lm as lm_mod

    with _open_in(args.model) as fh:
        model = lm_mod.read_arpa(fh)
    total_logprob, total_tokens = 0.0, 0
    with _open_in(args.input) as fh, _open_out(args.output) as out:
        for sentence in _sentences(fh):
            lp = lm_mod.logprob(model, sentence)
            out.write(f"{lp:.4f}\t{lp / (len(sentence) + 1):.4f}\n")
            total_logprob += lp
            total_tokens += len(sentence) + 1
    if total_tokens:
        ppl = lm_mod.perplexity_of(total_logprob, total_tokens)
        print(f"tokens: {total_tokens}  logprob: {total_logprob:.4f}  perplexity: {ppl:.4f}", file=sys.stderr)
    return 0


def cmd_rerank(args) -> int:
    from gectools import lm as lm_mod

    with _open_in(args.model) as fh:
        model = lm_mod.read_arpa(fh)
    # Each group is reranked as soon as it is read, so the n-best file is
    # never held whole and an error in a group comes after the output of
    # the groups before it.
    with _open_in(args.nbest) as fh, _open_out(args.output) as out:
        for group in lm_mod.read_nbest(fh):
            best = lm_mod.rerank(group, model, args.lm_weight, args.length_normalize)
            out.write(render(best.sentence) + "\n")
    return 0


def _check_ranges(parser: argparse.ArgumentParser, args) -> None:
    """Report the first numeric flag outside its range as a usage error.

    A flag the command does not take, or left at a None default, is not
    checked.  NaN fails every range.
    """
    ranges = {
        "beta": ("finite and greater than 0", lambda v: 0 < v < math.inf),
        "lm_weight": ("finite", math.isfinite),
        "discount": ("strictly between 0 and 1", lambda v: 0 < v < 1),
        "order": (f"between 1 and {MAX_ORDER}", lambda v: 1 <= v <= MAX_ORDER),
        "jobs": (f"between 1 and {MAX_JOBS}", lambda v: 1 <= v <= MAX_JOBS),
        "max_distance": ("at least 0", lambda v: v >= 0),
        "confusion_size": ("at least 0", lambda v: v >= 0),
        "min_words": ("at least 0", lambda v: v >= 0),
        "mean_error_rate": ("between 0 and 1", lambda v: 0 <= v <= 1),
        "char_word_rate": ("between 0 and 1", lambda v: 0 <= v <= 1),
        "std_error_rate": ("finite and at least 0", lambda v: 0 <= v < math.inf),
        "min_diacritic_ratio": ("finite and at least 0", lambda v: 0 <= v < math.inf),
        "max_foreign_ratio": ("finite and at least 0", lambda v: 0 <= v < math.inf),
    }
    for name, (rule, ok) in ranges.items():
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            parser.error(f"--{name.replace('_', '-')} must be {rule}, got {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gectools",
        description="Grammatical-error-correction data tools: edit extraction, "
        "classification, scoring, corpus synthesis and LM re-ranking.",
    )
    parser.add_argument("--verbose", action="store_true", help="print the parsed options")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract (and optionally classify) edits into M2")
    p.add_argument("orig", help="original sentences (text or CoNLL-U)")
    p.add_argument("corr", help="corrected sentences (text or CoNLL-U)")
    p.add_argument("--conllu", action="store_true", help="inputs are CoNLL-U files")
    p.add_argument("--lexicon", help="word list enabling error-type classification")
    p.add_argument("-o", "--output", help="output M2 file (default stdout)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("score", help="score hypothesis edits against reference edits")
    p.add_argument("ref", help="reference M2 file")
    p.add_argument("hyp", help="hypothesis M2 file")
    p.add_argument("--beta", type=float, default=0.5, help="F-score beta (default %(default)s)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("stats", help="error-type distribution of an M2 file")
    p.add_argument("m2", help="M2 file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("filter", help="keep clean, well-formed sentences")
    p.add_argument("input", help="raw corpus, one sentence per line ('-' for stdin)")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    _add_filter_flags(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("synth", help="filter a corpus and generate corrupted/original pairs")
    p.add_argument("input", help="raw corpus, one sentence per line ('-' for stdin)")
    p.add_argument("--lexicon", required=True, help="word list (word[<TAB>frequency] per line)")
    p.add_argument("--seed", type=int, required=True, help="base random seed")
    p.add_argument("-o", "--output", help="output TSV file (default stdout)")
    p.add_argument(
        "--jobs", type=int, default=1, help=f"worker processes, 1 to {MAX_JOBS} (default %(default)s)"
    )
    p.add_argument("--mean-error-rate", type=float, default=0.15)
    p.add_argument("--std-error-rate", type=float, default=0.2)
    p.add_argument("--confusion-size", type=int, default=20)
    p.add_argument("--char-word-rate", type=float, default=0.1)
    p.add_argument("--max-distance", type=int, default=2)
    _add_filter_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("lm-train", help="train a Kneser-Ney n-gram model, write ARPA")
    p.add_argument("input", help="training text, one sentence per line ('-' for stdin)")
    p.add_argument("-o", "--output", help="output ARPA file (default stdout)")
    p.add_argument(
        "--order", type=int, default=5, help=f"model order, 1 to {MAX_ORDER} (default %(default)s)"
    )
    p.add_argument(
        "--discount", type=float, help="fixed discount for all orders (default: estimate from data)"
    )
    p.set_defaults(func=cmd_lm_train)

    p = sub.add_parser("lm-score", help="score sentences with an ARPA model")
    p.add_argument("model", help="ARPA model file")
    p.add_argument("input", help="text to score, one sentence per line ('-' for stdin)")
    p.add_argument("-o", "--output", help="output TSV (logprob, normalized; default stdout)")
    p.set_defaults(func=cmd_lm_score)

    p = sub.add_parser("rerank", help="pick the best hypothesis of each n-best list")
    p.add_argument("model", help="ARPA model file")
    p.add_argument("nbest", help="n-best lists: 'sentence<TAB>score' lines, blank-line separated")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.add_argument("--lm-weight", type=float, default=1.0)
    p.add_argument("--length-normalize", action="store_true")
    p.set_defaults(func=cmd_rerank)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_ranges(parser, args)
    names = _TWO_INPUTS.get(args.command, ())
    if names and all(getattr(args, name) == "-" for name in names):
        parser.error(f"{' and '.join(names)} are both '-': only one input can be read from stdin")
    if args.verbose:
        options = (f"{key}={value}" for key, value in sorted(vars(args).items())
                   if key not in ("command", "func", "verbose"))
        print(f"{args.command}:", *options, file=sys.stderr)
    try:
        return args.func(args)
    except (GecToolsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (LengthMismatch, SentenceMismatch)) else 1


if __name__ == "__main__":
    sys.exit(main())
