"""End-to-end CLI behaviour, exit codes included."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gectools.cli import _check_ranges, build_parser, main
from gectools.lm import read_arpa

ORIG = "în cazul unei paciente internată joi\nmergem acasă\n"
CORR = "în cazul unei paciente internate joi\nmergem acasă\n"


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return write, tmp_path


class TestExtract:
    def test_plain_text(self, files, capsys):
        write, tmp = files
        orig, corr = write("o.txt", ORIG), write("c.txt", CORR)
        assert main(["extract", orig, corr]) == 0
        out = capsys.readouterr().out
        assert "S în cazul unei paciente internată joi" in out
        assert "A 4 5|||UNK|||internate|||REQUIRED|||-NONE-|||0" in out
        assert "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0" in out

    def test_conllu_with_lexicon_classifies(self, files, tmp_path):
        from tests.conftest import DATA

        write, tmp = files
        out_path = str(tmp / "out.m2")
        code = main([
            "extract",
            str(DATA / "classify_orig.conllu"),
            str(DATA / "classify_corr.conllu"),
            "--conllu",
            "--lexicon", str(DATA / "lexicon_ro.txt"),
            "-o", out_path,
        ])
        assert code == 0
        text = (tmp_path / "out.m2").read_text(encoding="utf-8")
        assert "A 4 5|||MORPH|||internate|||REQUIRED|||-NONE-|||0" in text

    def test_plain_text_with_lexicon_labels_form_rules(self, files, capsys):
        from tests.conftest import DATA

        write, _ = files
        orig, corr = write("o.txt", "Mergem acasă\n"), write("c.txt", "mergem acasă\n")
        assert main(["extract", orig, corr, "--lexicon", str(DATA / "lexicon_ro.txt")]) == 0
        assert "A 0 1|||ORTH|||mergem|||REQUIRED|||-NONE-|||0" in capsys.readouterr().out

    def test_plain_text_with_lexicon_needing_annotations_exits_1(self, files, capsys):
        from tests.conftest import DATA

        write, _ = files
        orig, corr = write("o.txt", ORIG), write("c.txt", CORR)
        assert main(["extract", orig, corr, "--lexicon", str(DATA / "lexicon_ro.txt")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: sentence 0: edit 'internată' -> 'internate' needs lemma and UPOS on both tokens\n"
        )

    def test_length_mismatch_exits_2(self, files, capsys):
        write, _ = files
        orig = write("o.txt", "una doua\n")
        corr = write("c.txt", "una doua\ntrei\n")
        assert main(["extract", orig, corr]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_1(self, files):
        write, _ = files
        orig = write("o.txt", "una\n")
        assert main(["extract", orig, "/nonexistent/file.txt"]) == 1


class TestScoreAndStats:
    def make_m2(self, files):
        write, tmp = files
        orig, corr = write("o.txt", ORIG), write("c.txt", CORR)
        ref = str(tmp / "ref.m2")
        assert main(["extract", orig, corr, "-o", ref]) == 0
        return ref

    def test_perfect_self_score(self, files, capsys):
        ref = self.make_m2(files)
        assert main(["score", ref, ref]) == 0
        out = capsys.readouterr().out
        assert "Precision 1.0000" in out
        assert "Recall 1.0000" in out

    def test_score_against_noop_hypothesis(self, files, capsys):
        write, tmp = files
        ref = self.make_m2(files)
        hyp = write(
            "hyp.m2",
            "S în cazul unei paciente internată joi\n"
            "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n"
            "S mergem acasă\n"
            "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n",
        )
        assert main(["score", ref, hyp]) == 0
        out = capsys.readouterr().out
        assert "TP 0" in out and "FN 1" in out

    def test_score_length_mismatch_exits_2(self, files):
        write, _ = files
        ref = self.make_m2(files)
        hyp = write("hyp.m2", "S una\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n")
        assert main(["score", ref, hyp]) == 2

    def test_malformed_m2_exits_1(self, files):
        write, _ = files
        bad = write("bad.m2", "A 0 1|||T|||x|||REQUIRED|||-NONE-|||0\n")
        assert main(["stats", bad]) == 1

    def test_stats_output(self, files, capsys):
        ref = self.make_m2(files)
        assert main(["stats", ref]) == 0
        out = capsys.readouterr().out
        assert "total edits: 1" in out


class TestVerbose:
    def test_prints_the_parsed_options_in_one_line(self, files, capsys):
        write, _ = files
        inp = write("in.txt", "una doua\n")
        assert main(["--verbose", "filter", inp, "--min-words", "1"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0] == (
            f"filter: input={inp} max_foreign_ratio=0.025 min_diacritic_ratio=0.01 min_words=1 output=None"
        )
        assert err[1:] == ["input lines: 1", "accepted: 0", "rejected by rule 1 (first letter not uppercase): 1"]


class TestFilter:
    def test_streams_accepted_lines(self, files, capsys):
        write, tmp = files
        inp = write(
            "raw.txt",
            "Astăzi mâncăm ceva foarte bun și bem apă rece .\n"
            "prea scurtă\n",
        )
        out_path = str(tmp / "kept.txt")
        assert main(["filter", inp, "-o", out_path]) == 0
        kept = (tmp / "kept.txt").read_text(encoding="utf-8")
        assert kept == "Astăzi mâncăm ceva foarte bun și bem apă rece .\n"
        assert "accepted: 1" in capsys.readouterr().err

    def test_custom_min_words(self, files, tmp_path):
        write, tmp = files
        inp = write("raw.txt", "Mâncăm ceva bun astăzi .\n")
        out_path = str(tmp / "kept.txt")
        assert main(["filter", inp, "--min-words", "3", "-o", out_path]) == 0
        assert (tmp_path / "kept.txt").read_text(encoding="utf-8").strip()

    def test_stderr_tally(self, files, capsys):
        # Every rule of the fixture rejects one line; the report is
        # pinned byte for byte.
        write, tmp = files
        fixture = Path(__file__).parent / "data" / "filter_fixture.tsv"
        texts = [line.split("\t")[1] for line in fixture.read_text(encoding="utf-8").splitlines()]
        inp = write("raw.txt", "".join(t + "\n" for t in texts))
        assert main(["filter", inp, "-o", str(tmp / "kept.txt")]) == 0
        assert capsys.readouterr().err == (
            "input lines: 14\n"
            "accepted: 7\n"
            "rejected by rule 1 (first letter not uppercase): 1\n"
            "rejected by rule 2 (quotation marks or link markers): 1\n"
            "rejected by rule 3 (unbalanced brackets): 1\n"
            "rejected by rule 4 (no sentence-final punctuation): 1\n"
            "rejected by rule 5 (too few diacritics): 1\n"
            "rejected by rule 6 (too many foreign characters): 1\n"
            "rejected by rule 7 (too short): 1\n"
        )


class TestSynth:
    def lexicon(self, files):
        write, _ = files
        words = ["bace", "bice", "boba", "cuba", "ricema", "tibe", "lobă",
                 "masă", "cevat", "toba", "bobă", "mură", "dovă", "sobă"]
        return write("lex.txt", "".join(w + "\n" for w in words))

    def test_deterministic_output(self, files, tmp_path):
        write, tmp = files
        lex = self.lexicon(files)
        inp = write(
            "raw.txt",
            "Bace bice boba cuba ricema tibe lobă masă cevat toba .\n"
            "Bobă cuba tibe ricema bace bice cevat mură dovă sobă .\n",
        )
        a, b = str(tmp / "a.tsv"), str(tmp / "b.tsv")
        assert main(["synth", inp, "--lexicon", lex, "--seed", "7", "-o", a]) == 0
        assert main(["synth", inp, "--lexicon", lex, "--seed", "7", "-o", b]) == 0
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    def test_stderr_tally(self, files, capsys):
        write, tmp = files
        lex = self.lexicon(files)
        inp = write(
            "raw.txt",
            "Bace bice boba cuba ricema tibe lobă masă cevat toba .\n"
            "Bobă cuba tibe ricema bace bice cevat mură dovă sobă .\n"
            "prea scurtă\n",
        )
        assert main(["synth", inp, "--lexicon", lex, "--seed", "7", "-o", str(tmp / "a.tsv")]) == 0
        assert capsys.readouterr().err == (
            "input lines: 3\n"
            "accepted: 2\n"
            "rejected by rule 1 (first letter not uppercase): 1\n"
            "word operations: 4 (substitute=0.500, delete=0.250, insert=0.000, swap=0.250)\n"
            "char operations: 2\n"
            "mean changed-word fraction: 0.1818\n"
        )

    def test_seed_changes_output(self, files, tmp_path):
        write, tmp = files
        lex = self.lexicon(files)
        inp = write(
            "raw.txt",
            "Bace bice boba cuba ricema tibe lobă masă cevat toba .\n" * 20,
        )
        a, b = str(tmp / "a.tsv"), str(tmp / "b.tsv")
        assert main(["synth", inp, "--lexicon", lex, "--seed", "7", "-o", a]) == 0
        assert main(["synth", inp, "--lexicon", lex, "--seed", "8", "-o", b]) == 0
        assert (tmp_path / "a.tsv").read_text() != (tmp_path / "b.tsv").read_text()


class TestLmAndRerank:
    CORPUS = (
        "ea merge la școală\n"
        "el merge la munte\n"
        "ea merge acasă\n"
        "el merge la școală\n"
    )

    def train(self, files, order="2"):
        write, tmp = files
        inp = write("corpus.txt", self.CORPUS)
        model = str(tmp / "model.arpa")
        assert main(["lm-train", inp, "--order", order, "-o", model]) == 0
        return model

    def test_train_writes_arpa(self, files, tmp_path):
        self.train(files)
        text = (tmp_path / "model.arpa").read_text(encoding="utf-8")
        assert text.startswith("\\data\\")
        assert "\\end\\" in text

    def test_fixed_discount_flag(self, files):
        write, tmp = files
        inp = write("corpus.txt", self.CORPUS)
        model = str(tmp / "model.arpa")
        assert main(["lm-train", inp, "--order", "2", "--discount", "0.5", "-o", model]) == 0

    def test_lm_score_lines_and_perplexity(self, files, capsys):
        write, _ = files
        model = self.train(files)
        inp = write("eval.txt", "ea merge la școală\nel merge acasă\n")
        assert main(["lm-score", model, inp]) == 0
        captured = capsys.readouterr()
        rows = captured.out.strip().splitlines()
        assert len(rows) == 2
        for row in rows:
            lp, norm = row.split("\t")
            assert float(lp) < 0 and float(norm) < 0
        assert "perplexity" in captured.err

    def test_rerank_picks_per_group(self, files, capsys):
        write, _ = files
        model = self.train(files)
        nbest = write(
            "nbest.txt",
            "școală la merge ea\t0.0\nea merge la școală\t0.0\n\n"
            "el merge la munte\t0.0\nmunte la el merge\t0.0\n",
        )
        assert main(["rerank", model, nbest]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["ea merge la școală", "el merge la munte"]

    def test_malformed_arpa_exits_1(self, files):
        write, _ = files
        bad = write("bad.arpa", "not arpa\n")
        inp = write("eval.txt", "ea merge\n")
        assert main(["lm-score", bad, inp]) == 1


CLEAN = "Ana are mere și pere în coșul cel mare de acasă .\n"
LATIN1 = "Ana are caf\xe9 .\n".encode("latin-1")
MODEL = "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\tAna\n-0.5\t.\n-0.9\t<unk>\n\n\\end\\\n"
M2_AB = "S a b\nA 0 1|||R|||x|||REQUIRED|||-NONE-|||0\n\n"
M2_CD = "S c d\nA 0 1|||R|||x|||REQUIRED|||-NONE-|||0\n\n"
M2_NO_S = "A 0 1|||T|||x|||REQUIRED|||-NONE-|||0\n"
# A second annotator's edit on other tokens, on the same tokens, and
# as a noop.
M2_TWO_ANNOTATORS = M2_AB.replace("\n\n", "\nA 1 2|||R|||y|||REQUIRED|||-NONE-|||1\n\n")
M2_TWO_ANNOTATORS_SAME_TOKENS = M2_AB.replace("\n\n", "\nA 0 1|||R|||y|||REQUIRED|||-NONE-|||1\n\n")
M2_TWO_ANNOTATORS_NOOP = M2_AB + "S c d\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||1\n\n"

# (name, {file name: content}, argv naming those files, exit code,
#  text the error line must contain).  The file named "-" is fed to
#  stdin, under the POSIX locale, where Python's own sys.stdin lets
#  undecodable bytes through.
BAD_INPUTS = [
    ("synth-latin1", {"in.txt": LATIN1, "lex.txt": "casa\n"},
     ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1"], 1, "not valid UTF-8"),
    ("synth-latin1-jobs2", {"in.txt": LATIN1, "lex.txt": "casa\n"},
     ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1", "--jobs", "2"], 1, "not valid UTF-8"),
    ("extract-latin1", {"o.txt": LATIN1, "c.txt": CLEAN},
     ["extract", "o.txt", "c.txt"], 1, "not valid UTF-8"),
    ("lm-train-latin1", {"in.txt": LATIN1}, ["lm-train", "in.txt"], 1, "not valid UTF-8"),
    ("lexicon-bad-frequency", {"in.txt": CLEAN, "lex.txt": "casa\t3\nmasa\tx\n"},
     ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1"], 1, "line 2: frequency 'x'"),
    # A lexicon word is one token; a frequency is ASCII digits.
    ("lexicon-word-with-space", {"in.txt": CLEAN, "lex.txt": "casa\nana are\t5\n"},
     ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1"], 1,
     "lex.txt: line 2: word 'ana are' contains whitespace"),
    *[(f"lexicon-frequency-{freq}", {"in.txt": CLEAN, "lex.txt": f"casa\t3\nmasa\t{freq}\n"},
       ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1"], 1,
       f"lex.txt: line 2: frequency '{freq}' is not ASCII digits")
      for freq in ("1_0", "\u0663", "-3")],
    ("lexicon-frequency-too-long", {"in.txt": CLEAN, "lex.txt": "casa\t" + "1" * 5000 + "\n"},
     ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1"], 1,
     "lex.txt: line 1: frequency of 5000 digits is too long"),
    # A frequency after a tab, but no word before it.
    *[(f"lexicon-no-word-{name}", {"in.txt": CLEAN, "lex.txt": f"casa\t3\n{line}\n"},
       ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1"], 1,
       f"lex.txt: line 2: frequency '{count}' has no word")
      for name, line, count in (
          ("tab", "\t5", "5"), ("space-tab", " \t5", "5"), ("tab-word", "\tmasa", "masa"),
          # Before a bad word, which sends the block to the line-by-line check.
          ("tab-then-word-with-space", "\t5\nana are", "5"),
      )],
    ("lexicon-empty", {"in.txt": CLEAN, "lex.txt": "\n"},
     ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1"], 1, "no words"),
    ("lm-train-order-0", {"in.txt": CLEAN}, ["lm-train", "in.txt", "--order", "0"], 2, "--order"),
    # Rejected before counting starts.
    *[(f"lm-train-order-{order}", {"in.txt": CLEAN}, ["lm-train", "in.txt", "--order", order], 2,
       f"error: --order must be between 1 and 6, got {order}")
      for order in ("7", "1000000")],
    ("lm-train-stdin-latin1", {"-": LATIN1}, ["lm-train", "-"], 1, "<stdin>: not valid UTF-8"),
    ("filter-stdin-latin1", {"-": LATIN1}, ["filter", "-"], 1, "<stdin>: not valid UTF-8"),
    ("extract-bad-conllu", {"o.conllu": "1\tAna\n", "c.conllu": "1\tAna\n"},
     ["extract", "o.conllu", "c.conllu", "--conllu"], 1, "o.conllu: line 1: expected 10"),
    ("extract-conllu-id-skips-ahead",
     {"o.conllu": "1\tAna\t_\t_\t_\t_\t_\t_\t_\t_\n3\tare\t_\t_\t_\t_\t_\t_\t_\t_\n", "c.conllu": ""},
     ["extract", "o.conllu", "c.conllu", "--conllu"], 1, "o.conllu: line 2: bad token id: '3', expected 2"),
    ("lm-score-bad-arpa", {"m.arpa": "not arpa\n", "in.txt": CLEAN},
     ["lm-score", "m.arpa", "in.txt"], 1, "m.arpa: line 1: unexpected line"),
    ("rerank-bad-arpa", {"m.arpa": MODEL.replace("-0.5\t.", "-0.5\t. x"), "nb.txt": "Ana .\t0\n"},
     ["rerank", "m.arpa", "nb.txt"], 1, "m.arpa: line 6: gram does not match"),
    # ARPA numbers must be finite decimal numbers in ASCII digits.
    *[(f"lm-score-arpa-number-{number}", {"m.arpa": MODEL.replace("-0.5\t.", f"{number}\t."), "in.txt": CLEAN},
       ["lm-score", "m.arpa", "in.txt"], 1, f"m.arpa: line 6: bad numeric field in '{number}\\t.'")
      for number in ("nan", "-1_0", "inf", "1e999", "\u0663")],
    # So must its section numbers and counts, which int() alone reads.
    *[(f"lm-score-arpa-{name}", {"m.arpa": MODEL.replace(old, new), "in.txt": CLEAN},
       ["lm-score", "m.arpa", "in.txt"], 1, f"m.arpa: line {line_no}: {message}: {new!r}")
      for name, old, new, line_no, message in (
          ("count-arabic-indic", "ngram 1=3", "ngram 1=\u0663", 2, "bad count line"),
          ("count-underscore", "ngram 1=3", "ngram 1=0_3", 2, "bad count line"),
          ("header-arabic-indic", "\\1-grams:", "\\\u0661-grams:", 4, "bad section header"),
      )],
    ("rerank-bad-nbest", {"m.arpa": MODEL, "nb.txt": "Ana .\t0\n\nAna\n"},
     ["rerank", "m.arpa", "nb.txt"], 1, "nb.txt: line 3: expected 'sentence<TAB>score'"),
    # Scores must be finite decimal numbers in ASCII digits.
    *[(f"rerank-nbest-score-{score}", {"m.arpa": MODEL, "nb.txt": f"Ana .\t0\n\nAna .\t{score}\n"},
       ["rerank", "m.arpa", "nb.txt"], 1, f"nb.txt: line 3: bad score: '{score}'")
      for score in ("nan", "inf", "1e999", "1_0")],
    # Every combined score overflows: -5 per <unk> token times 1e308.
    ("rerank-lm-weight-overflow", {"m.arpa": MODEL.replace("-0.9\t<unk>", "-5\t<unk>"), "nb.txt": "x y\t0\nz\t0\n"},
     ["rerank", "m.arpa", "nb.txt", "--lm-weight", "1e308"], 1,
     "error: none of 2 hypotheses has a finite combined score"),
    ("rerank-lm-weight-nan", {"m.arpa": MODEL, "nb.txt": "Ana .\t0\n"},
     ["rerank", "m.arpa", "nb.txt", "--lm-weight", "nan"], 2, "--lm-weight must be finite, got nan"),
    ("synth-char-word-rate-nan", {"in.txt": CLEAN, "lex.txt": "casa\n"},
     ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1", "--char-word-rate", "nan"], 2,
     "--char-word-rate must be between 0 and 1, got nan"),
    # Rejected before any worker process starts.
    ("synth-jobs-0", {"in.txt": CLEAN, "lex.txt": "casa\n"},
     ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1", "--jobs", "0"], 2, "--jobs must be between 1"),
    ("synth-max-distance-negative", {"in.txt": CLEAN, "lex.txt": "casa\n"},
     ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1", "--max-distance", "-1"], 2,
     "--max-distance must be at least 0, got -1"),
    ("synth-mean-error-rate-2", {"in.txt": CLEAN, "lex.txt": "casa\n"},
     ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1", "--mean-error-rate", "2"], 2,
     "--mean-error-rate must be between 0 and 1, got 2.0"),
    ("lm-train-discount-2", {"in.txt": CLEAN}, ["lm-train", "in.txt", "--discount", "2"], 2,
     "--discount must be strictly between 0 and 1, got 2.0"),
]

# The same for commands that take no -o.
BAD_INPUTS_NO_OUTPUT = [
    ("score-different-sentences", {"ref.m2": M2_AB, "hyp.m2": M2_CD},
     ["score", "ref.m2", "hyp.m2"], 2, "sentence 1 differs"),
    ("score-different-sentences-later", {"ref.m2": M2_AB + M2_AB, "hyp.m2": M2_AB + M2_CD},
     ["score", "ref.m2", "hyp.m2"], 2, "sentence 2 differs"),
    ("score-bad-hyp", {"ref.m2": M2_AB, "hyp.m2": M2_NO_S},
     ["score", "ref.m2", "hyp.m2"], 1, "hyp.m2: line 1: annotation line before"),
    ("stats-bad-m2", {"in.m2": M2_NO_S}, ["stats", "in.m2"], 1, "in.m2: line 1: annotation line before"),
    ("stats-span-too-long", {"in.m2": M2_AB.replace("A 0 1", "A 0 " + "1" * 5000)},
     ["stats", "in.m2"], 1, "in.m2: line 2: bad span field"),
    ("stats-two-annotators", {"in.m2": M2_TWO_ANNOTATORS},
     ["stats", "in.m2"], 1, "in.m2: line 3: annotator '1' after annotator '0' of line 2"),
    ("stats-two-annotators-noop", {"in.m2": M2_TWO_ANNOTATORS_NOOP},
     ["stats", "in.m2"], 1, "in.m2: line 5: annotator '1' after annotator '0' of line 2"),
    ("score-two-annotators", {"ref.m2": M2_TWO_ANNOTATORS_SAME_TOKENS, "hyp.m2": M2_AB},
     ["score", "ref.m2", "hyp.m2"], 1, "ref.m2: line 3: annotator '1' after annotator '0' of line 2"),
    ("score-beta-nan", {"ref.m2": M2_AB, "hyp.m2": M2_AB},
     ["score", "ref.m2", "hyp.m2", "--beta", "nan"], 2, "--beta must be finite and greater than 0, got nan"),
    ("score-beta-negative", {"ref.m2": M2_AB, "hyp.m2": M2_AB},
     ["score", "ref.m2", "hyp.m2", "--beta", "-1"], 2, "--beta must be finite and greater than 0, got -1.0"),
    # argparse's own usage errors, in the same one-line form.
    ("score-beta-abc", {"ref.m2": M2_AB, "hyp.m2": M2_AB},
     ["score", "ref.m2", "hyp.m2", "--beta", "abc"], 2, "error: argument --beta: invalid float value: 'abc'"),
    ("lm-train-order-x", {"in.txt": CLEAN},
     ["lm-train", "in.txt", "--order", "x"], 2, "error: argument --order: invalid int value: 'x'"),
    ("score-missing-hyp", {"ref.m2": M2_AB},
     ["score", "ref.m2"], 2, "error: the following arguments are required: hyp"),
    ("filter-unknown-flag", {"in.txt": CLEAN},
     ["filter", "in.txt", "--bogus"], 2, "error: unrecognized arguments: --bogus"),
]


def write_files(tmp_path, files_in):
    """Write each file under tmp_path; return {name: path}."""
    paths = {}
    for name, content in files_in.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        paths[name] = str(path)
    return paths


def run_cli(tmp_path, files_in, argv):
    """Run the CLI in a fresh interpreter on files written under tmp_path."""
    stdin = files_in.get("-")
    files_in = {name: content for name, content in files_in.items() if name != "-"}
    paths = write_files(tmp_path, files_in)
    env = None if stdin is None else {**os.environ, "LC_ALL": "C"}
    result = subprocess.run(
        [sys.executable, "-m", "gectools.cli", *[paths.get(arg, arg) for arg in argv]],
        input=stdin,
        capture_output=True,
        env=env,
    )
    return result.returncode, result.stdout.decode(), result.stderr.decode()


def assert_one_error_line(returncode, stderr, code, needle):
    assert returncode == code, stderr
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), stderr
    assert needle in lines[0]


class TestBadInputs:
    @pytest.mark.parametrize(
        "files_in, argv, code, needle",
        [row[1:] for row in BAD_INPUTS],
        ids=[row[0] for row in BAD_INPUTS],
    )
    def test_one_error_line(self, tmp_path, files_in, argv, code, needle):
        returncode, _, stderr = run_cli(tmp_path, files_in, [*argv, "-o", str(tmp_path / "out")])
        assert_one_error_line(returncode, stderr, code, needle)

    @pytest.mark.parametrize(
        "files_in, argv, code, needle",
        [row[1:] for row in BAD_INPUTS_NO_OUTPUT],
        ids=[row[0] for row in BAD_INPUTS_NO_OUTPUT],
    )
    def test_one_error_line_no_output_flag(self, tmp_path, files_in, argv, code, needle):
        returncode, _, stderr = run_cli(tmp_path, files_in, argv)
        assert_one_error_line(returncode, stderr, code, needle)


class TestFlagRanges:
    def test_jobs_cap(self, capsys):
        # Checked on the parsed flags alone: no command, so no pool, runs.
        argv = ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1", "--jobs"]
        parser = build_parser()
        _check_ranges(parser, parser.parse_args([*argv, "128"]))
        with pytest.raises(SystemExit) as exc:
            _check_ranges(parser, parser.parse_args([*argv, "129"]))
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: --jobs must be between 1 and 128, got 129\n"


class TestWarnings:
    def test_lm_train_sparse_counts_warn_in_one_line(self, tmp_path):
        returncode, stdout, stderr = run_cli(tmp_path, {"-": b"a b\nc d\n"}, ["lm-train", "-", "--order", "2"])
        assert returncode == 0, stderr
        assert stdout.startswith("\\data\\\n") and stdout.endswith("\\end\\\n")
        lines = stderr.splitlines()
        assert len(lines) == 1, stderr
        assert lines[0].startswith("warning: order 2: count-of-counts too sparse")
        assert "lm.py" not in stderr


class TestLiteralSos:
    @pytest.mark.parametrize("order", ["3", "5"])
    def test_lm_train_reads_back(self, tmp_path, order):
        # A literal <s> word after another word: its context "are <s>"
        # ends in <s>.
        returncode, stdout, stderr = run_cli(
            tmp_path, {"-": "Ana are <s> mere .\n".encode()}, ["lm-train", "-", "--order", order]
        )
        assert returncode == 0, stderr
        assert all(line.startswith("warning: ") for line in stderr.splitlines()), stderr
        model = read_arpa(io.StringIO(stdout))
        assert model.order == int(order)
        assert "are <s>" in model.tables[1]


class TestOutputFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["filter", "in.txt"],
            ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1"],
            ["lm-score", "m.arpa", "in.txt"],
        ],
        ids=["filter", "synth", "lm-score"],
    )
    def test_failed_run_keeps_earlier_output(self, tmp_path, argv):
        paths = write_files(tmp_path, {"in.txt": LATIN1, "lex.txt": "casa\n", "m.arpa": MODEL})
        out = tmp_path / "out.txt"
        out.write_text("earlier\n", encoding="utf-8")
        assert main([*[paths.get(arg, arg) for arg in argv], "-o", str(out)]) == 1
        assert out.read_text(encoding="utf-8") == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*paths, "out.txt"])

    def test_success_replaces_output_keeping_its_mode(self, tmp_path):
        paths = write_files(tmp_path, {"in.txt": CLEAN, "m.arpa": MODEL})
        out = tmp_path / "out.tsv"
        out.write_text("earlier\n", encoding="utf-8")
        out.chmod(0o640)
        assert main(["lm-score", paths["m.arpa"], paths["in.txt"], "-o", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1
        assert out.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*paths, "out.tsv"])

    def test_non_regular_target_is_written_in_place(self, tmp_path):
        returncode, stdout, stderr = run_cli(
            tmp_path, {"in.txt": CLEAN, "m.arpa": MODEL},
            ["lm-score", "m.arpa", "in.txt", "-o", "/dev/stdout"],
        )
        assert returncode == 0, stderr
        assert len(stdout.splitlines()) == 1


class TestEntryPoint:
    def test_console_script_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "gectools.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "extract" in result.stdout and "rerank" in result.stdout
