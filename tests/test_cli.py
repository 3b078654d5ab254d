"""End-to-end CLI behaviour, exit codes included."""

import subprocess
import sys

import pytest

from gectools.cli import main

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

# (name, {file name: content}, argv naming those files, exit code,
#  text the error line must contain)
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
    ("lexicon-empty", {"in.txt": CLEAN, "lex.txt": "\n"},
     ["synth", "in.txt", "--lexicon", "lex.txt", "--seed", "1"], 1, "no words"),
    ("lm-train-order-0", {"in.txt": CLEAN}, ["lm-train", "in.txt", "--order", "0"], 2, "--order"),
]


class TestBadInputs:
    @pytest.mark.parametrize(
        "files_in, argv, code, needle",
        [row[1:] for row in BAD_INPUTS],
        ids=[row[0] for row in BAD_INPUTS],
    )
    def test_one_error_line(self, tmp_path, files_in, argv, code, needle):
        paths = {}
        for name, content in files_in.items():
            path = tmp_path / name
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
            paths[name] = str(path)
        argv = [paths.get(arg, arg) for arg in argv]
        result = subprocess.run(
            [sys.executable, "-m", "gectools.cli", *argv, "-o", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, result.stderr
        assert needle in errors[0]


class TestEntryPoint:
    def test_console_script_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "gectools.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "extract" in result.stdout and "rerank" in result.stdout
