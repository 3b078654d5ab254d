"""Byte-exact output of every subcommand on small committed inputs.

The inputs in tests/data/golden/input/ are a few perfbench-style lines
(perfbench/gen.py, seed 41).  The files in tests/data/golden/expected/
hold what each command printed: <case>.out its standard output and
<case>.err its standard error, which is empty where no .err file exists.
They are the byte-identity contract: a change that alters one shows as a
diff of that file.  After a deliberate output change, write them again
from the root of the repository with

    PYTHONPATH=src python -m tests.test_golden

Each command runs in a fresh interpreter.  synth runs under two
PYTHONHASHSEED values with --jobs 1 and 2, extract under two
PYTHONHASHSEED values; all runs of a case must print the same bytes.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
INPUT = DATA / "golden" / "input"
EXPECTED = DATA / "golden" / "expected"


def _in(name: str) -> str:
    return str(INPUT / name)


def _expected(name: str) -> str:
    return str(EXPECTED / name)


# Case name -> argv.  Later cases read the expected output of earlier ones,
# so regeneration runs them in this order.
CASES = {
    "synth": ["synth", _in("corpus.txt"), "--lexicon", _in("lexicon.txt"), "--seed", "7"],
    "filter": ["filter", _in("corpus.txt")],
    "extract_conllu": ["extract", _in("wrong.conllu"), _in("correct.conllu"),
                       "--conllu", "--lexicon", _in("lexicon.txt")],
    "extract_classify": ["extract", str(DATA / "classify_orig.conllu"), str(DATA / "classify_corr.conllu"),
                         "--conllu", "--lexicon", str(DATA / "lexicon_ro.txt")],
    "extract_plain": ["extract", _in("wrong.txt"), _in("hyp.txt")],
    "score": ["score", _expected("extract_conllu.out"), _expected("extract_plain.out")],
    "stats": ["stats", _expected("extract_conllu.out")],
    "lm_train": ["lm-train", _in("train.txt"), "--order", "3"],
    "lm_score": ["lm-score", _expected("lm_train.out"), _in("heldout.txt")],
    "rerank": ["rerank", _expected("lm_train.out"), _in("nbest.txt")],
}

HASH_SEEDS = ("0", "1")


def _runs():
    """(case, PYTHONHASHSEED, extra flags) of every run the test makes."""
    for name in CASES:
        if name == "synth":
            for seed in HASH_SEEDS:
                for jobs in ("1", "2"):
                    yield name, seed, ["--jobs", jobs]
        elif name.startswith("extract"):
            for seed in HASH_SEEDS:
                yield name, seed, []
        else:
            yield name, HASH_SEEDS[0], []


def run(name: str, hash_seed: str, extra: list[str]) -> tuple[bytes, bytes]:
    """(stdout, stderr) of one case, run as `python -m gectools.cli`."""
    result = subprocess.run(
        [sys.executable, "-m", "gectools.cli", *CASES[name], *extra],
        capture_output=True, env=child_env(PYTHONHASHSEED=hash_seed), timeout=60,
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    return result.stdout, result.stderr


def _expected_err(name: str) -> bytes:
    path = EXPECTED / f"{name}.err"
    return path.read_bytes() if path.exists() else b""


@pytest.mark.parametrize(
    "name, hash_seed, extra", list(_runs()),
    ids=[f"{name}-hashseed{seed}{''.join(extra).replace('--', '-')}" for name, seed, extra in _runs()],
)
def test_golden(name, hash_seed, extra):
    stdout, stderr = run(name, hash_seed, extra)
    assert stdout == (EXPECTED / f"{name}.out").read_bytes()
    assert stderr == _expected_err(name)


def regenerate() -> None:
    """Write every expected file from the first run of its case."""
    EXPECTED.mkdir(parents=True, exist_ok=True)
    for path in EXPECTED.iterdir():
        path.unlink()
    for name in CASES:
        stdout, stderr = run(name, HASH_SEEDS[0], [])
        (EXPECTED / f"{name}.out").write_bytes(stdout)
        if stderr:
            (EXPECTED / f"{name}.err").write_bytes(stderr)


if __name__ == "__main__":
    regenerate()
