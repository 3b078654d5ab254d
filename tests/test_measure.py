"""tools/measure.py: its refusals and its verdict rules.  No test here runs
perfbench: the refusals are checked on empty checkouts, the verdicts on
fixed lists."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import pytest

from tests.test_golden import ROOT

MEASURE = ROOT / "tools" / "measure.py"
MODES = {
    "pairs": ["pairs", "--workload", "annotate-conllu", "--seed", "1", "--pairs", "1", "--seconds", "0.1"],
    "rss": ["rss", "--workload", "lm-zipf", "--seed", "1"],
    "cold": ["cold", "--workload", "annotate-conllu", "--seed", "1", "--rounds", "1"],
}
# Written into each checkout where a run would start: perfbench/run.py
# (pairs), perfbench/worker.py (rss) and src/sitecustomize.py, which every
# interpreter with src/ on its path imports (rss and cold).
MARKER = "import pathlib\npathlib.Path(__file__).resolve().parents[1].joinpath('ran').touch()\n"


def load_measure():
    spec = importlib.util.spec_from_file_location("measure", MEASURE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


measure = load_measure()


def make_checkout(path):
    for name in ("perfbench/run.py", "perfbench/worker.py", "src/sitecustomize.py"):
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(MARKER)
    return path


def test_import_leaves_sys_path_alone():
    before = list(sys.path)
    load_measure()
    assert sys.path == before


def test_markers_notice_a_run(tmp_path):
    # The refusal tests below would pass vacuously if a marker never fired.
    checkout = make_checkout(tmp_path / "a")
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    assert (checkout / "ran").exists()
    (checkout / "ran").unlink()
    subprocess.run([sys.executable, str(checkout / "perfbench" / "run.py")], check=True)
    assert (checkout / "ran").exists()


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize(
    "names, message",
    [
        (["a", "./a"], "is named twice"),
        (["a", "bb"], "checkout paths differ in length"),
        (["a", "b"], "compiled bytecode moves the measurements"),
    ],
    ids=["named-twice", "unequal-lengths", "pycache"],
)
def test_refused_before_any_run(tmp_path, mode, names, message):
    for name in set(names):
        make_checkout(tmp_path / name)
    if "compiled" in message:
        (tmp_path / "b" / "src" / "gectools" / "__pycache__").mkdir(parents=True)
    result = subprocess.run([sys.executable, str(MEASURE), *MODES[mode], *names], cwd=tmp_path,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], result.stderr
    assert not list(tmp_path.glob("*/ran"))


# A perfbench/run.py that prints one output digest and a fixed result line.
FAKE_RUN = """import json
print("sha256 {digest} out/0.m2")
metrics = {{name: {{"value": 1.0}} for name in ("wall_s", "peak_rss_mb", "setup_s")}}
print(json.dumps({{"metrics": metrics, "failed": {failed}, "attempted": 2}}))
"""


@pytest.mark.parametrize(
    "change, returncode, error",
    [
        ({"digest": "aa", "failed": 0}, 0, None),
        ({"digest": "bb", "failed": 0}, 1, "error: the outputs do not compare: 1 of 1 shared output files differ, "
                                           "0 failed items"),
        ({"digest": "aa", "failed": 1}, 1, "error: the outputs do not compare: 0 of 1 shared output files differ, "
                                           "1 failed items"),
    ],
    ids=["same", "digests-differ", "item-failed"],
)
def test_pairs_fails_when_the_outputs_differ(tmp_path, change, returncode, error):
    for name, fake in (("a", {"digest": "aa", "failed": 0}), ("b", change)):
        (tmp_path / name / "src").mkdir(parents=True)
        (tmp_path / name / "perfbench").mkdir()
        (tmp_path / name / "perfbench" / "run.py").write_text(FAKE_RUN.format(**fake))
    result = subprocess.run([sys.executable, str(MEASURE), *MODES["pairs"], "a", "b"], cwd=tmp_path,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == returncode, result.stderr
    assert "sha256: 1 shared output files, " in result.stdout
    assert "change failed items: " in result.stdout.splitlines()[-1]
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert errors == ([error] if error else [])
    assert not error or result.stderr.splitlines()[-1] == error


def test_rounds_rotate_which_checkout_goes_first():
    assert [(i, c) for i, _, c in measure._rounds(["p", "c"], 3)] == [
        (0, "p"), (0, "c"), (1, "c"), (1, "p"), (2, "p"), (2, "c")]
    assert [c for *_, c in measure._rounds(["x", "y", "z"], 2)] == ["x", "y", "z", "y", "z", "x"]


class TestRegression:
    def test_within_bound(self):
        worse, verdict = measure._regression([1.0] * 4, [1.1] * 4, 0.25, lower=True)
        assert worse == pytest.approx(0.1) and verdict == "within bound"

    def test_worse(self):
        assert measure._regression([1.0] * 4, [1.5] * 4, 0.25, lower=True) == (0.5, "worse")
        assert measure._regression([10.0] * 4, [5.0] * 4, 0.25, lower=False) == (0.5, "worse")

    def test_better_is_within_bound(self):
        assert measure._regression([1.0] * 4, [0.5] * 4, 0.25, lower=True) == (-0.5, "within bound")

    def test_unresolved_when_the_parent_spreads_past_the_bound(self):
        # Parent quartiles 0.875, 1.25, 1.625: a spread of 60% of the median.
        before = [0.5, 1.0, 1.5, 2.0]
        assert measure._regression(before, [1.25] * 4, 0.25, lower=True) == (0.0, "unresolved")
        assert measure._regression(before, [0.45, 0.4, 0.49, 2.5], 0.25, lower=True)[1] == "unresolved"

    def test_unresolved_gives_way_when_every_change_run_is_better(self):
        before = [0.5, 1.0, 1.5, 2.0]
        assert measure._regression(before, [0.45, 0.4, 0.49, 0.3], 0.25, lower=True)[1] == "within bound"
        assert measure._regression(before, [2.1, 3.0, 2.5, 4.0], 0.25, lower=False)[1] == "within bound"


class TestGain:
    def test_holds_with_nine_of_ten_pairs_and_a_gap_past_the_spread(self):
        won, gap, holds = measure._gain([1.0] * 10, [0.9] * 9 + [0.95], lower=True)
        assert won == 10 and gap == pytest.approx(0.1) and holds
        assert measure._gain([1.0] * 10, [0.9] * 9 + [1.1], lower=True)[::2] == (9, True)
        assert measure._gain([1.0] * 10, [1.1] * 10, lower=False)[::2] == (10, True)

    def test_eight_of_ten_pairs_is_not_enough(self):
        assert measure._gain([1.0] * 10, [0.9] * 8 + [1.1] * 2, lower=True)[::2] == (8, False)

    def test_fewer_than_ten_pairs_never_hold(self):
        # Four clear wins, the gap far past the parent's spread.
        assert measure._gain([1.0, 1.01] * 2, [0.5] * 4, lower=True)[::2] == (4, False)

    def test_ties_count_for_neither_side(self):
        # The two ties leave 8 pairs won, not 10.
        assert measure._gain([1.0] * 10, [0.9] * 8 + [1.0] * 2, lower=True)[::2] == (8, False)
        assert measure._gain([1.0] * 10, [1.0] * 10, lower=True) == (0, 0.0, False)

    def test_gap_must_be_wider_than_the_parent_quartile_spread(self):
        # Parent quartiles 1.0, 1.1, 1.2; the change is 0.01 better in every pair.
        before = [1.0, 1.2] * 5
        won, gap, holds = measure._gain(before, [b - 0.01 for b in before], lower=True)
        assert won == 10 and gap == pytest.approx(0.01) and not holds
        won, gap, holds = measure._gain(before, [b - 0.3 for b in before], lower=True)
        assert won == 10 and gap == pytest.approx(0.3) and holds
