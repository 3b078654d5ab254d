"""Alternating benchmark pairs of two checkouts: does a claimed gain hold, and does any metric regress?

    python3 tools/bench_pairs.py --workload synth-zipf --seed 41 --pairs 10 --seconds 10 PARENT CHANGE

Run from the root of a checkout.  Each pair runs `perfbench/run.py
--trace 0` once in PARENT and once in CHANGE, each checkout's own
perfbench against its own src/, alternating which goes first.  For every
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the number of pairs in which the change read better (ties
count for neither side), and whether the gain rule holds: the change
better in at least nine tenths of the pairs, and the medians apart by
more than the distance between the parent's quartiles.  It also prints
the no-regression check against the metric's bound in BENCHMARK.json,
read as a fraction of the parent's median: the change's median relative
to the parent's, and the verdict "within bound", "worse" (worse than the
parent's median by more than the bound) or "unresolved" (the parent's
quartile spread, relative to its median, exceeds the bound, and not
every run of the change reads better than every run of the parent).
Then it lists every output file both sides digest whose sha256 differs
in any run, and the failed items of each side.  It refuses to run when
either checkout holds a __pycache__ directory under src/ (compiled
bytecode moves peak_rss_mb by about 0.3 MB) or when the two resolved
paths differ in length (tools/checkouts.py): compare sibling copies.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py)
from checkouts import check_checkouts  # noqa: E402  (tools/checkouts.py)


def _bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict[str, str]]:
    """One run: (the result JSON line, {output file: sha256})."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"error: {checkout}: perfbench exited {result.returncode}: {result.stderr[-500:]}")
    lines = result.stdout.splitlines()
    digests = {}
    for line in lines:
        if line.startswith("sha256 "):
            _, digest, key = line.split(" ", 2)
            digests[key] = digest
    return json.loads(lines[-1]), digests


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _regression(before: list[float], after: list[float], bound: float, lower: bool) -> tuple[float, str]:
    """(how much worse the change's median is than the parent's, as a
    fraction of the parent's median; the no-regression verdict)."""
    b1, b2, b3 = _quartiles(before)
    a2 = _quartiles(after)[1]
    worse = ((a2 - b2) if lower else (b2 - a2)) / b2
    all_better = max(after) < min(before) if lower else min(after) > max(before)
    if (b3 - b1) / b2 > bound and not all_better:
        return worse, "unresolved"
    return worse, "worse" if worse > bound else "within bound"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("parent", type=lambda path: Path(path).resolve())
    ap.add_argument("change", type=lambda path: Path(path).resolve())
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = (args.parent, args.change)
    check_checkouts(sides)
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    failed = {side: 0 for side in sides}
    attempted = {side: 0 for side in sides}
    digests = {side: {} for side in sides}
    for i in range(args.pairs):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            result, run_digests = _bench(side, args.workload, args.seed, args.seconds)
            for name in values[side]:
                values[side][name].append(result["metrics"][name]["value"])
            failed[side] += result["failed"]
            attempted[side] += result["attempted"]
            for key, digest in run_digests.items():
                digests[side].setdefault(key, set()).add(digest)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    print(f"workload {args.workload} seed {args.seed}: {args.pairs} alternating pairs, --seconds {args.seconds:g}")
    print(f"parent {args.parent}\nchange {args.change}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        before, after = values[args.parent][name], values[args.change][name]
        b1, b2, b3 = _quartiles(before)
        a1, a2, a3 = _quartiles(after)
        won = sum(1 for b, a in zip(before, after) if (a < b if lower else a > b))
        gap = (b2 - a2) if lower else (a2 - b2)
        holds = won >= 0.9 * args.pairs and gap > b3 - b1
        worse, verdict = _regression(before, after, m["bound"], lower)
        print(f"{name} ({m['unit']}, {m['better']} is better): "
              f"parent {b2:.4f} [{b1:.4f}, {b3:.4f}] -> change {a2:.4f} [{a1:.4f}, {a3:.4f}], "
              f"change better in {won}/{args.pairs}; median gap {gap:+.4f} against parent quartile "
              f"spread {b3 - b1:.4f}: gain {'holds' if holds else 'does not hold'}; "
              f"regression {worse:+.2%} of the parent's median against bound {m['bound']:.0%}, "
              f"parent spread {(b3 - b1) / b2:.2%}: {verdict}")
    shared = sorted(set(digests[args.parent]) & set(digests[args.change]))
    differ = [key for key in shared if digests[args.parent][key] != digests[args.change][key]]
    print(f"sha256: {len(shared)} shared output files, {len(differ)} differ")
    for key in differ:
        print(f"sha256 differs: {key}")
    for side, label in zip(sides, ("parent", "change")):
        print(f"{label} failed items: {failed[side]} of {attempted[side]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
