"""Measure perfbench workloads across checkouts of gectools.

    python3 tools/measure.py pairs --workload synth-zipf --seed 41 --pairs 10 --seconds 10 PARENT CHANGE
    python3 tools/measure.py rss --workload lm-zipf --seed 41 --runs 3 CHECKOUT...
    python3 tools/measure.py cold --workload annotate-conllu --seed 41 --rounds 9 CHECKOUT...

Run from the root of a checkout.  Each mode runs the checkouts in turn,
rotating which goes first.  Before any run it refuses a checkout named
twice (its runs would pool), one with __pycache__ under src/ (bytecode
moves peak_rss_mb about 0.3 MB) and paths of unequal length (that alone
moved synth-zipf wall_s +8%): compare sibling copies.  rss and cold run
interpreters with perfbench's environment (src/ on the path, a fixed hash
seed, no bytecode written) on shard 0 of perfbench/run.py's inputs for --seed.

pairs: alternating `perfbench/run.py --trace 0` runs, each checkout's own
perfbench on its own src/.  Per end-to-end metric of BENCHMARK.json, each
side's median and quartiles, the gain rule (_gain) and the regression
verdict (_regression); then differing sha256 digests and failed items.

rss: the peak (ru_maxrss) and current RSS (they can disagree by 0.2 MB)
after the imports and each stage of the checkout's worker's first pass, and
the stage that sets the peak: about 1 MB below perfbench's, as its own code
shifts the heap, so compare its stages and checkouts with each other.

cold: the median wall time in ms of `python -c pass`, of each stage as a
fresh `python -m gectools.cli` process compiled from source, and of a round.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The rss child, on argv work directory, workload, perfbench directory: prints [[stage, peak MB,
# current MB], ...].  Its text is part of the heap it measures, so edits move the readings.
RSS_CHILD = """
import json, logging, os, resource, sys
from pathlib import Path

work, workload, perfbench = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
sys.path.insert(0, perfbench)
import worker

readings = []

def read(stage):
    with open("/proc/self/statm") as fh:
        current = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    readings.append([stage, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, current])

# As worker.main does before its first pass.
logging.basicConfig(filename=str(work / "gectools.log"), level=logging.WARNING)
import gectools.cli

read("import")
w = worker.WORKLOADS[workload](work)
stages = iter([stage for stage, *_ in w.stages(0)])
main = gectools.cli.main

def measured(argv):
    try:
        return main(argv)
    finally:
        read(next(stages))

gectools.cli.main = measured
runner = worker.Runner(w, 1)
runner.run_pass(0)
if runner.failed:
    sys.exit("failed: " + "; ".join(runner.failures))
print(json.dumps(readings))
"""


def check_checkouts(checkouts: list[Path]) -> None:
    """Exit with one error line unless the checkouts can be compared."""
    for checkout in checkouts:
        if checkouts.count(checkout) > 1:
            raise SystemExit(f"error: {checkout} is named twice; its runs would pool with themselves")
        cached = next((checkout / "src").rglob("__pycache__"), None)
        if cached is not None:
            raise SystemExit(f"error: {cached}: compiled bytecode moves the measurements; remove it first")
    if len({len(str(checkout)) for checkout in checkouts}) > 1:
        lengths = ", ".join(f"{checkout} ({len(str(checkout))})" for checkout in checkouts)
        raise SystemExit(f"error: checkout paths differ in length: {lengths}; the path length alone "
                         "moves the timings, so compare sibling copies with paths of equal length")


def _rounds(checkouts: list[Path], rounds: int):
    """(round i, place k, checkout) in run order: round i starts with checkout i mod n."""
    for i in range(rounds):
        for k in range(len(checkouts)):
            yield i, k, checkouts[(i + k) % len(checkouts)]


def _child(checkout: Path, argv: list[str], env: dict[str, str] | None = None) -> tuple[str, float]:
    """(stdout, wall seconds) of the interpreter run on argv in checkout, by
    default in perfbench's environment; exits with its stderr's tail if it fails."""
    env = env or {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONHASHSEED": "0",
                  "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    result = subprocess.run([sys.executable, *argv], env=env, cwd=checkout, capture_output=True)
    elapsed = time.perf_counter() - start
    if result.returncode != 0:
        raise SystemExit(f"error: {checkout}: {argv[:2]} exited {result.returncode}: "
                         f"{result.stderr.decode(errors='replace')[-500:]}")
    return result.stdout.decode(), elapsed


@contextlib.contextmanager
def _inputs(args):
    """A temporary directory holding the inputs generated for the workload and seed."""
    import run  # perfbench/run.py
    with tempfile.TemporaryDirectory() as tmp:
        run.generate(args.workload, args.seed, Path(tmp))
        yield Path(tmp)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values if len(values) > 1 else values * 2, n=4, method="inclusive"))


def _gain(before: list[float], after: list[float], lower: bool) -> tuple[int, float, bool]:
    """(pairs the change read better, ties for neither side; the median gap
    in the better direction; whether a gain holds: the change better in at
    least nine tenths of the pairs, the gap wider than the parent's quartile spread)."""
    b1, b2, b3 = _quartiles(before)
    won = sum(1 for b, a in zip(before, after) if (a < b if lower else a > b))
    a2 = _quartiles(after)[1]
    gap = (b2 - a2) if lower else (a2 - b2)
    return won, gap, won >= 0.9 * len(before) and gap > b3 - b1


def _regression(before: list[float], after: list[float], bound: float, lower: bool) -> tuple[float, str]:
    """(how much worse the change's median is than the parent's, as a fraction of
    it; "worse" past the bound, else "within bound", but "unresolved" when the parent's
    quartile spread exceeds the bound and not every change run beats every parent run)."""
    b1, b2, b3 = _quartiles(before)
    a2 = _quartiles(after)[1]
    worse = ((a2 - b2) if lower else (b2 - a2)) / b2
    all_better = max(after) < min(before) if lower else min(after) > max(before)
    if (b3 - b1) / b2 > bound and not all_better:
        return worse, "unresolved"
    return worse, "worse" if worse > bound else "within bound"


def pairs(args) -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    results = {side: [] for side in args.checkouts}
    digests = {side: {} for side in args.checkouts}
    for i, k, side in _rounds(args.checkouts, args.pairs):
        argv = [str(side / "perfbench" / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        lines = _child(side, argv, os.environ)[0].splitlines()  # run.py sets its worker's environment
        results[side].append(json.loads(lines[-1]))
        for _, digest, key in (line.split(" ", 2) for line in lines if line.startswith("sha256 ")):
            digests[side].setdefault(key, set()).add(digest)
        if k == 1:
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    parent, change = args.checkouts
    print(f"workload {args.workload} seed {args.seed}: {args.pairs} alternating pairs, --seconds {args.seconds:g}")
    print(f"parent {parent}\nchange {change}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        before, after = ([r["metrics"][name]["value"] for r in results[side]] for side in args.checkouts)
        b1, b2, b3 = _quartiles(before)
        a1, a2, a3 = _quartiles(after)
        won, gap, holds = _gain(before, after, lower)
        worse, verdict = _regression(before, after, m["bound"], lower)
        print(f"{name} ({m['unit']}, {m['better']} is better): "
              f"parent {b2:.4f} [{b1:.4f}, {b3:.4f}] -> change {a2:.4f} [{a1:.4f}, {a3:.4f}], "
              f"change better in {won}/{args.pairs}; median gap {gap:+.4f} against parent quartile "
              f"spread {b3 - b1:.4f}: gain {'holds' if holds else 'does not hold'}; "
              f"regression {worse:+.2%} of the parent's median against bound {m['bound']:.0%}, "
              f"parent spread {(b3 - b1) / b2:.2%}: {verdict}")
    shared = sorted(set(digests[parent]) & set(digests[change]))
    differ = [key for key in shared if digests[parent][key] != digests[change][key]]
    print(f"sha256: {len(shared)} shared output files, {len(differ)} differ")
    for key in differ:
        print(f"sha256 differs: {key}")
    for side, label in zip(args.checkouts, ("parent", "change")):
        print(f"{label} failed items: {sum(r['failed'] for r in results[side])} of "
              f"{sum(r['attempted'] for r in results[side])}")


def rss(args) -> None:
    print(f"workload {args.workload} seed {args.seed} shard 0: peak/current RSS in MB after each stage")
    with _inputs(args) as work:
        for i, _, checkout in _rounds(args.checkouts, args.runs):
            shutil.rmtree(work / "out", ignore_errors=True)
            stdout, _ = _child(checkout, ["-c", RSS_CHILD, str(work), args.workload, str(checkout / "perfbench")])
            readings = json.loads(stdout.splitlines()[-1])
            setter = next(stage for stage, peak, _ in readings if peak == readings[-1][1])
            cells = "  ".join(f"{stage} {peak:.2f}/{current:.2f}" for stage, peak, current in readings)
            print(f"run {i + 1} {checkout}: {cells}  (peak set by {setter})")


def cold(args) -> None:
    import worker  # perfbench/worker.py

    with _inputs(args) as work:
        stages = [(name, ["-m", "gectools.cli", *argv])
                  for name, argv, *_ in worker.WORKLOADS[args.workload](work).stages(0)]
        times = {checkout: {name: [] for name in ["python -c pass", *dict(stages), "round"]}
                 for checkout in args.checkouts}
        for _, _, checkout in _rounds(args.checkouts, args.rounds):
            times[checkout]["python -c pass"].append(_child(checkout, ["-c", "pass"])[1])
            for name, argv in stages:
                times[checkout][name].append(_child(checkout, argv)[1])
            times[checkout]["round"].append(sum(times[checkout][name][-1] for name, _ in stages))

    print(f"workload {args.workload} seed {args.seed}: median of {args.rounds} rounds, ms")
    for checkout, by_stage in times.items():
        print(f"{checkout}: " + "  ".join(f"{name} {statistics.median(v) * 1000:.1f}" for name, v in by_stage.items()))


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # perfbench/run.py

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workload", required=True, choices=run.WORKLOADS)
    common.add_argument("--seed", type=int, required=True)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    modes = ap.add_subparsers(dest="mode", required=True)
    p = modes.add_parser("pairs", parents=[common])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=pairs, count="pairs")
    for name, func, flag, default in (("rss", rss, "--runs", 1), ("cold", cold, "--rounds", 7)):
        p = modes.add_parser(name, parents=[common])
        p.add_argument(flag, type=int, default=default)
        p.add_argument("checkouts", nargs="+")
        p.set_defaults(func=func, count=flag[2:])
    args = ap.parse_args()
    if getattr(args, args.count) < 1:
        ap.error(f"--{args.count} must be at least 1")
    names = [args.parent, args.change] if args.mode == "pairs" else args.checkouts
    args.checkouts = [Path(name).resolve() for name in names]
    check_checkouts(args.checkouts)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
