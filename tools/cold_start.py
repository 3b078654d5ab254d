"""Cold start of the gectools command line: each stage of a perfbench
workload run as a fresh `python -m gectools.cli` process, as users run it.

    python3 tools/cold_start.py --workload annotate-conllu --seed 41 --rounds 9 CHECKOUT...

Run from the root of a checkout.  The inputs are shard 0 of the
workload, generated by perfbench/run.py from --seed, and the stage
commands are perfbench/worker.py's.  Each round runs every stage in
every CHECKOUT in turn, rotating which checkout goes first, with
PYTHONPATH=CHECKOUT/src and PYTHONHASHSEED=0 and PYTHONDONTWRITEBYTECODE=1
as perfbench sets them, so every gectools module is compiled from source
on each start.  PYTHONDONTWRITEBYTECODE stops only the writing of
bytecode, not its reading, so the tool refuses to run when a checkout
holds a __pycache__ directory under src/; it also refuses checkouts
whose resolved paths differ in length (tools/checkouts.py).  A `python
-c pass` process is timed too, each round, as the interpreter's own
start.  Prints the median wall time of each stage and of a whole round,
per checkout, in milliseconds.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (perfbench/run.py)
from checkouts import check_checkouts  # noqa: E402  (tools/checkouts.py)
import worker  # noqa: E402  (perfbench/worker.py)


def _time(argv: list[str], env: dict[str, str], cwd: Path) -> float:
    start = time.perf_counter()
    result = subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True)
    elapsed = time.perf_counter() - start
    if result.returncode != 0:
        raise SystemExit(f"error: {argv} in {cwd} exited {result.returncode}: {result.stderr.decode()[-500:]}")
    return elapsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("checkouts", nargs="+", type=lambda path: Path(path).resolve())
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    check_checkouts(args.checkouts)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run.generate(args.workload, args.seed, work)
        stages = [(name, argv) for name, argv, *_ in worker.WORKLOADS[args.workload](work).stages(0)]
        names = ["python -c pass", *(name for name, _ in stages), "round"]
        times = {checkout: {name: [] for name in names} for checkout in args.checkouts}
        for i in range(args.rounds):
            for k in range(len(args.checkouts)):
                checkout = args.checkouts[(i + k) % len(args.checkouts)]
                env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONHASHSEED": "0",
                       "PYTHONDONTWRITEBYTECODE": "1"}
                times[checkout]["python -c pass"].append(_time(["-c", "pass"], env, checkout))
                total = 0.0
                for name, argv in stages:
                    elapsed = _time(["-m", "gectools.cli", *argv], env, checkout)
                    times[checkout][name].append(elapsed)
                    total += elapsed
                times[checkout]["round"].append(total)

    print(f"workload {args.workload} seed {args.seed}: median of {args.rounds} rounds, ms")
    for checkout, by_stage in times.items():
        print(f"{checkout}: " + "  ".join(f"{name} {statistics.median(v) * 1000:.1f}"
                                          for name, v in by_stage.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
