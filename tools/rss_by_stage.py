"""Which stage of a perfbench workload sets its peak_rss_mb?

    python3 tools/rss_by_stage.py --workload lm-zipf --seed 41 --runs 3 CHECKOUT...

Run from the root of a checkout.  The inputs are shard 0 of the
workload, generated by perfbench/run.py from --seed.  Each run starts one
fresh interpreter per CHECKOUT, rotating which checkout goes first, with
PYTHONPATH=CHECKOUT/src and PYTHONHASHSEED=0 and PYTHONDONTWRITEBYTECODE=1
as perfbench sets them.  The interpreter imports CHECKOUT's
perfbench/worker.py and gectools.cli and runs the worker's first pass
over shard 0, the pass whose ru_maxrss perfbench reports as
peak_rss_mb.  After the imports and after each stage it reads the
process's peak RSS (ru_maxrss) and its current RSS, from two kernel
counters that can disagree by about 0.2 MB.  Prints, per run and
checkout, "stage peak/current" in MB, and the first stage whose peak
equals the last one's: the stage that sets the peak.

The measuring code shifts the heap's layout, so the peaks read about
1 MB below perfbench's peak_rss_mb of the same checkout: compare stages
and checkouts with each other, not with perfbench.  The tool refuses
to run when a checkout holds a __pycache__ directory under src/
(compiled bytecode moves peak RSS by about 0.3 MB) or when the
checkouts' resolved paths differ in length (tools/checkouts.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (perfbench/run.py)
from checkouts import check_checkouts  # noqa: E402  (tools/checkouts.py)

# Runs in the fresh interpreter: argv is the work directory, the
# workload and the checkout's perfbench directory.  Prints one JSON list
# of [stage, peak MB, current MB].
CHILD = """
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


def _readings(checkout: Path, workload: str, work: Path) -> list[list]:
    shutil.rmtree(work / "out", ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONHASHSEED": "0",
           "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-c", CHILD, str(work), workload, str(checkout / "perfbench")]
    result = subprocess.run(argv, env=env, cwd=checkout, capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"error: {checkout}: exited {result.returncode}: {result.stderr[-500:]}")
    return json.loads(result.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("checkouts", nargs="+", type=lambda path: Path(path).resolve())
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    check_checkouts(args.checkouts)

    print(f"workload {args.workload} seed {args.seed} shard 0: peak/current RSS in MB after each stage")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run.generate(args.workload, args.seed, work)
        for i in range(args.runs):
            for k in range(len(args.checkouts)):
                checkout = args.checkouts[(i + k) % len(args.checkouts)]
                readings = _readings(checkout, args.workload, work)
                peak = readings[-1][1]
                setter = next(stage for stage, stage_peak, _ in readings if stage_peak == peak)
                cells = "  ".join(f"{stage} {stage_peak:.2f}/{current:.2f}" for stage, stage_peak, current in readings)
                print(f"run {i + 1} {checkout}: {cells}  (peak set by {setter})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
