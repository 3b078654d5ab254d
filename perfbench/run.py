"""gectools benchmark: three CLI pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are generated from --seed
(perfbench/gen.py), the pipeline runs in a fresh interpreter against the
checkout's src/ (perfbench/worker.py) with one client, --jobs 1 and the
pure-Python kernels, and the last line of standard output is the JSON
result.  The lines before it give every metric by name with its unit,
the error rate, the environment and a sha256 digest of every output
file, so byte identity across commits can be compared.

Workloads:
  synth-zipf       gectools synth over a Zipf corpus on a 10k-word lexicon
  annotate-conllu  extract --conllu --lexicon, plain extract, score, stats
  lm-zipf          lm-train --order 5, lm-score, rerank of 8-best lists

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced run (see perfbench/tracing.py); their names
and units are those BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("synth-zipf", "annotate-conllu", "lm-zipf")
# Shards generated per run; passes cycle through them.
SHARDS = 16
# The whole run must end within 180 s.
CHILD_TIMEOUT_S = 170.0

def _write_json(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, ensure_ascii=False)


def generate(workload: str, seed: int, work: Path) -> None:
    lexicon = gen.make_lexicon(seed)
    gen.write_lexicon(work / "lexicon.txt", lexicon)
    for shard in range(SHARDS):
        d = work / f"shard-{shard}"
        d.mkdir()
        if workload == "synth-zipf":
            lines, expected = gen.make_synth_shard(seed, shard, lexicon)
            with open(d / "corpus.txt", "w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in lines)
            _write_json(d / "expect.json", {"expected": expected})
        elif workload == "annotate-conllu":
            triples = gen.make_annotate_shard(seed, shard, lexicon)
            wrong, correct, hyp = ([t[i] for t in triples] for i in range(3))
            gen.write_conllu(d / "wrong.conllu", wrong)
            gen.write_conllu(d / "correct.conllu", correct)
            gen.write_text(d / "wrong.txt", wrong)
            gen.write_text(d / "hyp.txt", hyp)
            forms = {k: [[t[0] for t in s] for s in v] for k, v in
                     (("wrong", wrong), ("correct", correct), ("hyp", hyp))}
            _write_json(d / "expect.json", forms)
        else:
            train, heldout, groups = gen.make_lm_shard(seed, shard, lexicon)
            gen.write_lines(d / "train.txt", train)
            gen.write_lines(d / "heldout.txt", heldout)
            gen.write_nbest(d / "nbest.txt", groups)
            _write_json(d / "expect.json", {
                "train_lines": len(train),
                "train_tokens": sum(len(t) for t in train),
                "heldout_lines": len(heldout),
                "groups": [[" ".join(toks) for toks, _ in g] for g in groups],
            })


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "gectools" / "cli.py").is_file():
        print(f"error: no gectools sources under {src}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    started = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        generate(args.workload, args.seed, work)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["GECTOOLS_PURE"] = "1"
        cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), "--work", str(work),
               "--workload", args.workload, "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--shards", str(SHARDS)]
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            log, _ = proc.communicate(timeout=CHILD_TIMEOUT_S - (time.monotonic() - started))
        except subprocess.TimeoutExpired:
            print("error: workload run timed out", file=sys.stderr)
            return 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or not (work / "result.json").exists():
            sys.stderr.write(log.decode("utf-8", "replace")[-4000:])
            print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(work / "result.json", encoding="utf-8") as fh:
            result = json.load(fh)
        if args.trace:
            shutil.copyfile(work / "trace.jsonl", ROOT / ".perfbench_work" / f"trace-{args.workload}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env_info = result["env"]
    if Path(env_info["gectools"]).resolve() != (src / "gectools").resolve():
        print(f"error: imported gectools from {env_info['gectools']}, not from {src}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"env backend={env_info['backend']} python={env_info['python']} nproc={env_info['nproc']} "
          f"gectools={env_info['gectools']}")
    for stage, s in result["stages"].items():
        print(f"stage {stage}: {s['rate_name']} {s['rate']:.4f} 1/s  "
              f"time median {s['seconds_median']:.4f} s, max {s['seconds_max']:.4f} s "
              f"over {s['passes']} passes")
    for index, (shard, stage_s) in enumerate(result["pass_times"]):
        print(f"pass {index} shard {shard}: " + " ".join(f"{k} {v:.4f} s" for k, v in stage_s.items()))
    if args.trace:
        for stage, secs in result["traced_stage_s"].items():
            print(f"traced stage {stage}: {secs:.4f} s per pass")
        print(f"target layers' share of traced stage time: {result['target_share']:.3f}")
        if result["missing"]:
            print("untraced (name not found): " + ", ".join(result["missing"]))
    else:
        print(f"setup: median of {result['setup_samples']} samples")
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate {failed / attempted:.6f} ratio ({failed} of {attempted} items failed)")
    for line in result["failures"]:
        print(f"failure: {line}")
    for key, digest in sorted(result["digests"].items()):
        print(f"sha256 {digest} {key}")
    if set(result["metrics"]) != set(units):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ set(units))}",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    unmeasured = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if unmeasured:
        print(f"error: no measurement of {', '.join(unmeasured)}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
