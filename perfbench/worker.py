"""One benchmark run of one workload, in a fresh interpreter.

run.py generates the inputs and starts this script with PYTHONPATH
pointing at the checkout's src/ and PYTHONHASHSEED pinned.  It runs the
workload's pipeline through gectools.cli.main, one stage per subcommand,
pass after pass over the input shards, checks every output, and writes
a JSON result for run.py to print.

Untraced run (--trace 0): passes until --seconds of pipeline time have
been measured, with the set-up timed between passes.
Traced run (--trace 1): untraced passes for half of --seconds, then the
same shards again with tracing on.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing

MIN_PASSES = 2
# After each pass the set-up is timed once and then again for up to this
# share of the pass's time; the median of all samples is reported.
SETUP_SHARE = 0.1
# Stop starting passes after this long, whatever --seconds says, so a
# much slower program still ends inside the harness's time limit.
PASS_DEADLINE_S = 110.0
# A fixed corruption seed and error rate: synth corrupts line i with a
# generator seeded from its own --seed and i, so with the shard layout
# fixed (gen.make_synth_shard) every benchmark seed corrupts the same
# number of words per line and changes only which words they are.
SYNTH_FLAGS = ["--seed", "7", "--jobs", "1", "--std-error-rate", "0"]

# Throughput name of each stage, as printed and as the traced run's
# cli.<name> metric.
RATES = {
    "synth": "synth_sent_per_s",
    "extract_conllu": "extract_pairs_per_s",
    "extract_plain": "extract_plain_pairs_per_s",
    "score": "score_sent_per_s",
    "stats": "stats_sent_per_s",
    "lm_train": "lm_train_tok_per_s",
    "lm_score": "lm_score_sent_per_s",
    "rerank": "rerank_groups_per_s",
}


class Workload:
    """Stages, set-up and checks of one workload over a generated shard.

    stages(shard) returns (stage, argv, items, rate items) tuples, where
    items count toward attempted/failed and rate items are what the
    stage's throughput counts.  check(shard, file_bytes) returns failed
    items per stage and adds output file sizes to file_bytes.
    target_layers(metrics) names the traced metrics of the layer the
    workload is built to stress.
    """

    def __init__(self, work: Path):
        self.work = work
        self.out = work / "out"
        self.out.mkdir(exist_ok=True)
        self.lexicon = str(work / "lexicon.txt")

    def shard_dir(self, shard: int) -> Path:
        return self.work / f"shard-{shard}"

    def expect(self, shard: int) -> dict:
        with open(self.shard_dir(shard) / "expect.json", encoding="utf-8") as fh:
            return json.load(fh)

    def out_path(self, name: str) -> str:
        return str(self.out / name)


class SynthZipf(Workload):
    def stages(self, shard):
        d = self.shard_dir(shard)
        n = len(self.expect(shard)["expected"])
        argv = ["synth", str(d / "corpus.txt"), "--lexicon", self.lexicon, *SYNTH_FLAGS,
                "-o", self.out_path("pairs.tsv")]
        return [("synth", argv, n, n)]

    def setup(self):
        from gectools.lexicon import Lexicon
        from gectools.synth import ConfusionProvider

        ConfusionProvider(Lexicon.from_file(self.lexicon), max_distance=2)

    def target_layers(self, metrics):
        return ["kernels.scan_s"]

    def check(self, shard, file_bytes):
        exp = self.expect(shard)["expected"]
        return {"synth": checks.synth(self.out_path("pairs.tsv"), self.out_path("synth.err"), exp)}


class AnnotateConllu(Workload):
    def stages(self, shard):
        d = self.shard_dir(shard)
        n = len(self.expect(shard)["correct"])
        return [
            ("extract_conllu", ["extract", str(d / "wrong.conllu"), str(d / "correct.conllu"),
                                "--conllu", "--lexicon", self.lexicon, "-o", self.out_path("ref.m2")], n, n),
            ("extract_plain", ["extract", str(d / "wrong.txt"), str(d / "hyp.txt"),
                               "-o", self.out_path("hyp.m2")], n, n),
            ("score", ["score", self.out_path("ref.m2"), self.out_path("hyp.m2")], n, n),
            ("stats", ["stats", self.out_path("ref.m2")], n, n),
        ]

    def setup(self):
        from gectools.lexicon import Lexicon

        Lexicon.from_file(self.lexicon)

    def target_layers(self, metrics):
        return ["align.align_s", "kernels.dl_s"]

    def check(self, shard, file_bytes):
        exp = self.expect(shard)
        ref_failed, ref_edits = checks.m2(self.out_path("ref.m2"), exp["wrong"], exp["correct"], typed=True)
        hyp_failed, hyp_edits = checks.m2(self.out_path("hyp.m2"), exp["wrong"], exp["hyp"], typed=False)
        file_bytes["m2.bytes"] += sum(os.path.getsize(self.out_path(f)) for f in ("ref.m2", "hyp.m2"))
        return {
            "extract_conllu": ref_failed,
            "extract_plain": hyp_failed,
            "score": checks.score_output(self.out_path("score.out"), ref_edits, hyp_edits),
            "stats": checks.stats_output(self.out_path("stats.out"), ref_edits),
        }


class LmZipf(Workload):
    def stages(self, shard):
        d = self.shard_dir(shard)
        exp = self.expect(shard)
        model = self.out_path("model.arpa")
        return [
            ("lm_train", ["lm-train", str(d / "train.txt"), "--order", "5", "-o", model],
             exp["train_lines"], exp["train_tokens"]),
            ("lm_score", ["lm-score", model, str(d / "heldout.txt"), "-o", self.out_path("scores.tsv")],
             exp["heldout_lines"], exp["heldout_lines"]),
            ("rerank", ["rerank", model, str(d / "nbest.txt"), "-o", self.out_path("reranked.txt")],
             len(exp["groups"]), len(exp["groups"])),
        ]

    def setup(self):
        from gectools.lm import read_arpa

        with open(self.out_path("setup.arpa"), encoding="utf-8") as fh:
            read_arpa(fh)

    def target_layers(self, metrics):
        return [name for name in metrics if name.startswith("lm.") and name.endswith("_s")]

    def check(self, shard, file_bytes):
        exp = self.expect(shard)
        file_bytes["lm.arpa_bytes"] += os.path.getsize(self.out_path("model.arpa"))
        if shard == 0 and not os.path.exists(self.out_path("setup.arpa")):
            shutil.copyfile(self.out_path("model.arpa"), self.out_path("setup.arpa"))
        return {
            "lm_train": checks.arpa(self.out_path("model.arpa")) * exp["train_lines"],
            "lm_score": checks.lm_scores(self.out_path("scores.tsv"), exp["heldout_lines"]),
            "rerank": checks.rerank_output(self.out_path("reranked.txt"), exp["groups"]),
        }


WORKLOADS = {"synth-zipf": SynthZipf, "annotate-conllu": AnnotateConllu, "lm-zipf": LmZipf}


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    def __init__(self, workload: Workload, n_shards: int):
        self.w = workload
        self.n_shards = n_shards
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.file_bytes = {"m2.bytes": 0.0, "lm.arpa_bytes": 0.0}
        self.first_pass_rss_mb = 0.0
        self.setup_broken = False

    def run_pass(self, index: int, tracer: tracing.Tracer | None = None) -> dict[str, tuple[float, int]]:
        """Run every stage on shard index % n_shards; returns
        {stage: (seconds, rate items)}."""
        from gectools import cli

        shard = index % self.n_shards
        times = {}
        rcs = {}
        for path in self.w.out.iterdir():  # no check may read an earlier pass's output
            if path.name != "setup.arpa":
                path.unlink()
        stages = self.w.stages(shard)
        for stage, argv, _, rate_items in stages:
            out_path, err_path = self.w.out_path(f"{stage}.out"), self.w.out_path(f"{stage}.err")
            with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    if tracer is None:
                        rc = cli.main(argv)
                    else:
                        rc = tracer.call(f"cli.{stage}", cli.main, argv)
                except (Exception, SystemExit) as exc:
                    rc = f"raised {exc!r}"
                    traceback.print_exc()
                times[stage] = (time.perf_counter() - start, rate_items)
            rcs[stage] = rc
        if index == 0:
            # Users run each command in a fresh process, so the peak that
            # counts is the first pass's, before the heap has seen others.
            self.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            failed = self.w.check(shard, self.file_bytes)
        except Exception as exc:
            failed = {stage: math.inf for stage, *_ in stages}
            self.failures.append(f"pass {index}: check raised {exc!r}")
        for stage, _, items, _ in stages:
            bad = items if rcs[stage] != 0 else min(items, failed.get(stage, 0))
            self.attempted += items
            self.failed += bad
            if bad:
                self.failures.append(
                    f"pass {index} shard {shard} {stage}: exit {rcs[stage]}, {bad} items failed"
                )
        for path in sorted(self.w.out.iterdir()):
            if path.suffix == ".err" or path.name == "setup.arpa":
                continue
            key = f"shard-{shard}/{path.name}"
            digest = _sha256(path)
            if self.digests.setdefault(key, digest) != digest:
                self.failed += 1
                self.failures.append(f"{key}: output differs from an earlier pass on the same shard")
        return times

    def time_setup(self, budget_s: float, samples: list[float]) -> None:
        """Time the workload's set-up once, and again while budget_s lasts.

        A set-up that raises counts as one failed item and is not timed
        again.
        """
        began = time.perf_counter()
        while not self.setup_broken:
            start = time.perf_counter()
            try:
                self.w.setup()
            except Exception as exc:
                self.setup_broken = True
                self.attempted += 1
                self.failed += 1
                self.failures.append(f"set-up raised {exc!r}")
                return
            end = time.perf_counter()
            samples.append(end - start)
            if end - began >= budget_s:
                return


def _stage_summary(passes: list[dict[str, tuple[float, int]]]) -> dict[str, dict]:
    """Per stage: throughput as total rate items over total seconds, and
    the median and largest pass time."""
    out = {}
    for stage in passes[0]:
        secs = [p[stage][0] for p in passes]
        out[stage] = {
            "rate_name": RATES[stage],
            "rate": sum(p[stage][1] for p in passes) / sum(secs),
            "seconds_median": statistics.median(secs),
            "seconds_max": max(secs),
            "passes": len(passes),
        }
    return out


def _run_passes(runner, seconds, count=None, tracer=None, after=None):
    """Passes over shards 0, 1, ... until `seconds` of stage time have been
    measured (at least MIN_PASSES), or exactly `count` passes.

    after(pass seconds), when given, runs between passes, untimed.
    """
    passes = []
    measured = 0.0
    started = time.perf_counter()
    while True:
        if count is not None:
            if len(passes) >= count:
                break
        elif len(passes) >= MIN_PASSES and (
            measured >= seconds or time.perf_counter() - started > PASS_DEADLINE_S
        ):
            break
        times = runner.run_pass(len(passes), tracer)
        passes.append(times)
        pass_s = sum(t for t, _ in times.values())
        measured += pass_s
        if after is not None:
            after(pass_s)
    return passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--work", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--shards", type=int, required=True)
    args = ap.parse_args()

    work = Path(args.work)
    # Keep gectools' own logging configuration from binding to the
    # per-stage stderr files, which are closed after each stage.
    logging.basicConfig(filename=str(work / "gectools.log"), level=logging.WARNING)
    import gectools
    import gectools.cli  # noqa: F401  (imported before any timing)
    import gectools.kernels

    workload = WORKLOADS[args.workload](work)
    runner = Runner(workload, args.shards)
    result: dict = {
        "env": {
            "gectools": os.path.dirname(gectools.__file__),
            "backend": getattr(gectools.kernels, "BACKEND", "unknown"),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
        }
    }

    if args.trace == 0:
        # Set-up is timed between passes, so its samples spread over the
        # run like the passes' and a slow spell of the machine cannot
        # land on all of them.
        setup: list[float] = []
        passes = _run_passes(
            runner, args.seconds, after=lambda pass_s: runner.time_setup(SETUP_SHARE * pass_s, setup)
        )
        result["metrics"] = {
            "setup_s": statistics.median(setup) if setup else math.nan,
            "wall_s": sum(t for p in passes for t, _ in p.values()) / len(passes),
            "peak_rss_mb": runner.first_pass_rss_mb,
        }
        result["setup_samples"] = len(setup)
    else:
        plain = _run_passes(runner, args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = _run_passes(runner, 0, count=len(plain), tracer=tracer)
        finally:
            tracer.restore()
        tracer.write(work / "trace.jsonl")
        passes = plain
        # Output sizes were added up on the untraced and the traced passes.
        sizes = {k: v / 2 for k, v in runner.file_bytes.items()}
        metrics = tracing.layer_metrics(tracer, len(traced), sizes)
        summary = _stage_summary(plain)
        for stage, rate in RATES.items():
            metrics[f"cli.{stage}.self_s"] = tracer.self_s[f"cli.{stage}"] / len(traced)
            metrics[f"cli.{rate}"] = summary[stage]["rate"] if stage in summary else 0.0
        untraced_wall = sum(t for p in plain for t, _ in p.values())
        traced_wall = sum(t for p in traced for t, _ in p.values())
        metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
        result["metrics"] = metrics
        result["missing"] = tracer.missing
        target = sum(metrics[name] for name in workload.target_layers(metrics))
        result["target_share"] = target / (traced_wall / len(traced))
        result["traced_stage_s"] = {
            stage: sum(p[stage][0] for p in traced) / len(traced) for stage in traced[0]
        }

    result["pass_times"] = [[i % args.shards, {k: v[0] for k, v in p.items()}] for i, p in enumerate(passes)]
    result["stages"] = _stage_summary(passes)
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["failures"] = runner.failures[:20]
    result["digests"] = runner.digests
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
