"""prodenv benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one table

NAME is pipeline_cli, identify_200k, counterfactual_k or duality_grid (see
BENCHMARK.json for why each exists).  Each workload runs in fresh processes,
one at a time, with BLAS and prodenv limited to one thread.

--trace 0 reports the end-to-end metrics: setup_s (median of three fresh
set-ups), wall_s (median time of a unit of work: a pass, or one seed in
identify_200k) and peak_rss_mb (the measuring process, through its first
pass).
--trace 1 reports the per-layer metrics from one traced pass, plus
trace.overhead_s against one untraced pass.  Both print failed_frac (and
recovery_err on pipeline_cli and identify_200k), then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is 1 when an output check fails other than by a known defect
recorded in baseline.json, and 2 when the benchmark cannot run (prodenv
missing, a worker crashed or timed out); then no JSON line is printed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("pipeline_cli", "identify_200k", "counterfactual_k", "duality_grid")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(workload, seed, seconds, mode, workdir, deadline):
    env = {k: v for k, v in os.environ.items() if k != "PRODENV_THREADS"}
    env.update(SINGLE_THREAD)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--workdir", workdir, "--t0", repr(time.time())]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def _fresh_dir(workload, seed, mode):
    path = os.path.join(OUT, f"{workload}-seed{seed}-{mode}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_workload(workload, seed, seconds, trace, deadline):
    """Returns (result dict for the JSON line, human-readable lines, the
    measuring worker's raw report)."""
    if not os.path.isdir(os.path.join(ROOT, "src", "prodenv")):
        raise BenchError(f"no prodenv sources under {ROOT}/src")
    if trace:
        work = _fresh_dir(workload, seed, "trace")
        try:
            plain = _worker(workload, seed, 0, "measure", work, deadline)
            traced = _worker(workload, seed, 0, "trace", work, deadline)
            spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
            os.replace(os.path.join(work, "spans.jsonl"), spans)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_s"] = traced["passes"][0] - plain["passes"][0]
        units = per_layer_units()
        answers = traced
        extra = [f"spans written to {os.path.relpath(spans, ROOT)}"]
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            work = _fresh_dir(workload, seed, "setup")
            try:
                setups.append(_worker(workload, seed, 0, "setup", work, deadline)["setup_s"])
            finally:
                shutil.rmtree(work, ignore_errors=True)
        work = _fresh_dir(workload, seed, "measure")
        try:
            answers = _worker(workload, seed, seconds, "measure", work, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        setups.append(answers["setup_s"])
        passes = answers["passes"]
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(answers["units"]),
                   "peak_rss_mb": answers["peak_rss_mb"]}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
        extra = [f"{len(passes)} timed passes: "
                 + ", ".join(f"{p:.3f}" for p in passes) + " s",
                 "set-ups: " + ", ".join(f"{s:.3f}" for s in setups) + " s"]

    attempted, failed = answers["attempted"], answers["failed"]
    lines = [f"{workload} seed={seed} trace={int(trace)}"]
    for name, value in metrics.items():
        lines.append(f"  {name:<42} {value:.6g} {units[name]}")
    lines.append(f"  {'failed_frac':<42} {failed / attempted:.6g} ratio "
                 f"({failed}/{attempted} answers)")
    if workload in ("pipeline_cli", "identify_200k"):
        lines.append(f"  {'recovery_err':<42} {answers['recovery_err']:.6g} ratio")
    lines += [f"  known defect: {p}" for p in answers["known"]]
    lines += [f"  CHECK FAILED: {p}" for p in answers["problems"]]
    lines += [f"  {x}" for x in extra]
    result = {"correct": not answers["problems"], "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, lines, answers


def per_layer_units():
    sys.path.insert(0, HERE)
    from tracing import PER_LAYER_METRICS
    return PER_LAYER_METRICS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        os.makedirs(OUT, exist_ok=True)
        for name in names:
            result, lines, _ = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), deadline)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
