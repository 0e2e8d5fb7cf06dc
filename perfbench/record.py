"""Record a baseline: run every workload over several seeds and write the
medians and quartiles of each metric, the machine, and the k-scaling table.

    python3 perfbench/record.py --seeds 1-10 --trace-seed 7 --label <commit> \
        --out perfbench/baseline.json

Each seed gets one end-to-end run (--trace 0).  The trace seed gets two
traced runs, whose solver and call counts must be identical.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import SIZE_TAGS  # noqa: E402

CONDITIONS = [
    "The file cache and the CPU frequency were not controlled: the host "
    "allows neither dropping caches nor pinning clocks.",
    "The host is shared with other tenants; the same pass varied by about "
    "10-15% between minutes, so medians and quartiles are reported.",
    "Workloads ran one at a time, each in fresh processes, with BLAS limited "
    "to one thread and PRODENV_THREADS unset.",
]


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def machine():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo") as fh:
        mem_kb = int(fh.readline().split()[1])
    return {
        "cpus": os.cpu_count(), "memory_gb": round(mem_kb / 2 ** 20, 1),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": int(run.SINGLE_THREAD["OPENBLAS_NUM_THREADS"]),
        "prodenv_threads": "unset (defaults to 1)",
    }


def _cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seed", type=int, default=7)
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    doc = {"label": args.label, "recorded": datetime.date.today().isoformat(),
           "run_seconds": seconds, "seeds": _seeds(args.seeds),
           "trace_seed": args.trace_seed, "machine": machine(),
           "conditions": CONDITIONS,
           "end_to_end": {}, "per_layer": {}, "counts_repeat_identical": {},
           "known_defects": {}}
    for name in args.workloads.split(","):
        values, known = {}, set()
        for seed in doc["seeds"]:
            deadline = time.monotonic() + run.DEADLINE_S
            result, lines, answers = run.run_workload(name, seed, seconds, False, deadline)
            print("\n".join(lines), flush=True)
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: output checks failed")
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            values.setdefault("failed_frac", []).append(
                result["failed"] / result["attempted"])
            values.setdefault("recovery_err", []).append(answers["recovery_err"])
            known.update(answers["known"])
        doc["end_to_end"][name] = {m: summarize(v) for m, v in values.items()}
        doc["known_defects"][name] = sorted(known)

        traced = []
        for _ in range(2):
            deadline = time.monotonic() + run.DEADLINE_S
            result, lines, _ = run.run_workload(name, args.trace_seed, seconds, True,
                                                deadline)
            print("\n".join(lines), flush=True)
            traced.append({k: v["value"] for k, v in result["metrics"].items()})
        units = run.per_layer_units()
        counts = [k for k, u in units.items() if u == "count"]
        doc["counts_repeat_identical"][name] = all(
            traced[0][k] == traced[1][k] for k in counts)
        doc["per_layer"][name] = {
            k: [traced[0][k], traced[1][k]] for k in units}

    if "counterfactual_k" in doc["per_layer"]:
        layer = doc["per_layer"]["counterfactual_k"]
        doc["k_scaling"] = {
            tag: {m: statistics.median(layer[f"{m}.{tag}"])
                  for m in ("bounds.wapm_feasible_s", "bounds.profit_bounds_s",
                            "bounds.quantity_bounds_s", "bounds.wapm_feasible_calls",
                            "lp.calls", "lp.s")}
            for tag in SIZE_TAGS}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
