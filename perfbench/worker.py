"""One workload in one fresh process; started by run.py.

Modes:
  setup    import prodenv, build the inputs, report the set-up time, exit;
  measure  set up, then time passes until --seconds have been used (at
           least one pass), check every pass's outputs, report peak RSS
           through the first pass;
  trace    install span wrappers before prodenv is imported, set up, time
           one traced pass, report the per-layer metrics and write spans.

Set-up time runs from --t0 (the parent's wall clock just before it started
this process) to the first timed call, so it includes interpreter start-up.
The result is the last line of standard output, as JSON.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install_solver_wrappers()
        tracer.install_layer_wrappers()

    import workloads
    build, run, check = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    inputs = build(args.seed, args.workdir)
    setup_s = time.time() - args.t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    # Passes repeat on the same inputs.  Another pass starts while the time
    # left is at least 70% of the mean pass, so runs end near --seconds.
    # Peak memory is read after the first pass: later passes add only
    # allocator fragmentation, and their number depends on speed.
    outcome = workloads.Outcome()
    passes, units = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        out = run(inputs, tracer)
        passes.append(time.perf_counter() - t)
        if len(passes) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units += out.get("unit_s", passes[-1:])
        check(inputs, out, outcome)
        out = None          # free this pass's answers before the next pass
        if args.mode == "trace":
            break
        left = args.seconds - (time.perf_counter() - start)
        if left < 0.7 * sum(passes) / len(passes):
            break

    result.update({
        "passes": passes,
        "units": units,
        "peak_rss_mb": peak_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "known": outcome.known,
        "recovery_err": outcome.recovery_err,
    })
    if tracer is not None:
        result["per_layer"] = tracer.metrics({
            "simulate.csv_bytes": workloads.csv_bytes(inputs),
            "identify.recovery_err": outcome.recovery_err,
        })
        tracer.write(os.path.join(args.workdir, "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
