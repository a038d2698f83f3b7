"""One pass of a workload in a fresh interpreter, so flagcr's module caches
start cold as they do for every CLI invocation.

    python3 perfbench/passrun.py --workload W --inputs FILE --result FILE --pass-id K [--trace]

Set-up (imports, root systems, input conversion) is timed from the first
line of this file to the first operation.  Each operation is timed alone;
its output is checked afterwards, outside the timed region and with
tracing paused.  A timer signal runs common.reference_kernel() every
SAMPLE_INTERVAL_S throughout the operations, so that the parent can scale
the pass's times to the reference speed.  The result is written as JSON to
--result.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

SAMPLE_INTERVAL_S = 0.05


def run_pass(workload, inputs, tracer):
    import workloads

    counters = {"cli.output_bytes": 0}
    ops = workloads.prepare(workload, inputs, counters)
    setup_s = time.perf_counter() - T_START
    for _ in range(3):
        common.reference_kernel()  # warm-up, not recorded
    # Speed samples every SAMPLE_INTERVAL_S, also inside long operations.
    # The handler runs between bytecodes of whatever code is running; its own
    # time is taken out of the operation it interrupted.
    reference = []
    signal.signal(signal.SIGALRM, lambda signum, frame: reference.append(common.reference_kernel()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    starts = []
    latencies = []
    failures = {}
    perf = time.perf_counter
    for k, op in enumerate(ops):
        error = None
        if tracer is not None:
            tracer.op = k
            tracer.on = True
        n0 = len(reference)
        t0 = perf()
        try:
            result = op.run()
        except Exception as e:  # any exception is a failed operation, counted and reported
            result, error = None, f"{type(e).__name__}: {e}"
        t1 = perf()
        if tracer is not None:
            tracer.on = False
        starts.append(t0)
        latencies.append(t1 - t0 - sum(d for at, d in reference[n0:] if t0 <= at < t1))
        if error is None:
            try:
                error = op.check(result)
            except Exception as e:  # a check that cannot run marks the output wrong
                error = f"check raised {type(e).__name__}: {e}"
        del result
        if error:
            failures[op.label] = error
    signal.setitimer(signal.ITIMER_REAL, 0)
    out = {
        "setup_s": setup_s,
        "reference_s": reference,
        "wall_s": sum(latencies),
        "starts_s": starts,
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failures": failures,
    }
    if tracer is not None:
        out["layers"] = {**tracer.metrics(), **counters}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--pass-id", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    common.use_source_tree()
    import flagcr.cli  # noqa: F401  (the CLI imports classify, qsets, rootsys and their dependencies)
    import flagcr.cralg  # noqa: F401
    import flagcr.presets  # noqa: F401
    import flagcr.realform  # noqa: F401

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(args.inputs) as f:
        inputs = json.load(f)
    out = run_pass(args.workload, inputs, tracer)
    with open(args.result, "w") as f:
        json.dump(out, f)
    if tracer is not None:
        tracer.write(os.path.splitext(args.result)[0] + "-spans", args.pass_id)
    return 0


if __name__ == "__main__":
    sys.exit(main())
