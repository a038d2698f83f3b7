"""flagcr benchmark.

    python3 perfbench/run.py --workload {decide,classify,orbits,cr} --seed N --seconds S --trace {0,1}

Generates the workload's inputs from --seed, then runs passes, each in a
fresh interpreter (perfbench/passrun.py), for about --seconds seconds and
at least MIN_PASSES passes.  Every output is checked.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}:
--trace 0 gives the end-to-end metrics of BENCHMARK.json (wall time and
latency percentiles from each operation's median over the passes, set-up
time and peak RSS as medians over the passes); --trace 1 alternates
untraced and traced passes and gives the per-layer metrics (medians over
the traced passes) plus the tracing overhead.  Every time is scaled to the
reference speed of common.REFERENCE_S (see speed_factor); the line before
the result gives each pass's unscaled wall time and reference-kernel time.
Exits non-zero, printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

MIN_PASSES = 3
START_LIMIT_S = 150  # no pass starts when it could end past this point
HARD_LIMIT_S = 170  # a pass still running then is killed and the run fails
SPEED_WINDOW_S = 1.0  # reference samples this close to an operation give its speed


def run_child(workload, inputs_path, result_path, pass_id, traced, deadline):
    cmd = [sys.executable, os.path.join(common.BENCH_DIR, "passrun.py"), "--workload", workload,
           "--inputs", inputs_path, "--result", result_path, "--pass-id", str(pass_id)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=common.ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"pass {pass_id} exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result_path) as f:
        return json.load(f)


def speed_factor(p) -> float:
    """What scales pass p's times to the reference speed: REFERENCE_S over
    the median time of the reference kernel over the whole pass."""
    return common.REFERENCE_S / statistics.median(d for _, d in p["reference_s"])


def scaled_latencies(p) -> list[float]:
    """Pass p's operation times at the reference speed.  Each operation is
    scaled by the reference-kernel samples taken within SPEED_WINDOW_S of it,
    since the machine's speed can change within a pass.  The samples taken
    just before each operation always fall in its window."""
    out = []
    for start, t in zip(p["starts_s"], p["latencies_s"]):
        near = [d for at, d in p["reference_s"] if start - SPEED_WINDOW_S <= at <= start + t + SPEED_WINDOW_S]
        out.append(t * common.REFERENCE_S / statistics.median(near))
    return out


def op_medians(passes) -> list[float]:
    """Each operation's median time over the passes, at the reference speed.
    Every pass runs the same operations on the same inputs, and a shared
    machine slows down and recovers within a run, so per-operation medians
    filter its slow spells better than a median of pass totals."""
    return [statistics.median(times) for times in zip(*map(scaled_latencies, passes))]


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["decide", "classify", "orbits", "cr"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    common.use_source_tree()
    import workloads

    work = os.path.join(common.ROOT, common.WORK_REL, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs_path = os.path.join(work, "inputs.json")
    with open(inputs_path, "w") as f:
        json.dump(workloads.generate(args.workload, args.seed), f)

    t0 = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    plain, traced = [], []
    longest = 0.0
    while True:
        want_traced = bool(args.trace) and len(traced) < len(plain)
        done = len(plain) + len(traced)
        needed = done < (2 if args.trace else MIN_PASSES)
        now = time.perf_counter()
        if not needed and now - t0 + longest > args.seconds:
            break
        if now - started + longest > START_LIMIT_S and done > 0:
            break
        p0 = time.perf_counter()
        res = run_child(args.workload, inputs_path, os.path.join(work, f"pass{done}.json"), done, want_traced,
                        deadline)
        longest = max(longest, time.perf_counter() - p0)
        (traced if want_traced else plain).append(res)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [(k, label, msg) for k, p in enumerate(passes) for label, msg in sorted(p["failures"].items())]
    for k, label, msg in failures[:20]:
        print(f"FAILED pass {k} {label}: {msg}", file=sys.stderr)

    if args.trace:
        def layer_value(p, name):
            return p["layers"][name] * (speed_factor(p) if units[name] == "s" else 1.0)

        values = {name: statistics.median(layer_value(p, name) for p in traced) for name in units
                  if name != "trace.overhead_s"}
        values["trace.overhead_s"] = sum(op_medians(traced)) - sum(op_medians(plain))
    else:
        per_op = op_medians(plain)
        latencies_ms = [1000 * x for x in per_op]
        values = {
            "wall_s": sum(per_op),
            "setup_s": statistics.median(p["setup_s"] * speed_factor(p) for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "op_p50_ms": percentile(latencies_ms, 50),
            "op_p95_ms": percentile(latencies_ms, 95),
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    machine = {"python": platform.python_version(), "nproc": os.cpu_count(), "arch": platform.machine()}
    print(json.dumps({"machine": machine, "workload": args.workload, "seed": args.seed,
                      "passes": len(plain), "traced_passes": len(traced),
                      "pass_wall_s": [p["wall_s"] for p in passes],
                      "pass_reference_s": [statistics.median(d for _, d in p["reference_s"]) for p in passes],
                      "ops_per_pass": passes[0]["attempted"]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, OSError, RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        print(f"benchmark could not run: {type(e).__name__}: {e}", file=sys.stderr)
        sys.exit(1)
