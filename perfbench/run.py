"""Benchmark of cloaksim's cloaking sweeps, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Workload names, metric names and
units come from BENCHMARK.json next to this directory.

Every workload call runs in a fresh Python process with OpenBLAS/OpenMP
pinned to one thread (child.py). With --trace 0 the run repeats calls until
S seconds have passed, tops the set-up samples up with import-only
processes, and reports the medians of the end-to-end metrics. With
--trace 1 it makes two traced calls and one untraced call, reports the
per-layer metrics (times averaged over the two traced calls, counts from
the first) and fails if a count invariant breaks or a count differs
between the two traced calls. Spans go to .perfbench_out/ in the checkout.

Every call's outputs are gated (workloads.py); a failed gate, an exception
or a timeout counts in "failed". The last line of output is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4
RUN_LIMIT_S = 170.0


def spawn(workload, seed, trace, deadline, trace_out=None):
    """Run child.py once; returns its JSON result or a problem report."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    extra = [str(trace_out)] if trace_out else []
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           str(int(trace)), repr(time.monotonic())] + extra
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"problems": ["timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problems": [f"exit code {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}"]}
    return json.loads(lines[-1])


def report(k, call):
    problems = call.get("problems", ["no result"])
    wall = call.get("wall_s")
    line = f"call {k}: " + (f"wall {wall:.3f} s, " if wall else "") + \
        ("ok" if not problems else "FAILED")
    print(line, file=sys.stderr)
    for p in problems:
        print("  " + p, file=sys.stderr)
    return bool(problems)


def timed_run(args, deadline):
    calls = []
    start = time.monotonic()
    while not calls or (time.monotonic() - start < args.seconds
                        and time.monotonic() < deadline):
        calls.append(spawn(args.workload, args.seed, False, deadline))
    failed = sum(report(k, c) for k, c in enumerate(calls, 1))
    setups = [c["setup_s"] for c in calls if "setup_s" in c]
    while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
        probe = spawn("setup", args.seed, False, deadline)
        if "setup_s" not in probe:
            report("setup", probe)
            break
        setups.append(probe["setup_s"])
    measured = [c for c in calls if "cpu_s" in c]
    if not measured or not setups:
        return len(calls), failed, None
    metrics = {"setup_s": statistics.median(setups)}
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[name] = statistics.median(c[name] for c in measured)
    return len(calls), failed, metrics


def traced_run(args, deadline, units):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    traced = [spawn(args.workload, args.seed, True, deadline,
                    out_dir / f"{stem}-trace{k}.json") for k in (1, 2)]
    plain = spawn(args.workload, args.seed, False, deadline)
    calls = traced + [plain]
    failed = sum(report(k, c) for k, c in enumerate(calls, 1))
    layers = [c["layers"] for c in traced if "layers" in c]
    if len(layers) < 2 or "wall_s" not in plain:
        return len(calls), failed, None
    a, b = layers
    changed = sorted(k for k, v in a.items()
                     if units.get(k) != "s" and b[k] != v)
    if changed:
        print(f"counts differ between the traced calls: {changed}",
              file=sys.stderr)
        failed = max(failed, 1)
    metrics = {}
    for name, unit in units.items():
        if name in a:
            metrics[name] = (a[name] + b[name]) / 2 if unit == "s" else a[name]
    solves = a["qsolve.solve_quasilinear.calls"]
    metrics["qsolve.iterations_per_solve"] = \
        a["qsolve.iterations"] / solves if solves else 0.0
    cgs = a["fem.cg.calls"]
    metrics["fem.cg.ok_ratio"] = \
        (cgs - a["fem.cg.fallbacks"]) / cgs if cgs else 0.0
    wall = statistics.mean(c["wall_s"] for c in traced)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - plain["wall_s"]
    return len(calls), failed, metrics


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cloaksim" / "__init__.py").is_file():
        print(f"no cloaksim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if args.trace:
        attempted, failed, metrics = traced_run(args, deadline, units)
    else:
        attempted, failed, metrics = timed_run(args, deadline)
    if metrics is None:
        print("no call produced measurements", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
