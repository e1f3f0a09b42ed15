"""One benchmark process: import cloaksim, make one workload call, check it.

Usage: child.py WORKLOAD SEED TRACE SPAWNED [TRACE_OUT]

SPAWNED is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start and `import cloaksim`.
WORKLOAD "setup" only imports and reports setup_s. With TRACE 1 the call
runs under the tracer and the spans go to TRACE_OUT as JSON. Prints one
JSON object as its last line of output.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import cloaksim  # noqa: E402

SETUP_S = time.monotonic() - float(sys.argv[4])

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(name, seed, trace, trace_out=None):
    out = {"setup_s": SETUP_S}
    if name == "setup":
        return out
    tracer = None
    if trace:
        tracer = tracing.install()
    run = workloads.WORKLOADS[name][0]
    try:
        t0 = time.perf_counter()
        values = run(seed)
        out["wall_s"] = time.perf_counter() - t0
    except Exception:
        out["problems"] = [traceback.format_exc()]
        return out
    ru = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = ru.ru_utime + ru.ru_stime
    out["peak_rss_mb"] = ru.ru_maxrss / 1024.0
    out["problems"] = workloads.check(name, values)
    out["values"] = values
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        out["layers"] = layers
        out["problems"] += tracing.invariant_failures(
            layers, 2 * workloads.MODES + 1)
        Path(trace_out).write_text(json.dumps(
            {"workload": name, "seed": seed, "spans": tracer.spans,
             "counts": tracer.counts}))
    return out


if __name__ == "__main__":
    result = main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1",
                  *sys.argv[5:])
    print(json.dumps(result))
