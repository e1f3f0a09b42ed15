"""The benchmark's tracer still finds every name and attribute it wraps."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = textwrap.dedent("""
    import sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import tracing
    tr = tracing.install()
    import cloaksim.experiments as ex
    import cloaksim.homog as hg
    ex.run_regular_cloak_sweep(ex.ExperimentConfig(
        schedule=(0.4, 0.2, 0.1, 0.05), h=0.3, modes=2, inclusion="sin-5I"))
    hg.solve_cell(hg.CellProblem(lambda p: 1.0 + p[:, 0],
                                 resolution=(4, 4)))
    m = tracing.layer_metrics(tr)
    assert m["dnmap.neumann_trace_error.s"] > 0.0, m
    assert m["homog.solve_cell.calls"] == 1, m
    failures = tracing.invariant_failures(m, 5)
    assert failures == [], failures
""")


def test_tracer_runs_a_sweep_and_a_cell_solve():
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
