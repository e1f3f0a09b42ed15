"""The benchmark workloads: their inputs, the call into cloaksim, and the gates.

Each workload is one workload call through the public API. `run(seed)` makes
the call and returns the numbers it reports as plain JSON values;
`check(values)` returns the list of gate failures (empty when correct).

A gate has two parts. The first is the acceptance criterion the workload
scales down. The second is agreement with `reference.json`, values recorded
from the same call: floats within REL_TOL (relative), counts and flags
exactly. REL_TOL admits what a change within PicardConfig.tol moves (tightening
tol from 1e-8 to 1e-10 moves these outputs by at most 3e-9, relative) and
what a linear-solver change within 1e-10 of the pairing entries moves
(under 1e-6 on the smallest DN gap), and still catches a wrong pairing,
which moves the outputs by percents.
"""

import json
from pathlib import Path

import numpy as np

import cloaksim.experiments as ex
import cloaksim.homog as hg

REL_TOL = 1e-5
MODES = 8
REFERENCE = Path(__file__).with_name("reference.json")


def _config(**kwargs):
    return ex.ExperimentConfig(modes=MODES, **kwargs)


def run_shell_linear(seed):
    rep = ex.run_truncated_singular_sweep(
        _config(schedule=(1.5, 1.25, 1.1), h=0.05, inclusion="5I"))
    return {
        "dn": [row["dn"] for row in rep.rows],
        "n_vertices": [row["n_vertices"] for row in rep.rows],
        "converged": all(row["converged"] for row in rep.rows),
    }


def check_shell_linear(v):
    dn = v["dn"]
    out = []
    if not all(b < a for a, b in zip(dn[:-1], dn[1:])):
        out.append(f"dn not strictly decreasing: {dn}")
    if not dn[-1] / dn[0] <= 0.20:
        out.append(f"dn final/first {dn[-1] / dn[0]:.3f} > 0.20")
    return out


def run_pushforward_nonlinear(seed):
    rep = ex.run_diffeo_invariance(
        _config(schedule=(0.2, 0.1), inclusion="isotropic-sin"))
    out = {}
    for name in dict.fromkeys(row["coefficient"] for row in rep.rows):
        rows = [row for row in rep.rows if row["coefficient"] == name]
        out[name] = {
            "dn": [row["dn"] for row in rows],
            "factors": rows[0]["factors"],
            "extrapolated": rows[-1]["extrapolated"],
            "self_convergence": rows[-1]["self_convergence"],
            "converged": all(row["converged"] for row in rows),
        }
    return out


def check_pushforward_nonlinear(v):
    out = []
    if len(v) != 2:
        out.append(f"expected 2 coefficients, got {sorted(v)}")
    for name, c in v.items():
        if not all(f >= 1.5 for f in c["factors"]):
            out.append(f"{name}: refinement factors {c['factors']} below 1.5")
        if not c["extrapolated"] <= c["self_convergence"]:
            out.append(f"{name}: extrapolated {c['extrapolated']:.3e} above "
                       f"self-convergence {c['self_convergence']:.3e}")
    return out


def run_oscillating_shell(seed):
    rep = ex.run_homogenization_sweep(_config(schedule=(1, 2), h=0.1))
    cols = ("l2_limit", "l2_target", "dn_identity", "dn_target",
            "fallback_points", "n_vertices")
    out = {c: [row[c] for row in rep.rows] for c in cols}
    out["fit_residual"] = max(float(row["fit_residual"]) for row in rep.rows)
    out["converged"] = all(row["converged"] for row in rep.rows)
    return out


def check_oscillating_shell(v):
    out = []
    for c in ("l2_limit", "dn_identity"):
        s = v[c]
        if not (all(b <= 1.10 * a for a, b in zip(s[:-1], s[1:]))
                and s[-1] < s[0]):
            out.append(f"{c} does not decrease: {s}")
    if not v["fit_residual"] <= 1e-10:
        out.append(f"fit residual {v['fit_residual']:.2e} above 1e-10")
    return out


def _smooth_cell(c):
    def a(p):
        x, y = p[:, 0], p[:, 1]
        return np.exp(c[0] * np.sin(2 * np.pi * x)
                      + c[1] * np.cos(2 * np.pi * y)
                      + c[2] * np.sin(2 * np.pi * (x + y)) + c[3])
    return a


LIPSCHITZ_STATES = np.linspace(0.0, 1.0, 5)


def _laminate(p):
    return np.where(p[:, 0] % 1.0 < 0.5, 1.0, 4.0)


def _scaled_laminate(t):
    return lambda p: (2.0 + np.sin(t)) * _laminate(p)


def run_periodic_cell(seed):
    lam = hg.solve_cell(hg.CellProblem(_laminate, resolution=(128, 128)))
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(12):
        s = hg.solve_cell(hg.CellProblem(
            _smooth_cell(rng.uniform(-0.8, 0.8, size=4)), resolution=(96, 96)))
        cells.append({"eigenvalues": np.linalg.eigvalsh(s.tensor).tolist(),
                      "bounds": list(s.bounds)})
    lip = hg.cell_lipschitz(_scaled_laminate, LIPSCHITZ_STATES,
                            resolution=(96, 96))
    return {
        "laminate": lam.tensor.tolist(),
        "cells": cells,
        "lipschitz": lip.max_ratio,
        "corrector_ratio": lip.corrector_ratio,
    }


def check_periodic_cell(v):
    out = []
    err = float(np.abs(np.asarray(v["laminate"]) - np.diag([1.6, 2.5])).max())
    if not err <= 1e-4:
        out.append(f"laminate off diag(1.6, 2.5) by {err:.2e}")
    for k, c in enumerate(v["cells"]):
        lo, hi = c["bounds"]
        ev = c["eigenvalues"]
        if not (lo - 1e-10 <= min(ev) and max(ev) <= hi + 1e-10):
            out.append(f"cell {k}: eigenvalues {ev} outside bounds {lo}, {hi}")
    # the Lipschitz cell is (2 + sin t) times the laminate: its effective
    # tensor is (2 + sin t) diag(1.6, 2.5) and its correctors do not move
    t = LIPSCHITZ_STATES
    want = 2.5 * np.abs(np.diff(np.sin(t)) / np.diff(t)).max()
    if not abs(v["lipschitz"] - want) <= 1e-8 * want:
        out.append(f"lipschitz ratio {v['lipschitz']!r}, expected {want!r}")
    if not v["corrector_ratio"] <= 1e-8:
        out.append(f"corrector ratio {v['corrector_ratio']!r} above 1e-8")
    return out


WORKLOADS = {
    "shell-linear": (run_shell_linear, check_shell_linear),
    "pushforward-nonlinear": (run_pushforward_nonlinear,
                              check_pushforward_nonlinear),
    "oscillating-shell": (run_oscillating_shell, check_oscillating_shell),
    "periodic-cell": (run_periodic_cell, check_periodic_cell),
}


def _compare(path, got, want, out):
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            out.append(f"{path}: keys differ from the reference")
            return
        for k in want:
            _compare(f"{path}.{k}", got[k], want[k], out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{path}: length differs from the reference")
            return
        for k, (g, w) in enumerate(zip(got, want)):
            _compare(f"{path}[{k}]", g, w, out)
    elif isinstance(want, float):
        if not (isinstance(got, (int, float))
                and abs(got - want) <= REL_TOL * abs(want) + 1e-12):
            out.append(f"{path}: {got!r} differs from reference {want!r}")
    elif got != want:
        out.append(f"{path}: {got!r} differs from reference {want!r}")


def check(name, values):
    """Gate failures of one call: the acceptance gate, then the reference."""
    out = WORKLOADS[name][1](values)
    reference = json.loads(REFERENCE.read_text())[name]
    for key, want in reference.items():
        _compare(key, values.get(key), want, out)
    return out
