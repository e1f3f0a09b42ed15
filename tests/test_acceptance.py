"""End-to-end gates on the package's headline behaviors.

Each test runs one scenario at its stated scale, appends a PASS/FAIL line
to the terminal summary, and asserts the advertised tolerances. The heavy
sweeps run at the same resolutions the command line defaults to.
"""

import time

import numpy as np
import pytest

from cloaksim.coeff import IsotropicField, StructureConstants, identity_field
from cloaksim.dnmap import FourierBasis, dn_operator
from cloaksim.errors import NumericalError
from cloaksim.experiments import (ExperimentConfig, run_diffeo_invariance,
                                  run_homogenization_sweep,
                                  run_regular_cloak_sweep,
                                  run_truncated_singular_sweep)
from cloaksim.fem import build_disk_mesh, l2_norm
from cloaksim.geometry import (pushforward, singular_cloak_tensor,
                               singular_map)
from cloaksim.homog import (CellProblem, cell_lipschitz, fit_cloak_amplitudes,
                            phi, phi_M, radial_homogenized, solve_cell, zeta)
from cloaksim.qsolve import PicardConfig, solve_quasilinear

from conftest import record_verdict


def verdict(ok, number, label, detail, elapsed):
    tag = "PASS" if ok else "FAIL"
    record_verdict(f"{tag}  criterion {number} ({label}): {detail} "
                   f"[{elapsed:.1f}s]")


def test_criterion_1_closed_forms():
    t0 = time.monotonic()
    radii = np.array([0.11, 0.3, 0.55, 0.8, 1.0, 1.37, 1.71, 1.96])
    det_defect = 0.0
    eig_defect = 0.0
    bound_ok = True
    for dim in (2, 3):
        F = singular_map(dim=dim)
        for s in radii:
            x = np.zeros(dim)
            x[0] = s * 0.6
            x[1] = s * 0.8
            J = F.jacobian(x)
            det_want = 0.5 * (0.5 + 1.0 / s) ** (dim - 1)
            det_defect = max(det_defect, abs(np.linalg.det(J) - det_want))
            xhat = x / s
            # radial stretch 1/2, tangential (1/2 + 1/s)
            eig_defect = max(eig_defect, abs(xhat @ J @ xhat - 0.5))
            tang = np.zeros(dim)
            tang[0], tang[1] = -xhat[1], xhat[0]
            eig_defect = max(eig_defect,
                             abs(tang @ J @ tang - (0.5 + 1.0 / s)))
        # pushed identity: the radial eigenvalue never exceeds |y|^(dim-1)
        A = singular_cloak_tensor(dim=dim)
        for rho in np.linspace(1.05, 1.95, 25):
            p = np.zeros(dim)
            p[0] = rho
            lam = A.eval(p[None], np.zeros(1))[0][0, 0]
            if lam > rho ** (dim - 1) + 1e-12:
                bound_ok = False
    cut_ok = (phi(0.0) == 0.0 and phi(2.0) == 1.0
              and abs(phi(1.0) - 0.5) < 1e-15
              and phi_M(4.0, 8) == 1.0 and phi_M(8.0, 8) == 0.0
              and zeta(1, 0.75) == 0.0 and zeta(2, 0.25) == 0.0)
    elapsed = time.monotonic() - t0
    ok = (det_defect < 1e-12 and eig_defect < 1e-12 and bound_ok and cut_ok
          and elapsed < 1.0)
    verdict(ok, 1, "closed-form maps",
            f"det defect {det_defect:.2e}, eig defect {eig_defect:.2e}, "
            f"radial bound {'held' if bound_ok else 'broken'}, "
            f"cutoffs {'exact' if cut_ok else 'wrong'}", elapsed)
    assert det_defect < 1e-12
    assert eig_defect < 1e-12
    assert bound_ok and cut_ok
    assert elapsed < 1.0


def test_criterion_2_baseline_pairing():
    t0 = time.monotonic()
    mesh = build_disk_mesh(2.0, h_target=0.05)
    basis = FourierBasis(max_mode=6, radius=2.0)
    op = dn_operator(identity_field(2), basis, mesh)
    M = op.pairing_matrix
    d = np.diag(M)
    modes = basis.modes().astype(float)
    rel = np.abs(d[1:] - modes[1:] * np.pi) / (modes[1:] * np.pi)
    diag_err = float(rel.max())
    off = M - np.diag(d)
    off_err = float(np.abs(off).max() / np.abs(d).max())
    elapsed = time.monotonic() - t0
    ok = diag_err <= 0.02 and off_err <= 0.01 and elapsed <= 60.0
    verdict(ok, 2, "flat-coefficient pairing",
            f"diag within {diag_err * 100:.3f}% of k*pi, "
            f"offdiag {off_err * 100:.4f}% of diag scale", elapsed)
    assert diag_err <= 0.02
    assert off_err <= 0.01
    assert elapsed <= 60.0


@pytest.mark.slow
def test_criterion_3_pushforward_invariance():
    t0 = time.monotonic()
    cfg = ExperimentConfig(schedule=(0.1, 0.05, 0.025), modes=8,
                           inclusion="isotropic-sin")
    rep = run_diffeo_invariance(cfg)
    names = []
    for row in rep.rows:
        if row["coefficient"] not in names:
            names.append(row["coefficient"])
    assert len(names) == 2
    factors_ok = True
    extrap_ok = True
    details = []
    for name in names:
        rows = [r for r in rep.rows if r["coefficient"] == name]
        factors = rows[0]["factors"]
        extrap = rows[-1]["extrapolated"]
        self_err = rows[-1]["self_convergence"]
        factors_ok &= all(f >= 1.5 for f in factors)
        extrap_ok &= extrap <= self_err
        details.append(f"{name}: factors {min(factors):.2f}+, "
                       f"extrap {extrap:.2e} vs self {self_err:.2e}")
    elapsed = time.monotonic() - t0
    ok = factors_ok and extrap_ok and elapsed <= 600.0
    verdict(ok, 3, "push-forward invariance", "; ".join(details), elapsed)
    assert factors_ok
    assert extrap_ok
    assert elapsed <= 600.0


@pytest.mark.slow
def test_criterion_4_near_cloak_decay():
    t0 = time.monotonic()
    details = []
    ok = True
    for inclusion in ("5I", "sin-5I"):
        cfg = ExperimentConfig(schedule=(0.4, 0.2, 0.1, 0.05), h=0.05,
                               modes=8, inclusion=inclusion)
        rep = run_regular_cloak_sweep(cfg)
        h1 = rep.slopes["h1"]
        l2 = rep.slopes["l2"]
        this_ok = (0.8 <= h1["slope"] <= 1.3 and h1["r2"] >= 0.95
                   and l2["slope"] >= 1.3)
        ok &= this_ok
        details.append(f"{inclusion}: h1 slope {h1['slope']:.3f} "
                       f"(r2 {h1['r2']:.4f}), l2 slope {l2['slope']:.3f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 1200.0
    verdict(ok, 4, "near-cloak decay", "; ".join(details), elapsed)
    assert ok


@pytest.mark.slow
def test_criterion_5_shell_truncation_decay():
    t0 = time.monotonic()
    cfg = ExperimentConfig(schedule=(1.5, 1.25, 1.1), h=0.05, modes=8,
                           inclusion="sin-5I")
    rep = run_truncated_singular_sweep(cfg)
    dns = [row["dn"] for row in rep.rows]
    decreasing = all(b < a for a, b in zip(dns[:-1], dns[1:]))
    final_frac = dns[-1] / dns[0]
    elapsed = time.monotonic() - t0
    ok = decreasing and final_frac <= 0.20 and elapsed <= 900.0
    verdict(ok, 5, "shell truncation decay",
            f"dn {', '.join(f'{v:.4g}' for v in dns)}; "
            f"final/first {final_frac * 100:.1f}%", elapsed)
    assert decreasing
    assert final_frac <= 0.20
    assert elapsed <= 900.0


def test_criterion_6_effective_tensor_oracles():
    t0 = time.monotonic()
    # radial quadrature laminate
    T = radial_homogenized(
        lambda r, s, t: np.where(np.asarray(s) < 0.5, 1.0, 4.0))
    h, m = T.means(1.0, 0.0)
    radial_err = max(abs(h - 1.6), abs(m - 2.5))

    # periodic cell laminate
    sol = solve_cell(CellProblem(
        lambda p: np.where(p[:, 0] % 1.0 < 0.5, 1.0, 4.0),
        resolution=(64, 64)))
    cell_err = float(np.abs(sol.tensor - np.diag([1.6, 2.5])).max())

    # mean bounds over random smooth cells
    rng = np.random.default_rng(0)
    bounds_ok = True
    for _ in range(20):
        c = rng.uniform(-0.8, 0.8, size=4)

        def a(p, c=c):
            x, y = p[:, 0], p[:, 1]
            return np.exp(c[0] * np.sin(2 * np.pi * x)
                          + c[1] * np.cos(2 * np.pi * y)
                          + c[2] * np.sin(2 * np.pi * (x + y)) + c[3])
        s = solve_cell(CellProblem(a, resolution=(16, 16)))
        lo, hi = s.bounds
        ev = np.linalg.eigvalsh(s.tensor)
        bounds_ok &= bool(lo - 1e-10 <= ev.min() and ev.max() <= hi + 1e-10)

    # state-derivative control
    def factory(t):
        def a(p, t=t):
            return np.full(len(p), 2.0 + np.sin(t))
        return a
    dep = cell_lipschitz(factory, [0.0, 0.5, 1.0], resolution=(8, 8))
    flat = cell_lipschitz(lambda t: (lambda p: np.full(len(p), 3.0)),
                          [0.0, 1.0], resolution=(8, 8))
    lip_ok = np.isfinite(dep.max_ratio) and dep.max_ratio > 0.0 \
        and flat.max_ratio == 0.0

    elapsed = time.monotonic() - t0
    ok = (radial_err <= 1e-6 and cell_err <= 1e-4 and bounds_ok and lip_ok
          and elapsed <= 120.0)
    verdict(ok, 6, "effective tensor oracles",
            f"laminate radial err {radial_err:.2e}, cell err {cell_err:.2e}, "
            f"bounds {'held' if bounds_ok else 'broken'} on 20 profiles, "
            f"t-ratio dep {dep.max_ratio:.3f} / flat {flat.max_ratio:g}",
            elapsed)
    assert radial_err <= 1e-6
    assert cell_err <= 1e-4
    assert bounds_ok and lip_ok
    assert elapsed <= 120.0


@pytest.mark.slow
def test_criterion_7_oscillating_sequence():
    t0 = time.monotonic()
    cfg = ExperimentConfig(schedule=(1, 2, 3, 4), h=0.05, modes=8)
    rep = run_homogenization_sweep(cfg)
    l2 = [row["l2_limit"] for row in rep.rows]
    dn = [row["dn_identity"] for row in rep.rows]
    resid = max(row["fit_residual"] for row in rep.rows)
    l2_ok = all(b <= 1.10 * a for a, b in zip(l2[:-1], l2[1:])) \
        and l2[-1] < l2[0]
    dn_ok = all(b <= 1.10 * a for a, b in zip(dn[:-1], dn[1:])) \
        and dn[-1] < dn[0]
    elapsed = time.monotonic() - t0
    ok = l2_ok and dn_ok and resid <= 1e-10 and elapsed <= 1800.0
    verdict(ok, 7, "oscillating shell sequence",
            f"l2 {', '.join(f'{v:.4g}' for v in l2)}; "
            f"dn {', '.join(f'{v:.4g}' for v in dn)}; "
            f"max fit residual {resid:.2e}", elapsed)
    assert l2_ok
    assert dn_ok
    assert resid <= 1e-10
    assert elapsed <= 1800.0


def _mms_h1_error(h):
    mesh = build_disk_mesh(1.0, h_target=h)
    field = IsotropicField(lambda p, t: 2.0 + np.sin(t),
                           StructureConstants(1.0, 3.0, 1.0), name="mms")
    source = lambda p: -np.cos(p[:, 0] * p[:, 1]) * \
        (p[:, 0] ** 2 + p[:, 1] ** 2)
    res = solve_quasilinear(mesh, field,
                            lambda p: p[:, 0] * p[:, 1], source=source,
                            config=PicardConfig(tol=1e-12))
    assert res.converged
    gu = np.einsum("tic,ti->tc", mesh.grads, res.u.values[mesh.triangles])
    c = mesh.centroids
    gex = np.stack([c[:, 1], c[:, 0]], axis=1)
    return float(np.sqrt(np.sum(mesh.areas * np.sum((gu - gex) ** 2,
                                                    axis=1))))


def test_criterion_8_fixed_point_solver():
    t0 = time.monotonic()
    mesh = build_disk_mesh(2.0, h_target=0.1)
    lin = solve_quasilinear(mesh, identity_field(2), lambda p: p[:, 0])
    one_shot = lin.converged and lin.iterations == 1

    field = IsotropicField(lambda p, t: 2.0 + np.sin(t),
                           StructureConstants(1.0, 3.0, 1.0), name="sin")
    cfg = PicardConfig(tol=1e-10)
    bv = lambda p: np.cos(np.arctan2(p[:, 1], p[:, 0]))
    cold = solve_quasilinear(mesh, field, bv, config=cfg)
    warm = solve_quasilinear(mesh, field, bv, config=cfg,
                             warm_start=np.full(mesh.n_vertices, 0.7))
    gap = l2_norm(mesh, cold.u.values - warm.u.values)
    unique_ok = cold.converged and warm.converged and gap <= 10.0 * cfg.tol

    errs = [_mms_h1_error(h) for h in (0.2, 0.1, 0.05)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    rate_ok = all(1.7 <= r <= 2.3 for r in ratios)
    elapsed = time.monotonic() - t0
    ok = one_shot and unique_ok and rate_ok
    verdict(ok, 8, "fixed point solver",
            f"linear iterations {lin.iterations}, start gap {gap:.2e} "
            f"(tol {cfg.tol:g}), h1 ratios "
            f"{', '.join(f'{r:.3f}' for r in ratios)}", elapsed)
    assert one_shot
    assert unique_ok
    assert rate_ok
