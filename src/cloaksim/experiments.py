"""Sweep drivers measuring the cloaking constructions, and report emission.

Each driver builds meshes that align every coefficient interface with a
vertex ring, computes references on the same mesh as the perturbed problem
(so leading discretization error cancels), and returns a DecayReport of
per-parameter rows plus log-log slope fits. Its meta lists, per row, the
factor_kinds of the row's perturbed operator as a plain dict.
"""

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .coeff import identity_field
from .dnmap import FourierBasis, dn_operator, dn_difference, neumann_trace_error
from .errors import PreconditionError
from .fem import build_disk_mesh, l2_norm, h1_norm
from .geometry import (pushforward, regular_blowup, transformed_inner_tensor,
                       truncated_singular_cloak)
from .homog import build_isotropic_cloak_sequence
from .presets import inclusion_field, preset_problem
from .qsolve import PicardConfig

__all__ = ["ExperimentConfig", "DecayReport", "fit_loglog",
           "run_regular_cloak_sweep", "run_truncated_singular_sweep",
           "run_homogenization_sweep", "run_diffeo_invariance", "emit_report"]


@dataclass
class ExperimentConfig:
    schedule: tuple = ()
    h: float = 0.05
    modes: int = 8
    picard: PicardConfig = dc_field(default_factory=PicardConfig)
    inclusion: str = "5I"
    profile: str = "transformation"
    psi: float = 2.0

    def __post_init__(self):
        if len(self.schedule) == 0:
            return
        diffs = np.diff(np.asarray(self.schedule, dtype=float))
        if np.any(diffs >= 0) and np.any(diffs <= 0):
            raise PreconditionError("schedule must be monotone")


@dataclass
class DecayReport:
    kind: str
    parameter: str
    rows: list
    slopes: dict = dc_field(default_factory=dict)
    meta: dict = dc_field(default_factory=dict)

    def converged_rows(self):
        return [row for row in self.rows if row.get("converged", True)]

    def fit_slope(self, name, x=None, key=None):
        """Log-log slope of column name against column x (the parameter by
        default), stored in slopes[key or name].

        Only converged rows enter the fit; when rows are dropped their
        count is recorded in the entry as "dropped".
        """
        rows = self.converged_rows()
        x = x or self.parameter
        slope, intercept, r2, n = fit_loglog(
            [(row[x], row[name]) for row in rows])
        entry = {"slope": slope, "intercept": intercept, "r2": r2, "n": n}
        if r2 < 0.9:
            entry["flagged"] = True
        if len(rows) < len(self.rows):
            entry["dropped"] = len(self.rows) - len(rows)
        self.slopes[key or name] = entry
        return entry

    def to_dict(self):
        return {"kind": self.kind, "parameter": self.parameter,
                "rows": self.rows, "slopes": self.slopes, "meta": self.meta}


def fit_loglog(pairs):
    """Least-squares slope of log(value) against log(parameter).

    Returns (slope, intercept, r2, n). Rows with nonpositive values are
    dropped (they carry no decay information on a log scale); at least
    four must remain.
    """
    pts = [(p, v) for p, v in pairs if v > 0 and p > 0]
    if len(pts) < 4:
        raise PreconditionError(
            f"slope fit needs at least 4 usable points, have {len(pts)}")
    x = np.log([p for p, _ in pts])
    y = np.log([v for _, v in pts])
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2, len(pts)


# index of cos(theta) in the FourierBasis trace ordering
_COS1 = 1


def run_regular_cloak_sweep(cfg):
    """Near-cloak error decay as the blow-up radius r shrinks.

    For each r the perturbed problem has the scaled load on the r-disk and
    identity outside; the reference is the identity solve on the same mesh.
    Norm and Neumann columns track the cos(theta) datum; the DN column
    compares whole operators over the first `modes` mode pairs.
    """
    sched = sorted(cfg.schedule, reverse=True)
    if not sched or not all(0.0 < r < 1.0 for r in sched):
        raise PreconditionError("regular sweep needs radii inside (0, 1)")
    inclusion = inclusion_field(cfg.inclusion)
    basis = FourierBasis(cfg.modes, radius=2.0)
    bands = [(0.0, 2.0 * r, r / 8.0) for r in sched]
    mesh = build_disk_mesh(2.0, aligned_radii=tuple(sched), h_target=cfg.h,
                           radial_bands=bands)
    op_ident = dn_operator(identity_field(2), basis, mesh, cfg.picard)

    rows, kinds = [], []
    for r in sched:
        coeff_r = transformed_inner_tensor(inclusion, r)
        op_r = dn_operator(coeff_r, basis, mesh, cfg.picard)
        kinds.append(dict(op_r.factor_kinds))
        diff = op_r.solutions[_COS1] - op_ident.solutions[_COS1]
        rows.append({
            "r": r,
            "h1": h1_norm(mesh, diff),
            "l2": l2_norm(mesh, diff),
            "dn": dn_difference(op_r, op_ident),
            "neumann": neumann_trace_error(op_r, op_ident, _COS1),
            "iterations": op_r.iterations[_COS1],
            "converged": op_r.all_converged,
        })
        # the row is recorded: its operators go before the next are built
        del op_r
    report = DecayReport(kind="regular-cloak", parameter="r", rows=rows,
                         meta={"h": cfg.h, "modes": cfg.modes,
                               "inclusion": cfg.inclusion,
                               "n_vertices": mesh.n_vertices,
                               "factor_kinds": kinds})
    if len(rows) >= 4:
        for col in ("h1", "l2", "dn", "neumann"):
            report.fit_slope(col)
    return report


def run_truncated_singular_sweep(cfg):
    """DN visibility of the truncated shell cloak as rho drops toward 1."""
    sched = sorted(cfg.schedule, reverse=True)
    if not sched or not all(1.0 < rho < 2.0 for rho in sched):
        raise PreconditionError("singular sweep needs rho inside (1, 2)")
    inclusion = inclusion_field(cfg.inclusion)
    basis = FourierBasis(cfg.modes, radius=2.0)
    rows, kinds = [], []
    for rho in sched:
        layer = rho - 1.0
        # the whole annulus needs fine radial spacing, not just the lining:
        # mode-k pairing error grows like (k dr)^2 and the weighted norm
        # reaches k = modes, which would drown the true gap at small rho
        bands = [(1.0, rho, layer / 8.0), (1.0, 2.0, 1.0 / 160.0)]
        mesh = build_disk_mesh(2.0, aligned_radii=(1.0, rho), h_target=cfg.h,
                               radial_bands=bands)
        cloak = truncated_singular_cloak(rho, interior=inclusion)
        op_c = dn_operator(cloak, basis, mesh, cfg.picard)
        kinds.append(dict(op_c.factor_kinds))
        op_i = dn_operator(identity_field(2), basis, mesh, cfg.picard)
        rows.append({
            "rho": rho,
            "dn": dn_difference(op_c, op_i),
            "converged": op_c.all_converged,
            "n_vertices": mesh.n_vertices,
        })
        # the row is recorded: its operators go before the next are built
        del op_c, op_i
    dns = [row["dn"] for row in rows]
    # decreasing trend with a discretization slack
    trend_ok = all(b <= a * 1.10 for a, b in zip(dns[:-1], dns[1:]))
    report = DecayReport(kind="truncated-singular", parameter="rho", rows=rows,
                         meta={"h": cfg.h, "modes": cfg.modes,
                               "inclusion": cfg.inclusion,
                               "monotone_decreasing": trend_ok,
                               "factor_kinds": kinds})
    if len(rows) >= 4:
        report.fit_slope("dn")
    return report


def _mode_limit_values(mesh):
    """Large-n limit field for the cos(theta) datum on the radius-3 disk:
    matched harmonic mode outside radius 2, shell mode inside, zero under
    the cloak."""
    rr = np.linalg.norm(mesh.vertices, axis=1)
    ct = np.where(rr > 0, mesh.vertices[:, 0] / np.maximum(rr, 1e-30), 0.0)
    vals = np.zeros(mesh.n_vertices)
    out = rr >= 2.0
    vals[out] = (rr[out] / 3.0) * ct[out]
    shell = (rr > 1.0) & (rr < 2.0)
    vals[shell] = (2.0 * (rr[shell] - 1.0) / 3.0) * ct[shell]
    return vals


def run_homogenization_sweep(cfg):
    """Oscillating isotropic shells against their anisotropic targets.

    Domain is the radius-3 disk; each term n is solved on its own mesh with
    radial spacing eps_n/8 inside radius 2, together with the target-shell
    reference and the identity problem on the same mesh. Terms whose period
    cannot get 8 elements are refused.
    """
    sched = list(cfg.schedule)
    if not sched or any(n < 1 or not float(n).is_integer() for n in sched):
        raise PreconditionError(
            "homogenization schedule must be one or more positive integers")
    sched = [int(n) for n in sched]
    specs = build_isotropic_cloak_sequence(n_terms=max(sched), psi=cfg.psi,
                                           profile=cfg.profile)
    basis = FourierBasis(cfg.modes, radius=3.0)
    rows, kinds = [], []
    for n in sched:
        spec = specs[n - 1]
        dr = min(spec.eps / 8.0, cfg.h)
        per = spec.eps / dr
        if per < 8.0 - 1e-9:
            raise PreconditionError(
                f"term n={n}: only {per:.1f} elements per period")
        n_theta = int(np.ceil(2 * np.pi * 3.0 / cfg.h / 8.0) * 8)
        # oscillation lives between the blend seam and radius 2; the
        # plateau inside is smooth, so the fine band stops at the seam
        seam = max(spec.R - 2 * spec.eta - 2 * dr, 0.0)
        est = ((2.0 - seam) / dr + (1.0 + seam) / cfg.h) * n_theta
        if est > 4e6:
            raise PreconditionError(
                f"term n={n}: mesh of about {est:.2g} vertices refused; "
                "the period is too small for this driver")
        mesh = build_disk_mesh(
            3.0, aligned_radii=(1.0, spec.R - 2 * spec.eta, spec.R, 2.0),
            h_target=cfg.h, n_theta=n_theta,
            radial_bands=[(seam, 2.0, dr)])
        sigma_n = spec.field()
        target = spec.homogenized()
        ident = identity_field(2)
        # dn_operator keeps its nodal solves; the cos-theta column doubles
        # as the field solution, avoiding extra factorizations of the big
        # systems here
        op_n = dn_operator(sigma_n, basis, mesh, cfg.picard)
        kinds.append(dict(op_n.factor_kinds))
        u_n = op_n.solutions[_COS1]
        op_t = dn_operator(target, basis, mesh, cfg.picard)
        u_t = op_t.solutions[_COS1]
        op_i = dn_operator(ident, basis, mesh, cfg.picard)
        limit = _mode_limit_values(mesh)
        rows.append({
            "n": n,
            "eps": spec.eps,
            "l2_target": l2_norm(mesh, u_n - u_t),
            "l2_limit": l2_norm(mesh, u_n - limit),
            "dn_target": dn_difference(op_n, op_t),
            "dn_identity": dn_difference(op_n, op_i),
            "fit_residual": spec.max_residual,
            "fallback_points": spec.n_fallback,
            "iterations": op_n.iterations[_COS1],
            "converged": op_n.all_converged,
            "n_vertices": mesh.n_vertices,
        })
        # the row is recorded: its operators go before the next are built
        del op_n, op_t, op_i, u_n, u_t, limit
    report = DecayReport(kind="homogenization", parameter="n", rows=rows,
                         meta={"h": cfg.h, "modes": cfg.modes,
                               "profile": cfg.profile, "psi": cfg.psi,
                               "factor_kinds": kinds})
    if len(rows) >= 4:
        report.fit_slope("l2_target", x="eps", key="l2_target_vs_eps")
    return report


def run_diffeo_invariance(cfg, dmap=None):
    """DN agreement of a coefficient and its push-forward under refinement."""
    sched = sorted(cfg.schedule, reverse=True)
    if not sched:
        raise PreconditionError("diffeo check needs at least one mesh size")
    dmap = dmap or regular_blowup(0.5)
    fields = [identity_field(2)]
    if cfg.inclusion:
        field, radius, _ = preset_problem(cfg.inclusion)
        # every mesh here is the radius-2 disk, which the blow-up fixes
        if radius != 2.0:
            raise PreconditionError(
                f"diffeo check runs on the radius-2 disk; {cfg.inclusion!r} "
                f"is posed on radius {radius:g}")
        fields.append(field)
    basis = FourierBasis(cfg.modes, radius=2.0)
    rows, kinds = [], []
    for field in fields:
        pushed = pushforward(field, dmap)
        # this field's rows and unmapped operators, one per mesh size
        these, field_ops = [], []
        for h in sched:
            # the pieces of a blow-up meet at image radius 1
            mesh = build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=h)
            op_a = dn_operator(field, basis, mesh, cfg.picard)
            op_p = dn_operator(pushed, basis, mesh, cfg.picard)
            kinds.append(dict(op_p.factor_kinds))
            field_ops.append(op_a)
            these.append({
                "coefficient": field.name,
                "h": h,
                "dn": dn_difference(op_a, op_p),
                "converged": bool(op_a.all_converged and op_p.all_converged),
            })
        dns = [row["dn"] for row in these]
        factors = [a / b if b > 0 else np.inf
                   for a, b in zip(dns[:-1], dns[1:])]
        # Richardson limit from the last two points, order from the ratio
        if len(dns) >= 2 and dns[-2] > dns[-1] > 0:
            q = dns[-2] / dns[-1]
            extrap = dns[-1] / (q - 1.0)
        else:
            extrap = dns[-1]
        self_err = dn_difference(field_ops[-1], field_ops[-2]) \
            if len(field_ops) >= 2 else 0.0
        for row in these:
            row["factors"] = factors
        these[-1]["extrapolated"] = extrap
        these[-1]["self_convergence"] = self_err
        rows += these
    return DecayReport(kind="diffeo-invariance", parameter="h", rows=rows,
                       meta={"modes": cfg.modes, "map": dmap.name,
                             "factor_kinds": kinds})


_FORMATS = ("csv", "json", "gnuplot-dat")


def _fmt(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, (list, tuple)):
        return ";".join(_fmt(x) for x in v)
    return str(v)


def emit_report(report, fmt, path):
    """Write a DecayReport deterministically; returns the path."""
    if fmt not in _FORMATS:
        raise PreconditionError(f"format must be one of {_FORMATS}")
    if not report.rows:
        raise PreconditionError("refusing to emit an empty report")
    keys = []
    for row in report.rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    lines = []
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=1, sort_keys=True) + "\n"
    else:
        sep = "\t" if fmt == "gnuplot-dat" else ","
        if fmt == "gnuplot-dat":
            lines.append(f"# {report.kind} over {report.parameter}")
            lines.append("# " + sep.join(keys))
        else:
            lines.append(sep.join(keys))
        for row in report.rows:
            lines.append(sep.join(_fmt(row.get(k, "")) for k in keys))
        for name in sorted(report.slopes):
            s = report.slopes[name]
            lines.append(f"# slope[{name}] = {s['slope']:.6f} "
                         f"(r2 = {s['r2']:.6f}, n = {s['n']})")
        text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return path
