"""Command line driver.

Subcommands cover map verification, single solves, DN operators and their
comparison, cell problems, cloak construction, and the four sweep
experiments. A JSON config file can hold any global flag; its entries
are parsed as flags ahead of the command line, so explicit flags win.
Exit codes: 0 ok, 2 bad input, 3 numerical failure, 4 I/O failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from .dnmap import DtNOperator, FourierBasis, dn_difference, dn_operator
from .errors import NumericalError, PreconditionError
from .experiments import (ExperimentConfig, emit_report, run_diffeo_invariance,
                          run_homogenization_sweep, run_regular_cloak_sweep,
                          run_truncated_singular_sweep)
from .fem import build_disk_mesh, h1_norm, l2_norm
from .geometry import fd_jacobian, regular_blowup
from .homog import CellProblem, RadialCloakSpec, solve_cell
from .presets import preset_cell, preset_map, preset_problem
from .qsolve import PicardConfig, solve_quasilinear

def _parser():
    # no abbreviations: a config key must name a global flag in full
    p = argparse.ArgumentParser(prog="cloaksim", allow_abbrev=False)
    p.add_argument("--config", help="JSON file of global flag values")
    g = p.add_argument_group("global")
    g.add_argument("--h", type=float, default=0.05, help="target mesh size")
    g.add_argument("--modes", type=int, default=8, help="Fourier mode count")
    g.add_argument("--tol", type=float, default=1e-8,
                   help="iteration tolerance")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out-dir", dest="out_dir", default=".")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("map-check", help="verify a radial map numerically")
    s.add_argument("--map", dest="map_key", default="regular(0.5)")
    s.add_argument("--points", type=int, default=200)

    s = sub.add_parser("solve", help="one boundary value problem")
    s.add_argument("--coeff", required=True)
    s.add_argument("--mode", type=int, default=1, help="cosine mode of the datum")
    s.add_argument("--out")

    s = sub.add_parser("dnmap", help="DN pairing matrix of a coefficient")
    s.add_argument("--coeff", required=True)
    s.add_argument("--out", required=True)

    s = sub.add_parser("dndiff", help="weighted spectral distance of two operators")
    s.add_argument("op1")
    s.add_argument("op2")

    s = sub.add_parser("cell", help="periodic cell problem")
    s.add_argument("--profile", required=True,
                   help="a cell profile key: name or name:a,b")
    s.add_argument("--resolution", type=int, default=64)
    s.add_argument("--out")

    s = sub.add_parser("cloak-build", help="fit one oscillating shell")
    s.add_argument("--R", type=float, required=True)
    s.add_argument("--eta", type=float, required=True)
    s.add_argument("--M", type=int, default=8)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--psi", type=float, default=2.0)
    s.add_argument("--profile", default="transformation")
    s.add_argument("--out", required=True)

    for name, sched in (("sweep-regular", "0.4,0.2,0.1,0.05"),
                        ("sweep-singular", "1.5,1.25,1.1"),
                        ("sweep-homog", "1,2,3,4")):
        s = sub.add_parser(name, help=f"{name.split('-')[1]} sweep")
        s.add_argument("--schedule", default=sched)
        if name == "sweep-homog":
            s.add_argument("--profile", default="transformation")
            s.add_argument("--psi", type=float, default=2.0)
        else:
            s.add_argument("--inclusion", default="5I")
        s.add_argument("--format", dest="fmt", default="csv",
                       choices=("csv", "json", "gnuplot-dat"))
        s.add_argument("--out", required=True)

    s = sub.add_parser("diffeo-check", help="push-forward DN invariance")
    s.add_argument("--coeff", default="identity")
    s.add_argument("--h-schedule", dest="h_schedule", default="0.1,0.05,0.025")
    s.add_argument("--blowup", type=float, default=0.5)
    s.add_argument("--format", dest="fmt", default="csv",
                   choices=("csv", "json", "gnuplot-dat"))
    s.add_argument("--out")
    return p


def _config_flags(path):
    """The entries of a JSON config file as global flags, so that the
    parser checks them like any other flag."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"config file: {exc}")
    if not isinstance(doc, dict):
        raise PreconditionError("config file must hold a JSON object")
    return [f"--{key.replace('_', '-')}={value}"
            for key, value in doc.items()]


def _floats(text):
    text = text.strip()
    if not text:
        return []
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise PreconditionError(f"expected comma-separated numbers, got {text!r}")


def _cfg(args, schedule, **own):
    # own: only the settings this subcommand parses; ExperimentConfig
    # holds the defaults of the others
    return ExperimentConfig(
        schedule=tuple(schedule), h=args.h, modes=args.modes,
        picard=PicardConfig(tol=args.tol), **own)


def _cmd_map_check(args):
    dmap = preset_map(args.map_key)
    rng = np.random.default_rng(args.seed)
    rr = rng.uniform(0.05, 1.99, args.points)
    th = rng.uniform(0.0, 2 * np.pi, args.points)
    x = np.stack([rr * np.cos(th), rr * np.sin(th)], axis=1)
    y = dmap.forward(x)
    back = dmap.inverse(y)
    round_trip = np.abs(back - x).max()
    jd = 0.0
    for xi in x[:50]:
        jd = max(jd, np.abs(fd_jacobian(dmap, xi) - dmap.jacobian(xi)).max())
    bd = np.abs(np.linalg.norm(
        dmap.forward(2.0 * x[:50] / np.linalg.norm(x[:50], axis=1)[:, None]),
        axis=1) - 2.0).max()
    print(f"round-trip {round_trip:.3e}, jacobian-fd {jd:.3e}, "
          f"boundary-fix {bd:.3e}")
    if round_trip > 1e-10 or jd > 1e-5 or bd > 1e-12:
        print("map check FAILED", file=sys.stderr)
        return 3
    return 0


def _emit(doc, args):
    """Print the JSON document, and write it under --out-dir when --out is
    given."""
    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.out:
        with open(os.path.join(args.out_dir, args.out), "w") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_solve(args):
    field, radius, interfaces = preset_problem(args.coeff)
    mesh = build_disk_mesh(radius, aligned_radii=interfaces, h_target=args.h)
    theta = mesh.boundary_angles()
    datum = np.cos(args.mode * theta)
    res = solve_quasilinear(mesh, field, datum, PicardConfig(tol=args.tol))
    doc = {"coefficient": args.coeff, "mode": args.mode,
           "l2": l2_norm(mesh, res.u), "h1": h1_norm(mesh, res.u),
           "iterations": res.iterations, "converged": res.converged}
    _emit(doc, args)
    return 0 if res.converged else 3


def _cmd_dnmap(args):
    field, radius, interfaces = preset_problem(args.coeff)
    mesh = build_disk_mesh(radius, aligned_radii=interfaces, h_target=args.h)
    basis = FourierBasis(args.modes, radius=radius)
    op = dn_operator(field, basis, mesh, PicardConfig(tol=args.tol))
    op.to_json(os.path.join(args.out_dir, args.out))
    print(f"{basis.size}x{basis.size} pairing matrix -> {args.out}")
    if not op.all_converged:
        bad = sum(1 for c in op.converged if not c)
        print(f"{bad} columns did not converge", file=sys.stderr)
        if bad == basis.size:
            return 3
    return 0


def _cmd_dndiff(args):
    op1 = DtNOperator.from_json(args.op1)
    op2 = DtNOperator.from_json(args.op2)
    print(f"{dn_difference(op1, op2):.12g}")
    return 0


def _cmd_cell(args):
    a_cell = preset_cell(args.profile)
    sol = solve_cell(CellProblem(a_cell, (args.resolution, args.resolution)))
    ev = np.linalg.eigvalsh(sol.tensor)
    doc = {"profile": args.profile,
           "tensor": [[float(v) for v in row] for row in sol.tensor],
           "eigenvalues": [float(v) for v in ev],
           "mean_residual": sol.mean_residual}
    if sol.bounds:
        doc["bounds"] = {"harmonic": sol.bounds[0], "arithmetic": sol.bounds[1]}
    _emit(doc, args)
    return 0


def _cmd_cloak_build(args):
    spec = RadialCloakSpec(args.R, args.eta, args.eps, psi=args.psi,
                           M=args.M, profile=args.profile)
    points = []
    for i, r in enumerate(spec.r_grid):
        fitted = bool(spec.ok[i])
        h, m = float(spec.h_t[i]), float(spec.m_t[i])
        points.append({
            "r": float(r),
            "a1": float(spec.a1[i]), "a2": float(spec.a2[i]),
            # achieved homogenized eigenvalues; fallback points carry the
            # isotropic substitute, not the unattainable pair
            "eigenvalues": [h, m] if fitted else [m, m],
            "radial": True,
            "fitted": fitted,
        })
    doc = {"R": spec.R, "eta": spec.eta, "eps": spec.eps, "M": spec.M,
           "psi": args.psi, "profile": spec.profile,
           "max_fit_residual": spec.max_residual,
           "fallback_points": spec.n_fallback,
           "points": points}
    with open(os.path.join(args.out_dir, args.out), "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(points)} lattice points, {spec.n_fallback} fallback, "
          f"max residual {spec.max_residual:.3e} -> {args.out}")
    return 0


def _emit_and_report(report, args):
    emit_report(report, args.fmt, os.path.join(args.out_dir, args.out))
    for row in report.rows:
        keys = [k for k in row if k not in ("converged",)]
        line = "  ".join(f"{k}={row[k]:.6g}" if isinstance(row[k], float)
                         else f"{k}={row[k]}" for k in keys[:6])
        print(line)
    for name, s in sorted(report.slopes.items()):
        print(f"slope[{name}] = {s['slope']:.4f} (r2={s['r2']:.4f})")
        if s.get("dropped"):
            print(f"slope[{name}]: {s['dropped']} non-converged rows left "
                  "out of the fit", file=sys.stderr)
    if report.rows and all(not r.get("converged", True) for r in report.rows):
        print("no sweep point converged", file=sys.stderr)
        return 3
    return 0


def _cmd_sweep_regular(args):
    cfg = _cfg(args, _floats(args.schedule), inclusion=args.inclusion)
    return _emit_and_report(run_regular_cloak_sweep(cfg), args)


def _cmd_sweep_singular(args):
    cfg = _cfg(args, _floats(args.schedule), inclusion=args.inclusion)
    return _emit_and_report(run_truncated_singular_sweep(cfg), args)


def _cmd_sweep_homog(args):
    cfg = _cfg(args, _floats(args.schedule), profile=args.profile,
               psi=args.psi)
    return _emit_and_report(run_homogenization_sweep(cfg), args)


def _cmd_diffeo_check(args):
    cfg = _cfg(args, _floats(args.h_schedule),
               inclusion=args.coeff if args.coeff != "identity" else "")
    report = run_diffeo_invariance(cfg, dmap=regular_blowup(args.blowup))
    if args.out:
        emit_report(report, args.fmt, os.path.join(args.out_dir, args.out))
    for row in report.rows:
        print(f"{row['coefficient']}  h={row['h']}  dn={row['dn']:.6e}")
    return 0


_COMMANDS = {
    "map-check": _cmd_map_check,
    "solve": _cmd_solve,
    "dnmap": _cmd_dnmap,
    "dndiff": _cmd_dndiff,
    "cell": _cmd_cell,
    "cloak-build": _cmd_cloak_build,
    "sweep-regular": _cmd_sweep_regular,
    "sweep-singular": _cmd_sweep_singular,
    "sweep-homog": _cmd_sweep_homog,
    "diffeo-check": _cmd_diffeo_check,
}


def main(argv=None):
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's entries go ahead of the command line, so explicit
            # flags, parsed after them, win
            args = parser.parse_args(_config_flags(args.config) + argv)
        os.makedirs(args.out_dir, exist_ok=True)
        return _COMMANDS[args.command](args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
