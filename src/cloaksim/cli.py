"""Command line driver.

Subcommands cover mesh generation, map verification, single solves, DN
operators and their comparison, cell problems, cloak construction, and the
four sweep experiments. A JSON config file can hold any global flag;
explicit flags win. Exit codes: 0 ok, 2 bad input, 3 numerical failure,
4 I/O failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from .coeff import validate_structure, ball
from .dnmap import DtNOperator, FourierBasis, dn_difference, dn_operator
from .errors import NumericalError, PreconditionError
from .experiments import (ExperimentConfig, emit_report, run_diffeo_invariance,
                          run_homogenization_sweep, run_regular_cloak_sweep,
                          run_truncated_singular_sweep)
from .fem import build_disk_mesh
from .geometry import fd_jacobian, regular_blowup, singular_map
from .homog import CellProblem, RadialCloakSpec, solve_cell
from .presets import parse_preset, preset_field
from .qsolve import PicardConfig, solve_quasilinear

GLOBAL_DEFAULTS = {"h": 0.05, "modes": 8, "tol": 1e-8, "seed": 0,
                   "out_dir": "."}


def _parser():
    p = argparse.ArgumentParser(prog="cloaksim")
    p.add_argument("--config", help="JSON file of global flag values")
    g = p.add_argument_group("global")
    g.add_argument("--h", type=float, default=None, help="target mesh size")
    g.add_argument("--modes", type=int, default=None, help="Fourier mode count")
    g.add_argument("--tol", type=float, default=None, help="iteration tolerance")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out-dir", dest="out_dir", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("mesh", help="build and save a layered disk mesh")
    s.add_argument("--radius", type=float, default=2.0)
    s.add_argument("--aligned", default="", help="comma-separated radii")
    s.add_argument("--out", required=True)

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
                   help="laminate:a,b | checker:a,b | constant:c | smooth-cos")
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
        s.add_argument("--inclusion", default="5I")
        s.add_argument("--profile", default="transformation")
        s.add_argument("--psi", type=float, default=2.0)
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


def _merge_globals(args):
    merged = dict(GLOBAL_DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PreconditionError(f"config file: {exc}")
        for k in merged:
            if k in doc:
                merged[k] = doc[k]
    for k in merged:
        v = getattr(args, k, None)
        if v is not None:
            merged[k] = v
    return merged


def _out_path(path, out_dir):
    if path is None or os.path.isabs(path):
        return path
    return os.path.join(out_dir, path)


def _floats(text):
    text = text.strip()
    if not text:
        return []
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise PreconditionError(f"expected comma-separated numbers, got {text!r}")


def _cfg(args, g, schedule):
    return ExperimentConfig(
        schedule=tuple(schedule), h=g["h"], modes=g["modes"],
        picard=PicardConfig(tol=g["tol"]),
        inclusion=getattr(args, "inclusion", "5I"),
        profile=getattr(args, "profile", "transformation"),
        psi=getattr(args, "psi", 2.0))


def _domain_radius(coeff_key):
    name, _ = parse_preset(coeff_key)
    return 3.0 if name == "homogenized-radial" else 2.0


def _aligned_for(coeff_key):
    name, args = parse_preset(coeff_key)
    if name == "regular-cloak":
        return (args[0], 1.0)
    if name == "truncated-singular-cloak":
        return (1.0, args[0])
    if name == "homogenized-radial":
        R, eta = args
        return (R - 2 * eta, R, 2.0)
    return (1.0,)


def _cmd_mesh(args, g):
    aligned = tuple(_floats(args.aligned))
    mesh = build_disk_mesh(args.radius, aligned_radii=aligned, h_target=g["h"])
    mesh.save_text(_out_path(args.out, g["out_dir"]))
    print(f"{mesh.n_vertices} vertices, {mesh.n_triangles} triangles, "
          f"h_max {mesh.h_max:.4g} -> {args.out}")
    return 0


def _cmd_map_check(args, g):
    name, params = parse_preset(args.map_key.replace(":", "(") + ")"
                                if ":" in args.map_key else args.map_key)
    if name == "regular":
        dmap = regular_blowup(params[0] if params else 0.5)
        lo, hi = 0.05, 1.99
    elif name == "singular":
        dmap = singular_map()
        lo, hi = 0.05, 1.99
    else:
        raise PreconditionError(f"unknown map {args.map_key!r}")
    rng = np.random.default_rng(g["seed"])
    rr = rng.uniform(lo, hi, args.points)
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


def _cmd_solve(args, g):
    field = preset_field(args.coeff)
    radius = _domain_radius(args.coeff)
    mesh = build_disk_mesh(radius, aligned_radii=_aligned_for(args.coeff),
                           h_target=g["h"])
    theta = mesh.boundary_angles()
    datum = np.cos(args.mode * theta)
    res = solve_quasilinear(mesh, field, datum, PicardConfig(tol=g["tol"]))
    doc = {"coefficient": args.coeff, "mode": args.mode,
           "l2": res.u.l2(), "h1": res.u.h1(),
           "iterations": res.iterations, "converged": res.converged}
    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.out:
        with open(_out_path(args.out, g["out_dir"]), "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if res.converged else 3


def _cmd_dnmap(args, g):
    field = preset_field(args.coeff)
    radius = _domain_radius(args.coeff)
    mesh = build_disk_mesh(radius, aligned_radii=_aligned_for(args.coeff),
                           h_target=g["h"])
    basis = FourierBasis(g["modes"], radius=radius)
    op = dn_operator(field, basis, mesh, PicardConfig(tol=g["tol"]))
    op.to_json(_out_path(args.out, g["out_dir"]))
    print(f"{basis.size}x{basis.size} pairing matrix -> {args.out}")
    if not op.all_converged:
        bad = sum(1 for c in op.converged if not c)
        print(f"{bad} columns did not converge", file=sys.stderr)
        if bad == basis.size:
            return 3
    return 0


def _cmd_dndiff(args, g):
    op1 = DtNOperator.from_json(args.op1)
    op2 = DtNOperator.from_json(args.op2)
    print(f"{dn_difference(op1, op2):.12g}")
    return 0


def _cell_profile(text):
    name, _, rest = text.partition(":")
    params = _floats(rest) if rest else []

    if name == "laminate":
        a, b = (params + [1.0, 4.0])[:2] if len(params) >= 2 else (1.0, 4.0)
        return lambda p: np.where(p[:, 0] % 1.0 < 0.5, a, b)
    if name == "checker":
        a, b = (params + [1.0, 4.0])[:2] if len(params) >= 2 else (1.0, 4.0)

        def checker(p):
            same = ((p[:, 0] % 1.0) < 0.5) == ((p[:, 1] % 1.0) < 0.5)
            return np.where(same, a, b)
        return checker
    if name == "constant":
        c = params[0] if params else 1.0
        return lambda p: np.full(len(p), c)
    if name == "smooth-cos":
        return lambda p: 2.0 + np.cos(2 * np.pi * p[:, 0])
    raise PreconditionError(f"unknown cell profile {text!r}")


def _cmd_cell(args, g):
    a_cell = _cell_profile(args.profile)
    sol = solve_cell(CellProblem(a_cell, (args.resolution, args.resolution),
                                 name=args.profile))
    ev = np.linalg.eigvalsh(sol.tensor)
    doc = {"profile": args.profile,
           "tensor": [[float(v) for v in row] for row in sol.tensor],
           "eigenvalues": [float(v) for v in ev],
           "mean_residual": sol.mean_residual}
    if sol.bounds:
        doc["bounds"] = {"harmonic": sol.bounds[0], "arithmetic": sol.bounds[1]}
    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.out:
        with open(_out_path(args.out, g["out_dir"]), "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_cloak_build(args, g):
    spec = RadialCloakSpec(args.R, args.eta, args.eps, psi=args.psi,
                           M=args.M, profile=args.profile)
    points = []
    for i, r in enumerate(spec.r_grid):
        fitted = bool(spec.ok[i, 0])
        h, m = float(spec.h_t[i, 0]), float(spec.m_t[i, 0])
        points.append({
            "r": float(r),
            "a1": float(spec.a1[i, 0]), "a2": float(spec.a2[i, 0]),
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
    with open(_out_path(args.out, g["out_dir"]), "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(points)} lattice points, {spec.n_fallback} fallback, "
          f"max residual {spec.max_residual:.3e} -> {args.out}")
    return 0


def _emit_and_report(report, args, g):
    ext = {"csv": "csv", "json": "json", "gnuplot-dat": "dat"}[args.fmt]
    out = args.out or f"{report.kind}.{ext}"
    emit_report(report, args.fmt, _out_path(out, g["out_dir"]))
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


def _cmd_sweep_regular(args, g):
    cfg = _cfg(args, g, _floats(args.schedule))
    return _emit_and_report(run_regular_cloak_sweep(cfg), args, g)


def _cmd_sweep_singular(args, g):
    cfg = _cfg(args, g, _floats(args.schedule))
    return _emit_and_report(run_truncated_singular_sweep(cfg), args, g)


def _cmd_sweep_homog(args, g):
    cfg = _cfg(args, g, [int(v) for v in _floats(args.schedule)])
    return _emit_and_report(run_homogenization_sweep(cfg), args, g)


def _cmd_diffeo_check(args, g):
    cfg = _cfg(args, g, _floats(args.h_schedule))
    cfg.inclusion = args.coeff if args.coeff != "identity" else ""
    report = run_diffeo_invariance(cfg, dmap=regular_blowup(args.blowup))
    if args.out:
        emit_report(report, args.fmt, _out_path(args.out, g["out_dir"]))
    for row in report.rows:
        print(f"{row['coefficient']}  h={row['h']}  dn={row['dn']:.6e}")
    return 0


_COMMANDS = {
    "mesh": _cmd_mesh,
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
    args = _parser().parse_args(argv)
    try:
        g = _merge_globals(args)
        os.makedirs(g["out_dir"], exist_ok=True)
        return _COMMANDS[args.command](args, g)
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
