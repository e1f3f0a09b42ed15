"""Periodic homogenization and the radial isotropic approximate cloak.

Three layers:

* cell problems on the unit square with periodic identification, solved by
  P1 elements on a crossed grid (solve_cell), giving the effective tensor;
* closed-form radial homogenization of radius-periodic scalar profiles:
  harmonic mean along the radial direction, arithmetic mean tangentially
  (radial_homogenized); the two routes are cross-validated in the tests;
* the oscillating-profile cloak construction: a two-bump unit-cell profile
  [1 + a1*zeta1 - a2*zeta2]^2 whose amplitudes are fitted so the radial
  and tangential means match prescribed targets (fit_cloak_amplitudes,
  build_isotropic_cloak_sequence).
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import quad
from scipy.sparse.linalg import splu

from .coeff import CoefficientField, IsotropicField, StructureConstants
from .errors import NumericalError, PreconditionError
from .fem import p1_elements, p1_stiffness

__all__ = [
    "phi", "phi_M", "zeta",
    "CellProblem", "CellSolution", "solve_cell", "cell_lipschitz",
    "HomogenizedTensor", "RadialTable", "radial_homogenized", "lipschitz_in_t",
    "LipschitzReport",
    "fit_cloak_amplitudes", "cell_means", "cloak_targets",
    "RadialCloakSpec", "build_isotropic_cloak_sequence", "default_schedule",
]


# ---------------------------------------------------------------------------
# profile building blocks

def phi(t):
    """C^1 ramp: 0 below 0, quadratic ease to 1 at 2, constant after."""
    t = np.asarray(t, dtype=float)
    out = np.where(t < 1.0, 0.5 * np.clip(t, 0.0, None) ** 2,
                   1.0 - 0.5 * np.clip(2.0 - t, 0.0, None) ** 2)
    return out if out.ndim else float(out)


def phi_M(t, M):
    """Ramp up, plateau at 1 on [2, M-2], ramp down; supported on (0, M)."""
    if M < 4:
        raise PreconditionError("phi_M needs M >= 4 so the plateau exists")
    t = np.asarray(t, dtype=float)
    out = np.where(t < 2.0, phi(t), np.where(t < M - 2.0, 1.0, phi(M - t)))
    return out if out.ndim else float(out)


def zeta(j, t, M=8):
    """1-periodic bump pair: j=1 lives on the first half-period, j=2 on the
    second (the j=1 bump shifted by one half)."""
    if j not in (1, 2):
        raise PreconditionError("j must be 1 or 2")
    t = np.asarray(t, dtype=float)
    u = np.mod(t, 1.0)
    if j == 2:
        u = np.mod(u - 0.5, 1.0)
    out = np.asarray(phi_M(2.0 * M * u, M))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# amplitude fitting for the oscillating profile

_GAUSS_ORDER = 24
_quad_cache = {}


def _quad_nodes(M):
    """Gauss points and weights on [0,1], subdivided at the breakpoints of
    the two bumps so every panel sees a smooth integrand."""
    key = int(M)
    if key in _quad_cache:
        return _quad_cache[key]
    s = np.array([0.0, 1.0, 2.0, M - 2.0, M - 1.0, float(M)]) / (2.0 * M)
    cuts = np.unique(np.concatenate([s, s + 0.5]))
    xg, wg = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    nodes, weights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        half = 0.5 * (b - a)
        nodes.append(a + half * (xg + 1.0))
        weights.append(half * wg)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    z1 = zeta(1, nodes, M)
    z2 = zeta(2, nodes, M)
    _quad_cache[key] = (nodes, weights, z1, z2)
    return _quad_cache[key]


def cell_means(a1, a2, M=8):
    """(harmonic, arithmetic) mean over one period of the squared profile."""
    _, w, z1, z2 = _quad_nodes(M)
    base = 1.0 + a1 * z1 - a2 * z2
    if base.min() <= 0.0:
        raise NumericalError("profile touches zero inside the period")
    sig = base ** 2
    return 1.0 / float(w @ (1.0 / sig)), float(w @ sig)


# amplitudes may leave the nominal nonnegative box: matching targets close
# to a common value psi != 1 forces the second amplitude negative
_BOX_LO = np.array([-0.999, -10.0])
_BOX_HI = np.array([10.0, 0.999])


def fit_cloak_amplitudes(h, m, M=8, tol=1e-10, max_iter=100):
    """Solve for (a1, a2) so the squared profile has harmonic mean h and
    arithmetic mean m over one period.

    Starts from the closed form of the sharp-interface limit (half the
    period at each extreme value) and runs a damped Newton iteration on the
    two quadrature-evaluated integrals. Raises when the targets violate the
    mean inequality or when no profile in the search box attains them.
    """
    if not (0.0 < h <= m) or m <= 0.0:
        raise PreconditionError(
            f"targets must satisfy 0 < h <= m, got h={h}, m={m}")
    if abs(h - 1.0) < 1e-14 and abs(m - 1.0) < 1e-14:
        return 0.0, 0.0
    if m - h <= 1e-12 and abs(m - 1.0) > 1e-9:
        # equal means force a constant profile, which this family only
        # realizes at the value 1
        raise NumericalError(
            f"equal targets h = m = {m:.6g} != 1 are unattainable")
    _, w, z1, z2 = _quad_nodes(M)

    disc = np.sqrt(max(m * (m - h), 0.0))
    hi_val = m + disc
    lo_val = max(m - disc, 1e-6)
    a = np.array([np.sqrt(hi_val) - 1.0, 1.0 - np.sqrt(lo_val)])
    a = np.clip(a, _BOX_LO + 1e-9, _BOX_HI - 1e-9)

    def residual(av):
        base = 1.0 + av[0] * z1 - av[1] * z2
        if base.min() <= 1e-9:
            return None, None
        sig = base ** 2
        F = np.array([w @ (1.0 / sig) - 1.0 / h, w @ sig - m])
        return F, base

    F, base = residual(a)
    if F is None:
        raise NumericalError("initial profile not positive")
    best = (np.abs(F).max(), a.copy())
    for _ in range(max_iter):
        if np.abs(F).max() <= tol:
            return float(a[0]), float(a[1])
        inv3 = base ** -3
        J = np.array([
            [w @ (-2.0 * inv3 * z1), w @ (2.0 * inv3 * z2)],
            [w @ (2.0 * base * z1), w @ (-2.0 * base * z2)],
        ])
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        accepted = False
        while lam > 1e-10:
            trial = np.clip(a + lam * step, _BOX_LO, _BOX_HI)
            Ft, bt = residual(trial)
            if Ft is not None and np.abs(Ft).max() < np.abs(F).max():
                a, F, base = trial, Ft, bt
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
        if np.abs(F).max() < best[0]:
            best = (np.abs(F).max(), a.copy())
    if np.abs(F).max() <= tol:
        return float(a[0]), float(a[1])
    raise NumericalError(
        f"no profile in the box matches (h={h:.6g}, m={m:.6g}); best residual "
        f"{best[0]:.3e} at a1={best[1][0]:.4f}, a2={best[1][1]:.4f}")


# ---------------------------------------------------------------------------
# target mean profiles for the cloak shell

_PROFILES = ("transformation", "flattened")


def _psi_value(psi, r, t):
    if callable(psi):
        return float(psi(r, t))
    return float(psi)


def cloak_targets(r, R, eta, psi=2.0, t=0.0, profile="transformation"):
    """Radial/tangential mean targets (h, m) for the shell construction.

    On the working annulus (R, 2) the "transformation" profile matches the
    radial map's push-forward eigenvalues ((r-1)/r, r/(r-1)), so the
    homogenized shell is the anisotropic cloak itself; "flattened" keeps a
    conformal multiple of it (2(r-1)^2/r^2, 2), which is cheaper but keeps
    an order-one boundary mismatch. Inside r < R both blend smoothly to the
    floor value psi; outside r >= 2 both are (1, 1).
    """
    if not (1.0 < R < 2.0) or eta <= 0.0:
        raise PreconditionError("need 1 < R < 2 and eta > 0")
    if profile not in _PROFILES:
        raise PreconditionError(f"unknown profile {profile!r}")
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    h = np.ones_like(r)
    m = np.ones_like(r)

    if profile == "transformation":
        def h_ann(s):
            return (s - 1.0) / s

        def m_ann(s):
            return s / (s - 1.0)
    else:
        def h_ann(s):
            return 2.0 * (s - 1.0) ** 2 / s ** 2

        def m_ann(s):
            return 2.0 * np.ones_like(np.asarray(s, dtype=float))

    ann = (r >= R) & (r < 2.0)
    h[ann] = h_ann(r[ann])
    m[ann] = m_ann(r[ann])

    inner = r < R
    if np.any(inner):
        wgt = phi((R - r[inner]) / eta)
        pv = np.array([_psi_value(psi, ri, t) for ri in r[inner]]) \
            if callable(psi) else _psi_value(psi, 0.0, t)
        h[inner] = float(h_ann(R)) * (1.0 - wgt) + pv * wgt
        m[inner] = float(m_ann(np.array(R))) * (1.0 - wgt) + pv * wgt
    if scalar:
        return float(h[0]), float(m[0])
    return h, m


# ---------------------------------------------------------------------------
# homogenized tensors of radial microstructures

def _projector_matrices(points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rr = np.linalg.norm(points, axis=1)
    if np.any(rr < 1e-14):
        raise PreconditionError("radial projector undefined at the origin")
    hat = points / rr[:, None]
    dim = points.shape[1]
    proj = np.einsum("mi,mj->mij", hat, hat)
    return proj, np.eye(dim) - proj, rr


class RadialTable:
    """Values tabulated on an (r, t) lattice, interpolated piecewise linearly.

    table has shape (len(r_values), len(t_values), n_components). Radius
    and state are clamped to the lattice, so values beyond either end
    hold the end value.
    """

    def __init__(self, r_values, t_values, table):
        self.r_values = np.asarray(r_values, dtype=float)
        self.t_values = np.asarray(t_values, dtype=float)
        self.table = np.asarray(table, dtype=float)

    def batch(self, r, t):
        """(n_components, len(r)) values at radii r and state t (scalar or
        one per radius)."""
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        # (n_components, n_t, len(rr)): every state column interpolated in r
        at_t = np.array([[np.interp(rr, self.r_values, col) for col in comp.T]
                         for comp in self.table.transpose(2, 0, 1)])
        tv = self.t_values
        if len(tv) == 1:
            return at_t[:, 0]
        tt = np.broadcast_to(np.asarray(t, dtype=float), rr.shape)
        j = np.clip(np.searchsorted(tv, tt) - 1, 0, len(tv) - 2)
        ft = np.clip((tt - tv[j]) / (tv[j + 1] - tv[j]), 0.0, 1.0)
        idx = np.arange(len(rr))
        return at_t[:, j, idx] * (1 - ft) + at_t[:, j + 1, idx] * ft

    def __call__(self, r, t):
        return tuple(float(v[0]) for v in self.batch(float(r), float(t)))


class HomogenizedTensor:
    """Radial effective tensor sigma_lo * P + sigma_hi * (I - P).

    means(r, t) -> (radial value, tangential value). Use with_cache to
    tabulate the means on a lattice before handing the tensor to the
    assembly loop; the quadrature-backed version is scalar and slow.
    """

    def __init__(self, means, provenance="", dim=2, name=""):
        self.means = means
        self.provenance = provenance
        self.dim = dim
        self.name = name

    def eval(self, x, t=0.0):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        proj, perp, rr = _projector_matrices(x)
        if isinstance(self.means, RadialTable):
            lo, hi = self.means.batch(rr, t)
        else:
            tt = np.broadcast_to(np.asarray(t, dtype=float), rr.shape)
            lo, hi = np.array([self.means(ri, ti)
                               for ri, ti in zip(rr, tt)]).T
        out = lo[:, None, None] * proj + hi[:, None, None] * perp
        return out[0] if single else out

    __call__ = eval

    def with_cache(self, r_values, t_values=(0.0,)):
        table = np.array([[self.means(r, t) for t in t_values]
                          for r in r_values], dtype=float)
        return HomogenizedTensor(RadialTable(r_values, t_values, table),
                                 provenance=self.provenance + "+cache",
                                 dim=self.dim, name=self.name)

    def as_field(self, constants=None, name=None):
        """CoefficientField adapter for assembly (vectorized over points)."""
        def fn(pts, t):
            return self.eval(np.atleast_2d(pts), t)
        if constants is None:
            constants = self._estimate_constants()
        return CoefficientField(fn, constants, dim=self.dim,
                                name=name if name is not None else self.name)

    def _estimate_constants(self, r_range=(0.05, 3.0), n=200):
        rs = np.linspace(r_range[0], r_range[1], n)
        vals = np.array([self.means(r, 0.0) for r in rs])
        return StructureConstants(float(vals.min()) * 0.999,
                                  float(vals.max()) * 1.001, 0.0)


def radial_homogenized(sigma_profile, dim=2, name=""):
    """Effective tensor of a radius-periodic scalar profile.

    sigma_profile(r, rprime, t) gives the scalar value at radius r, fast
    variable rprime in [0, 1), state t. The radial effective value is the
    harmonic mean over one period, the tangential one the arithmetic mean,
    both by adaptive quadrature to absolute tolerance 1e-10.
    """
    def means(r, t):
        probe = sigma_profile(r, np.linspace(0.0, 1.0, 41)[:-1], t)
        pmin = np.min(probe)
        if pmin <= 0.0:
            k = int(np.argmin(probe))
            raise NumericalError(
                f"profile nonpositive at r={r}, rprime={k / 40:.3f}")
        arith, _ = quad(lambda s: float(sigma_profile(r, s, t)), 0.0, 1.0,
                        epsabs=1e-10, epsrel=1e-12, limit=200)
        recip, _ = quad(lambda s: 1.0 / float(sigma_profile(r, s, t)), 0.0,
                        1.0, epsabs=1e-10, epsrel=1e-12, limit=200)
        return 1.0 / recip, arith

    return HomogenizedTensor(means, provenance="closed-form-laminate",
                             dim=dim, name=name)


@dataclass
class LipschitzReport:
    max_ratio: float
    corrector_ratio: float = None


def lipschitz_in_t(tensor, t_grid, points):
    """Max finite-difference ratio of tensor entries over consecutive t pairs."""
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2:
        raise PreconditionError("need at least two t values")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ev = tensor.eval if hasattr(tensor, "eval") else tensor
    ratio = 0.0
    for p in pts:
        prev = np.asarray(ev(p, t_grid[0]))
        for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
            cur = np.asarray(ev(p, t1))
            ratio = max(ratio, np.abs(cur - prev).max() / abs(t1 - t0))
            prev = cur
    return LipschitzReport(max_ratio=float(ratio))


# ---------------------------------------------------------------------------
# periodic cell problems on the unit square

@dataclass
class CellProblem:
    """Coefficient on the unit cell, frozen at one (x, t).

    a_cell(points (m,2)) may return matrices (m,2,2) or scalars (m,),
    read as isotropic. resolution is the grid count per axis; interfaces
    of piecewise coefficients should sit on grid lines.
    """
    a_cell: object
    resolution: tuple = (64, 64)
    name: str = ""

    def matrices(self, pts):
        out = np.asarray(self.a_cell(pts), dtype=float)
        if out.ndim == 1:
            eye = np.eye(2)
            return out[:, None, None] * eye
        return out


@dataclass
class CellSolution:
    tensor: np.ndarray
    correctors: np.ndarray        # (2, ndof)
    mean_residual: float
    bounds: tuple = None          # (harmonic, arithmetic) for isotropic cells
    _geom: dict = dc_field(default=None, repr=False)

    def corrector_h1(self, other=None):
        """H1 seminorm of the correctors (or of the difference with other)."""
        g = self._geom
        vals = self.correctors if other is None \
            else self.correctors - other.correctors
        out = np.zeros(2)
        for k in range(2):
            u = vals[k][g["dofs"]]
            gu = np.einsum("tic,ti->tc", g["grads"], u)
            out[k] = np.sqrt((g["areas"] * (gu ** 2).sum(axis=1)).sum())
        return out


def _cell_grid(n1, n2):
    dx, dy = 1.0 / n1, 1.0 / n2
    i, j = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    i = i.ravel()
    j = j.ravel()

    def corner(ii, jj):
        return (ii % n1) * n2 + (jj % n2)

    ctr = n1 * n2 + i * n2 + j
    c00 = corner(i, j)
    c10 = corner(i + 1, j)
    c01 = corner(i, j + 1)
    c11 = corner(i + 1, j + 1)

    def xy(ii, jj):
        return np.stack([ii * dx, jj * dy], axis=1)

    p00, p10 = xy(i, j), xy(i + 1, j)
    p01, p11 = xy(i, j + 1), xy(i + 1, j + 1)
    pc = xy(i + 0.5, j + 0.5)

    tris_dof = np.concatenate([
        np.stack([c00, c10, ctr], axis=1),
        np.stack([c10, c11, ctr], axis=1),
        np.stack([c11, c01, ctr], axis=1),
        np.stack([c01, c00, ctr], axis=1),
    ])
    tris_xy = np.concatenate([
        np.stack([p00, p10, pc], axis=1),
        np.stack([p10, p11, pc], axis=1),
        np.stack([p11, p01, pc], axis=1),
        np.stack([p01, p00, pc], axis=1),
    ])
    return tris_dof, tris_xy, 2 * n1 * n2


def solve_cell(problem, tol=1e-10):
    """Periodic correctors and the effective tensor of one frozen cell.

    The cell is meshed as a crossed grid (four triangles per square), which
    is invariant under the symmetries used by the isotropy tests. One
    degree of freedom is pinned, then the correctors are shifted to zero
    mean.
    """
    n1, n2 = problem.resolution
    if n1 < 2 or n2 < 2:
        raise PreconditionError("cell resolution must be at least 2 per axis")
    dofs, xy, ndof = _cell_grid(n1, n2)
    areas, grads = p1_elements(xy)

    cent = xy.mean(axis=1)
    amat = problem.matrices(cent)
    sym_defect = np.abs(amat - amat.transpose(0, 2, 1)).max()
    if sym_defect > 1e-12 * max(np.abs(amat).max(), 1.0):
        raise PreconditionError("cell coefficient must be symmetric")

    K = p1_stiffness(areas, grads, amat, dofs, ndof)

    rhs = np.zeros((2, ndof))
    for k in range(2):
        # work of the constant gradient e_k against each basis gradient
        contrib = -np.einsum("t,tc,tic->ti", areas, amat[:, :, k], grads)
        np.add.at(rhs[k], dofs.ravel(), contrib.ravel())

    keep = np.arange(1, ndof)
    Kred = K[keep][:, keep].tocsc()
    try:
        lu = splu(Kred, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise NumericalError(f"degenerate cell coefficient: {exc}") from None
    chi = np.zeros((2, ndof))
    for k in range(2):
        sol = lu.solve(rhs[k][keep])
        resid = np.linalg.norm(Kred @ sol - rhs[k][keep])
        scale = max(np.linalg.norm(rhs[k][keep]), 1e-30)
        if resid > max(1e-8 * scale, 1e-12):
            raise NumericalError(f"cell solve residual {resid:.2e}")
        chi[k][keep] = sol

    mass = np.zeros(ndof)
    np.add.at(mass, dofs.ravel(), np.repeat(areas / 3.0, 3))
    chi -= (chi @ mass)[:, None]          # total cell measure is 1
    mean_residual = float(np.abs(chi @ mass).max())

    grad_chi = np.einsum("tic,kti->ktc", grads, chi[:, dofs])
    eye = np.eye(2)
    total = grad_chi + eye[:, None, :]
    astar = np.einsum("kta,tab,ltb,t->kl", total, amat, total, areas)
    astar = 0.5 * (astar + astar.T)
    ev = np.linalg.eigvalsh(astar)
    if ev.min() <= 0.0:
        raise NumericalError("effective tensor not positive definite")

    bounds = None
    iso_defect = max(np.abs(amat[:, 0, 1]).max(), np.abs(amat[:, 1, 0]).max(),
                     np.abs(amat[:, 0, 0] - amat[:, 1, 1]).max())
    if iso_defect <= 1e-12 * max(np.abs(amat).max(), 1.0):
        s = amat[:, 0, 0]
        harm = 1.0 / float((areas / s).sum() / areas.sum())
        arith = float((areas * s).sum() / areas.sum())
        bounds = (harm, arith)

    geom = {"dofs": dofs, "grads": grads, "areas": areas}
    return CellSolution(tensor=astar, correctors=chi,
                        mean_residual=mean_residual, bounds=bounds, _geom=geom)


def cell_lipschitz(a_cell_of_t, t_grid, resolution=(64, 64)):
    """Finite-difference t-Lipschitz data from repeated cell solves.

    a_cell_of_t(t) returns the frozen cell coefficient callable for that t.
    Reports the max tensor-entry ratio and the max corrector H1 ratio.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    sols = [solve_cell(CellProblem(a_cell_of_t(t), resolution)) for t in t_grid]
    ratio = 0.0
    corr = 0.0
    for (t0, s0), (t1, s1) in zip(zip(t_grid[:-1], sols[:-1]),
                                  zip(t_grid[1:], sols[1:])):
        dt = abs(t1 - t0)
        ratio = max(ratio, np.abs(s1.tensor - s0.tensor).max() / dt)
        corr = max(corr, s1.corrector_h1(s0).max() / dt)
    return LipschitzReport(max_ratio=float(ratio), corrector_ratio=float(corr))


# ---------------------------------------------------------------------------
# the isotropic cloak sequence

def default_schedule(n_terms=4):
    """(R_n, eta_n, eps_n) with R_n -> 1 and widths shrinking geometrically."""
    out = []
    for n in range(1, n_terms + 1):
        s = 0.5 ** n
        out.append((1.0 + s, s / 4.0, s / 16.0))
    return out


class RadialCloakSpec:
    """One term of the isotropic cloak sequence.

    Holds the fitted amplitude tables on a radius (and optionally state)
    lattice, and evaluates the oscillating scalar coefficient

        sigma(x, t) = [1 + a1 zeta1(|x|/eps) - a2 zeta2(|x|/eps)]^2

    inside radius 2 and 1 outside (up to radius 3). Lattice points where
    the two-mean fit has no solution (targets nearly equal away from 1,
    which happens on the sealed floor region) fall back to the isotropic
    target value; their count is recorded.
    """

    def __init__(self, R, eta, eps, psi=2.0, M=8, profile="transformation",
                 r_spacing=None, t_grid=(0.0,), on_infeasible="isotropic"):
        if not (1.0 < R < 2.0) or eta <= 0.0 or eps <= 0.0:
            raise PreconditionError("need 1 < R < 2, eta > 0, eps > 0")
        if on_infeasible not in ("isotropic", "abort"):
            raise PreconditionError("on_infeasible must be isotropic or abort")
        self.R, self.eta, self.eps = float(R), float(eta), float(eps)
        self.psi, self.M, self.profile = psi, int(M), profile
        self.t_grid = np.asarray(t_grid, dtype=float)

        dr = r_spacing if r_spacing is not None else min(0.02, eta / 8.0)
        base = np.arange(dr, 2.0 + dr / 2, dr)
        marks = np.array([R - 2 * eta, R - eta, R, 2.0])
        rs = np.unique(np.concatenate([base, marks[marks > dr / 2]]))
        self.r_grid = rs[rs <= 2.0 + 1e-12]

        nr, nt = len(self.r_grid), len(self.t_grid)
        self.a1 = np.zeros((nr, nt))
        self.a2 = np.zeros((nr, nt))
        self.ok = np.ones((nr, nt), dtype=bool)
        self.h_t = np.empty((nr, nt))
        self.m_t = np.empty((nr, nt))
        self.max_residual = 0.0
        for j, t in enumerate(self.t_grid):
            h, m = cloak_targets(self.r_grid, R, eta, psi=psi, t=t,
                                 profile=profile)
            self.h_t[:, j] = h
            self.m_t[:, j] = m
            for i, r in enumerate(self.r_grid):
                try:
                    # quadratic convergence makes the tighter tolerance
                    # nearly free, and the recorded residual must hold in
                    # the (mean_1, mean_2) metric, not the solved one
                    a1, a2 = fit_cloak_amplitudes(h[i], m[i], M=self.M,
                                                  tol=1e-13)
                except NumericalError:
                    if on_infeasible == "abort":
                        raise NumericalError(
                            f"amplitude fit failed at r={r:.4f}, t={t}")
                    self.ok[i, j] = False
                    continue
                self.a1[i, j] = a1
                self.a2[i, j] = a2
                hm = cell_means(a1, a2, self.M)
                self.max_residual = max(self.max_residual,
                                        abs(hm[0] - h[i]), abs(hm[1] - m[i]))
        self.n_fallback = int((~self.ok).sum())
        self.table = RadialTable(
            self.r_grid, self.t_grid,
            np.stack([self.a1, self.a2, self.ok, self.m_t], axis=2))

    def sigma(self, r, t=0.0):
        """Scalar coefficient at radius r (vectorized), state t."""
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.ones_like(rr)
        ins = rr < 2.0
        if np.any(ins):
            a1, a2, okf, miso = self.table.batch(rr[ins], t)
            rp = rr[ins] / self.eps
            base = 1.0 + a1 * zeta(1, rp, self.M) - a2 * zeta(2, rp, self.M)
            vals = base ** 2
            fallback = okf < 0.999
            vals[fallback] = miso[fallback]
            out[ins] = vals
        return out if np.ndim(r) else float(out[0])

    def field(self, name=None):
        """IsotropicField on the disk of radius 3."""
        spec = self

        def scalar_fn(pts, t):
            rr = np.linalg.norm(np.atleast_2d(pts), axis=1)
            if len(spec.t_grid) > 1:
                return spec.sigma(rr, t)
            return spec.sigma(rr)

        rs = np.arange(self.eps / 64.0, 3.0, self.eps / 64.0)
        vals = self.sigma(rs)
        lip = 0.0
        if len(self.t_grid) > 1:
            for t0, t1 in zip(self.t_grid[:-1], self.t_grid[1:]):
                dv = np.abs(self.sigma(rs, t1) - self.sigma(rs, t0))
                lip = max(lip, dv.max() / abs(t1 - t0))
        constants = StructureConstants(float(vals.min()) * 0.999,
                                       float(vals.max()) * 1.001, lip)
        label = name if name is not None else \
            f"cloak-sigma(R={self.R:g},eps={self.eps:g})"
        return IsotropicField(scalar_fn, constants, dim=2, name=label)

    def homogenized(self):
        """Reference anisotropic shell: the target means as a radial tensor."""
        table = np.stack([self.h_t, self.m_t], axis=2)
        # extend by identity out to radius 3
        r_ext = np.concatenate([self.r_grid, [2.0 + 1e-9, 3.0]])
        ext = np.concatenate([table, np.ones((2,) + table.shape[1:])], axis=0)
        return HomogenizedTensor(RadialTable(r_ext, self.t_grid, ext),
                                 provenance="closed-form-laminate",
                                 dim=2, name=f"cloak-target(R={self.R:g})")


def build_isotropic_cloak_sequence(R_seq=None, eta_seq=None, eps_seq=None,
                                   psi=2.0, M=8, profile="transformation",
                                   n_terms=4, t_grid=(0.0,),
                                   on_infeasible="isotropic"):
    """The shrinking-shell sequence of isotropic oscillating coefficients.

    Defaults to the geometric schedule R_n = 1 + 2^-n, eta_n = 2^-n / 4,
    eps_n = 2^-n / 16. Sequences must move monotonically (R down toward 1,
    widths down)."""
    if R_seq is None:
        sched = default_schedule(n_terms)
        R_seq = [s[0] for s in sched]
        eta_seq = [s[1] for s in sched]
        eps_seq = [s[2] for s in sched]
    R_seq = list(R_seq)
    eta_seq = list(eta_seq)
    eps_seq = list(eps_seq)
    if not (len(R_seq) == len(eta_seq) == len(eps_seq)) or not R_seq:
        raise PreconditionError("schedules must be nonempty, equal length")
    for name, seq in (("R", R_seq), ("eta", eta_seq), ("eps", eps_seq)):
        diffs = np.diff(seq)
        if len(diffs) and np.any(diffs >= 0):
            raise PreconditionError(f"{name} schedule must decrease")
    out = []
    for R, eta, eps in zip(R_seq, eta_seq, eps_seq):
        out.append(RadialCloakSpec(R, eta, eps, psi=psi, M=M, profile=profile,
                                   t_grid=t_grid, on_infeasible=on_infeasible))
    return out
