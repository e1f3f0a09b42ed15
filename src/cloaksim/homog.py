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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse.linalg import splu

from .coeff import CoefficientField, IsotropicField, StructureConstants
from .errors import NumericalError, PreconditionError
from .fem import (SUPERLU_SETTINGS, P1Pattern, p1_elements, p1_gradient,
                  p1_stiffness)
from .geometry import _radial_matrix

__all__ = [
    "phi", "phi_M", "zeta",
    "CellProblem", "CellSolution", "solve_cell", "cell_lipschitz",
    "HomogenizedTensor", "radial_homogenized",
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


@lru_cache
def _quad_nodes(M):
    """Gauss points and weights on [0,1], subdivided at the breakpoints of
    the two bumps so every panel sees a smooth integrand."""
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
    return nodes, weights, zeta(1, nodes, M), zeta(2, nodes, M)


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


def fit_cloak_amplitudes(h, m, M=8, tol=1e-10):
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
    for _ in range(100):
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


def cloak_targets(r, R, eta, psi=2.0, profile="transformation"):
    """Radial/tangential mean targets (h, m) for the shell construction.

    On the working annulus (R, 2) the "transformation" profile matches the
    radial map's push-forward eigenvalues ((r-1)/r, r/(r-1)), so the
    homogenized shell is the anisotropic cloak itself; "flattened" keeps a
    conformal multiple of it (2(r-1)^2/r^2, 2), which is cheaper but keeps
    an order-one boundary mismatch. Both are evaluated at the radius
    frozen at R, max(r, R), and blended to the floor value psi, a number,
    with weight phi((R - r)/eta), which is 0 from R outward; outside r >= 2
    both are (1, 1). A scalar r gives numpy scalars.
    """
    if not (1.0 < R < 2.0) or eta <= 0.0:
        raise PreconditionError("need 1 < R < 2 and eta > 0")
    if profile not in _PROFILES:
        raise PreconditionError(f"unknown profile {profile!r}")
    r = np.asarray(r, dtype=float)
    s = np.maximum(r, R)
    if profile == "transformation":
        h, m = (s - 1.0) / s, s / (s - 1.0)
    else:
        h, m = 2.0 * (s - 1.0) ** 2 / s ** 2, np.full_like(s, 2.0)
    w = phi((R - r) / eta)
    h, m = (np.where(r < 2.0, v * (1.0 - w) + psi * w, 1.0) for v in (h, m))
    return h[()], m[()]


# ---------------------------------------------------------------------------
# homogenized tensors of radial microstructures

class HomogenizedTensor(CoefficientField):
    """Radial effective tensor lo P + hi (I - P), with P = x x^T / |x|^2.

    lo and hi are tabulated at the increasing radii and interpolated
    piecewise linearly, holding the end value beyond either end. The
    constants are exact for that interpolant: alpha and beta are the table
    minimum and maximum, and the tensor does not depend on the state.
    """

    def __init__(self, radii, lo, hi, dim=2, name=""):
        radii, lo, hi = (np.asarray(v, dtype=float) for v in (radii, lo, hi))

        def fn(pts, tt):
            rr = np.linalg.norm(pts, axis=1)
            if np.any(rr < 1e-14):
                raise PreconditionError(
                    "radial projector undefined at the origin")
            return _radial_matrix(pts / rr[:, None], np.interp(rr, radii, lo),
                                  np.interp(rr, radii, hi), dim)

        table = np.concatenate([lo, hi])
        constants = StructureConstants(float(table.min()),
                                       float(table.max()), 0.0)
        super().__init__(fn, constants, dim=dim, name=name, radial=True)


def radial_homogenized(sigma_profile):
    """Effective means of a radius-periodic scalar profile.

    sigma_profile(r, rprime, t) gives the scalar value at radius r, fast
    variable rprime in [0, 1), state t. Returns means(r, t) -> (radial,
    tangential): the radial effective value is the harmonic mean over one
    period, the tangential one the arithmetic mean, both by adaptive
    quadrature to absolute tolerance 1e-10.
    """
    # imported here: scipy.integrate loads scipy.optimize and
    # scipy.special, which nothing else in the package needs
    from scipy.integrate import quad

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

    return means


@dataclass
class LipschitzReport:
    max_ratio: float
    corrector_ratio: float = None


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
    grad_chi: np.ndarray          # (2, n_triangles, 2), constant per triangle
    areas: np.ndarray             # (n_triangles,)
    bounds: tuple = None          # (harmonic, arithmetic) for isotropic cells

    def corrector_h1(self, other=None):
        """H1 seminorm of the correctors (or of the difference with other,
        solved on the same grid)."""
        g = self.grad_chi if other is None else self.grad_chi - other.grad_chi
        return np.sqrt((self.areas * (g ** 2).sum(axis=2)).sum(axis=1))


@lru_cache(maxsize=1)
def _cell_grid(n1, n2):
    """Corner dofs, P1Pattern, areas, barycentric gradients and centroids
    of the triangles of the crossed n1 x n2 grid; the last grid is kept,
    since a cell sweep reuses one resolution. The corner points are
    dropped once the geometry is read from them."""
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
    areas, grads = p1_elements(tris_xy)
    centroids = tris_xy.mean(axis=1)
    del tris_xy
    # every call of this resolution shares them
    for array in (tris_dof, areas, grads, centroids):
        array.setflags(write=False)
    return (tris_dof, P1Pattern(tris_dof, 2 * n1 * n2), areas, grads,
            centroids)


def solve_cell(problem):
    """Periodic correctors and the effective tensor of one frozen cell.

    The cell is meshed as a crossed grid (four triangles per square), which
    is invariant under the symmetries used by the isotropy tests. One
    degree of freedom is pinned, then the correctors are shifted to zero
    mean.
    """
    n1, n2 = problem.resolution
    if n1 < 2 or n2 < 2:
        raise PreconditionError("cell resolution must be at least 2 per axis")
    dofs, pattern, areas, grads, centroids = _cell_grid(n1, n2)
    ndof = pattern.n
    amat = problem.matrices(centroids)
    sym_defect = np.abs(amat - amat.transpose(0, 2, 1)).max()
    if sym_defect > 1e-12 * max(np.abs(amat).max(), 1.0):
        raise PreconditionError("cell coefficient must be symmetric")
    # Sylvester's criterion, before the stiffness, with no temporary kept
    if not (np.all(amat[:, 0, 0] > 0.0) and np.all(
            amat[:, 0, 0] * amat[:, 1, 1] > amat[:, 0, 1] * amat[:, 1, 0])):
        raise PreconditionError("cell coefficient must be positive definite")

    K = pattern.matrix(p1_stiffness(areas, grads, amat, pattern))

    rhs = np.empty((2, ndof))
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    for k in range(2):
        # work of the constant gradient e_k against each basis gradient
        contrib = gx * (-areas * amat[:, 0, k])[:, None]
        contrib -= gy * (areas * amat[:, 1, k])[:, None]
        rhs[k] = np.bincount(dofs.ravel(), weights=contrib.ravel(),
                             minlength=ndof)

    keep = np.arange(1, ndof)
    Kred = K[keep][:, keep].tocsc()
    try:
        lu = splu(Kred, permc_spec="MMD_AT_PLUS_A", **SUPERLU_SETTINGS)
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
    # free the factor before allocating grad_chi, which the solution keeps:
    # allocated above a live factor, it fragments the heap, and repeated
    # cell solves then peak about 10 % higher in resident memory
    del lu, Kred, K

    mass = np.bincount(dofs.ravel(), weights=np.repeat(areas / 3.0, 3),
                       minlength=ndof)
    chi -= (chi @ mass)[:, None]          # total cell measure is 1
    mean_residual = float(np.abs(chi @ mass).max())

    grad_chi = p1_gradient(grads, chi[:, dofs])
    eye = np.eye(2)
    total = grad_chi + eye[:, None, :]
    # the flux area (e_k + grad chi_k) A, component by component
    flux = np.empty_like(total)
    for b in range(2):
        comp = flux[..., b]
        np.multiply(total[..., 0], areas * amat[:, 0, b], out=comp)
        comp += total[..., 1] * (areas * amat[:, 1, b])
    astar = np.tensordot(flux, total, axes=([1, 2], [1, 2]))
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

    return CellSolution(tensor=astar, correctors=chi,
                        mean_residual=mean_residual, grad_chi=grad_chi,
                        areas=areas, bounds=bounds)


def cell_lipschitz(a_cell_of_t, t_values, resolution=(64, 64)):
    """Finite-difference t-Lipschitz data from repeated cell solves.

    a_cell_of_t(t) returns the frozen cell coefficient callable for that t.
    Reports the max tensor-entry ratio and the max corrector H1 ratio.
    """
    t_values = np.asarray(t_values, dtype=float)
    sols = [solve_cell(CellProblem(a_cell_of_t(t), resolution))
            for t in t_values]
    ratio = 0.0
    corr = 0.0
    for (t0, s0), (t1, s1) in zip(zip(t_values[:-1], sols[:-1]),
                                  zip(t_values[1:], sols[1:])):
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

    Holds the fitted amplitude tables on a radius lattice, and evaluates
    the oscillating scalar coefficient

        sigma(x) = [1 + a1 zeta1(|x|/eps) - a2 zeta2(|x|/eps)]^2

    inside radius 2 and 1 outside (up to radius 3). Lattice points where
    the two-mean fit has no solution (targets nearly equal away from 1,
    which happens on the sealed floor region) fall back to the isotropic
    target value; their count is recorded.

    psi is the floor value inside the shell, a number. The coefficient
    does not depend on the state; a quasi-linear shell a(u) sigma is
    ProductField(a, constants of a, spec.field()).
    """

    def __init__(self, R, eta, eps, psi=2.0, M=8, profile="transformation",
                 r_spacing=None):
        if not (1.0 < R < 2.0) or eta <= 0.0 or eps <= 0.0:
            raise PreconditionError("need 1 < R < 2, eta > 0, eps > 0")
        self.R, self.eta, self.eps = float(R), float(eta), float(eps)
        self.psi, self.M, self.profile = float(psi), int(M), profile

        dr = r_spacing if r_spacing is not None else min(0.02, eta / 8.0)
        base = np.arange(dr, 2.0 + dr / 2, dr)
        marks = np.array([R - 2 * eta, R - eta, R, 2.0])
        rs = np.unique(np.concatenate([base, marks[marks > dr / 2]]))
        self.r_grid = rs[rs <= 2.0 + 1e-12]

        nr = len(self.r_grid)
        self.h_t, self.m_t = cloak_targets(self.r_grid, R, eta, psi=psi,
                                           profile=profile)
        self.a1 = np.zeros(nr)
        self.a2 = np.zeros(nr)
        self.ok = np.ones(nr, dtype=bool)
        self.max_residual = 0.0
        for i, (h, m) in enumerate(zip(self.h_t, self.m_t)):
            try:
                # quadratic convergence makes the tighter tolerance nearly
                # free, and the recorded residual must hold in the
                # (mean_1, mean_2) metric, not the solved one
                a1, a2 = fit_cloak_amplitudes(h, m, M=self.M, tol=1e-13)
            except NumericalError:
                self.ok[i] = False
                continue
            self.a1[i] = a1
            self.a2[i] = a2
            hm = cell_means(a1, a2, self.M)
            self.max_residual = max(self.max_residual,
                                    abs(hm[0] - h), abs(hm[1] - m))
        self.n_fallback = int((~self.ok).sum())

    def sigma(self, r):
        """Scalar coefficient at radius r (vectorized)."""
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.ones_like(rr)
        ins = rr < 2.0
        if np.any(ins):
            a1, a2, okf, miso = (np.interp(rr[ins], self.r_grid, col) for col
                                 in (self.a1, self.a2, self.ok, self.m_t))
            rp = rr[ins] / self.eps
            base = 1.0 + a1 * zeta(1, rp, self.M) - a2 * zeta(2, rp, self.M)
            vals = base ** 2
            fallback = okf < 0.999
            vals[fallback] = miso[fallback]
            out[ins] = vals
        return out if np.ndim(r) else float(out[0])

    def field(self):
        """IsotropicField on the disk of radius 3."""
        def scalar_fn(pts, t):
            return self.sigma(np.linalg.norm(np.atleast_2d(pts), axis=1))

        vals = self.sigma(np.arange(self.eps / 64.0, 3.0, self.eps / 64.0))
        constants = StructureConstants(float(vals.min()) * 0.999,
                                       float(vals.max()) * 1.001, 0.0)
        return IsotropicField(scalar_fn, constants, dim=2,
                              name=f"cloak-sigma(R={self.R:g},eps={self.eps:g})",
                              radial=True)

    def homogenized(self):
        """Reference anisotropic shell: the target means as a radial tensor.

        r_grid ends at radius 2, where the targets are (1, 1), and the
        tensor holds that end value beyond it.
        """
        return HomogenizedTensor(self.r_grid, self.h_t, self.m_t, dim=2,
                                 name=f"cloak-target(R={self.R:g})")


def build_isotropic_cloak_sequence(psi=2.0, profile="transformation",
                                   n_terms=4):
    """The shrinking-shell sequence of isotropic oscillating coefficients,
    one term per entry of default_schedule(n_terms)."""
    return [RadialCloakSpec(R, eta, eps, psi=psi, profile=profile)
            for R, eta, eps in default_schedule(n_terms)]
