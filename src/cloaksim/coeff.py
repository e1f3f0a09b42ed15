"""Coefficient fields A(x, t) and their structure-class bookkeeping.

A field carries the triple (alpha, beta, L): ellipticity floor, upper bound,
and the Lipschitz modulus in the state variable t. Everything downstream
(assembly, Picard iteration, homogenization) consumes the same vectorized
evaluation contract: eval(points, t) with points of shape (m, dim) and t
scalar or shape (m,) returns an (m, dim, dim) array.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

__all__ = [
    "StructureConstants",
    "CoefficientField",
    "IsotropicField",
    "ProductField",
    "Region",
    "ball",
    "annulus",
    "constant_field",
    "identity_field",
    "piecewise_field",
    "validate_structure",
    "StructureReport",
]


@dataclass(frozen=True)
class StructureConstants:
    """Ellipticity and t-continuity constants of a coefficient field."""

    alpha: float
    beta: float
    lipschitz_l: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= self.beta):
            raise PreconditionError(
                f"need 0 < alpha <= beta, got alpha={self.alpha}, beta={self.beta}")
        if self.lipschitz_l < 0.0:
            raise PreconditionError("lipschitz_l must be nonnegative")

    @property
    def is_linear(self):
        return self.lipschitz_l == 0.0


def _as_points(x, dim):
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise PreconditionError(f"points must have shape (m, {dim}), got {pts.shape}")
    return pts, single


def _as_states(t, m):
    tt = np.asarray(t, dtype=float)
    if tt.ndim == 0:
        tt = np.full(m, float(tt))
    if tt.shape != (m,):
        raise PreconditionError(f"state values must be scalar or shape ({m},)")
    return tt


class CoefficientField:
    """Matrix-valued coefficient with declared structure constants.

    Parameters
    ----------
    fn : callable
        fn(points, t) -> (m, dim, dim), with points (m, dim) and t (m,).
    constants : StructureConstants
    dim : int
        Spatial dimension, 2 or 3.
    radial : bool
        True when the field is rotation-equivariant about the origin:
        A(Qx, t) = Q A(x, t) Q^T for every rotation Q. A ring mesh then
        assembles its stiffness at the zero state from one wedge of
        triangles (fem.assemble_frozen), which checks the declaration on a
        second angular index.
    """

    def __init__(self, fn, constants, dim=2, name="", radial=False):
        if dim not in (2, 3):
            raise PreconditionError("dim must be 2 or 3")
        self._fn = fn
        self.constants = constants
        self.dim = dim
        self.name = name
        self.radial = radial

    def eval(self, x, t=0.0):
        pts, single = _as_points(x, self.dim)
        tt = _as_states(t, len(pts))
        out = np.asarray(self._fn(pts, tt), dtype=float)
        if out.shape != (len(pts), self.dim, self.dim):
            raise PreconditionError(
                f"field '{self.name}' returned shape {out.shape}, "
                f"expected {(len(pts), self.dim, self.dim)}")
        return out[0] if single else out

    def bind(self, points):
        """The field at fixed points as a function of the state alone.

        points : (m, dim). Returns at(t) -> (m, dim, dim), with t scalar or
        shape (m,), equal to eval(points, t). A solver that evaluates the
        same points at many states binds once; fields with costly
        point-only work override this and evaluate through it.
        """
        pts, _ = _as_points(points, self.dim)
        return lambda t: self.eval(pts, t)

    @property
    def is_linear(self):
        return self.constants.is_linear

    def __repr__(self):
        c = self.constants
        return (f"CoefficientField({self.name or 'anonymous'}, dim={self.dim}, "
                f"alpha={c.alpha:g}, beta={c.beta:g}, L={c.lipschitz_l:g})")


class IsotropicField(CoefficientField):
    """Scalar coefficient sigma(x, t) * I; radial when sigma depends on x
    through |x| alone."""

    def __init__(self, scalar_fn, constants, dim=2, name="", radial=False):
        def fn(pts, tt):
            s = np.asarray(scalar_fn(pts, tt), dtype=float)
            eye = np.eye(dim)
            return s[:, None, None] * eye[None, :, :]

        super().__init__(fn, constants, dim=dim, name=name, radial=radial)


class ProductField(CoefficientField):
    """a(t) B(x): a scalar function of the state times a state-free field.

    scalar(t) takes a scalar or an array of states and returns values of
    the same shape; scalar_constants (alpha_a, beta_a, L_a) bound it below
    and above and give its Lipschitz modulus. The product then has the
    exact constants (alpha_a alpha_B, beta_a beta_B, L_a beta_B). Binding
    evaluates B once; each state then costs one product per component. The
    product is radial when B is.
    """

    def __init__(self, scalar, scalar_constants, field, name=""):
        if not field.is_linear:
            raise PreconditionError(
                f"ProductField needs a state-free field, '{field.name}' "
                f"has L = {field.constants.lipschitz_l:g}")
        self.scalar = scalar
        self.scalar_constants = tuple(scalar_constants)
        self.field = field
        a, b = StructureConstants(*scalar_constants), field.constants
        constants = StructureConstants(a.alpha * b.alpha, a.beta * b.beta,
                                       a.lipschitz_l * b.beta)
        super().__init__(lambda pts, tt: self.bind(pts)(tt), constants,
                         dim=field.dim, name=name, radial=field.radial)

    def bind(self, points):
        pts, _ = _as_points(points, self.dim)
        mats = self.field.eval(pts).reshape(len(pts), -1)

        def at(t):
            # one product per component, each along the points: a single
            # broadcast over (m, dim, dim) runs dim^2-long inner loops and
            # took about 1.6 times as long at 15 k points
            a = self.scalar(t)
            out = np.empty_like(mats)
            for k in range(mats.shape[1]):
                np.multiply(mats[:, k], a, out=out[:, k])
            return out.reshape(-1, self.dim, self.dim)

        return at


def constant_field(matrix, dim=None, name=""):
    """Field with a fixed symmetric matrix value; radial when it is a
    multiple of the identity."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim == 0:
        if dim is None:
            dim = 2
        mat = float(mat) * np.eye(dim)
    if dim is None:
        dim = mat.shape[0]
    if mat.shape != (dim, dim):
        raise PreconditionError("matrix shape does not match dim")
    if not np.allclose(mat, mat.T, rtol=0, atol=1e-14 * max(1.0, np.abs(mat).max())):
        raise PreconditionError("constant coefficient must be symmetric")
    ev = np.linalg.eigvalsh(mat)
    if ev[0] <= 0:
        raise PreconditionError("constant coefficient must be positive definite")
    constants = StructureConstants(float(ev[0]), float(ev[-1]), 0.0)

    def fn(pts, tt):
        return np.broadcast_to(mat, (len(pts), dim, dim)).copy()

    radial = bool(np.array_equal(mat, mat[0, 0] * np.eye(dim)))
    return CoefficientField(fn, constants, dim=dim, name=name or "constant",
                            radial=radial)


def identity_field(dim=2):
    return constant_field(np.eye(dim), dim=dim, name="identity")


class Region:
    """Radial region |x| in [r_lo, r_hi], used for sampling and dispatch."""

    def __init__(self, r_lo, r_hi, dim=2):
        if not (0.0 <= r_lo < r_hi):
            raise PreconditionError(f"need 0 <= r_lo < r_hi, got [{r_lo}, {r_hi}]")
        self.r_lo = float(r_lo)
        self.r_hi = float(r_hi)
        self.dim = dim

    def contains(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        return (r >= self.r_lo) & (r <= self.r_hi)

    def sample_lattice(self, n=32):
        """Deterministic lattice over the bounding box, clipped to the region.

        Cell-centered so that r = 0 (where radial tensors may be undefined)
        is never sampled exactly.
        """
        b = self.r_hi
        axis = (np.arange(n) + 0.5) / n * 2.0 * b - b
        grids = np.meshgrid(*([axis] * self.dim), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        return pts[self.contains(pts)]


def ball(radius, dim=2):
    return Region(0.0, radius, dim=dim)


def annulus(r_lo, r_hi, dim=2):
    return Region(r_lo, r_hi, dim=dim)


def piecewise_field(pieces, dim=2, name="piecewise"):
    """Compose fields over disjoint radial regions, first match wins.

    pieces: list of (Region or None, CoefficientField); None matches
    everything and normally appears last. Combined constants are the
    componentwise worst case: min alpha, max beta, max L. The regions are
    centered at the origin, so the field is radial when every piece is.
    """
    if not pieces:
        raise PreconditionError("piecewise_field needs at least one piece")
    regions = []
    fields = []
    for region, field in pieces:
        if field.dim != dim:
            raise PreconditionError("piece dimension mismatch")
        regions.append(region)
        fields.append(field)
    alpha = min(f.constants.alpha for f in fields)
    beta = max(f.constants.beta for f in fields)
    lip = max(f.constants.lipschitz_l for f in fields)

    def fn(pts, tt):
        out = np.empty((len(pts), dim, dim))
        done = np.zeros(len(pts), dtype=bool)
        for region, field in zip(regions, fields):
            if region is None:
                mask = ~done
            else:
                mask = region.contains(pts) & ~done
            if mask.any():
                out[mask] = field.eval(pts[mask], tt[mask])
                done |= mask
        if not done.all():
            bad = pts[~done][0]
            raise PreconditionError(f"point {bad} not covered by any piece")
        return out

    return CoefficientField(fn, StructureConstants(alpha, beta, lip), dim=dim,
                            name=name, radial=all(f.radial for f in fields))


@dataclass
class StructureReport:
    """Worst observed violations, each normalized by the declared scale."""

    ok: bool
    symmetry_defect: float
    ellipticity_defect: float
    bound_defect: float
    lipschitz_defect: float
    n_points: int
    n_states: int


def _directions(n, dim):
    if dim == 2:
        ang = np.arange(n) * (np.pi / n)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # golden-spiral points on the half sphere
    idx = np.arange(n) + 0.5
    z = idx / n
    theta = np.pi * (1 + 5 ** 0.5) * idx
    rho = np.sqrt(1 - z ** 2)
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)


def validate_structure(field, region, t_values=None):
    """Sampling check of symmetry, ellipticity, boundedness, t-Lipschitz.

    The region is sampled on a lattice of 32 points per axis in 2D and 10
    in 3D, the quadratic forms along 16 directions. Defects are reported
    relative to the declared constants; the check passes when every defect
    is <= 1e-12. Sampling cannot certify the constants, it can only refute
    them, which is what the report records.
    """
    if t_values is None:
        t_values = np.arange(-5.0, 5.0 + 0.25, 0.5)
    t_values = np.asarray(t_values, dtype=float)
    pts = region.sample_lattice(32 if field.dim == 2 else 10)
    if len(pts) == 0:
        raise PreconditionError("region sampling produced no points")
    dirs = _directions(16, field.dim)
    c = field.constants

    sym = ell = bnd = lip = 0.0
    prev = None
    prev_t = None
    at = field.bind(pts)
    for t in t_values:
        mats = at(float(t))
        scale = max(np.abs(mats).max(), c.beta)
        sym = max(sym, np.abs(mats - np.transpose(mats, (0, 2, 1))).max() / scale)
        # quadratic forms along each direction
        quad = np.einsum("pij,di,dj->pd", mats, dirs, dirs)
        ell = max(ell, float((c.alpha - quad.min()) / c.alpha))
        norms = np.linalg.norm(np.einsum("pij,dj->pdi", mats, dirs), axis=2)
        bnd = max(bnd, float((norms.max() - c.beta) / c.beta))
        if prev is not None:
            dt = abs(t - prev_t)
            allowed = c.lipschitz_l * dt
            diff = np.abs(mats - prev).max()
            lip = max(lip, (diff - allowed) / max(c.beta, 1.0))
        prev, prev_t = mats, t

    sym = max(sym, 0.0)
    ell = max(ell, 0.0)
    bnd = max(bnd, 0.0)
    lip = max(lip, 0.0)
    ok = max(sym, ell, bnd, lip) <= 1e-12
    return StructureReport(ok, sym, ell, bnd, lip, len(pts), len(t_values))
