"""Radial diffeomorphisms and coefficient push-forwards.

The two maps that matter: the regular blow-up F_r, which inflates the ball
of radius r to the unit ball while fixing the outer boundary of B_2, and
the singular map F(x) = (1 + |x|/2) x/|x|, which opens the origin into the
unit ball. Push-forward follows the change-of-variables rule for divergence
form operators,

    (Phi_* A)(y, t) = [DPhi A DPhi^T / |det DPhi|] (Phi^{-1}(y), t),

which leaves the boundary flux response unchanged whenever Phi fixes the
boundary pointwise. The state variable t rides along untouched.
"""

import numpy as np

from .coeff import (CoefficientField, ProductField, StructureConstants,
                    _as_points, annulus, ball, identity_field, piecewise_field)
from .errors import PreconditionError

__all__ = [
    "DiffMap",
    "compose",
    "fd_jacobian",
    "pushforward",
    "regular_blowup",
    "singular_cloak_tensor",
    "singular_map",
    "transformed_inner_tensor",
    "truncated_singular_cloak",
]


class DiffMap:
    """Invertible map with an analytic jacobian, vectorized over points.

    radial is True for a map x -> psi(|x|) x/|x|, which commutes with every
    rotation about the origin; it pushes a radial field forward to a
    radial field.
    """

    def __init__(self, forward, inverse, jacobian, dim=2, name="",
                 domain=None, radial=False):
        self._forward = forward
        self._inverse = inverse
        self._jacobian = jacobian
        self.dim = dim
        self.name = name
        self.domain = domain
        self.radial = radial

    def forward(self, x):
        pts, single = _as_points(x, self.dim)
        out = self._forward(pts)
        return out[0] if single else out

    def inverse(self, y):
        pts, single = _as_points(y, self.dim)
        out = self._inverse(pts)
        return out[0] if single else out

    def jacobian(self, x):
        """Jacobian of the forward map at source points x, shape (m, d, d)."""
        pts, single = _as_points(x, self.dim)
        out = self._jacobian(pts)
        return out[0] if single else out

    def __repr__(self):
        return f"DiffMap({self.name or 'anonymous'}, dim={self.dim})"


def _radial_matrix(hat, rad, tan, dim):
    """rad * hat hat^T + tan * (I - hat hat^T), batched."""
    # in place: a shell evaluates this at all its quadrature points at
    # once, and each spare (m, dim, dim) temporary adds to peak memory
    proj = hat[:, :, None] * hat[:, None, :]
    out = np.subtract(np.eye(dim), proj)
    out *= tan[:, None, None]
    proj *= rad[:, None, None]
    out += proj
    return out


def _radial_map(psi, dpsi, psi_inv, dim, name, domain, origin_ok,
                origin_slope=None):
    """Build a DiffMap for x -> psi(|x|) x/|x|."""

    def forward(pts):
        r = np.linalg.norm(pts, axis=1)
        if not origin_ok and np.any(r == 0.0):
            raise PreconditionError(f"{name} is undefined at the origin")
        safe = np.maximum(r, 1e-300)
        return psi(r)[:, None] * pts / safe[:, None]

    def inverse(pts):
        rho = np.linalg.norm(pts, axis=1)
        s = psi_inv(rho)
        safe = np.maximum(rho, 1e-300)
        return s[:, None] * pts / safe[:, None]

    def jacobian(pts):
        r = np.linalg.norm(pts, axis=1)
        if not origin_ok and np.any(r == 0.0):
            raise PreconditionError(f"{name} jacobian undefined at the origin")
        at_zero = r == 0.0
        safe = np.maximum(r, 1e-300)
        hat = pts / safe[:, None]
        out = _radial_matrix(hat, dpsi(r), psi(r) / safe, dim)
        if origin_ok and at_zero.any():
            out[at_zero] = origin_slope * np.eye(dim)
        return out

    return DiffMap(forward, inverse, jacobian, dim=dim, name=name,
                   domain=domain, radial=True)


def regular_blowup(r, dim=2):
    """Blow-up F_r: B_r -> B_1 linearly, annulus r..2 stretched, fixes |x|=2.

    Piecewise radial profile
        psi(s) = s / r                      for s <= r,
        psi(s) = (2 - 2r)/(2 - r) + s/(2 - r)   for r <= s <= 2.
    """
    if not (0.0 < r < 2.0):
        raise PreconditionError(f"regular_blowup needs 0 < r < 2, got {r}")
    a = (2.0 - 2.0 * r) / (2.0 - r)
    b = 1.0 / (2.0 - r)

    def psi(s):
        return np.where(s <= r, s / r, a + b * s)

    def dpsi(s):
        return np.where(s <= r, 1.0 / r, b)

    def psi_inv(rho):
        return np.where(rho <= 1.0, rho * r, (rho - a) / b)

    return _radial_map(psi, dpsi, psi_inv, dim, f"regular_blowup({r:g})",
                       ball(2.0, dim=dim), origin_ok=True,
                       origin_slope=1.0 / r)


def singular_map(dim=2):
    """F(x) = (1 + |x|/2) x/|x| on B_2 minus the origin, image annulus 1..2."""

    def psi(s):
        return 1.0 + 0.5 * s

    def dpsi(s):
        return np.full_like(s, 0.5)

    def psi_inv(rho):
        if np.any(rho <= 1.0):
            raise PreconditionError("singular map inverse needs |y| > 1")
        return 2.0 * (rho - 1.0)

    return _radial_map(psi, dpsi, psi_inv, dim, "singular_map",
                       annulus(0.0, 2.0, dim=dim), origin_ok=False)


def fd_jacobian(dmap, x):
    """Central-difference jacobian of the forward map at one point, with
    step 1e-6."""
    step = 1e-6
    x = np.asarray(x, dtype=float)
    out = np.empty((dmap.dim, dmap.dim))
    for j in range(dmap.dim):
        e = np.zeros(dmap.dim)
        e[j] = step
        out[:, j] = (dmap.forward(x + e) - dmap.forward(x - e)) / (2.0 * step)
    return out


def compose(outer, inner, name=""):
    """The map x -> outer(inner(x)) with chain-rule jacobian."""
    if outer.dim != inner.dim:
        raise PreconditionError("composed maps must share a dimension")

    def forward(pts):
        return outer._forward(inner._forward(pts))

    def inverse(pts):
        return inner._inverse(outer._inverse(pts))

    def jacobian(pts):
        mid = inner._forward(pts)
        return outer._jacobian(mid) @ inner._jacobian(pts)

    return DiffMap(forward, inverse, jacobian, dim=inner.dim,
                   name=name or f"{outer.name}*{inner.name}",
                   domain=inner.domain, radial=outer.radial and inner.radial)


class PushforwardField(CoefficientField):
    """F_*A: DF A DF^T / |det DF| at x = F^{-1}(y).

    Binding computes x, DF and det DF once; each state then costs one
    batched product js A js^T with js = DF / sqrt|det DF|. The push-forward
    of a radial field by a radial map is radial.
    """

    def __init__(self, field, dmap, constants, name):
        self.field = field
        self.dmap = dmap
        super().__init__(lambda pts, tt: self.bind(pts)(tt), constants,
                         dim=field.dim, name=name,
                         radial=field.radial and dmap.radial)

    def bind(self, points):
        pts, _ = _as_points(points, self.dim)
        x = self.dmap._inverse(pts)
        jac = self.dmap._jacobian(x)
        js = jac / np.sqrt(np.abs(np.linalg.det(jac)))[:, None, None]
        jst = js.transpose(0, 2, 1)
        inner = self.field.bind(x)
        return lambda t: js @ inner(t) @ jst


def pushforward(field, dmap):
    """Transport a coefficient through a boundary-fixing diffeomorphism.

    The returned field evaluates at image points y via x = dmap.inverse(y).
    Structure constants are estimated by sampling the jacobian over the map
    domain; for maps with blowing-up distortion the estimate reflects only
    the sampled region. The state rides along, so a product a(t) B pushes
    forward to the product a(t) F_*B, whose binding costs one scalar
    product per state.
    """
    if field.dim != dmap.dim:
        raise PreconditionError("field and map dimensions differ")
    name = f"{dmap.name}_*{field.name}"
    if isinstance(field, ProductField):
        return ProductField(field.scalar, field.scalar_constants,
                            pushforward(field.field, dmap), name=name)
    dom = dmap.domain or ball(2.0, dim=field.dim)
    pts = dom.sample_lattice(24)
    if len(pts) == 0:
        raise PreconditionError("cannot sample map domain for constants")
    jac = dmap._jacobian(pts)
    det = np.abs(np.linalg.det(jac))
    sv = np.linalg.svd(jac, compute_uv=False)
    lo = float((sv[:, -1] ** 2 / det).min())
    hi = float((sv[:, 0] ** 2 / det).max())
    c = field.constants
    constants = StructureConstants(c.alpha * lo, c.beta * hi,
                                   c.lipschitz_l * hi)
    return PushforwardField(field, dmap, constants, name)


def transformed_inner_tensor(field, r):
    """The near-cloak of scale r: r^{2-N} A(x/r, t) on B_r, identity outside.

    On B_r this is the pull-back of A under the linear piece of F_r, so
    solving with it reproduces the boundary response of A on B_1 seen
    through the blow-up. In two dimensions the scaling factor is 1.
    """
    if not (0.0 < r < 2.0):
        raise PreconditionError(f"need 0 < r < 2, got {r}")
    dim = field.dim
    scale = r ** (2 - dim)

    def fn(pts, tt):
        return scale * field.eval(pts / r, tt)

    c = field.constants
    constants = StructureConstants(c.alpha * scale, c.beta * scale,
                                   c.lipschitz_l * scale)
    inner = CoefficientField(fn, constants, dim=dim, radial=field.radial)
    return piecewise_field([(ball(r, dim=dim), inner),
                            (None, identity_field(dim))],
                           dim=dim, name=f"near-cloak(r={r:g}, {field.name})")


def _singular_eigs(s, dim):
    """Radial and tangential eigenvalues of F_* I at source radius s."""
    pref = 2.0 ** dim / (2.0 + s) ** (dim - 1)
    rad = pref * 0.25 * s ** (dim - 1)
    tan = pref * (0.25 * s ** (dim - 1) + s ** (dim - 2) + s ** (dim - 3))
    return rad, tan


def singular_cloak_tensor(dim=2, r_min=1.0 + 1e-9):
    """Push-forward of the identity through the singular map, on 1 <= |y| <= 2,
    with the radius frozen at r_min below it.

    Closed form at image radius rho with s = 2(max(rho, r_min) - 1):
    radial eigenvalue s^{N-1}/4, tangential s^{N-1}/4 + s^{N-2} + s^{N-3},
    both scaled by 2^N / (2+s)^{N-1}. The radial eigenvalue vanishes as
    rho -> 1; clamping the radius at r_min carries the r_min values inward
    along rays, so the tensor stays continuous and the declared constants
    (the eigenvalues at r_min and at 2) hold on the whole domain.
    """
    if not (1.0 < r_min < 2.0):
        raise PreconditionError("r_min must lie in (1, 2)")

    def fn(pts, tt):
        rho = np.linalg.norm(pts, axis=1)
        if np.any(rho < 1.0) or np.any(rho > 2.0 + 1e-12):
            raise PreconditionError(
                "singular cloak tensor lives on 1 <= |y| <= 2")
        rad, tan = _singular_eigs(2.0 * (np.maximum(rho, r_min) - 1.0), dim)
        return _radial_matrix(pts / rho[:, None], rad, tan, dim)

    rad0, tan0 = _singular_eigs(2.0 * (r_min - 1.0), dim)
    rad1, tan1 = _singular_eigs(2.0, dim)
    constants = StructureConstants(min(rad0, rad1, tan0, tan1),
                                   max(rad0, rad1, tan0, tan1), 0.0)
    return CoefficientField(fn, constants, dim=dim, name="singular_cloak",
                            radial=True)


def truncated_singular_cloak(rho, dim=2, interior=None):
    """Singular cloak truncated at |y| = rho by freezing the radius there.

    On 1 <= |y| <= 2 this is singular_cloak_tensor with r_min = rho: exact
    for |y| >= rho, uniformly elliptic with the rho eigenvalues below it.
    Inside B_1 the coefficient defaults to the identity placeholder; pass
    `interior` to put an inclusion there.
    """
    if not (1.0 < rho < 2.0):
        raise PreconditionError(f"need 1 < rho < 2, got {rho}")
    inner = interior if interior is not None else identity_field(dim)
    shell = singular_cloak_tensor(dim=dim, r_min=rho)
    return piecewise_field(
        [(annulus(1.0, 2.0, dim=dim), shell), (ball(1.0, dim=dim), inner)],
        dim=dim, name=f"truncated_cloak[{rho:g}]")
