"""Layered triangular meshes of disks and P1 finite elements.

Meshes are structured: concentric vertex rings with a common angular count,
so requested radii (interfaces of piecewise coefficients) can be matched
exactly by a ring of vertices. Assembly is vectorized over triangles, with
the coefficient sampled at the three edge midpoints of each element.
"""

import io

import numpy as np
from scipy.sparse import coo_matrix
# cg is never called here; it stays bound because perfbench/tracing.py wraps it
from scipy.sparse.linalg import cg, splu  # noqa: F401

from .errors import NumericalError, PreconditionError

__all__ = [
    "TriMesh",
    "FeFunction",
    "SparseSystem",
    "build_disk_mesh",
    "assemble_frozen",
    "p1_elements",
    "p1_stiffness",
    "l2_norm",
    "h1_norm",
    "h1_seminorm",
]


class TriMesh:
    """Triangulation of a disk with precomputed element geometry."""

    def __init__(self, vertices, triangles, boundary, aligned_radii=(),
                 h_target=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.boundary = np.asarray(boundary, dtype=np.int64)
        self.aligned_radii = tuple(float(r) for r in aligned_radii)
        self.h_target = h_target
        self._geometry()

    def _geometry(self):
        v = self.vertices[self.triangles]              # (nt, 3, 2)
        self.areas, self.grads = p1_elements(v)
        self.centroids = v.mean(axis=1)
        # edge midpoints opposite local vertex order: (m01, m12, m20)
        self.edge_mid = 0.5 * np.stack(
            [v[:, 0] + v[:, 1], v[:, 1] + v[:, 2], v[:, 2] + v[:, 0]], axis=1)
        edges = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 1],
                          v[:, 0] - v[:, 2]], axis=1)
        self.h_max = float(np.linalg.norm(edges, axis=2).max())
        mask = np.zeros(len(self.vertices), dtype=bool)
        mask[self.boundary] = True
        self.is_boundary = mask
        self.interior = np.nonzero(~mask)[0]

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def boundary_angles(self):
        b = self.vertices[self.boundary]
        return np.arctan2(b[:, 1], b[:, 0])

    def boundary_arc_weights(self):
        """Trapezoid weights of the closed boundary polygon."""
        b = self.vertices[self.boundary]
        nxt = np.roll(b, -1, axis=0)
        seg = np.linalg.norm(nxt - b, axis=1)
        return 0.5 * (seg + np.roll(seg, 1))

    def save_text(self, path):
        """Plain text: counts line, vertex lines, triangle lines, boundary lines."""
        buf = io.StringIO()
        buf.write(f"{self.n_vertices} {self.n_triangles} {len(self.boundary)}\n")
        for x, y in self.vertices:
            buf.write(f"{x:.17g} {y:.17g}\n")
        for i, j, k in self.triangles:
            buf.write(f"{i} {j} {k}\n")
        for b in self.boundary:
            buf.write(f"{b}\n")
        with open(path, "w") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def load_text(cls, path):
        with open(path) as fh:
            tokens = fh.read().split()
        if len(tokens) < 3:
            raise PreconditionError(f"mesh file {path} is truncated")
        nv, nt, nb = (int(t) for t in tokens[:3])
        need = 3 + 2 * nv + 3 * nt + nb
        if len(tokens) != need:
            raise PreconditionError(
                f"mesh file {path}: expected {need} tokens, found {len(tokens)}")
        vals = tokens[3:]
        verts = np.array(vals[:2 * nv], dtype=float).reshape(nv, 2)
        tris = np.array(vals[2 * nv:2 * nv + 3 * nt], dtype=np.int64).reshape(nt, 3)
        bnd = np.array(vals[2 * nv + 3 * nt:], dtype=np.int64)
        return cls(verts, tris, bnd)


def _ring_radii(radius, aligned_radii, h_target, radial_bands):
    cuts = {0.0, float(radius)}
    for r in aligned_radii:
        r = float(r)
        if not (0.0 < r < radius):
            raise PreconditionError(
                f"aligned radius {r} outside the open interval (0, {radius})")
        cuts.add(r)
    bands = []
    if radial_bands:
        for lo, hi, h in radial_bands:
            if not (0.0 <= lo < hi <= radius) or h <= 0:
                raise PreconditionError(f"bad radial band ({lo}, {hi}, {h})")
            cuts.add(float(lo))
            cuts.add(float(hi))
            bands.append((float(lo), float(hi), float(h)))
    cuts = sorted(cuts)
    radii = [0.0]
    for a, b in zip(cuts[:-1], cuts[1:]):
        h = h_target
        midpoint = 0.5 * (a + b)
        for lo, hi, hb in bands:
            if lo <= midpoint <= hi:
                h = min(h, hb)
        n = max(1, int(np.ceil((b - a) / h - 1e-12)))
        radii.extend(a + (b - a) * (np.arange(1, n + 1) / n))
    return np.array(radii)


def build_disk_mesh(radius, aligned_radii=(), h_target=0.1, n_theta=None,
                    radial_bands=None):
    """Structured disk triangulation with exactly matched interface circles.

    Parameters
    ----------
    radius : float
        Outer radius.
    aligned_radii : sequence of float
        Radii that must coincide with vertex rings (coefficient interfaces).
    h_target : float
        Target edge length; realized edges stay below 1.5 * h_target when
        n_theta is left at its default.
    n_theta : int, optional
        Angular vertex count; defaults to the value matching h_target on the
        outer circle. Explicit values trade angular for radial resolution.
    radial_bands : list of (r_lo, r_hi, h), optional
        Locally finer radial spacing, e.g. to resolve a thin layer or an
        oscillating coefficient.
    """
    if radius <= 0 or h_target <= 0:
        raise PreconditionError("radius and h_target must be positive")
    default_theta = n_theta is None
    if default_theta:
        n_theta = int(np.ceil(2.0 * np.pi * radius / h_target))
        n_theta = max(16, ((n_theta + 7) // 8) * 8)
    if n_theta < 8:
        raise PreconditionError(
            f"h_target={h_target} too coarse: only {n_theta} vertices per circle "
            "(need at least 8)")
    rad = _ring_radii(radius, aligned_radii, h_target, radial_bands)
    rings = rad[1:]
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    ct, st = np.cos(theta), np.sin(theta)

    nv = 1 + len(rings) * n_theta
    verts = np.empty((nv, 2))
    verts[0] = 0.0
    for i, r in enumerate(rings):
        sl = slice(1 + i * n_theta, 1 + (i + 1) * n_theta)
        verts[sl, 0] = r * ct
        verts[sl, 1] = r * st

    def ring_idx(i, j):
        return 1 + i * n_theta + (j % n_theta)

    tris = []
    j = np.arange(n_theta)
    # center fan
    tris.append(np.stack([np.zeros(n_theta, dtype=np.int64),
                          ring_idx(0, j), ring_idx(0, j + 1)], axis=1))
    # ring bands: quad (a inner-j, b inner-j+1, c outer-j, d outer-j+1)
    for i in range(len(rings) - 1):
        a = ring_idx(i, j)
        b = ring_idx(i, j + 1)
        c = ring_idx(i + 1, j)
        d = ring_idx(i + 1, j + 1)
        tris.append(np.stack([a, d, b], axis=1))
        tris.append(np.stack([a, c, d], axis=1))
    tris = np.concatenate(tris, axis=0)
    boundary = ring_idx(len(rings) - 1, j)

    mesh = TriMesh(verts, tris, boundary, aligned_radii=aligned_radii,
                   h_target=h_target)
    if default_theta and radial_bands is None and mesh.h_max > 1.5 * h_target:
        raise NumericalError(
            f"mesh h_max {mesh.h_max:.3g} exceeds 1.5 * h_target")
    return mesh


class FeFunction:
    """Nodal P1 function on a mesh."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_vertices,):
            raise PreconditionError("values must be one per vertex")
        self.mesh = mesh
        self.values = values

    @classmethod
    def interpolate(cls, mesh, fn):
        return cls(mesh, np.asarray(fn(mesh.vertices), dtype=float))

    def l2(self, region=None):
        return l2_norm(self.mesh, self.values, region)

    def h1(self, region=None):
        return h1_norm(self.mesh, self.values, region)

    def __sub__(self, other):
        if other.mesh is not self.mesh:
            raise PreconditionError("functions live on different meshes")
        return FeFunction(self.mesh, self.values - other.values)


def _region_mask(mesh, region):
    if region is None:
        return slice(None)
    if hasattr(region, "contains"):
        return region.contains(mesh.centroids)
    return np.asarray(region(mesh.centroids), dtype=bool)


def l2_norm(mesh, values, region=None):
    """Exact integral of the squared P1 function, optionally over a region
    selected by triangle centroids."""
    mask = _region_mask(mesh, region)
    u = values[mesh.triangles[mask]]
    a = mesh.areas[mask]
    s = (u ** 2).sum(axis=1) + u[:, 0] * u[:, 1] + u[:, 1] * u[:, 2] + u[:, 2] * u[:, 0]
    return float(np.sqrt((a / 6.0 * s).sum()))


def h1_seminorm(mesh, values, region=None):
    mask = _region_mask(mesh, region)
    u = values[mesh.triangles[mask]]
    g = np.einsum("tic,ti->tc", mesh.grads[mask], u)
    return float(np.sqrt((mesh.areas[mask] * (g ** 2).sum(axis=1)).sum()))


def h1_norm(mesh, values, region=None):
    return float(np.hypot(l2_norm(mesh, values, region),
                          h1_seminorm(mesh, values, region)))


def p1_elements(corners):
    """Areas and barycentric gradients of P1 triangles.

    corners : (nt, 3, 2) vertex coordinates, counterclockwise.
    Returns areas (nt,) and grads (nt, 3, 2), where grads[t, i] is the
    gradient of the barycentric coordinate of corner i.
    """
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(det <= 0.0):
        raise PreconditionError(
            "mesh contains degenerate or flipped triangles")
    areas = 0.5 * det
    # grad of barycentric i: perp(p_k - p_j) / (2 area), (i,j,k) cyclic
    grads = np.empty((len(det), 3, 2))
    for i in range(3):
        d = corners[:, (i + 2) % 3] - corners[:, (i + 1) % 3]
        grads[:, i, 0] = -d[:, 1]
        grads[:, i, 1] = d[:, 0]
    grads /= (2.0 * areas)[:, None, None]
    return areas, grads


def p1_stiffness(areas, grads, amats, dofs, n_dofs):
    """Global P1 stiffness matrix (CSR) of elementwise constant tensors.

    amats : (nt, 2, 2) coefficient per triangle
    dofs : (nt, 3) global degree of freedom of each corner
    """
    local = np.einsum("t,tic,tcd,tjd->tij", areas, grads, amats, grads)
    rows = np.repeat(dofs, 3, axis=1).ravel()     # dofs[t, i]
    cols = np.tile(dofs, (1, 3)).ravel()          # dofs[t, j]
    return coo_matrix((local.ravel(), (rows, cols)),
                      shape=(n_dofs, n_dofs)).tocsr()


def assemble_frozen(mesh, field, state=None, source=None):
    """Stiffness matrix for the coefficient frozen at the nodal state.

    Parameters
    ----------
    mesh : TriMesh
    field : CoefficientField
    state : array (n_vertices,), optional
        Nodal values of the state u at which A(x, u) is frozen; zeros when
        omitted (covers the t-independent case).
    source : callable or None
        Right-hand side g(points) -> values; integrated with the same
        midpoint rule.

    Returns
    -------
    SparseSystem
    """
    nt = mesh.n_triangles
    if state is None:
        t_mid = np.zeros((nt, 3))
    else:
        state = np.asarray(state, dtype=float)
        tv = state[mesh.triangles]
        t_mid = 0.5 * np.stack(
            [tv[:, 0] + tv[:, 1], tv[:, 1] + tv[:, 2], tv[:, 2] + tv[:, 0]],
            axis=1)
    pts = mesh.edge_mid.reshape(-1, 2)
    mats = field.eval(pts, t_mid.reshape(-1)).reshape(nt, 3, 2, 2)
    amean = mats.mean(axis=1)                       # 1/3 weight per midpoint
    matrix = p1_stiffness(mesh.areas, mesh.grads, amean, mesh.triangles,
                          mesh.n_vertices)

    load = np.zeros(mesh.n_vertices)
    if source is not None:
        gq = np.asarray(source(pts), dtype=float).reshape(nt, 3)
        contrib = np.empty((nt, 3))
        # basis i is 1/2 on the two midpoints of its incident edges
        contrib[:, 0] = gq[:, 0] + gq[:, 2]
        contrib[:, 1] = gq[:, 0] + gq[:, 1]
        contrib[:, 2] = gq[:, 1] + gq[:, 2]
        contrib *= (mesh.areas / 6.0)[:, None]
        np.add.at(load, mesh.triangles.ravel(), contrib.ravel())
    return SparseSystem(matrix, load, mesh)


class SparseSystem:
    """Assembled symmetric system with Dirichlet elimination.

    The interior block is split off and factored on the first solve, with a
    symmetric minimum-degree ordering; later solves reuse the factor.
    """

    def __init__(self, matrix, load, mesh):
        self.matrix = matrix
        self.load = load
        self.mesh = mesh
        self._kii = None
        self._lu = None

    def _factor(self):
        if self._lu is None:
            ii = self.mesh.interior
            self._kii = self.matrix[ii][:, ii].tocsc()
            self._lu = splu(self._kii, permc_spec="MMD_AT_PLUS_A")
        return self._lu

    def solve_dirichlet(self, boundary_values):
        """Solve with the given boundary vertex values."""
        g = np.asarray(boundary_values, dtype=float)
        if g.shape != (len(self.mesh.boundary),):
            raise PreconditionError("boundary_values must be one per boundary vertex")
        full = np.zeros(self.mesh.n_vertices)
        full[self.mesh.boundary] = g
        rhs = (self.load - self.matrix @ full)[self.mesh.interior]
        x = self._factor().solve(rhs)
        resid = np.linalg.norm(self._kii @ x - rhs)
        scale = np.linalg.norm(rhs)
        if scale > 0 and resid > 1e-8 * scale:
            raise NumericalError(
                f"linear solve residual {resid / scale:.3e} above 1e-8")
        full[self.mesh.interior] = x
        return full

    def energy(self, u, v=None):
        """Bilinear form u^T K v over the full vertex set."""
        if v is None:
            v = u
        return float(u @ (self.matrix @ v))
