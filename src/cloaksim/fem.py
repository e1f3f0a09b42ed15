"""Layered triangular meshes of disks and P1 finite elements.

Meshes are structured: concentric vertex rings with a common angular count,
so requested radii (interfaces of piecewise coefficients) can be matched
exactly by a ring of vertices. The rings come first, as a RingLayout
(disk_layout: the ring radii, n_theta and the geometry of the layout's
wedge), and build_disk_mesh places the vertices of the layout's mesh. The
coefficient is sampled at the three edge midpoints of each element: once
per mesh edge (TriMesh.edges), each interior edge serving its two
triangles, and gathered to the elements by TriMesh.edge_of. One
elementwise kernel (_element_matrices) forms the element matrices of the
stiffness, of the Newton term and of the periodic cell: plain arithmetic
on (nt, 3) arrays of gradient components, with no batched matrix product.
Every matrix assembled on one mesh shares one CSR pattern (P1Pattern): an
assembly sums the element matrices into its data array, J = K + C is the
sum of two data arrays, and a linear system (SparseSystem) is made from
that data alone. The pattern is built from the triangles' edges, and gives
the edges and the edges of each triangle with it. A TriMesh is its
vertices and the geometry read from them (areas, gradients, edge
midpoints) on a Connectivity: the triangles, the pattern and every map
read from it, the boundary blocks and, on a ring mesh, its Wedge. No
vertex coordinate enters the connectivity, so it is built once per layout
(ring count and n_theta) and the meshes of a sweep that moves only the
ring radii share it, read-only. Only ring layouts carry a ring count and
a Wedge, which _wedge reads from the order in which the layout lists its
triangles; Connectivity.of, for any triangulation, gives neither. One
reader, P1Pattern.block, gives every block of the pattern: the boundary
blocks and the interior block of each LU.

On a ring layout the rows at one angular index fix the whole stiffness of
a radial field (CoefficientField.radial: A(Qx, t) = Q A(x, t) Q^T for
every rotation Q) frozen at the zero state. assemble_frozen then
assembles only the layout's wedge (RingWedge: the triangles with a corner
at angular index 0 or 1 and the center fan, on a pattern of their own),
and on a mesh gathers the rest of the data from the rows at angular index
0 (Wedge.spin). Two checks guard the declaration. The field is evaluated
at the wedge's edge midpoints turned by 1/4, 1/2 and 3/4 of a turn, where
A(Qx) must be Q A(x) Q^T to 1e-9 of the largest entry (_radial_at); and
the rows at angular index 1 must match the rows at index 0 turned to 1e-9
of the largest band entry, which catches a field that jumps at the
quadrature points. A field that fails either is not radial, and
NumericalError is raised. The angular Fourier transform then splits such
a system into one tridiagonal system over the rings per mode (Bernardi,
Dauge & Maday, Spectral Methods for Axisymmetric Domains, 1999); LAPACK
factors all modes as one tridiagonal, by LU with partial pivoting
(RingFactor). A Fourier datum with no load is solved in its mode's block
alone, from the FFT of its right-hand side on the outer interior ring: its
solution is a mode profile, one complex number per ring. On a layout
(RingSystem, what assemble_frozen gives for a RingLayout) the profile, its
boundary flux and its band-summed L2 norm (mode_l2_norm) are all a linear
radial DN operator needs, so no mesh and no array of one entry per vertex
is made. On a mesh the circulant SparseSystem rebuilds the nodal solution
from the profile, and solves any other right-hand side by an FFT of each
ring and all modes at once. Every other system is factored by SuperLU
(_InteriorLU): the interior block, gathered from the pattern data through
one call of splu. Each factor is built from the system it factors, and
one statement picks its class. The first SuperLU factor on a mesh
computes a fill-reducing ordering, which the mesh keeps
(TriMesh.ordering); every later one on that mesh reuses it. Every SuperLU
factor in the package, the periodic cell's included, is made with one
setting of its supernode sizes, SUPERLU_SETTINGS. A solve reads the
boundary data through the entries that couple interior rows to boundary
columns (TriMesh.boundary_band), and a boundary flux reads the boundary
rows alone (TriMesh.boundary_rows).
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs
from scipy.sparse import csc_matrix, csr_matrix
# cg is never called here; it stays bound because perfbench/tracing.py wraps it
from scipy.sparse.linalg import cg, splu  # noqa: F401

from .errors import NumericalError, PreconditionError

__all__ = [
    "Connectivity",
    "TriMesh",
    "RingLayout",
    "SparseSystem",
    "RingSystem",
    "RingFactor",
    "P1Pattern",
    "disk_layout",
    "build_disk_mesh",
    "assemble_frozen",
    "newton_system",
    "p1_elements",
    "p1_gradient",
    "p1_stiffness",
    "l2_norm",
    "mode_l2_norm",
    "h1_norm",
    "h1_seminorm",
    "SUPERLU_SETTINGS",
]

# SuperLU's relaxed-supernode and panel sizes, for every factor in the
# package. One column each factors the package's matrices (577 to 46 k
# unknowns) faster than SuperLU's defaults, with the same fill.
SUPERLU_SETTINGS = {"relax": 1, "panel_size": 1}


class RingWedge(NamedTuple):
    """The wedge of a ring layout, the part that fixes the stiffness of a
    radial field, on a pattern of its own: the triangles with a corner at
    angular index 0 or 1, and the center fan, in the layout's order
    (_ring_triangles). No vertex coordinate enters it.

    vertices : the layout's vertices that the wedge holds, ascending;
        local vertex i is vertices[i].
    triangles : (nw, 3) the corners of its triangles, in local vertices.
    pattern : the P1Pattern of those triangles. Its edges come in the
        order of the layout's, and its rows at angular index 0 and 1 and
        the center row hold every term of the layout's; the other rows
        lack the triangles outside the wedge.
    shape : (m, n_theta), the interior rings and the vertices per ring.
    bands : (positions, flat indices) of the entries of the rows at angular
        index 0 of the interior rings, the center column left out, and
        their places in the (3, m, n_theta) bands of RingFactor.
    center : the positions of the center's diagonal entry, of its coupling
        to vertex (0, 0) and of that vertex's coupling back.
    turned, spun : the positions of the entries in the rows at angular
        index 1, and of the entries each turns back to at angular index 0.
    boundary : the positions of the entries of the boundary row (m, 0) in
        the columns (m - 1, n - 1), (m - 1, 0), (m, n - 1), (m, 0) and
        (m, 1); None with no interior ring.

    Positions are in the wedge's own data. Only _ring_wedge builds one.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    pattern: "P1Pattern"
    shape: tuple
    bands: tuple
    center: np.ndarray
    turned: np.ndarray
    spun: np.ndarray
    boundary: np.ndarray


class Wedge(NamedTuple):
    """The wedge of a ring mesh in the mesh's pattern: how the layout's
    RingWedge spreads over the whole stiffness of a radial field.

    spin : for each stored entry of the pattern, the position in data of
        the entry its row rotates to at angular index 0 (the entry itself
        in the center row and in the rows at angular index 0).
    local : for each entry of the RingWedge's pattern, its position in
        this pattern.

    Only _ring_connectivity builds one, from the order of its triangles.
    """

    spin: np.ndarray
    local: np.ndarray


class Connectivity(NamedTuple):
    """The maps of a triangulation that no vertex coordinate enters: what
    a TriMesh shares with every mesh of its layout (build_disk_mesh).

    triangles : (nt, 3) the corners of each triangle, counterclockwise.
    boundary : the boundary vertices, in order.
    n_vertices : the vertex count.
    n_theta : the vertex count per ring of a layout of build_disk_mesh
        (_ring_connectivity): the center vertex, then rings of n_theta
        vertices in angular order from the inside out, the last ring the
        boundary. None from Connectivity.of, whatever the triangles.
    interior : the vertices not on the boundary, in order.
    pattern : the P1Pattern of every matrix assembled on the triangles.
    edges, edge_of : the pattern's edges and the edges of each triangle
        (P1Pattern.edges, P1Pattern.edge_of).
    boundary_band : the pattern's entries in an interior row and a
        boundary column (P1Pattern.block): what a solve reads of its
        boundary data.
    boundary_rows : the pattern's entries in a boundary row: what the
        boundary flux of a solution reads.
    wedge : the Wedge of a layout of build_disk_mesh with at least one
        interior ring; None for one ring and from Connectivity.of.

    Every array in it is read-only, since the meshes of a layout share it.
    """

    triangles: np.ndarray
    boundary: np.ndarray
    n_vertices: int
    n_theta: int
    interior: np.ndarray
    pattern: "P1Pattern"
    edges: np.ndarray
    edge_of: np.ndarray
    boundary_band: tuple
    boundary_rows: tuple
    wedge: Wedge

    @classmethod
    def of(cls, triangles, boundary, n_vertices):
        """The connectivity of these triangles (copied) and boundary, with
        no ring layout: n_theta and wedge are None."""
        triangles = np.array(triangles, dtype=np.int64)
        boundary = np.array(boundary, dtype=np.int64)
        mask = np.zeros(n_vertices, dtype=bool)
        mask[boundary] = True
        interior = np.nonzero(~mask)[0]
        pattern = P1Pattern(triangles, n_vertices)
        band = pattern.block(interior, boundary)
        rows = pattern.block(boundary, np.arange(n_vertices))
        _read_only(triangles, boundary, interior, *band, *rows)
        return cls(triangles, boundary, n_vertices, None, interior,
                   pattern, pattern.edges, pattern.edge_of, band, rows, None)


def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)


class _Disk:
    """What a mesh and a ring layout share: the boundary circle, read from
    boundary_points()."""

    def boundary_angles(self):
        b = self.boundary_points()
        return np.arctan2(b[:, 1], b[:, 0])

    def boundary_arc_weights(self):
        """Trapezoid weights of the closed boundary polygon."""
        b = self.boundary_points()
        nxt = np.roll(b, -1, axis=0)
        seg = np.linalg.norm(nxt - b, axis=1)
        return 0.5 * (seg + np.roll(seg, 1))


class TriMesh(_Disk):
    """Triangulation of a disk: the vertices and the geometry read from
    them, on a Connectivity.

    Every field of the connectivity is an attribute of the mesh (triangles,
    boundary, n_vertices, n_theta, interior, pattern, edges, edge_of,
    boundary_band, boundary_rows, wedge), the same objects for every mesh
    that shares it. Besides them:
    areas, grads : (nt,) and (nt, 3, 2) element areas and barycentric
        gradients (p1_elements).
    midpoints : (ne, 2) the assembly quadrature points, the midpoint of
        each edge.
    h_max : the longest edge.
    ordering : the interior ordering of the mesh's first LU
        (_InteriorOrdering), which _InteriorLU keeps here; None before
        it.
    layout : the RingLayout the mesh was built from (RingMesh); None for
        any other triangulation.
    """

    layout = None

    def __init__(self, vertices, connectivity):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.shape != (connectivity.n_vertices, 2):
            raise PreconditionError(
                "vertices must be one point per vertex of the connectivity")
        vars(self).update(connectivity._asdict())
        self.areas, self.grads = p1_elements(self.vertices[self.triangles])
        start = self.vertices[self.edges[:, 0]]
        end = self.vertices[self.edges[:, 1]]
        self.midpoints = start + end
        self.midpoints *= 0.5
        end -= start
        self.h_max = float(np.sqrt((end * end).sum(axis=1).max()))
        self.ordering = None

    def bind(self, field):
        """The field at the assembly quadrature points as a function of the
        state alone: the coefficient that assemble_frozen takes.

        Every field is bound at every midpoint by its own
        CoefficientField.bind, which is called only at the states a solve
        asks for. On a mesh with a wedge, a radial field is also bound as
        its layout binds it (RingLayout.bind); the wedge assembly at the
        zero state reads that alone."""
        wedge = None
        if self.wedge is not None and field.radial:
            wedge = self.layout.bind(field).wedge
        return BoundField(field.bind(self.midpoints), wedge)

    def load(self, source):
        """Load vector of the right-hand side source(points) -> values,
        integrated by the assembly quadrature: what assemble_frozen takes."""
        gq = np.asarray(source(self.midpoints), dtype=float)[self.edge_of]
        # basis i is 1/2 on the two midpoints of its incident edges
        contrib = _corner_sums(gq)
        contrib *= (self.areas / 6.0)[:, None]
        return np.bincount(self.triangles.ravel(), weights=contrib.ravel(),
                           minlength=self.n_vertices)

    def boundary_points(self):
        return self.vertices[self.boundary]


class RingMesh(TriMesh):
    """The TriMesh of a RingLayout (RingLayout.mesh), which keeps it as its
    layout."""

    def __init__(self, layout):
        super().__init__(
            layout.points(np.arange(layout.n_vertices)),
            _ring_connectivity(len(layout.rings), layout.n_theta))
        self.layout = layout


class BoundField:
    """A field bound at a mesh's quadrature points (TriMesh.bind).

    Called with the states at the edge midpoints (a scalar or one per
    edge), it gives the tensors there, (ne, 2, 2). wedge, for a radial
    field on a mesh with a Wedge or on a RingLayout, is its tensors at the
    wedge's edge midpoints at the zero state; None otherwise. A field
    bound by a RingLayout has nothing else: every is None.
    """

    def __init__(self, every, wedge):
        self.every = every
        self.wedge = wedge

    def __call__(self, t):
        return self.every(t)


def _radial_at(field, points):
    """The tensors A(x, 0) of a field declared radial at these points,
    evaluated in one call with A(Q x, 0) for the rotations Q by 1/4, 1/2
    and 3/4 of a turn, which turn points and tensors without rounding.
    Where A(Q x, 0) differs from Q A(x, 0) Q^T by more than 1e-9 of the
    largest entry, the field is not radial and NumericalError is raised."""
    quarter = points[:, ::-1] * [-1.0, 1.0]                # (-y, x)
    amats = field.bind(np.concatenate(
        [points, quarter, -points, -quarter]))(0.0).reshape(4, -1, 2, 2)
    # Q A Q^T is A for the half turn, [[d, -c], [-b, a]] for the others
    turned = amats[0, :, ::-1, ::-1] * [[1.0, -1.0], [-1.0, 1.0]]
    defect = max(np.abs(amats[1] - turned).max(),
                 np.abs(amats[2] - amats[0]).max(),
                 np.abs(amats[3] - turned).max())
    scale = np.abs(amats).max()
    if defect > 1e-9 * scale:
        raise NumericalError(
            f"a field declared radial is not rotation equivariant: at the "
            f"wedge's quadrature points turned by 1/4, 1/2 or 3/4 of a turn "
            f"its tensors differ from the turned ones by {defect / scale:.3e} "
            f"of the largest entry (above 1e-9)")
    return amats[0].copy()


def _wedge(pattern, triangles, wedge):
    """The Wedge of the pattern of _ring_connectivity's triangles, whose
    layout's RingWedge is wedge (at least two rings), read-only.

    The triangles come in runs of n, one per angular index j = t mod n: the
    center fan, then each band's (a, d, b) and its (a, c, d) triangles. The
    rotation back by s angular steps maps triangle t corner for corner to
    t - j + (j - s) mod n, in the same run, and so the entry of corners i
    and k of t to that of corners i and k of the turned triangle. The
    wedge's triangles are those with a corner at the center or at angular
    index 0 or 1, in the same order."""
    nv = pattern.n
    n = wedge.shape[1]
    # the angular index of each vertex, 0 for the center
    index = np.zeros(nv, dtype=np.int64)
    index[1:] = np.arange(nv - 1) % n
    # the center and the vertices of angular index 0 and 1
    marked = index < 2
    (ours,) = np.nonzero(marked[triangles].any(axis=1))
    local = np.empty(wedge.pattern.nnz, dtype=np.int32)
    local[wedge.pattern.slot] = pattern.slot.reshape(-1, 9)[ours].ravel()
    # for each corner i of each triangle, the triangle turned back by the
    # angular index of corner i: entry (i, k) goes to its entry (i, k)
    t = np.arange(len(triangles))[:, None]
    j = t % n
    turn = t - j + (j - index[triangles]) % n
    slot = pattern.slot.reshape(-1, 3, 3)
    source = slot[turn[:, :, None], np.arange(3)[:, None], np.arange(3)]
    del t, j, turn
    # allocated after the temporaries: before them, the allocator keeps
    # 7 MB more resident on a mesh of 90 k vertices
    spin = np.empty(pattern.nnz, dtype=np.int32)
    spin[slot] = source
    del source
    _read_only(spin, local)
    return Wedge(spin, local)


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


def disk_layout(radius, aligned_radii=(), h_target=0.1, n_theta=None,
                radial_bands=None):
    """The RingLayout of a structured disk triangulation with exactly
    matched interface circles; build_disk_mesh places its vertices.

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

    The edges are measured on the layout's wedge: every edge of the mesh
    is the rotation of one of the wedge's.
    """
    if radius <= 0 or h_target <= 0:
        raise PreconditionError("radius and h_target must be positive")
    default_theta = n_theta is None
    if default_theta:
        n_theta = int(np.ceil(2.0 * np.pi * radius / h_target))
        n_theta = max(16, ((n_theta + 7) // 8) * 8)
    if n_theta < 8:
        raise PreconditionError(
            f"n_theta={n_theta} too small: need at least 8 vertices per "
            "circle")
    layout = RingLayout(
        _ring_radii(radius, aligned_radii, h_target, radial_bands)[1:],
        n_theta)
    if default_theta and radial_bands is None and \
            layout.h_max > 1.5 * h_target:
        raise NumericalError(
            f"mesh h_max {layout.h_max:.3g} exceeds 1.5 * h_target")
    return layout


def build_disk_mesh(*args, **kwargs):
    """Structured disk triangulation with exactly matched interface
    circles: the mesh of disk_layout(*args, **kwargs), whose parameters it
    takes (RingLayout.mesh)."""
    return disk_layout(*args, **kwargs).mesh()


class RingLayout(_Disk):
    """The rings of a disk triangulation of disk_layout, before the mesh
    places its vertices: a center vertex and rings of n_theta vertices,
    vertex (a, j) of ring a at radius rings[a] and angle 2 pi j / n_theta,
    with the same triangles at every angular step (_ring_triangles). It
    holds the geometry of its wedge alone, which is all that a linear
    radial field's DN operator reads (RingSystem).

    rings : the ring radii from the inside out, the last the boundary.
    n_theta : the vertices per ring.
    n_vertices : 1 + len(rings) * n_theta, the vertex count of its mesh.
    wedge : its RingWedge.
    areas, grads : the wedge's element areas and barycentric gradients
        (p1_elements, which refuses a degenerate or flipped triangle), the
        bits of those of the same triangles of the mesh.
    midpoints : the midpoints of the wedge's edges, where a radial field is
        bound (bind).
    h_max : the longest edge of the wedge.
    """

    def __init__(self, rings, n_theta):
        self.rings = np.array(rings, dtype=float)
        _read_only(self.rings)
        self.n_theta = n = int(n_theta)
        self.n_vertices = 1 + len(self.rings) * n
        theta = 2.0 * np.pi * np.arange(n) / n
        self._cos, self._sin = np.cos(theta), np.sin(theta)
        self.wedge = _ring_wedge(len(self.rings), n)
        points = self.points(self.wedge.vertices)
        self.areas, self.grads = p1_elements(points[self.wedge.triangles])
        edges = self.wedge.pattern.edges
        start, end = points[edges[:, 0]], points[edges[:, 1]]
        self.midpoints = start + end
        self.midpoints *= 0.5
        end -= start
        self.h_max = float(np.sqrt((end * end).sum(axis=1).max()))

    def points(self, vertices):
        """The coordinates of these vertices, as the mesh places them."""
        ring, angle = np.divmod(np.asarray(vertices) - 1, self.n_theta)
        out = np.zeros((len(ring), 2))
        on = ring >= 0
        radius = self.rings[ring[on]]
        out[on, 0] = radius * self._cos[angle[on]]
        out[on, 1] = radius * self._sin[angle[on]]
        return out

    def boundary_points(self):
        return self.points(self.n_vertices - self.n_theta
                           + np.arange(self.n_theta))

    def mesh(self):
        """The TriMesh with these rings (RingMesh)."""
        return RingMesh(self)

    def bind(self, field):
        """A radial field at the wedge's edge midpoints at the zero state,
        after a check of its declaration there (_radial_at): what
        assemble_frozen takes on the layout (BoundField.wedge)."""
        return BoundField(None, _radial_at(field, self.midpoints))

    def nodal(self, profiles, modes, traces):
        """The nodal values on the layout's mesh of mode profiles
        (RingSystem.mode_columns) in these angular modes, one row per
        profile; the boundary ring takes the trace of the same row."""
        n = self.n_theta
        out = np.empty((len(profiles), self.n_vertices))
        for u, p, k, g in zip(out, profiles, modes, traces):
            u[0] = p[0].real
            u[1:-n] = _ring_values(p[1:-1], k, n).ravel()
            u[-n:] = g
        return out


def _ring_triangles(n_rings, n_theta, angles):
    """The triangles of the layout with n_rings rings of n_theta vertices:
    the center fan, then band by band the (a, d, b) triangles of its quads
    at the given angular indices (ascending) and then its (a, c, d)
    triangles there. At every angular index, these are all the layout's
    triangles, in the order _wedge reads the rotation from: runs of
    n_theta, one per angular index."""
    # vertex (i, j) of ring i at angle j, and its neighbour (i, j + 1)
    j = np.arange(n_theta)
    first = 1 + n_theta * np.arange(n_rings)[:, None]
    at, after = first + j, first + (j + 1) % n_theta
    fan = np.stack([np.zeros_like(j), at[0], after[0]], axis=1)
    # ring bands: quad (a inner-j, b inner-j+1, c outer-j, d outer-j+1)
    a, b, c, d = (v[:, angles] for v in (at[:-1], after[:-1], at[1:],
                                         after[1:]))
    quads = np.array([[a, d, b], [a, c, d]]).transpose(2, 0, 3, 1)
    return np.concatenate([fan, quads.reshape(-1, 3)])


@lru_cache(maxsize=1)
def _ring_connectivity(n_rings, n_theta):
    """The Connectivity of the layout with n_rings rings of n_theta
    vertices, with its n_theta and, from two rings up, its Wedge; the last
    layout is kept, since a sweep that moves only the ring radii builds
    every mesh on one layout."""
    boundary = 1 + n_theta * (n_rings - 1) + np.arange(n_theta)
    layout = Connectivity.of(
        _ring_triangles(n_rings, n_theta, np.arange(n_theta)), boundary,
        1 + n_rings * n_theta)
    wedge = None
    if n_rings > 1:
        wedge = _wedge(layout.pattern, layout.triangles,
                       _ring_wedge(n_rings, n_theta))
    return layout._replace(n_theta=n_theta, wedge=wedge)


@lru_cache(maxsize=1)
def _ring_wedge(n_rings, n):
    """The RingWedge of the layout with n_rings rings of n vertices,
    read-only; the last one is kept, as _ring_connectivity keeps its
    layout. Its triangles are the layout's at angular index 0, 1 and n - 1
    and the center fan: those with a corner at the center or at angular
    index 0 or 1."""
    vertices, triangles = np.unique(_ring_triangles(n_rings, n, [0, 1, n - 1]),
                                    return_inverse=True)
    triangles = triangles.reshape(-1, 3)
    nl = len(vertices)
    pattern = P1Pattern(triangles, nl)
    m = n_rings - 1
    # the layout's vertex of each stored entry's row and column; the keys
    # row nl + column of the local vertices ascend in the pattern's order
    local_rows = pattern.rows()
    rows, cols = vertices[local_rows], vertices[pattern.indices]
    keys = local_rows * nl + pattern.indices

    def position(row, col):
        """The positions of the entries in these rows and columns of the
        layout."""
        return np.searchsorted(keys, np.searchsorted(vertices, row) * nl
                               + np.searchsorted(vertices, col))

    def back(vertex):
        """The vertex turned back by one angular step."""
        return np.where(vertex > 0, vertex - 1 + n * ((vertex - 1) % n == 0),
                        0)

    # the rows at angular index 0 of the interior rings against every ring
    # vertex: the entry of row (a, 0) in column (b, j) goes to band
    # 1 + b - a, ring a, angle j
    (pos,) = np.nonzero(((rows - 1) % n == 0) & ((rows - 1) // n < m)
                        & (cols > 0))
    ring, (col_ring, angle) = (rows[pos] - 1) // n, np.divmod(cols[pos] - 1, n)
    flat = ((1 + col_ring - ring) * m + ring) * n + angle
    center = position([0, 0, 1], [0, 1, 0])
    (turned,) = np.nonzero((rows > 0) & ((rows - 1) % n == 1))
    spun = position(back(rows[turned]), back(cols[turned]))
    boundary = None
    if m:
        inner, outer = 1 + (m - 1) * n, 1 + m * n
        boundary = position(outer, [inner + n - 1, inner, outer + n - 1,
                                    outer, outer + 1])
    _read_only(*(a for a in (vertices, triangles, pos, flat, center, turned,
                             spun, boundary) if a is not None))
    return RingWedge(vertices, triangles, pattern, (m, n), (pos, flat),
                     center, turned, spun, boundary)


def _nodal(mesh, values):
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_vertices,):
        raise PreconditionError("values must be one per vertex")
    return values


def l2_norm(mesh, values):
    """L2 norm of the P1 function, integrated exactly: on a triangle with
    corner values u0, u1, u2 the integral of u^2 is
    area / 12 ((u0 + u1 + u2)^2 + u0^2 + u1^2 + u2^2)."""
    values = _nodal(mesh, values)
    u0, u1, u2 = (values[mesh.triangles[:, c]] for c in range(3))
    s = (u0 + u1 + u2) ** 2 + u0 * u0 + u1 * u1 + u2 * u2
    return float(np.sqrt(np.dot(mesh.areas, s) / 12.0))


def h1_seminorm(mesh, values):
    g = p1_gradient(mesh.grads, _nodal(mesh, values)[mesh.triangles])
    return float(np.sqrt((mesh.areas * (g ** 2).sum(axis=1)).sum()))


def h1_norm(mesh, values):
    return float(np.hypot(l2_norm(mesh, values), h1_seminorm(mesh, values)))


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


def p1_gradient(grads, values):
    """Gradient on each triangle of the P1 function with these corner
    values: grads (nt, 3, 2) and values (..., nt, 3) give (..., nt, 2),
    each component a sum of three products over the corners."""
    out = np.empty(values.shape[:-1] + (2,))
    for c in range(2):
        comp = out[..., c]
        np.multiply(values[..., 0], grads[:, 0, c], out=comp)
        comp += values[..., 1] * grads[:, 1, c]
        comp += values[..., 2] * grads[:, 2, c]
    return out


def _element_matrices(grads, fx, fy):
    """The (nt, 3, 3) element matrices local[t, i, j] = g_i . f_j of the
    corner gradients g_i (grads, (nt, 3, 2)) against the vectors f_j, whose
    components fx and fy are (nt, 3); filled column by column."""
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    local = np.empty(fx.shape + (3,))
    for j in range(3):
        col = local[:, :, j]
        np.multiply(gx, fx[:, j, None], out=col)
        col += gy * fy[:, j, None]
    return local


def p1_stiffness(areas, grads, amats, pattern):
    """Data of the global P1 stiffness matrix of elementwise constant
    tensors, in the pattern.

    amats : (nt, 2, 2) coefficient per triangle, not necessarily symmetric
    pattern : P1Pattern of the triangles' degrees of freedom
    """
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    # area A g_j at each corner j
    fx = amats[:, 0, 0, None] * gx + amats[:, 0, 1, None] * gy
    fy = amats[:, 1, 0, None] * gx + amats[:, 1, 1, None] * gy
    fx *= areas[:, None]
    fy *= areas[:, None]
    local = _element_matrices(grads, fx, fy)
    # dropped before the scatter allocates the data: kept alive, they
    # raise the resident peak of a sweep of cell solves by 3 %
    del fx, fy
    return pattern.scatter(local)


class P1Pattern:
    """The CSR pattern of the P1 matrices on one set of triangles, built
    from their edges.

    dofs : (nt, 3) global degree of freedom of each corner. edges (ne, 2)
    holds the two ends i < j of each edge, sorted by i, then j; edge_of
    (nt, 3) the index in edges of the edges m01, m12, m20 of each triangle.
    indptr and indices are canonical (rows in order, sorted columns, no
    duplicates): row i holds its lower neighbours, its diagonal when some
    triangle has the corner i, and its upper neighbours, so the upper
    entries are the edges in their order. slot[9 t + 3 i + j] is the
    position in data of the entry that couples dofs[t, i] to dofs[t, j].
    Every array is read-only, since every matrix on the triangles shares
    them.
    """

    def __init__(self, dofs, n_dofs):
        dofs = np.asarray(dofs, dtype=np.int64)
        n = self.n = int(n_dofs)
        # the key lo n + hi of each edge lo < hi of each triangle, sorted and
        # deduplicated; np.unique takes about four times as long
        a, b = dofs, dofs[:, [1, 2, 0]]
        ascending = a < b
        keys = np.where(ascending, a, b)
        keys *= n
        keys += np.where(ascending, b, a)
        del b
        keys = keys.ravel()
        edge_keys = np.sort(keys)
        edge_keys = edge_keys[np.diff(edge_keys, prepend=-1) != 0]
        self.edge_of = np.searchsorted(edge_keys, keys).reshape(-1, 3)
        del keys
        lo, hi = np.divmod(edge_keys, n)
        self.edges = np.stack([lo, hi], axis=1)
        ne = len(lo)
        n_lower = np.bincount(hi, minlength=n)
        n_upper = np.bincount(lo, minlength=n)
        diagonal = n_lower + n_upper > 0
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(n_lower + diagonal + n_upper, out=indptr[1:])
        # edge e is the e-th upper entry, after the lower and diagonal
        # entries of its row and of the rows before it
        upper = np.arange(ne) + np.cumsum(n_lower + diagonal)[lo]
        # the edges by their upper end hi, then lo, are the lower entries;
        # the rows before hi hold all their diagonal and upper entries
        by_hi = np.argsort(hi, kind="stable")
        before = np.cumsum(diagonal + n_upper)
        before -= diagonal + n_upper
        lower = np.empty(ne, dtype=np.int64)
        lower[by_hi] = np.arange(ne) + before[hi[by_hi]]
        del by_hi, before
        on_diagonal = indptr[:-1] + n_lower
        self.indices = np.empty(indptr[-1], dtype=np.int32)
        self.indices[upper] = hi
        self.indices[lower] = lo
        (used,) = np.nonzero(diagonal)
        self.indices[on_diagonal[used]] = used
        self.indptr = indptr.astype(np.int32)
        slot = np.empty((len(dofs), 3, 3), dtype=np.int32)
        slot[:, [0, 1, 2], [0, 1, 2]] = on_diagonal[dofs]
        up, down = upper[self.edge_of], lower[self.edge_of]
        slot[:, [0, 1, 2], [1, 2, 0]] = np.where(ascending, up, down)
        slot[:, [1, 2, 0], [0, 1, 2]] = np.where(ascending, down, up)
        self.slot = slot.ravel()
        _read_only(self.edge_of, self.edges, self.indices, self.indptr,
                   self.slot)

    @property
    def nnz(self):
        return len(self.indices)

    def rows(self):
        """The row of each stored entry, a new array."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def block(self, rows, cols):
        """The stored entries in the given rows and columns, in the
        pattern's order: for each, the index of its row in rows, its
        position in data and the index of its column in cols. A sum over
        them in this order adds the terms of a row in the order of a
        product with the CSR matrix."""
        row = np.full(self.n, -1)
        row[rows] = np.arange(len(rows))
        col = np.full(self.n, -1)
        col[cols] = np.arange(len(cols))
        r, c = row[self.rows()], col[self.indices]
        (pos,) = np.nonzero((r >= 0) & (c >= 0))
        return r[pos], pos, c[pos]

    def matrix(self, data):
        """The CSR matrix with this pattern and these entries."""
        return csr_matrix((data, self.indices, self.indptr),
                          shape=(self.n, self.n))

    def scatter(self, local):
        """The data of the sum of the (nt, 3, 3) element matrices
        local[t, i, j] of the triangles."""
        return np.bincount(self.slot, weights=local.ravel(),
                           minlength=self.nnz)


def _corner_sums(mids):
    """The sum at each corner of the values at the midpoints of its two
    edges: corner 0 meets m01 and m20, 1 meets m01 and m12, 2 meets m12
    and m20. (nt, 3, ...) in and out, in the order of TriMesh.edge_of."""
    out = np.empty_like(mids)
    np.add(mids[:, 0], mids[:, 2], out=out[:, 0])
    np.add(mids[:, 0], mids[:, 1], out=out[:, 1])
    np.add(mids[:, 1], mids[:, 2], out=out[:, 2])
    return out


def assemble_frozen(mesh, coef, state=None, load=None):
    """Stiffness matrix for the coefficient frozen at the nodal state.

    Parameters
    ----------
    mesh : TriMesh
    coef : BoundField
        The coefficient bound at the quadrature points by mesh.bind(field):
        coef(t) -> (ne, 2, 2), one tensor per edge midpoint.
    state : array (n_vertices,), optional
        Nodal values of the state u at which A(x, u) is frozen; zeros when
        omitted (covers the t-independent case).
    load : array (n_vertices,), optional
        Right-hand side vector, from mesh.load(source); zeros when omitted.

    Returns
    -------
    SparseSystem

    With no state and a coefficient bound on the mesh's wedge (a radial
    field on a ring mesh), only the wedge is assembled (_wedge_stiffness),
    and the system is ring-factored. On a RingLayout, with a coefficient
    that the layout bound (RingLayout.bind), the system is the wedge's rows
    alone (RingSystem), with no state and no load.
    """
    if isinstance(mesh, RingLayout):
        return RingSystem(mesh, _wedge_rows(mesh, coef.wedge))
    if load is None:
        load = np.zeros(mesh.n_vertices)
    if state is None and coef.wedge is not None:
        return SparseSystem(_wedge_stiffness(mesh, coef.wedge), load,
                            mesh, circulant=True)
    if state is None:
        t_mid = 0.0
    else:
        ends = np.asarray(state, dtype=float)[mesh.edges]
        t_mid = 0.5 * (ends[:, 0] + ends[:, 1])
    amid = coef(t_mid)
    amean = _triangle_means(amid, mesh.edge_of)
    # a system frozen at a state keeps the midpoint states and tensors for
    # newton_system; otherwise they are dropped before p1_stiffness, which
    # lowers the resident peak of a solve
    frozen_at = None if state is None else (t_mid, amid)
    del amid
    data = p1_stiffness(mesh.areas, mesh.grads, amean, mesh.pattern)
    return SparseSystem(data, load, mesh, frozen_at=frozen_at)


def _triangle_means(amid, edge_of):
    """The mean of the tensors at the three edge midpoints of each
    triangle: 1/3 weight per midpoint."""
    amean = amid[edge_of[:, 0]] + amid[edge_of[:, 1]]
    amean += amid[edge_of[:, 2]]
    amean /= 3.0
    return amean


def _wedge_rows(layout, amid):
    """The data of the rows of the layout's wedge (RingWedge) of the
    stiffness of a radial field at the zero state, from its tensors at the
    wedge's edge midpoints alone.

    The wedge's triangles are summed in the layout's order, so its rows at
    angular index 0, the rows RingFactor reads, hold the bits a full
    assembly would give. The rows at angular index 1 must match the rows
    at index 0 turned to 1e-9 of the largest band entry; a field that is
    not radial fails that by orders of magnitude, and raises
    NumericalError.
    """
    wedge = layout.wedge
    data = p1_stiffness(layout.areas, layout.grads,
                        _triangle_means(amid, wedge.pattern.edge_of),
                        wedge.pattern)
    scale = np.abs(data[wedge.bands[0]]).max()
    defect = np.abs(data[wedge.spun] - data[wedge.turned]).max()
    if defect > 1e-9 * scale:
        raise NumericalError(
            f"the stiffness of a field declared radial is not rotation "
            f"invariant on this mesh: its rows at angular index 1 differ "
            f"from those at index 0 by {defect / scale:.3e} of the largest "
            f"band entry (above 1e-9). The field is not radial, or it jumps "
            f"at the quadrature points")
    return data


def _wedge_stiffness(mesh, amid):
    """The stiffness data of a radial field on a ring mesh: the rows of its
    layout's wedge (_wedge_rows), and every other entry the one its row
    rotates to at angular index 0 (Wedge.spin)."""
    part = np.zeros(mesh.pattern.nnz)
    part[mesh.wedge.local] = _wedge_rows(mesh.layout, amid)
    return part[mesh.wedge.spin]


# forward-difference step in the state for the derivative of A
_FD_STEP = 1e-7


def newton_system(frozen, coef, state):
    """The Newton linearization at the state u of the residual K(u) u - load.

    frozen : SparseSystem
        What assemble_frozen returned for coef at this state: K(u), load,
        and the states and tensors at the edge midpoints (frozen_at).
    coef : callable
        The same bound coefficient.
    state : array (n_vertices,)

    Returns the SparseSystem with matrix J = K(u) + C(u) and load
    C(u) u + load, so that its Dirichlet solve is the Newton step from u.
    C is the derivative of K(u) u through the state at the edge midpoints:
    on a triangle, C[i, j] = (area / 6) sum over the edges q at corner j of
    grad phi_i . d_t A(x_q, u_q) grad u, with d_t A a forward difference
    of step 1e-7. C has the pattern of K and is summed straight into J's
    data; J is in general not symmetric.
    """
    if frozen.frozen_at is None:
        raise PreconditionError(
            "the Newton system needs a system assembled at a state")
    t_mid, amid = frozen.frozen_at
    mesh = frozen.mesh
    state = np.asarray(state, dtype=float)
    dadt = (coef(t_mid + _FD_STEP) - amid) / _FD_STEP
    # each component of d_t A at the three midpoints of each triangle
    d00, d01, d10, d11 = (dadt[:, r, c][mesh.edge_of]
                          for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)))
    del dadt
    grad_u = p1_gradient(mesh.grads, state[mesh.triangles])
    ux, uy = grad_u[:, 0, None], grad_u[:, 1, None]
    # d_t A grad u at the midpoints, summed over the two edges at each corner
    fx = _corner_sums(d00 * ux + d01 * uy)
    fy = _corner_sums(d10 * ux + d11 * uy)
    weight = (mesh.areas / 6.0)[:, None]
    fx *= weight
    fy *= weight
    local = _element_matrices(mesh.grads, fx, fy)
    del fx, fy                    # as in p1_stiffness
    jac = mesh.pattern.scatter(local)
    jac += frozen.matrix.data
    newton = SparseSystem(jac, None, mesh)
    # C u + load = J u - K u + load
    newton.load = newton.matrix @ state
    newton.load -= frozen.matrix @ state
    newton.load += frozen.load
    return newton


class _System:
    """What SparseSystem and RingSystem share: the factor of the system,
    made on its first solve from the system itself, a RingFactor if the
    system is circulant and SuperLU (_InteriorLU) otherwise, and its kind
    (factor_kind)."""

    def _factor(self):
        if self._solver is None:
            self._solver = (RingFactor if self.circulant else _InteriorLU)(self)
            self.factor_kind = self._solver.kind
        return self._solver


class SparseSystem(_System):
    """Assembled system with Dirichlet elimination.

    data holds the entries of the matrix in the mesh's P1Pattern, and
    matrix is the CSR matrix they make; data of any other length raises
    ValueError. The interior problem is factored on the first solve and
    later solves reuse the factor. circulant is True for data that is
    block-circulant over the mesh's rings by construction (the wedge
    assembly of assemble_frozen): such a system is factored by RingFactor,
    every other system by SuperLU (_InteriorLU), each built from the
    system. factor_kind is the kind of the factor that served the system:
    "ring", "lu" (ordering computed) or "lu-reordered" (ordering reused),
    read from the factor; "chord" for the factor of another system, shared
    by with_load; None before the first solve. Neither factor needs a
    symmetric matrix: a Newton system (newton_system) is not.
    frozen_at is, for a stiffness that assemble_frozen froze at a state,
    the states (ne,) and tensors (ne, 2, 2) at the edge midpoints, the
    values newton_system differentiates; None otherwise.
    """

    def __init__(self, data, load, mesh, frozen_at=None, circulant=False):
        self.matrix = mesh.pattern.matrix(data)
        self.load = load
        self.mesh = mesh
        self.frozen_at = frozen_at
        self.circulant = circulant
        self._solver = None
        self.factor_kind = None

    def with_load(self, load):
        """The system with this matrix and another load, solved with this
        system's factor (made here if it was not yet); its factor_kind is
        "chord"."""
        other = SparseSystem(self.matrix.data, load, self.mesh)
        other._solver = self._factor()
        other.factor_kind = "chord"
        return other

    @property
    def ring_rows(self):
        """The data of the rows of the layout's wedge and the RingWedge,
        which a RingFactor reads."""
        return self.matrix.data[self.mesh.wedge.local], self.mesh.layout.wedge

    def solve_dirichlet(self, boundary_values):
        """Solve with the given boundary vertex values.

        The interior right-hand side load - A g is summed over the entries
        of the interior rows in boundary columns alone (mesh.boundary_band),
        in the order of a product with A, and the solution passes a check
        of its interior residual against 1e-8 of that right-hand side. A
        RingFactor reads from that right-hand side whether it lies in one
        angular mode, and then solves that mode alone (RingFactor.solve).
        """
        g = np.asarray(boundary_values, dtype=float)
        mesh = self.mesh
        if g.shape != (len(mesh.boundary),):
            raise PreconditionError("boundary_values must be one per boundary vertex")
        ii = mesh.interior
        row, pos, col = mesh.boundary_band
        rhs = self.load[ii] - np.bincount(
            row, weights=self.matrix.data[pos] * g[col], minlength=len(ii))
        full = np.empty(mesh.n_vertices)
        full[mesh.boundary] = g
        full[ii] = self._factor().solve(rhs)
        resid = np.linalg.norm((self.matrix @ full - self.load)[ii])
        scale = np.linalg.norm(rhs)
        if scale > 0 and resid > 1e-8 * scale:
            raise NumericalError(
                f"linear solve residual {resid / scale:.3e} above 1e-8 "
                f"({self.factor_kind} factor)")
        return full


class RingSystem(_System):
    """The stiffness of a radial field at the zero state on a RingLayout,
    held as the data of the rows of the layout's wedge (_wedge_rows): what
    assemble_frozen gives on a layout. Its mesh's system would be
    circulant, so a RingFactor factors it, and mode_columns solves and
    pairs one datum per angular mode from it, with no array of one entry
    per vertex. factor_kind is "ring" once factored, None before.
    """

    circulant = True

    def __init__(self, layout, data):
        self.layout = layout
        self.data = data
        self._solver = None
        self.factor_kind = None

    @property
    def ring_rows(self):
        """The data and the RingWedge that a RingFactor reads."""
        return self.data, self.layout.wedge

    def mode_columns(self, traces, modes):
        """The mode profile and the pairing column of each datum: the trace
        traces[j] on the boundary ring, in the one angular mode modes[j],
        with no load.

        Returns the profiles, (len(traces), 1 + rings) complex, and the
        (len(traces), len(traces)) pairing matrix, whose (i, j) entry is
        the work of datum j's boundary flux against trace i. A mode-k
        profile p holds the center's value, then one number per ring, the
        boundary last: the solution is Re(p exp(i k theta_j)) at the
        vertex of angle theta_j (_ring_values).

        Each datum is solved in mode k's block alone
        (RingFactor.mode_profile), from the unitary FFT of its right-hand
        side on the outer interior ring, which holds the bits of
        SparseSystem.solve_dirichlet's on the layout's mesh. The rows at
        angular index 0, applied to the complex wave p exp(i k theta),
        give the residual (every other row is their rotation); above 1e-8
        of the right-hand side it raises NumericalError. The boundary flux
        is the boundary rows, the row (m, 0) turned, applied to the outer
        interior ring and the trace, summed in dn_pairing's order; so the
        pairing holds the bits of dn_pairing of the mesh's one-mode solves.
        """
        n = self.layout.n_theta
        factor = self._factor()
        stencil, (diag, c01, c10) = factor.stencil, factor.center
        m = stencil.shape[1]
        # row (m - 1, j) couples to the boundary vertices (m, j), (m, j + 1)
        e0, e1 = stencil[2, m - 1, 1:]
        # boundary row i holds entry e of row (m, 0) in column cols[i, e] of
        # the outer interior ring (0 ... n - 1) and the boundary (n ... 2n
        # - 1), the entries in the order of their columns
        i = np.arange(n)[:, None]
        cols = np.hstack([(i - 1) % n, i, n + (i - 1) % n, n + i,
                          n + (i + 1) % n])
        entry = np.argsort(cols, axis=1)
        cols = np.take_along_axis(cols, entry, axis=1)
        row = self.data[self.layout.wedge.boundary][entry]
        which = np.repeat(np.arange(n), 5)
        phases = np.exp((2j * np.pi / n) * np.outer(modes, [-1, 0, 1]))
        profiles = np.empty((len(traces), m + 2), dtype=complex)
        matrix = np.empty((len(traces), len(traces)))
        for j, (g, k, p) in enumerate(zip(traces, modes, profiles)):
            rhs = 0.0 - (e0 * g + e1 * np.roll(g, -1))
            p[:-1] = factor.mode_profile(np.fft.rfft(rhs, norm="ortho")[k], k)
            p[-1] = _wave_scale(k, n) * np.fft.rfft(g, norm="ortho")[k]
            # each band's entries in row (a, 0) at angular offsets -1, 0, 1
            # against the wave's phases there
            near = stencil @ phases[j]
            res = near[0] * p[:m] + near[1] * p[1:-1] + near[2] * p[2:]
            res[0] += c10 * p[0]
            # the center row sees mode 0 alone, once where a ring row counts
            # n times
            hub = diag * p[0] + n * c01 * p[1] if k == 0 else 0.0
            resid = np.sqrt(np.vdot(res, res).real + abs(hub) ** 2 / n)
            scale = abs(near[2, m - 1] * p[-1])
            if resid > 1e-8 * scale:
                raise NumericalError(
                    f"linear solve residual {resid / scale:.3e} above 1e-8 "
                    f"({self.factor_kind} factor)")
            u = np.concatenate([_ring_values(p[m:m + 1], k, n)[0], g])
            flux = np.bincount(which, weights=(row * u[cols]).ravel(),
                               minlength=n)
            matrix[:, j] = traces @ flux
        return profiles, matrix


class _InteriorLU:
    """SuperLU factor of a system's interior block, solving in the mesh's
    order.

    The first on a mesh (kind "lu") gathers the block in the mesh's own
    order, orders it by minimum degree and leaves that ordering to the mesh
    (TriMesh.ordering); every later one ("lu-reordered") gathers the block
    in that ordering and factors it as it stands. lu is the SuperLU factor
    of the gathered block, and inv the inverse of its ordering
    (_InteriorOrdering.inv).
    """

    def __init__(self, system):
        mesh, data = system.mesh, system.matrix.data
        ordering = mesh.ordering
        if ordering is None:
            ordering = _InteriorOrdering(mesh, np.arange(len(mesh.interior)))
            # minimum degree on A^T + A; the Newton systems have a
            # symmetric pattern, and their fill is 40 % below COLAMD's
            self.kind, permc_spec = "lu", "MMD_AT_PLUS_A"
        else:
            self.kind, permc_spec = "lu-reordered", "NATURAL"
        m = len(ordering.inv)
        block = csc_matrix((data[ordering.gather], ordering.indices,
                            ordering.indptr), shape=(m, m))
        self.lu = splu(block, permc_spec=permc_spec, **SUPERLU_SETTINGS)
        self.inv = ordering.inv
        if self.kind == "lu":
            mesh.ordering = _InteriorOrdering(mesh, self.lu.perm_c)

    def solve(self, rhs):
        x = np.empty_like(rhs)
        x[self.inv] = self.lu.solve(rhs[self.inv])
        return x


class _InteriorOrdering:
    """A column ordering perm_c of the interior block of a mesh's pattern:
    the mesh's own order (0, 1, ...) for its first LU, then that LU's,
    kept for every later one.

    With inv = argsort(perm_c), SuperLU factored A P for the permutation
    P that perm_c stands for. A later LU factors B = P^T A P, whose entry
    B[i, j] is A[inv[i], inv[j]], in its natural order, and solves
    x[inv] = B^-1 rhs[inv]. gather, indices and indptr store B in CSC
    form, read by P1Pattern.block in the rows and columns interior[inv]:
    gather[k] is the position in the pattern's data of B's k-th stored
    entry.
    """

    def __init__(self, mesh, perm_c):
        m = len(perm_c)
        self.inv = np.argsort(perm_c)
        rows = mesh.interior[self.inv]
        r, pos, c = mesh.pattern.block(rows, rows)
        order = np.lexsort((r, c))          # by column, then by row
        self.gather = pos[order]
        self.indices = r[order].astype(np.int32)
        self.indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(np.bincount(c, minlength=m), out=self.indptr[1:])


class RingFactor:
    """Interior factor of a circulant system (SparseSystem.circulant: its
    data block-circulant over the mesh's rings, or a RingSystem), by mode;
    kind "ring".

    The matrix is block-circulant over the rings, so the angular Fourier
    transform of each ring decouples the modes. Mode k is a tridiagonal
    system over the interior rings whose entries are the transforms of
    the rows at angular index 0 (the bands of the layout's RingWedge, read
    from the system's ring_rows): bands[1 + d, a, j] is the entry of row
    (a, 0) in column (a + d, j), for d = -1, 0, 1. The center vertex, with
    its diagonal entry, its coupling to each vertex of the first ring (the
    center row's entry in that ring's column 0) and that column's coupling
    back, couples to mode 0 alone and is unknown 0 of every mode (an
    identity row for k > 0). The modes are laid out one after the other as
    one tridiagonal, with no coupling where two modes meet, which LAPACK
    factors by LU with partial pivoting (zgttrf) and solves (zgttrs); no
    row interchange crosses that zero coupling. solve solves a right-hand
    side in one mode k in block k alone (mode_profile), and any other by a
    real FFT of each ring, one zgttrs of every mode and the inverse FFT. A
    singular mode raises NumericalError. stencil (3, m, 3) keeps the
    bands' entries at the angles n - 1, 0 and 1, the only ones stored, and
    center the center's diagonal entry and its couplings to and from
    vertex (0, 0). Mode 0's symbol, each band's sum over a ring, is
    summed from the stencil in long double; where long double is double
    (MSVC), it has the FFT's rounding, several times SuperLU's error on a
    mode-0 solve of the oscillating shells.
    """

    kind = "ring"

    def __init__(self, system):
        data, wedge = system.ring_rows
        m, n = wedge.shape                            # interior rings
        self.n_theta = n
        pos, flat = wedge.bands
        bands = np.zeros(3 * m * n)
        bands[flat] = data[pos]
        bands = bands.reshape(3, m, n)
        self.stencil = bands[:, :, [-1, 0, 1]]
        self.center = data[wedge.center]
        # row (a, j) holds c(j' - j) in column (b, j'), so mode k sees
        # sum_l c(l) exp(+2 pi i l k / n): the conjugate of the FFT
        symbol = np.fft.rfft(bands, axis=2)
        np.conjugate(symbol, out=symbol)
        del bands
        # mode 0 sees each band's row sum. On sigma_1 (the first oscillating
        # shell), whose mode-0 tridiagonal has near-vanishing strips, the
        # FFT's rounding of these sums (up to 4.4e-16 of entries up to 892)
        # put the constant datum's solve 2.7e-12 from 1, against 4.2e-13 by
        # SuperLU; the stored entries summed in long double put it 6.5e-13
        # from 1
        symbol[:, :, 0] = self.stencil.astype(np.longdouble).sum(axis=2)
        n_modes = symbol.shape[2]
        diag = np.ones((n_modes, m + 1), dtype=complex)
        diag[:, 1:] = symbol[1].T
        diag[0, 0] = self.center[0]
        # the sub- and superdiagonals A[i + 1, i] and A[i, i + 1] of each
        # mode, the couplings of ring a + 1 back to ring a and of ring a
        # to ring a + 1; their last entry, where two modes meet, is 0
        sub = np.zeros((n_modes, m + 1), dtype=complex)
        sub[:, 1:m] = symbol[0, 1:].T
        sup = np.zeros((n_modes, m + 1), dtype=complex)
        sup[:, 1:m] = symbol[2, :m - 1].T
        # the unitary transform carries the center's couplings to mode 0
        sub[0, 0] = np.sqrt(n) * self.center[2]
        sup[0, 0] = np.sqrt(n) * self.center[1]
        *self.lu, info = zgttrf(sub.ravel()[:-1], diag.ravel(),
                                sup.ravel()[:-1], overwrite_dl=1,
                                overwrite_d=1, overwrite_du=1)
        if info > 0:
            raise NumericalError(
                f"ring factor singular in mode {(info - 1) // (m + 1)}")

    def solve(self, rhs):
        """Interior solution for the interior right-hand side rhs (center
        first, then the interior rings). A Dirichlet datum with no load
        reaches the outer ring alone: rhs zero off it, in one mode k on it
        (a trace cos k theta or sin k theta), is solved in mode k alone."""
        n = self.n_theta
        m = (len(rhs) - 1) // n
        outer = 1 + (m - 1) * n         # where the outer ring starts
        if rhs[0] == 0 and not rhs[1:outer].any():
            spectrum = np.fft.rfft(rhs[outer:], norm="ortho")
            size = np.abs(spectrum)
            k = size.argmax()
            # a trace in mode k leaks at most 1.1e-15 of it into the other
            # modes (every FourierBasis(8) datum on the meshes of perfbench's
            # ring workloads); what this drops stays far below the 1e-8
            # residual check of solve_dirichlet
            if np.count_nonzero(size > 1e-12 * size[k]) == 1:
                return self._solve_mode(spectrum[k], k)
        return self._solve_all(rhs)

    def _solve_all(self, rhs):
        n = self.n_theta
        m = (len(rhs) - 1) // n
        b = np.zeros((n // 2 + 1, m + 1), dtype=complex)
        b[:, 1:] = np.fft.rfft(rhs[1:].reshape(m, n), axis=1, norm="ortho").T
        b[0, 0] = rhs[0]
        b, _ = zgttrs(*self.lu, b.reshape(-1, 1), overwrite_b=1)
        b = b.reshape(-1, m + 1)
        x = np.empty(len(rhs))
        x[0] = b[0, 0].real
        x[1:] = np.fft.irfft(b[:, 1:].T, n=n, axis=1, norm="ortho").ravel()
        return x

    def _solve_mode(self, coefficient, k):
        """Interior solution for the right-hand side that is zero off the
        outer interior ring, whose unitary FFT there holds coefficient in
        mode k alone: its profile (mode_profile) on the rings."""
        p = self.mode_profile(coefficient, k)
        return np.concatenate([p[:1].real,
                               _ring_values(p[1:], k, self.n_theta).ravel()])

    def mode_profile(self, coefficient, k):
        """The mode-k profile of the interior solution whose right-hand
        side is zero off the outer interior ring and whose unitary FFT
        there holds coefficient in mode k alone: the center's value, then
        one number p per interior ring, whose values are
        Re(p exp(i k theta_j)) (_ring_values)."""
        m = self.stencil.shape[1]
        dl, d, du, du2, ipiv = self.lu
        # mode k's block of the factor: rows first ... first + m, whose
        # row interchanges stay inside it. scipy's zgttrs refuses a system
        # of two rows (one interior ring), so such a block takes one row of
        # the next mode with it, or of the mode before for the last: no
        # coupling and no interchange crosses the zero between two modes,
        # and that row's right-hand side and solution are 0
        first = k * (m + 1)
        lo, hi = first, first + m + 1
        if m == 1:
            lo, hi = (lo - 1, hi) if hi == len(d) else (lo, hi + 1)
        b = np.zeros((hi - lo, 1), dtype=complex)
        b[first + m - lo] = coefficient
        b, _ = zgttrs(dl[lo:hi - 1], d[lo:hi], du[lo:hi - 1], du2[lo:hi - 2],
                      ipiv[lo:hi] - lo, b, overwrite_b=1)
        # unknown 0 is the center's value, 1 ... m the rings' unitary
        # coefficients
        b = b[first - lo:first - lo + m + 1, 0]
        p = b * _wave_scale(k, self.n_theta)
        p[0] = b[0]
        return p


def _wave_scale(k, n):
    """What turns the unitary FFT coefficient of mode k on a ring of n
    vertices into its profile: the inverse real FFT of one mode is
    Re(X exp(i k theta_j)) over sqrt(n), twice over unless the mode is its
    own conjugate (0, n/2)."""
    return (1.0 if 2 * k % n == 0 else 2.0) / np.sqrt(n)


def _ring_values(profile, k, n):
    """The values Re(p exp(i k theta_j)) at the n angles theta_j = 2 pi j / n
    of the rings whose mode-k profile is p, (len(p), n). Each value is
    computed alone, so a ring's values are the same bits whichever rings
    are computed with it."""
    angles = (2.0 * np.pi * k / n) * np.arange(n)
    out = np.multiply.outer(profile.real, np.cos(angles))
    out -= np.multiply.outer(profile.imag, np.sin(angles))
    return out


def mode_l2_norm(layout, profile, k):
    """L2 norm of the P1 function on the layout's mesh whose mode-k profile
    is profile (RingSystem.mode_columns): Re(p exp(i k theta_j)) on each
    ring, integrated exactly as l2_norm integrates it, band by band.

    The triangles of a band are the rotations of its two triangles at
    angular index 0, and those of the center fan of one, so the sum over
    a band is a quadratic form in the profile on its two rings. Over the
    n rotations of a triangle whose corner c has the value
    Re(X_c exp(i k theta_j)), sum_j u_c u_c' is
    n/2 Re(X_c conj(X_c') + X_c X_c' [2 k = 0 mod n]).
    """
    n = layout.n_theta
    p = np.asarray(profile, dtype=complex)
    step = np.exp(2j * np.pi * k / n)
    inner, outer = p[1:-1], p[2:]
    aliased = 2 * k % n == 0
    # the fan's triangle (center, (0, 0), (0, 1)); each band's (a, d, b)
    # and (a, c, d) at angular index 0 (the wedge's first of each run)
    shapes = [(layout.areas[:1], (p[:1], p[1:2], p[1:2] * step)),
              (layout.areas[n::6], (inner, outer * step, inner * step)),
              (layout.areas[n + 3::6], (inner, outer, outer * step))]
    total = 0.0
    for areas, corners in shapes:
        whole = sum(corners)
        form = abs(whole) ** 2 + sum(abs(x) ** 2 for x in corners)
        if aliased:
            form += (whole * whole).real + sum((x * x).real for x in corners)
        total += np.dot(areas, form)
    return float(np.sqrt(total * n / 24.0))
