from types import SimpleNamespace

import numpy as np
import pytest

from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from cloaksim import fem, homog
from cloaksim.coeff import (IsotropicField, ProductField,
                            StructureConstants, annulus, constant_field,
                            identity_field, piecewise_field)
from cloaksim.dnmap import FourierBasis, dn_operator
from cloaksim.errors import NumericalError, PreconditionError
from cloaksim.experiments import (ExperimentConfig,
                                 run_truncated_singular_sweep)
from cloaksim.fem import (SUPERLU_SETTINGS, Connectivity, SparseSystem,
                          TriMesh, assemble_frozen, build_disk_mesh, h1_norm,
                          h1_seminorm, l2_norm, newton_system, p1_elements,
                          p1_stiffness)
from cloaksim.geometry import pushforward, regular_blowup
from cloaksim.homog import _cell_grid
from cloaksim.presets import preset_field, preset_problem
from cloaksim.qsolve import dn_pairing
from conftest import bare_mesh, lu_reference, oscillating_case


def unit_triangle():
    # single right triangle (0,0)-(1,0)-(0,1), all vertices on the boundary
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    return TriMesh(verts, Connectivity.of(tris, [0, 1, 2], 3))


def square_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return TriMesh(verts, Connectivity.of(tris, [0, 1, 2, 3], 4))


class TestLocalAssembly:
    def test_reference_stiffness(self):
        # hand integration on the unit right triangle with A = I gives
        # K = 1/2 [[2,-1,-1],[-1,1,0],[-1,0,1]]
        mesh = unit_triangle()
        system = assemble_frozen(mesh, mesh.bind(identity_field(2)))
        K = system.matrix.toarray()
        want = 0.5 * np.array([[2.0, -1.0, -1.0],
                               [-1.0, 1.0, 0.0],
                               [-1.0, 0.0, 1.0]])
        assert np.abs(K - want).max() < 1e-14

    def test_constant_coefficient_scales_stiffness(self):
        mesh = unit_triangle()
        one = mesh.bind(identity_field(2))
        seven = mesh.bind(constant_field(7.0 * np.eye(2)))
        K1 = assemble_frozen(mesh, one).matrix.toarray()
        K7 = assemble_frozen(mesh, seven).matrix.toarray()
        assert np.abs(K7 - 7.0 * K1).max() < 1e-13

    def test_stiffness_rows_sum_to_zero(self):
        # constants lie in the kernel
        mesh = build_disk_mesh(2.0, h_target=0.4)
        K = assemble_frozen(mesh, mesh.bind(identity_field(2))).matrix
        assert np.abs(K @ np.ones(mesh.n_vertices)).max() < 1e-12

    def test_source_load_integrates_one(self):
        # for g = 1 the load row sums to the mesh area
        mesh = build_disk_mesh(1.0, h_target=0.2)
        system = assemble_frozen(mesh, mesh.bind(identity_field(2)),
                                 load=mesh.load(lambda p: np.ones(len(p))))
        assert abs(system.load.sum() - mesh.areas.sum()) < 1e-12
        # and the total area approximates the disk
        assert abs(mesh.areas.sum() - np.pi) < 0.05


class TestNorms:
    def test_l2_exact_linear(self):
        # int x^2 over the unit right triangle = 1/12
        mesh = unit_triangle()
        vals = mesh.vertices[:, 0]
        assert abs(l2_norm(mesh, vals) - np.sqrt(1.0 / 12.0)) < 1e-15

    def test_h1_seminorm_linear(self):
        mesh = unit_triangle()
        vals = mesh.vertices[:, 0]
        assert abs(h1_seminorm(mesh, vals) - np.sqrt(0.5)) < 1e-15

    def test_h1_combines(self):
        mesh = square_mesh()
        vals = mesh.vertices[:, 0] + 2.0 * mesh.vertices[:, 1]
        l2 = l2_norm(mesh, vals)
        semi = h1_seminorm(mesh, vals)
        assert abs(h1_norm(mesh, vals) - np.hypot(l2, semi)) < 1e-14

    def test_l2_is_the_consistent_mass_form(self):
        # v^T M v with the consistent mass matrix, element by element from
        # the corner coordinates: area / 12 on each pair of corners, twice
        # that on the diagonal
        mesh = build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.2)
        n = mesh.n_vertices
        mass = np.zeros((n, n))
        local = (np.ones((3, 3)) + np.eye(3)) / 12.0
        for tri in mesh.triangles:
            (x0, y0), (x1, y1), (x2, y2) = mesh.vertices[tri]
            area = 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
            mass[np.ix_(tri, tri)] += area * local
        rng = np.random.default_rng(12)
        for _ in range(3):
            v = rng.normal(size=n)
            want = v @ mass @ v
            assert abs(l2_norm(mesh, v) ** 2 - want) <= 1e-14 * want

    @pytest.mark.parametrize("norm", [l2_norm, h1_seminorm, h1_norm],
                             ids=lambda f: f.__name__)
    def test_values_length_checked(self, norm):
        mesh = build_disk_mesh(1.0, h_target=0.3)
        with pytest.raises(PreconditionError):
            norm(mesh, np.ones(3))


class TestDiskMesh:
    def test_boundary_ring(self):
        mesh = build_disk_mesh(2.0, h_target=0.2)
        rb = np.linalg.norm(mesh.vertices[mesh.boundary], axis=1)
        assert np.abs(rb - 2.0).max() < 1e-12
        assert len(mesh.boundary) % 8 == 0 and len(mesh.boundary) >= 16

    def test_h_target_respected(self):
        for h in (0.4, 0.2, 0.1):
            mesh = build_disk_mesh(2.0, h_target=h)
            assert mesh.h_max <= 1.5 * h + 1e-12

    def test_aligned_radius_has_vertex_ring(self):
        mesh = build_disk_mesh(2.0, aligned_radii=(0.7, 1.3), h_target=0.25)
        r = np.linalg.norm(mesh.vertices, axis=1)
        for target in (0.7, 1.3):
            assert np.abs(r - target).min() < 1e-12

    def test_radial_band_refines(self):
        mesh = build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.3,
                               radial_bands=[(1.0, 1.5, 0.05)])
        r = np.unique(np.round(np.linalg.norm(mesh.vertices, axis=1), 12))
        inside = r[(r >= 1.0) & (r <= 1.5)]
        gaps = np.diff(inside)
        assert gaps.max() <= 0.05 + 1e-9

    def test_triangles_positively_oriented(self):
        mesh = build_disk_mesh(1.0, h_target=0.3)
        assert mesh.areas.min() > 0.0

    def test_small_angular_count_refused(self):
        with pytest.raises(PreconditionError, match="n_theta"):
            build_disk_mesh(2.0, h_target=0.2, n_theta=4)

    def test_boundary_arc_weights_total(self):
        mesh = build_disk_mesh(1.5, h_target=0.2)
        # trapezoid weights of the polygon sum to its perimeter
        total = mesh.boundary_arc_weights().sum()
        assert abs(total - 2 * np.pi * 1.5) < 0.02

    def test_boundary_angles_sorted_coverage(self):
        mesh = build_disk_mesh(2.0, h_target=0.3)
        th = mesh.boundary_angles()
        assert len(np.unique(np.round(th, 9))) == len(th)

    def test_every_map_built_with_the_mesh(self):
        # the maps are there before any assembly, and a linear DN operator
        # on the mesh adds, replaces and drops none of its attributes
        mesh = build_disk_mesh(2.0, h_target=0.2)
        before = dict(vars(mesh))
        for name in ("pattern", "edges", "edge_of", "midpoints",
                     "boundary_band", "boundary_rows", "wedge"):
            assert before[name] is not None
        op = dn_operator(identity_field(2), FourierBasis(max_mode=2), mesh)
        assert dict(op.factor_kinds) == {"ring": 1}
        after = vars(mesh)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())


class TestSolve:
    def test_harmonic_mode_on_disk(self):
        # boundary r cos(theta) extends harmonically to x
        mesh = build_disk_mesh(2.0, h_target=0.1)
        system = assemble_frozen(mesh, mesh.bind(identity_field(2)))
        bv = mesh.vertices[mesh.boundary, 0]
        u = system.solve_dirichlet(bv)
        assert np.abs(u - mesh.vertices[:, 0]).max() < 5e-3

    def test_matches_dense_interior_solve(self):
        # oracle: eliminate the boundary by hand and solve the dense block
        mesh = build_disk_mesh(2.0, h_target=0.2)
        system = assemble_frozen(mesh, mesh.bind(identity_field(2)),
                                 load=mesh.load(lambda p: 1.0 + p[:, 0]))
        bv = np.cos(2.0 * mesh.boundary_angles())
        K = system.matrix.toarray()
        ii, bb = mesh.interior, mesh.boundary
        want = np.empty(mesh.n_vertices)
        want[bb] = bv
        want[ii] = np.linalg.solve(K[np.ix_(ii, ii)],
                                   system.load[ii] - K[np.ix_(ii, bb)] @ bv)
        u = system.solve_dirichlet(bv)
        assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max()

    def test_boundary_values_imposed_exactly(self):
        mesh = build_disk_mesh(1.0, h_target=0.25)
        system = assemble_frozen(mesh, mesh.bind(identity_field(2)))
        bv = np.sin(mesh.boundary_angles())
        u = system.solve_dirichlet(bv)
        assert np.abs(u[mesh.boundary] - bv).max() == 0.0

    def test_wrong_boundary_length_rejected(self):
        mesh = build_disk_mesh(1.0, h_target=0.25)
        system = assemble_frozen(mesh, mesh.bind(identity_field(2)))
        with pytest.raises(PreconditionError):
            system.solve_dirichlet(np.zeros(3))

    def test_energy_quadratic_form(self):
        mesh = build_disk_mesh(1.0, h_target=0.25)
        system = assemble_frozen(mesh, mesh.bind(identity_field(2)))
        bv = np.cos(mesh.boundary_angles())
        u = system.solve_dirichlet(bv)
        e = u @ (system.matrix @ u)
        # energy of the harmonic extension of cos(theta) on the unit disk
        # is pi; the discrete value sits slightly above
        assert np.pi - 0.05 < e < np.pi + 0.15


class TestFactorization:
    def test_ordering_reduces_fill(self, factors):
        # symmetric minimum-degree ordering against SuperLU's default
        # column ordering on the same interior block; diag(2, 3) is not
        # rotation-equivariant, so the system is factored by SuperLU
        mesh = build_disk_mesh(2.0, h_target=0.1)
        assert len(mesh.interior) > 2000
        system = assemble_frozen(mesh,
                                 mesh.bind(constant_field(np.diag([2.0, 3.0]))))
        system.solve_dirichlet(np.zeros(len(mesh.boundary)))
        (kind, kii, lu), = factors
        assert kind == "splu"
        default = splu(kii)
        assert lu.L.nnz + lu.U.nnz < 0.75 * (default.L.nnz + default.U.nnz)


class TestSolveLayer:
    """The boundary-only right-hand side and pairing, and the LAPACK ring
    factor, against full products and SuperLU."""

    @pytest.mark.parametrize("case", ["ring", "lu", "no ring layout"])
    def test_boundary_band_right_hand_side(self, case, monkeypatch):
        if case == "no ring layout":
            mesh = jittered_square()
        else:
            mesh = build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.2)
        field = constant_field(np.diag([2.0, 3.0])) if case == "lu" \
            else identity_field(2)
        system = assemble_frozen(mesh, mesh.bind(field),
                                 load=mesh.load(lambda p: 1.0 + p[:, 0]))
        seen = []
        for cls in (fem.RingFactor, fem._InteriorLU):
            def recording(self, rhs, real=cls.solve):
                seen.append(rhs.copy())
                return real(self, rhs)
            monkeypatch.setattr(cls, "solve", recording)
        g = np.cos(3.0 * mesh.boundary_angles()) + 0.5 \
            if mesh.n_theta else mesh.vertices[mesh.boundary, 0] ** 2 - 0.3
        u = system.solve_dirichlet(g)
        assert system.factor_kind == ("ring" if case == "ring" else "lu")
        full = np.zeros(mesh.n_vertices)
        full[mesh.boundary] = g
        (rhs,) = seen
        assert np.array_equal(rhs, (system.load - system.matrix @ full)[
            mesh.interior])
        assert np.array_equal(u[mesh.boundary], g)

    def test_pairing_is_the_full_residual_flux(self):
        mesh = build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.2)
        field = constant_field(np.diag([2.0, 3.0]))
        system = assemble_frozen(mesh, mesh.bind(field),
                                 load=mesh.load(lambda p: 1.0 + p[:, 1]))
        traces = FourierBasis(3).trace_matrix(mesh)
        solutions = np.array([system.solve_dirichlet(t) for t in traces])
        want = np.stack([traces @ (system.matrix @ u - system.load)[
            mesh.boundary] for u in solutions], axis=1)
        # summed in the order of the full product, and paired column by
        # column, so bit for bit; one column alone reads the same
        assert np.array_equal(dn_pairing(system, solutions, traces), want)
        assert np.array_equal(dn_pairing(system, solutions[[2]], traces),
                              want[:, [2]])

    def test_deep_ring_system_matches_superlu(self):
        # 499 interior rings and a coefficient that jumps across two of
        # them: a long tridiagonal per mode
        mesh = build_disk_mesh(2.0, aligned_radii=(0.8, 1.3), h_target=0.2,
                               n_theta=24, radial_bands=[(0.0, 2.0, 0.004)])
        assert (mesh.n_vertices - 1) // mesh.n_theta - 1 >= 400
        field = piecewise_field([(annulus(0.8, 1.3), constant_field(5.0)),
                                 (None, identity_field(2))])
        system = assemble_frozen(mesh, mesh.bind(field),
                                 load=mesh.load(lambda p: 1.0 + p[:, 0]))
        g = np.cos(2.0 * mesh.boundary_angles()) + 0.25
        u = system.solve_dirichlet(g)
        assert system.factor_kind == "ring"
        want = lu_reference(system, g)
        assert np.abs(u - want).max() <= 1e-10 * np.abs(want).max()


class TestRingDetector:
    """Systems that are not assembled from a wedge, or whose mesh records
    no rings, keep SuperLU and its results bit for bit."""

    def assert_lu(self, system, factors):
        factors.clear()
        g = np.cos(3.0 * system.mesh.boundary_angles()) + 0.5
        u = system.solve_dirichlet(g)
        assert [kind for kind, _, _ in factors] == ["splu"]
        assert np.array_equal(u, lu_reference(system, g))

    def test_anisotropic_constant(self, factors):
        mesh = build_disk_mesh(2.0, h_target=0.2)
        field = constant_field(np.diag([2.0, 3.0]))
        self.assert_lu(assemble_frozen(mesh, mesh.bind(field)), factors)

    def test_second_picard_step(self, factors):
        # the first step freezes the radial zero state; the second freezes
        # the cos(theta) solution, which is not radial
        mesh = build_disk_mesh(2.0, h_target=0.2)
        coef = mesh.bind(preset_field("isotropic-sin"))
        first = assemble_frozen(mesh, coef).solve_dirichlet(
            np.cos(mesh.boundary_angles()))
        assert [kind for kind, _, _ in factors] == ["ring"]
        self.assert_lu(assemble_frozen(mesh, coef, state=first), factors)

    def test_mesh_without_ring_layout(self, factors):
        # the same disk, built by hand without recording its rings
        mesh = build_disk_mesh(2.0, h_target=0.2)
        bare = bare_mesh(mesh)
        assert mesh.n_theta == 64 and bare.n_theta is None
        assert bare.wedge is None
        system = assemble_frozen(bare, bare.bind(identity_field(2)))
        self.assert_lu(system, factors)

    def test_center_alone_inside(self, factors):
        mesh = build_disk_mesh(1.0, h_target=1.0)
        assert len(mesh.interior) == 1 and mesh.wedge is None
        self.assert_lu(assemble_frozen(mesh, mesh.bind(identity_field(2))),
                       factors)


class TestRingPivoting:
    """Wedge systems whose bands are not symmetric or not positive definite
    are ring-factored too: zgttrf pivots within each mode, and the solves
    match SuperLU's. A singular mode raises."""

    @staticmethod
    def assert_matches_lu(system, g):
        u = system.solve_dirichlet(g)
        want = lu_reference(system, g)
        assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max()
        return u

    def test_indefinite_ring_factored(self, factors, ring_solves):
        # the identity stiffness less its mean diagonal entry: symmetric
        # and block-circulant, but with eigenvalues of both signs
        mesh = build_disk_mesh(1.0, h_target=0.25)
        system = assemble_frozen(mesh, mesh.bind(identity_field(2)))
        assert system.circulant
        matrix = system.matrix
        data = matrix.data.copy()
        on_diagonal = mesh.pattern.rows() == mesh.pattern.indices
        data[on_diagonal] -= matrix.diagonal().mean()
        system = SparseSystem(data, np.zeros(mesh.n_vertices), mesh,
                              circulant=True)
        ii = mesh.interior
        eig = np.linalg.eigvalsh(system.matrix[ii][:, ii].toarray())
        assert eig[0] < 0.0 < eig[-1]
        # modes 0..8 of 32 per ring: zgttrf interchanges rows in mode 8
        # (rows 32..35 of the factor), so the one-mode solve of the mode-8
        # data shifts its block's pivots
        factors.clear()
        basis = FourierBasis(max_mode=8, radius=1.0)
        for trace in basis.trace_matrix(mesh):
            self.assert_matches_lu(system, trace)
        assert ring_solves == list(basis.modes())
        [(kind, _, factor)] = factors
        assert kind == system.factor_kind == "ring"
        ipiv = factor.lu[4]
        assert not np.array_equal(ipiv[32:36], np.arange(33, 37))

    @pytest.mark.parametrize("where", ["ring", "next ring", "center"])
    def test_rotation_invariant_but_not_symmetric(self, where, factors):
        # add 1e-3 of the largest entry to the coupling of every ring
        # vertex (a, j) to (a, j + 1) or to (a + 1, j), or of the center to
        # the first ring, and not to its mirror: the wedge data stays
        # block-circulant and keeps its pattern, but is no longer
        # symmetric, which the wedge bands show. The skew goes into the
        # stored entries: a sparse sum would drop the couplings it leaves
        # at exactly 0.0
        mesh = build_disk_mesh(2.0, h_target=0.2)
        n = mesh.n_theta
        matrix = assemble_frozen(mesh, mesh.bind(identity_field(2))).matrix
        ring, j = np.divmod(np.arange(mesh.n_vertices - 1 - n), n)
        rows = 1 + ring * n + j
        if where == "ring":
            cols = 1 + ring * n + (j + 1) % n
        elif where == "next ring":
            cols = 1 + (ring + 1) * n + j
        else:
            rows, cols = np.zeros(n, dtype=int), 1 + np.arange(n)
        pattern = mesh.pattern
        stored = np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))
        keys = stored * pattern.n + pattern.indices
        slots = np.searchsorted(keys, rows * pattern.n + cols)
        assert np.array_equal(keys[slots], rows * pattern.n + cols)
        data = matrix.data.copy()
        data[slots] += 1e-3 * abs(matrix).max()
        assert np.array_equal(data[mesh.wedge.spin], data)
        system = SparseSystem(data, np.zeros(mesh.n_vertices), mesh,
                              circulant=True)
        ii = mesh.interior
        interior = system.matrix[ii][:, ii]
        assert abs(interior - interior.T).max() > 1e-4 * abs(matrix).max()
        factors.clear()
        self.assert_matches_lu(system,
                               np.cos(3.0 * mesh.boundary_angles()) + 0.5)
        assert [kind for kind, _, _ in factors] == ["ring"]
        assert system.factor_kind == "ring"

    def test_singular_mode_raises(self):
        # every mode but the center's identity rows is zero; mode 0 is the
        # first whose pivot vanishes
        mesh = build_disk_mesh(1.0, h_target=0.25)
        system = SparseSystem(np.zeros(mesh.pattern.nnz),
                              np.zeros(mesh.n_vertices), mesh, circulant=True)
        with pytest.raises(NumericalError, match="singular in mode 0"):
            system.solve_dirichlet(np.zeros(len(mesh.boundary)))


def rotation_step(mesh):
    """The vertex that each vertex of a ring mesh goes to under the
    rotation by one angular step, found from the vertex coordinates."""
    n = mesh.n_theta
    c, s = np.cos(2.0 * np.pi / n), np.sin(2.0 * np.pi / n)
    turned = mesh.vertices @ np.array([[c, s], [-s, c]])
    dist, step = cKDTree(mesh.vertices).query(turned)
    assert dist.max() <= 1e-12
    return step


def rotation_defect(matrix, step):
    """The largest change of an entry of the matrix under the rotation,
    over its largest entry."""
    turned = matrix[step][:, step]
    return abs(turned - matrix).max() / abs(matrix).max()


# ring layouts: an even and an odd n_theta, one interior ring, and graded
WEDGE_LAYOUTS = {
    "h0.3": lambda: build_disk_mesh(1.0, aligned_radii=(0.5,), h_target=0.3),
    "n_theta 27": lambda: build_disk_mesh(2.0, h_target=0.2, n_theta=27),
    "two rings": lambda: build_disk_mesh(1.0, h_target=0.5, n_theta=8),
    "graded": lambda: build_disk_mesh(2.0, aligned_radii=(1.0,),
                                      h_target=0.3,
                                      radial_bands=[(0.8, 1.2, 0.05)]),
}


class TestWedge:
    """The wedge of a ring mesh, against the rotation of its vertex
    coordinates and against the dense matrix."""

    def test_spin_of_each_entry(self):
        for make in WEDGE_LAYOUTS.values():
            self.check_spin(make())

    @staticmethod
    def check_spin(mesh):
        n, nv = mesh.n_theta, mesh.n_vertices
        step = rotation_step(mesh)
        back = np.argsort(step)
        # the angular index of each vertex, from its coordinates
        angle = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
        index = np.rint(angle / (2.0 * np.pi / n)).astype(int) % n
        index[0] = 0
        pattern = mesh.pattern
        slots = np.full((nv, nv), -1)
        rows = np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))
        slots[rows, pattern.indices] = np.arange(pattern.nnz)
        want = np.empty(pattern.nnz, dtype=int)
        for k, (r, c) in enumerate(zip(rows, pattern.indices)):
            for _ in range(index[r]):
                r, c = back[r], back[c]
            want[k] = slots[r, c]
        wedge, ring = mesh.wedge, mesh.layout.wedge
        assert np.array_equal(wedge.spin, want)
        # the layout's wedge: the triangles at the center or at angular
        # index 0 or 1, in the mesh's order, and their edges, ascending as
        # the mesh's edges do
        corners = mesh.triangles
        ours = corners[((corners == 0) | (index[corners] < 2)).any(axis=1)]
        assert np.array_equal(ring.vertices[ring.triangles], ours)
        edges = ring.vertices[ring.pattern.edges]
        assert np.array_equal(edges[ring.pattern.edge_of],
                              np.sort(ours[:, ENDS], axis=2))
        assert np.all(np.diff(edges[:, 0] * nv + edges[:, 1]) > 0)
        # each entry of the wedge's pattern is the mesh's entry at local
        wrows = ring.vertices[ring.pattern.rows()]
        assert np.array_equal(rows[wedge.local], wrows)
        assert np.array_equal(pattern.indices[wedge.local],
                              ring.vertices[ring.pattern.indices])
        # the rows at angular index 1, and the entries they turn back to
        assert np.array_equal(ring.turned,
                              np.nonzero((index[wrows] == 1) & (wrows > 0))[0])
        assert np.array_equal(wedge.local[ring.spun],
                              want[wedge.local[ring.turned]])

    @pytest.mark.parametrize("layout", list(WEDGE_LAYOUTS))
    def test_bands_of_each_interior_ring(self, layout):
        # a stiffness that is not radial, assembled in full: its bands are
        # row (a, 0) of the dense matrix over the columns of rings a - 1,
        # a and a + 1, with nothing left of the center for a = 0
        mesh = WEDGE_LAYOUTS[layout]()
        n = mesh.n_theta
        m = (mesh.n_vertices - 1) // n - 1
        bare = bare_mesh(mesh)
        field = SimpleNamespace(bind=lambda pts: lambda t:
                                TestFixedPattern.skew_tensor(pts, t))
        data = assemble_frozen(bare, bare.bind(field)).matrix.data
        dense = mesh.pattern.matrix(data).toarray()
        pos, flat = mesh.layout.wedge.bands
        bands = np.zeros(3 * m * n)
        bands[flat] = data[mesh.wedge.local[pos]]
        bands = bands.reshape(3, m, n)
        want = np.zeros((3, m, n))
        for a in range(m):
            for d in range(3):
                if a + d > 0:
                    first = 1 + (a + d - 1) * n
                    want[d, a] = dense[1 + a * n, first:first + n]
        assert np.array_equal(bands, want)
        # one place per entry, and no entry 0.0 that a misplaced one hides
        assert len(np.unique(flat)) == len(pos) == np.count_nonzero(bands)

    def test_no_wedge_from_the_triangles_alone(self):
        # Connectivity.of knows no ring layout, even of a ring mesh's own
        # triangles: only build_disk_mesh records one
        mesh = WEDGE_LAYOUTS["h0.3"]()
        layout = Connectivity.of(mesh.triangles, mesh.boundary,
                                 mesh.n_vertices)
        assert mesh.wedge is not None
        assert layout.n_theta is None and layout.wedge is None


def off_center_ball():
    # 5 on the disk of radius 0.3 about (0.6, 0.2), 1 elsewhere: its edge
    # crosses the rays at angular index 0 and 1 at different radii
    def scalar(pts, t):
        inside = np.linalg.norm(pts - [0.6, 0.2], axis=1) < 0.3
        return np.where(inside, 5.0, 1.0)
    return IsotropicField(scalar, StructureConstants(1.0, 5.0, 0.0),
                          name="off-center ball")


def five_on_ball(center, radius):
    # 5 on the disk of this radius about center, 1 elsewhere. About
    # (0, 1) it lies a quarter turn from the wedge; about (0.5, 0) it
    # covers the wedge's rows at angular index 0 and 1 alike
    def scalar(pts, t):
        inside = np.linalg.norm(pts - center, axis=1) < radius
        return np.where(inside, 5.0, 1.0)
    return IsotropicField(scalar, StructureConstants(1.0, 5.0, 0.0),
                          name=f"5 on the ball about {center}")


# the laminate jumps at radii 0.125 k, among them the midpoints 0.5, 1.0
# and 1.5 of the radial edges at h 0.2
PRESET_KEYS = ["identity", "isotropic-sin", "5I", "sin-5I",
               "regular-cloak(0.5)", "truncated-singular-cloak(1.25)",
               "homogenized-radial(1.5,0.125)", "laminate(1,4,0.25)"]


def preset_case(key, h):
    field, radius, jumps = preset_problem(key)
    return field, build_disk_mesh(radius, aligned_radii=jumps, h_target=h)


DECLARATION_CASES = {
    **{f"{key} h{h}": (lambda key=key, h=h: preset_case(key, h))
       for key in PRESET_KEYS for h in (0.2, 0.1)},
    "sigma-1": lambda: oscillating_case(target=False),
    "sigma-1-target": lambda: oscillating_case(target=True),
    "pushed isotropic-sin": lambda: (
        pushforward(preset_field("isotropic-sin"), regular_blowup(0.5)),
        build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.2)),
    "diag(2, 3)": lambda: (constant_field(np.diag([2.0, 3.0])),
                           build_disk_mesh(2.0, h_target=0.2)),
    "off-center ball": lambda: (off_center_ball(),
                                build_disk_mesh(2.0, h_target=0.2)),
}


class TestRadialDeclaration:
    """A field declares itself radial exactly when its full 2D stiffness is
    invariant under the rotation of the mesh, and then the wedge path gives
    the 2D path's numbers. The 2D path is the same field on the bare mesh,
    with no ring layout; the rotation is found from the vertex coordinates.
    A wrong declaration raises."""

    @pytest.mark.parametrize("case", list(DECLARATION_CASES))
    def test_declared_exactly_when_rotation_invariant(self, case, factors):
        field, mesh = DECLARATION_CASES[case]()
        bare = bare_mesh(mesh)
        full = assemble_frozen(bare, bare.bind(field))
        invariant = rotation_defect(full.matrix, rotation_step(mesh)) <= 1e-12
        assert field.radial == invariant
        assert invariant or case in ("diag(2, 3)", "off-center ball")
        if not field.radial:
            return
        system = assemble_frozen(mesh, mesh.bind(field))
        scale = np.abs(full.matrix.data).max()
        assert np.abs(system.matrix.data - full.matrix.data).max() <= \
            1e-12 * scale
        radius = float(np.linalg.norm(mesh.vertices[mesh.boundary[0]]))
        traces = FourierBasis(max_mode=4, radius=radius).trace_matrix(mesh)
        factors.clear()
        got = np.array([system.solve_dirichlet(g) for g in traces])
        want = np.array([full.solve_dirichlet(g) for g in traces])
        assert [kind for kind, _, _ in factors] == ["ring", "splu"]
        M, R = dn_pairing(system, got, traces), dn_pairing(full, want, traces)
        # the data agree to 5e-14, but the ring factor and SuperLU round
        # differently: on sigma-1 and the finer shells the two solves of
        # the same wedge data differ by up to 3e-12 of the largest pairing
        # entry, and the two paths by up to 6e-12
        assert np.abs(M - R).max() <= 1e-11 * np.abs(R).max()
        # the cos(theta) column
        assert np.abs(got[1] - want[1]).max() <= 1e-11 * np.abs(want[1]).max()

    @pytest.mark.parametrize("make", [
        lambda: constant_field(np.diag([2.0, 3.0])), off_center_ball,
        lambda: five_on_ball((0.0, 1.0), 0.5),
        lambda: five_on_ball((0.5, 0.0), 0.4)],
        ids=["diag(2, 3)", "off-center ball", "ball at a quarter turn",
             "ball on both rays"])
    def test_wrong_declaration_raises(self, make):
        field = make()
        field.radial = True
        mesh = build_disk_mesh(2.0, h_target=0.2)
        with pytest.raises(NumericalError, match="declared radial"):
            assemble_frozen(mesh, mesh.bind(field))

    def test_jumps_at_the_quadrature_points_raise(self):
        # a laminate of period 0.25 decided on |x| as computed, without the
        # preset's rounding: the midpoints 0.5, 1.0, 1.5 of the radial edges
        # at h 0.2 lie on its jumps, and rounding puts their rotations on
        # either side, at angular index 1 among others. The 2D stiffness
        # is then not rotation invariant, and the wedge path refuses the
        # field. (A flip that shows at neither angular index 0 nor 1 passes
        # unseen.)
        field = IsotropicField(
            lambda p, t: np.where(
                np.mod(np.linalg.norm(p, axis=1) / 0.25, 1.0) < 0.5, 1.0, 4.0),
            StructureConstants(1.0, 4.0, 0.0), radial=True)
        mesh = build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.2)
        bare = bare_mesh(mesh)
        full = assemble_frozen(bare, bare.bind(field))
        assert rotation_defect(full.matrix, rotation_step(mesh)) > 1e-3
        with pytest.raises(NumericalError, match="declared radial"):
            assemble_frozen(mesh, mesh.bind(field))


class TestNewtonSystem:
    """newton_system against central differences of the residual
    K(u) u - load, which assemble_frozen alone computes."""

    @staticmethod
    def residual(mesh, coef, u, load):
        system = assemble_frozen(mesh, coef, state=u, load=load)
        return system.matrix @ u - system.load

    def test_jacobian_is_the_derivative_of_the_residual(self):
        mesh = build_disk_mesh(1.0, h_target=0.25)
        field = pushforward(preset_field("isotropic-sin"), regular_blowup(0.5))
        coef = mesh.bind(field)
        x, y = mesh.vertices.T
        u = np.sin(2.0 * x) + x * y
        load = mesh.load(lambda p: 1.0 + p[:, 0])
        frozen = assemble_frozen(mesh, coef, state=u, load=load)
        newton = newton_system(frozen, coef, u)
        rng = np.random.default_rng(8)
        for _ in range(3):
            v = rng.normal(size=mesh.n_vertices)
            step = 1e-5
            want = (self.residual(mesh, coef, u + step * v, load)
                    - self.residual(mesh, coef, u - step * v, load)) \
                / (2.0 * step)
            got = newton.matrix @ v
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        # the Newton system's residual at u is the residual of the problem
        np.testing.assert_allclose(newton.matrix @ u - newton.load,
                                   frozen.matrix @ u - frozen.load,
                                   rtol=0, atol=1e-12)
        assert np.array_equal(newton.matrix.indptr, frozen.matrix.indptr)
        assert np.array_equal(newton.matrix.indices, frozen.matrix.indices)


    def test_needs_a_system_frozen_at_a_state(self):
        # the Newton term differentiates the tensors that assemble_frozen
        # kept at the state; a system assembled without one has none
        mesh = build_disk_mesh(1.0, h_target=0.3)
        coef = mesh.bind(preset_field("isotropic-sin"))
        with pytest.raises(PreconditionError):
            newton_system(assemble_frozen(mesh, coef), coef,
                          np.zeros(mesh.n_vertices))

def dense_oracle(corners, dofs, n, amats, dadt=None, grad_u=None):
    """Dense sums of P1 element matrices with np.add.at, by other formulas.

    corners : (nt, 3, 2); dofs : (nt, 3); amats : (nt, 3, 2, 2) the
    coefficient at the edge midpoints m01, m12, m20. Returns the stiffness
    and, given d_t A at the midpoints and the gradient of the state on each
    triangle, the derivative of K(u) u through the midpoint states, whose
    midpoint q = (a, b) carries 1/2 of u_a and of u_b.
    """
    # barycentric coordinates: the columns of the inverse of [1, x, y]
    vand = np.concatenate([np.ones(corners.shape[:2] + (1,)), corners],
                          axis=2)
    grads = np.linalg.inv(vand)[:, 1:, :].transpose(0, 2, 1)   # (nt, 3, 2)
    areas = 0.5 * np.abs(np.linalg.det(vand))
    rows = np.repeat(dofs, 3, axis=1)
    cols = np.tile(dofs, (1, 3))
    local = np.einsum("t,tic,tcd,tjd->tij", areas, grads,
                      amats.mean(axis=1), grads)
    stiff = np.zeros((n, n))
    np.add.at(stiff, (rows.ravel(), cols.ravel()), local.ravel())
    if dadt is None:
        return stiff
    flux = np.einsum("tqcd,td->tqc", dadt, grad_u)      # at each midpoint
    local = np.zeros_like(local)
    for q, edge in enumerate([(0, 1), (1, 2), (2, 0)]):
        for j in edge:
            local[:, :, j] += np.einsum("t,tic,tc->ti", areas / 6.0, grads,
                                        flux[:, q])
    deriv = np.zeros((n, n))
    np.add.at(deriv, (rows.ravel(), cols.ravel()), local.ravel())
    return stiff, deriv


def assert_canonical(matrix):
    # rows in order, columns sorted within a row, no duplicates
    row = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    key = row * matrix.shape[1] + matrix.indices
    assert np.all(np.diff(key) > 0)


def assert_close(matrix, dense):
    assert np.abs(matrix.toarray() - dense).max() <= \
        1e-13 * np.abs(dense).max()


def jittered_square():
    # a 7 x 7 grid of the unit square, interior vertices moved at random,
    # with no ring layout
    n = 7
    x, y = np.meshgrid(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n),
                       indexing="ij")
    verts = np.stack([x.ravel(), y.ravel()], axis=1)
    edge = (verts == 0.0) | (verts == 1.0)
    inside = ~edge.any(axis=1)
    verts[inside] += np.random.default_rng(3).uniform(
        -0.04, 0.04, size=(int(inside.sum()), 2))
    idx = np.arange(n * n).reshape(n, n)
    a, b = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel()
    c, d = idx[:-1, 1:].ravel(), idx[1:, 1:].ravel()
    tris = np.concatenate([np.stack([a, b, d], 1), np.stack([a, d, c], 1)])
    return TriMesh(verts, Connectivity.of(tris, np.nonzero(~inside)[0],
                                          len(verts)))


class TestFixedPattern:
    """Assembly into the mesh's one CSR pattern against dense sums of the
    element matrices (dense_oracle), which share no code with fem."""

    @staticmethod
    def skew_tensor(points, t):
        # a tensor whose two off-diagonal entries differ, as do their
        # derivatives in the state, so that a transposed entry shows
        x, y = points.T
        t = np.broadcast_to(t, x.shape)
        out = np.empty((len(x), 2, 2))
        out[:, 0, 0] = 2.0 + 0.5 * np.sin(t) + 0.2 * x
        out[:, 0, 1] = 0.7 + 0.3 * np.cos(t) + 0.1 * y
        out[:, 1, 0] = -0.4 + 0.6 * x * np.sin(t)
        out[:, 1, 1] = 1.5 + 0.4 * np.cos(2.0 * t)
        return out

    @pytest.mark.parametrize("case", ["ring", "no ring layout",
                                      "not symmetric"])
    def test_frozen_and_newton_matrices(self, case):
        if case == "ring":
            mesh = build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.4)
            field = pushforward(preset_field("isotropic-sin"),
                                regular_blowup(0.5))
        elif case == "no ring layout":
            mesh = jittered_square()
            assert mesh.n_theta is None
            field = ProductField(lambda t: 2.0 + np.sin(t), (1.0, 3.0, 1.0),
                                 constant_field(np.array([[2.0, 0.5],
                                                          [0.5, 1.0]])))
        else:
            mesh = jittered_square()
            field = SimpleNamespace(
                bind=lambda pts: lambda t: self.skew_tensor(pts, t))
        x, y = mesh.vertices.T
        u = np.sin(2.0 * x) + x * y            # not radial
        coef = mesh.bind(field)
        frozen = assemble_frozen(mesh, coef, state=u)
        newton = newton_system(frozen, coef, u)

        corners = mesh.vertices[mesh.triangles]
        ends = [(0, 1), (1, 2), (2, 0)]
        mids = np.stack([0.5 * (corners[:, a] + corners[:, b])
                         for a, b in ends], axis=1)
        ue = u[mesh.triangles]
        states = np.stack([0.5 * (ue[:, a] + ue[:, b]) for a, b in ends],
                          axis=1).ravel()
        bound = field.bind(mids.reshape(-1, 2))
        nt = len(mesh.triangles)
        amats = bound(states).reshape(nt, 3, 2, 2)
        dadt = ((bound(states + 1e-7) - bound(states)) / 1e-7).reshape(
            nt, 3, 2, 2)
        vand = np.concatenate([np.ones((nt, 3, 1)), corners], axis=2)
        grad_u = np.einsum("tci,tc->ti", np.linalg.inv(vand)[:, 1:, :]
                           .transpose(0, 2, 1), ue)
        stiff, deriv = dense_oracle(corners, mesh.triangles, mesh.n_vertices,
                                    amats, dadt, grad_u)
        assert_close(frozen.matrix, stiff)
        assert_close(newton.matrix, stiff + deriv)
        np.testing.assert_allclose(newton.load, deriv @ u, rtol=0,
                                   atol=1e-13 * np.abs(deriv @ u).max())
        for matrix in (frozen.matrix, newton.matrix):
            assert_canonical(matrix)

    def test_periodic_cell(self):
        n1, n2 = 6, 5
        dofs, pattern, areas, grads, cent = _cell_grid(n1, n2)
        # the corner points of the crossed grid's triangles, in its order:
        # the bottom, right, top and left triangle of every square (i, j),
        # each ending at the square's center
        i, j = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
        square = np.stack([i.ravel(), j.ravel()], axis=1)
        sides = np.array([[[0, 0], [1, 0]], [[1, 0], [1, 1]],
                          [[1, 1], [0, 1]], [[0, 1], [0, 0]]])
        xy = np.empty((4, n1 * n2, 3, 2))
        xy[:, :, :2] = square[None, :, None] + sides[:, None]
        xy[:, :, 2] = square + 0.5
        xy = (xy * [1.0 / n1, 1.0 / n2]).reshape(-1, 3, 2)
        # the cached geometry is that of those corner points
        want_areas, want_grads = p1_elements(xy)
        np.testing.assert_array_equal(areas, want_areas)
        np.testing.assert_array_equal(grads, want_grads)
        np.testing.assert_array_equal(cent, xy.mean(axis=1))
        s = 2.0 + np.cos(2.0 * np.pi * cent[:, 0])
        # a symmetric tensor, and one whose lower off-diagonal entry is not
        # the upper one
        for lower in (0.3, -0.2):
            amat = np.stack([np.stack([s, 0.3 * s], -1),
                             np.stack([lower * s, 1.5 + 0.0 * s], -1)],
                            axis=1)
            stiff = pattern.matrix(p1_stiffness(areas, grads, amat, pattern))
            want = dense_oracle(xy, dofs, pattern.n,
                                np.repeat(amat[:, None], 3, axis=1))
            assert_close(stiff, want)
            assert_canonical(stiff)


def disk_triangles():
    mesh = build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.3)
    return mesh.triangles, mesh.n_vertices


def band_triangles():
    # the triangles whose centroid lies in the annulus 1.5 <= r <= 2 of an
    # aligned disk: the rows of the vertices inside r < 1.5 have none
    mesh = build_disk_mesh(2.0, aligned_radii=(0.4,), h_target=0.2)
    inside = annulus(1.5, 2.0).contains(
        mesh.vertices[mesh.triangles].mean(axis=1))
    return mesh.triangles[inside], mesh.n_vertices


PATTERN_INPUTS = {
    "disk": disk_triangles,
    "periodic cell 8x8": lambda: (_cell_grid(8, 8)[0], 2 * 8 * 8),
    "band of triangles": band_triangles,
}


class TestEdgeFirstPattern:
    """The pattern built from the triangles' edges against scipy's sum of
    the 9 entries of each triangle (coo_matrix(...).tocsr()), which shares
    no code with it."""

    @pytest.mark.parametrize("case", sorted(PATTERN_INPUTS))
    def test_against_the_summed_entries(self, case):
        dofs, n = PATTERN_INPUTS[case]()
        rows = np.repeat(dofs, 3, axis=1).ravel()
        cols = np.tile(dofs, (1, 3)).ravel()
        want = coo_matrix((np.ones(len(rows)), (rows, cols)),
                          shape=(n, n)).tocsr()
        want.sum_duplicates()
        pattern = fem.P1Pattern(dofs, n)
        assert np.array_equal(pattern.indptr, want.indptr)
        assert np.array_equal(pattern.indices, want.indices)
        # slot[9 t + 3 i + j] holds the entry (dofs[t, i], dofs[t, j])
        at = pattern.slot
        assert np.array_equal(
            np.searchsorted(want.indptr, at, side="right") - 1, rows)
        assert np.array_equal(want.indices[at], cols)
        # the upper entries are the edges, in their order
        row_of = np.repeat(np.arange(n), np.diff(want.indptr))
        upper = want.indices > row_of
        assert np.array_equal(pattern.edges,
                              np.stack([row_of[upper], want.indices[upper]],
                                       axis=1))
        if case == "band of triangles":
            empty = np.setdiff1d(np.arange(n), dofs)
            assert len(empty) > 0
            assert np.all(np.diff(pattern.indptr)[empty] == 0)


class TestSharedConnectivity:
    """The meshes of one ring layout share its connectivity, and keep their
    own geometry and their own first LU."""

    @staticmethod
    def two_meshes():
        # 10 rings of 64 vertices each, at radii 0.2 k and 0.1 k
        return (build_disk_mesh(2.0, h_target=0.2, n_theta=64),
                build_disk_mesh(1.0, h_target=0.1, n_theta=64))

    def test_one_layout_one_connectivity(self):
        big, small = self.two_meshes()
        assert big.n_vertices == small.n_vertices == 1 + 10 * 64
        for name in ("triangles", "boundary", "interior", "pattern", "edges",
                     "edge_of", "boundary_band", "boundary_rows", "wedge"):
            assert getattr(big, name) is getattr(small, name)
        assert big.vertices is not small.vertices
        np.testing.assert_array_equal(big.vertices, 2.0 * small.vertices)
        np.testing.assert_array_equal(big.areas, 4.0 * small.areas)
        other = build_disk_mesh(2.0, h_target=0.2, n_theta=72)
        assert other.pattern is not big.pattern

    def test_first_lu_on_each_mesh(self):
        kinds = []
        for mesh in self.two_meshes():
            coef = mesh.bind(preset_field("isotropic-sin"))
            x, y = mesh.vertices.T
            g = np.cos(3.0 * mesh.boundary_angles())
            for c in (0.5, 1.0):
                u = c * (np.sin(x) + x * y)
                system = newton_system(assemble_frozen(mesh, coef, state=u),
                                       coef, u)
                system.solve_dirichlet(g)
                kinds.append(system.factor_kind)
        assert kinds == ["lu", "lu-reordered"] * 2

    def test_shared_arrays_are_read_only(self):
        mesh = build_disk_mesh(2.0, h_target=0.2)
        pattern, wedge, ring = mesh.pattern, mesh.wedge, mesh.layout.wedge
        shared = [mesh.triangles, mesh.boundary, mesh.interior,
                  pattern.indptr, pattern.indices, pattern.slot, mesh.edges,
                  mesh.edge_of, *mesh.boundary_band, *mesh.boundary_rows,
                  wedge.spin, wedge.local, ring.vertices, ring.triangles, ring.pattern.slot,
                  *ring.bands, ring.center, ring.turned, ring.spun,
                  ring.boundary, mesh.layout.rings]
        for array in shared:
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_a_sweep_over_rho_builds_one_connectivity(self):
        # a nonlinear inclusion: only its cloak's operators need a mesh
        fem._ring_connectivity.cache_clear()
        run_truncated_singular_sweep(ExperimentConfig(
            schedule=(1.5, 1.25, 1.1), h=0.25, modes=2, inclusion="sin-5I"))
        info = fem._ring_connectivity.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


ENDS = [(0, 1), (1, 2), (2, 0)]


def three_point_reference(mesh, field, u, source):
    """The frozen stiffness data, the Newton data and load, and the load
    vector, with the field and the source evaluated at the three edge
    midpoints of every triangle (3 nt points, each interior edge twice),
    in the arithmetic of the kernels."""
    corners = mesh.vertices[mesh.triangles]
    mids = np.stack([0.5 * (corners[:, a] + corners[:, b])
                     for a, b in ENDS], axis=1).reshape(-1, 2)
    ue = u[mesh.triangles]
    states = np.stack([0.5 * (ue[:, a] + ue[:, b]) for a, b in ENDS],
                      axis=1).ravel()
    nt = len(mesh.triangles)
    bound = field.bind(mids)
    amid = bound(states).reshape(nt, 3, 2, 2)
    amean = amid[:, 0] + amid[:, 1]
    amean += amid[:, 2]
    amean /= 3.0
    stiff = p1_stiffness(mesh.areas, mesh.grads, amean, mesh.pattern)
    dadt = (bound(states + fem._FD_STEP).reshape(nt, 3, 2, 2) - amid) \
        / fem._FD_STEP
    grad_u = fem.p1_gradient(mesh.grads, ue)
    ux, uy = grad_u[:, 0, None], grad_u[:, 1, None]
    fx = fem._corner_sums(dadt[:, :, 0, 0] * ux + dadt[:, :, 0, 1] * uy)
    fy = fem._corner_sums(dadt[:, :, 1, 0] * ux + dadt[:, :, 1, 1] * uy)
    fx *= (mesh.areas / 6.0)[:, None]
    fy *= (mesh.areas / 6.0)[:, None]
    jac = mesh.pattern.scatter(fem._element_matrices(mesh.grads, fx, fy))
    jac += stiff
    jac_matrix = mesh.pattern.matrix(jac)
    newton_load = jac_matrix @ u - mesh.pattern.matrix(stiff) @ u
    contrib = fem._corner_sums(source(mids).reshape(nt, 3))
    contrib *= (mesh.areas / 6.0)[:, None]
    load = np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                       minlength=mesh.n_vertices)
    return stiff, jac, newton_load, load


EDGE_MESHES = {
    "ring": lambda: (
        build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.3),
        pushforward(preset_field("isotropic-sin"), regular_blowup(0.5))),
    "jittered square": lambda: (
        jittered_square(),
        SimpleNamespace(bind=lambda pts: lambda t:
                        TestFixedPattern.skew_tensor(pts, t))),
}


class TestEdgeMap:
    """The edges of a mesh, read from its pattern, against the edges of
    its triangles counted by hand."""

    @pytest.mark.parametrize("case", sorted(EDGE_MESHES))
    def test_edges_of_the_triangles(self, case):
        mesh, _ = EDGE_MESHES[case]()
        counted = {}
        for tri in mesh.triangles.tolist():
            for a, b in ENDS:
                key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
                counted[key] = counted.get(key, 0) + 1
        assert len(mesh.edges) == \
            mesh.n_vertices + len(mesh.triangles) - 1 == len(counted)
        assert sorted(map(tuple, mesh.edges.tolist())) == sorted(counted)
        # m01, m12, m20 of each triangle are the edges of its corners
        ends = np.sort(mesh.triangles[:, ENDS], axis=2)
        assert np.array_equal(mesh.edges[mesh.edge_of], ends)
        corners = mesh.vertices[mesh.triangles]
        mids = np.stack([0.5 * (corners[:, a] + corners[:, b])
                         for a, b in ENDS], axis=1)
        assert np.array_equal(mesh.midpoints[mesh.edge_of], mids)
        # an interior edge serves two triangles, a boundary edge one
        uses = np.bincount(mesh.edge_of.ravel(), minlength=len(mesh.edges))
        assert sorted(set(uses.tolist())) == [1, 2]
        assert uses.tolist() == [counted[tuple(e)]
                                 for e in mesh.edges.tolist()]
        outer = mesh.edges[uses == 1]
        assert len(outer) == len(mesh.boundary)
        assert np.isin(outer, mesh.boundary).all()

    @pytest.mark.parametrize("case", sorted(EDGE_MESHES))
    def test_one_evaluation_per_edge_is_the_three_point_sum(self, case):
        mesh, field = EDGE_MESHES[case]()
        x, y = mesh.vertices.T
        u = np.sin(2.0 * x) + x * y
        source = lambda p: np.cos(p[:, 0]) + p[:, 1] ** 2   # noqa: E731
        coef = mesh.bind(field)
        frozen = assemble_frozen(mesh, coef, state=u)
        newton = newton_system(frozen, coef, u)
        stiff, jac, newton_load, load = three_point_reference(
            mesh, field, u, source)
        assert np.array_equal(frozen.matrix.data, stiff)
        assert np.array_equal(newton.matrix.data, jac)
        assert np.array_equal(newton.load, newton_load)
        assert np.array_equal(mesh.load(source), load)


def fill(lu):
    return lu.L.nnz + lu.U.nnz


class TestOrderingReuse:
    """The first SuperLU factor on a mesh computes its ordering; every
    later one of a matrix in the mesh's pattern reuses it."""

    def test_reordered_solves_match_fresh_factors(self, factors):
        mesh = build_disk_mesh(2.0, h_target=0.2)
        coef = mesh.bind(preset_field("isotropic-sin"))
        x, y = mesh.vertices.T
        g = np.cos(3.0 * mesh.boundary_angles()) + 0.5
        ii = mesh.interior
        kinds = []
        for c in (0.5, 1.0, 1.5, 2.0):
            u = c * (np.sin(x) + x * y)
            system = newton_system(assemble_frozen(mesh, coef, state=u),
                                   coef, u)
            got = system.solve_dirichlet(g)
            kinds.append(system.factor_kind)
            want = lu_reference(system, g)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            fresh = splu(system.matrix[ii][:, ii].tocsc(),
                         permc_spec="MMD_AT_PLUS_A", **SUPERLU_SETTINGS)
            assert abs(fill(factors[-1][2]) - fill(fresh)) <= \
                0.01 * fill(fresh)
        assert kinds == ["lu"] + ["lu-reordered"] * 3
        assert [kind for kind, _, _ in factors] == ["splu"] * 4

    def test_gathered_block_is_the_interior_block(self):
        # the CSC block of the first (identity) ordering and of the
        # reordered one against scipy's slicing of the whole matrix, with
        # the rows and columns taken in the ordering's order
        mesh = build_disk_mesh(2.0, h_target=0.2)
        coef = mesh.bind(preset_field("isotropic-sin"))
        x, y = mesh.vertices.T
        u = np.sin(x) + x * y
        system = newton_system(assemble_frozen(mesh, coef, state=u), coef, u)
        system.solve_dirichlet(np.cos(mesh.boundary_angles()))
        assert system.factor_kind == "lu"
        m = len(mesh.interior)
        first = fem._InteriorOrdering(mesh, np.arange(m))
        reordered = mesh.ordering
        assert not np.array_equal(reordered.inv, np.arange(m))
        matrix = system.matrix
        for ordering in (first, reordered):
            rows = mesh.interior[ordering.inv]
            want = matrix[rows][:, rows].tocsc()
            assert np.array_equal(ordering.indptr, want.indptr)
            assert np.array_equal(ordering.indices, want.indices)
            assert np.array_equal(matrix.data[ordering.gather], want.data)

    def test_data_outside_the_pattern_refused(self):
        # a system is made from its mesh's pattern data, so no matrix with
        # other entries can reach a factor or the ring check
        mesh = build_disk_mesh(2.0, h_target=0.2)
        load = np.zeros(mesh.n_vertices)
        assert SparseSystem(np.ones(mesh.pattern.nnz), load, mesh).matrix.nnz \
            == mesh.pattern.nnz
        for extra in (-1, 1, mesh.n_vertices):
            with pytest.raises(ValueError):
                SparseSystem(np.ones(mesh.pattern.nnz + extra), load, mesh)


def assert_same_as_default(block, lu, permc_spec):
    """A SuperLU factor made with SUPERLU_SETTINGS solves as one made
    with SuperLU's default supernode settings, to 1e-12 relative, and
    stores the same fill."""
    default = splu(block, permc_spec=permc_spec)
    rhs = np.random.default_rng(3).normal(size=block.shape[0])
    want = default.solve(rhs)
    assert np.abs(lu.solve(rhs) - want).max() <= 1e-12 * np.abs(want).max()
    assert fill(lu) == fill(default)


class TestSuperluSettings:
    """Each SuperLU call site against a default-setting factor of the
    same block."""

    def test_first_and_reordered_newton_factors(self, factors):
        mesh = build_disk_mesh(2.0, h_target=0.2)
        coef = mesh.bind(preset_field("isotropic-sin"))
        x, y = mesh.vertices.T
        g = np.cos(3.0 * mesh.boundary_angles()) + 0.5
        kinds = []
        for c in (0.5, 1.0):
            u = c * (np.sin(x) + x * y)
            system = newton_system(assemble_frozen(mesh, coef, state=u),
                                   coef, u)
            system.solve_dirichlet(g)
            kinds.append(system.factor_kind)
        assert kinds == ["lu", "lu-reordered"]
        (_, first, first_lu), (_, block, reordered_lu) = factors
        assert_same_as_default(first, first_lu, "MMD_AT_PLUS_A")
        assert_same_as_default(block, reordered_lu, "NATURAL")

    def test_cell_factor(self, monkeypatch):
        made = []
        real_splu = homog.splu

        def recording_splu(matrix, **kwargs):
            lu = real_splu(matrix, **kwargs)
            made.append((matrix, lu))
            return lu

        monkeypatch.setattr(homog, "splu", recording_splu)
        homog.solve_cell(homog.CellProblem(
            lambda p: 2.0 + np.sin(2.0 * np.pi * p[:, 0])
            * np.cos(2.0 * np.pi * p[:, 1]), resolution=(16, 16)))
        (block, lu), = made
        assert block.shape == (2 * 16 * 16 - 1,) * 2
        assert_same_as_default(block, lu, "MMD_AT_PLUS_A")
