import numpy as np
import pytest

from scipy.sparse.linalg import splu

from cloaksim.coeff import annulus, constant_field, identity_field
from cloaksim.errors import NumericalError, PreconditionError
from cloaksim.fem import (FeFunction, SparseSystem, TriMesh, assemble_frozen,
                          build_disk_mesh, h1_norm, h1_seminorm, l2_norm)


def unit_triangle():
    # single right triangle (0,0)-(1,0)-(0,1), all vertices on the boundary
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    return TriMesh(verts, tris, boundary=np.array([0, 1, 2]))


def square_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return TriMesh(verts, tris, boundary=np.array([0, 1, 2, 3]))


class TestLocalAssembly:
    def test_reference_stiffness(self):
        # hand integration on the unit right triangle with A = I gives
        # K = 1/2 [[2,-1,-1],[-1,1,0],[-1,0,1]]
        mesh = unit_triangle()
        system = assemble_frozen(mesh, identity_field(2))
        K = system.matrix.toarray()
        want = 0.5 * np.array([[2.0, -1.0, -1.0],
                               [-1.0, 1.0, 0.0],
                               [-1.0, 0.0, 1.0]])
        assert np.abs(K - want).max() < 1e-14

    def test_constant_coefficient_scales_stiffness(self):
        mesh = unit_triangle()
        K1 = assemble_frozen(mesh, identity_field(2)).matrix.toarray()
        K7 = assemble_frozen(mesh, constant_field(7.0 * np.eye(2))).matrix.toarray()
        assert np.abs(K7 - 7.0 * K1).max() < 1e-13

    def test_stiffness_rows_sum_to_zero(self):
        # constants lie in the kernel
        mesh = build_disk_mesh(2.0, h_target=0.4)
        K = assemble_frozen(mesh, identity_field(2)).matrix
        assert np.abs(K @ np.ones(mesh.n_vertices)).max() < 1e-12

    def test_source_load_integrates_one(self):
        # for g = 1 the load row sums to the mesh area
        mesh = build_disk_mesh(1.0, h_target=0.2)
        system = assemble_frozen(mesh, identity_field(2),
                                 source=lambda p: np.ones(len(p)))
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

    def test_region_restriction(self):
        mesh = build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.3)
        vals = np.ones(mesh.n_vertices)
        inner = l2_norm(mesh, vals, region=annulus(0.0, 1.0))
        full = l2_norm(mesh, vals)
        assert inner < full
        assert abs(inner - np.sqrt(np.pi)) < 0.05


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
        with pytest.raises(PreconditionError):
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


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        mesh = build_disk_mesh(1.0, aligned_radii=(0.5,), h_target=0.3)
        path = tmp_path / "mesh.txt"
        mesh.save_text(path)
        back = TriMesh.load_text(path)
        assert np.abs(back.vertices - mesh.vertices).max() == 0.0
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.boundary, mesh.boundary)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1 3\n0 0\n1 0\n")
        with pytest.raises(PreconditionError):
            TriMesh.load_text(path)


class TestSolve:
    def test_harmonic_mode_on_disk(self):
        # boundary r cos(theta) extends harmonically to x
        mesh = build_disk_mesh(2.0, h_target=0.1)
        system = assemble_frozen(mesh, identity_field(2))
        bv = mesh.vertices[mesh.boundary, 0]
        u = system.solve_dirichlet(bv)
        assert np.abs(u - mesh.vertices[:, 0]).max() < 5e-3

    def test_matches_dense_interior_solve(self):
        # oracle: eliminate the boundary by hand and solve the dense block
        mesh = build_disk_mesh(2.0, h_target=0.2)
        system = assemble_frozen(mesh, identity_field(2),
                                 source=lambda p: 1.0 + p[:, 0])
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
        system = assemble_frozen(mesh, identity_field(2))
        bv = np.sin(mesh.boundary_angles())
        u = system.solve_dirichlet(bv)
        assert np.abs(u[mesh.boundary] - bv).max() == 0.0

    def test_wrong_boundary_length_rejected(self):
        mesh = build_disk_mesh(1.0, h_target=0.25)
        system = assemble_frozen(mesh, identity_field(2))
        with pytest.raises(PreconditionError):
            system.solve_dirichlet(np.zeros(3))

    def test_energy_quadratic_form(self):
        mesh = build_disk_mesh(1.0, h_target=0.25)
        system = assemble_frozen(mesh, identity_field(2))
        bv = np.cos(mesh.boundary_angles())
        u = system.solve_dirichlet(bv)
        e = system.energy(u)
        # energy of the harmonic extension of cos(theta) on the unit disk
        # is pi; the discrete value sits slightly above
        assert np.pi - 0.05 < e < np.pi + 0.15


class TestFactorization:
    def test_ordering_reduces_fill(self, factors):
        # symmetric minimum-degree ordering against SuperLU's default
        # column ordering on the same interior block
        mesh = build_disk_mesh(2.0, h_target=0.1)
        assert len(mesh.interior) > 2000
        system = assemble_frozen(mesh, identity_field(2))
        system.solve_dirichlet(np.zeros(len(mesh.boundary)))
        (kii, lu), = factors
        default = splu(kii)
        assert lu.L.nnz + lu.U.nnz < 0.75 * (default.L.nnz + default.U.nnz)


class TestFeFunction:
    def test_norm_methods_match_module_functions(self):
        mesh = build_disk_mesh(1.0, h_target=0.3)
        vals = mesh.vertices[:, 0] ** 2
        f = FeFunction(mesh, vals)
        assert abs(f.l2() - l2_norm(mesh, vals)) < 1e-15
        assert abs(f.h1() - h1_norm(mesh, vals)) < 1e-15

    def test_subtract_same_mesh(self):
        mesh = build_disk_mesh(1.0, h_target=0.3)
        a = FeFunction(mesh, np.ones(mesh.n_vertices))
        b = FeFunction(mesh, np.zeros(mesh.n_vertices))
        assert abs((a - b).l2() - a.l2()) < 1e-15

    def test_subtract_foreign_mesh_rejected(self):
        m1 = build_disk_mesh(1.0, h_target=0.3)
        m2 = build_disk_mesh(1.0, h_target=0.25)
        with pytest.raises(PreconditionError):
            FeFunction(m1, np.ones(m1.n_vertices)) - \
                FeFunction(m2, np.ones(m2.n_vertices))

    def test_interpolate_samples_nodes(self):
        mesh = build_disk_mesh(1.0, h_target=0.3)
        f = FeFunction.interpolate(mesh, lambda p: 2.0 * p[:, 0] - p[:, 1])
        want = 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
        assert np.abs(f.values - want).max() < 1e-12

    def test_values_length_checked(self):
        mesh = build_disk_mesh(1.0, h_target=0.3)
        with pytest.raises(PreconditionError):
            FeFunction(mesh, np.ones(3))
