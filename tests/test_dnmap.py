import numpy as np
import pytest

from cloaksim.coeff import (IsotropicField, StructureConstants, annulus,
                            constant_field, identity_field)
from cloaksim.dnmap import (DtNOperator, FourierBasis, dn_difference,
                            dn_operator, neumann_trace_error)
from cloaksim.errors import PreconditionError
from cloaksim.fem import FeFunction, assemble_frozen, build_disk_mesh


class TestBasis:
    def test_size_and_mode_layout(self):
        b = FourierBasis(max_mode=3)
        assert b.size == 7
        assert list(b.modes()) == [0, 1, 1, 2, 2, 3, 3]

    def test_weights(self):
        b = FourierBasis(max_mode=2)
        k = np.array([0, 1, 1, 2, 2], dtype=float)
        assert np.abs(b.weights(0.5) - np.sqrt(1 + k ** 2)).max() < 1e-15
        assert np.abs(b.weights(-0.5) - 1 / np.sqrt(1 + k ** 2)).max() < 1e-15

    def test_trace_matrix_values(self):
        mesh = build_disk_mesh(2.0, h_target=0.3)
        b = FourierBasis(max_mode=2)
        tm = b.trace_matrix(mesh)
        th = mesh.boundary_angles()
        assert np.abs(tm[0] - 1.0).max() == 0.0
        assert np.abs(tm[3] - np.cos(2 * th)).max() < 1e-14
        assert np.abs(tm[4] - np.sin(2 * th)).max() < 1e-14

    def test_masses_approximate_circle_integrals(self):
        # constant integrates to 2 pi R, each oscillating mode to pi R
        mesh = build_disk_mesh(2.0, h_target=0.1)
        b = FourierBasis(max_mode=3)
        m = b.masses(mesh)
        assert abs(m[0] - 4 * np.pi) < 0.05
        assert np.abs(m[1:] - 2 * np.pi).max() < 0.05

    def test_equality(self):
        assert FourierBasis(4) == FourierBasis(4)
        assert FourierBasis(4) != FourierBasis(5)
        assert FourierBasis(4, radius=2.0) != FourierBasis(4, radius=3.0)

    def test_min_mode_enforced(self):
        with pytest.raises(PreconditionError):
            FourierBasis(max_mode=0)


class TestOperator:
    def test_identity_diagonal_is_k_pi(self):
        # harmonic extension of mode k on the disk pairs to k pi,
        # independent of the radius
        mesh = build_disk_mesh(2.0, h_target=0.1)
        basis = FourierBasis(max_mode=3)
        op = dn_operator(identity_field(2), basis, mesh)
        d = np.diag(op.pairing_matrix)
        k = basis.modes().astype(float)
        want = k * np.pi
        err = np.abs(d[1:] - want[1:]) / want[1:]
        assert err.max() < 0.02
        off = op.pairing_matrix - np.diag(d)
        assert np.abs(off).max() < 0.01 * np.pi

    def test_linear_operator_factors_once(self, factors):
        mesh = build_disk_mesh(2.0, h_target=0.2)
        dn_operator(identity_field(2), FourierBasis(max_mode=3), mesh)
        assert len(factors) == 1

    def test_symmetry_for_state_independent(self):
        mesh = build_disk_mesh(2.0, h_target=0.15)
        basis = FourierBasis(max_mode=4)
        op = dn_operator(constant_field(np.diag([2.0, 3.0])), basis, mesh)
        M = op.pairing_matrix
        assert np.abs(M - M.T).max() <= 1e-8 * np.abs(M).max()
        assert not op.nonlinear
        assert op.all_converged

    def test_scaling_by_constant(self):
        mesh = build_disk_mesh(2.0, h_target=0.15)
        basis = FourierBasis(max_mode=4)
        op1 = dn_operator(identity_field(2), basis, mesh)
        op2 = dn_operator(constant_field(2.0 * np.eye(2)), basis, mesh)
        assert np.abs(op2.pairing_matrix - 2.0 * op1.pairing_matrix).max() < 1e-10

    def test_nonlinear_flag_and_convergence(self):
        mesh = build_disk_mesh(2.0, h_target=0.3)
        basis = FourierBasis(max_mode=1)
        field = IsotropicField(lambda p, t: 2.0 + np.sin(t),
                               StructureConstants(1.0, 3.0, 1.0), name="sin")
        op = dn_operator(field, basis, mesh)
        assert op.nonlinear
        assert op.all_converged
        assert len(op.converged) == basis.size


class TestJson:
    def make_op(self):
        basis = FourierBasis(max_mode=2)
        rng = np.random.default_rng(7)
        M = rng.standard_normal((basis.size, basis.size))
        return DtNOperator(basis, M, coefficient="demo", nonlinear=True,
                           converged=[True, False, True, True, True])

    def test_round_trip_text(self):
        op = self.make_op()
        back = DtNOperator.from_json(op.to_json())
        assert back.basis == op.basis
        assert np.abs(back.pairing_matrix - op.pairing_matrix).max() == 0.0
        assert back.converged == op.converged
        assert back.coefficient == "demo"
        assert back.nonlinear

    def test_round_trip_file(self, tmp_path):
        op = self.make_op()
        path = tmp_path / "op.json"
        op.to_json(path)
        back = DtNOperator.from_json(path)
        assert np.abs(back.pairing_matrix - op.pairing_matrix).max() == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            DtNOperator(FourierBasis(2), np.zeros((3, 3)))

    def test_basis_radius_must_match_mesh(self):
        mesh = build_disk_mesh(3.0, h_target=0.4)
        with pytest.raises(PreconditionError):
            dn_operator(identity_field(2), FourierBasis(2, radius=2.0), mesh)
        op = dn_operator(identity_field(2), FourierBasis(2, radius=3.0), mesh)
        assert op.solutions.shape == (5, mesh.n_vertices)

    def test_loaded_operator_has_no_solutions(self):
        mesh = build_disk_mesh(2.0, h_target=0.4)
        op = dn_operator(identity_field(2), FourierBasis(2), mesh)
        assert op.mesh is mesh and op.iterations == [1] * 5
        back = DtNOperator.from_json(op.to_json())
        assert back.solutions is None and back.iterations is None
        assert back.mesh is None


def kirchhoff_pairing(basis, n=512):
    """Exact DN pairing of A = (2 + sin u) I at unit-amplitude data.

    Theta(u) = 2u + 1 - cos u has Theta' = 2 + sin u, so Theta(u) is
    harmonic with trace Theta(f). Its normal derivative on the circle of
    radius R is sum_m (m / R) (a_m cos + b_m sin) over the Fourier
    coefficients of Theta(f), and pairing with cos m / sin m over the
    arc gives m pi a_m / m pi b_m.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    out = np.zeros((basis.size, basis.size))
    for j, m in enumerate(basis.modes()):
        # index 0 is cos(0 theta), odd indices cos(m theta), even sin(m theta)
        f = np.cos(m * theta) if j % 2 or j == 0 else np.sin(m * theta)
        c = np.fft.rfft(2.0 * f + 1.0 - np.cos(f)) / n
        for k in range(1, basis.max_mode + 1):
            out[2 * k - 1, j] = k * np.pi * 2.0 * c[k].real
            out[2 * k, j] = -k * np.pi * 2.0 * c[k].imag
    return out


class TestKirchhoffOracle:
    def test_nonlinear_pairing_converges_at_second_order(self):
        field = IsotropicField(lambda p, t: 2.0 + np.sin(t),
                               StructureConstants(1.0, 3.0, 1.0))
        basis = FourierBasis(max_mode=3, radius=2.0)
        exact = kirchhoff_pairing(basis)
        errs = []
        for h in (0.2, 0.1):
            op = dn_operator(field, basis, build_disk_mesh(2.0, h_target=h))
            assert op.nonlinear and op.all_converged
            errs.append(np.abs(op.pairing_matrix - exact).max()
                        / np.abs(exact).max())
        assert errs[0] <= 2.5e-3
        assert errs[1] <= 6e-4
        assert errs[0] / errs[1] >= 3.5


class TestDifference:
    def test_zero_for_identical(self):
        mesh = build_disk_mesh(2.0, h_target=0.2)
        basis = FourierBasis(max_mode=3)
        op = dn_operator(identity_field(2), basis, mesh)
        assert dn_difference(op, op) == 0.0

    def test_scaled_identity_value(self):
        # Lambda_c = c Lambda_1, so the weighted gap is
        # max_k (c-1) k pi / sqrt(1 + k^2), attained at the top mode
        mesh = build_disk_mesh(2.0, h_target=0.1)
        basis = FourierBasis(max_mode=4)
        op1 = dn_operator(identity_field(2), basis, mesh)
        op2 = dn_operator(constant_field(2.0 * np.eye(2)), basis, mesh)
        got = dn_difference(op1, op2)
        want = 4 * np.pi / np.sqrt(17.0)
        assert abs(got - want) / want < 0.05

    def test_basis_mismatch_rejected(self):
        mesh = build_disk_mesh(2.0, h_target=0.3)
        op1 = dn_operator(identity_field(2), FourierBasis(2), mesh)
        op2 = dn_operator(identity_field(2), FourierBasis(3), mesh)
        with pytest.raises(PreconditionError):
            dn_difference(op1, op2)

    def test_symmetric_in_arguments(self):
        mesh = build_disk_mesh(2.0, h_target=0.2)
        basis = FourierBasis(max_mode=2)
        op1 = dn_operator(identity_field(2), basis, mesh)
        op2 = dn_operator(constant_field(3.0 * np.eye(2)), basis, mesh)
        assert dn_difference(op1, op2) == dn_difference(op2, op1)


def solve_mode(mesh, field, k):
    system = assemble_frozen(mesh, field)
    bv = np.cos(k * mesh.boundary_angles())
    return FeFunction(mesh, system.solve_dirichlet(bv))


class TestNeumannTrace:
    def test_self_is_zero(self):
        mesh = build_disk_mesh(2.0, h_target=0.2)
        u = solve_mode(mesh, identity_field(2), 1)
        band = annulus(1.5, 2.0)
        assert neumann_trace_error(u, u, band) == 0.0

    def test_cross_mesh_small(self):
        # the same continuum problem on two meshes must give nearby fluxes
        band = annulus(1.5, 2.0)
        m1 = build_disk_mesh(2.0, h_target=0.15)
        m2 = build_disk_mesh(2.0, h_target=0.1)
        u1 = solve_mode(m1, identity_field(2), 2)
        u2 = solve_mode(m2, identity_field(2), 2)
        err = neumann_trace_error(u1, u2, band, basis=FourierBasis(3))
        assert err < 0.05

    def test_non_identity_band_refused(self):
        band = annulus(1.5, 2.0)
        mesh = build_disk_mesh(2.0, h_target=0.3)
        u = solve_mode(mesh, constant_field(2.0 * np.eye(2)), 1)
        with pytest.raises(PreconditionError):
            neumann_trace_error(u, u, band,
                                field1=constant_field(2.0 * np.eye(2)))
