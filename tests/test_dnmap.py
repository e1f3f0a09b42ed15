import numpy as np
import pytest
from hypothesis import given, strategies as st

from cloaksim import fem
from cloaksim.coeff import (IsotropicField, ProductField, StructureConstants,
                            annulus, constant_field, identity_field,
                            piecewise_field)
from cloaksim.dnmap import (DtNOperator, FourierBasis, dn_difference,
                            dn_operator, neumann_trace_error)
from cloaksim.errors import NumericalError, PreconditionError
from cloaksim.fem import (P1Pattern, assemble_frozen, build_disk_mesh,
                          disk_layout, l2_norm, mode_l2_norm, p1_stiffness)
from cloaksim.geometry import (DiffMap, pushforward, regular_blowup,
                               transformed_inner_tensor,
                               truncated_singular_cloak)
from cloaksim.presets import inclusion_field, preset_field
from cloaksim.qsolve import dn_pairing
from conftest import bare_mesh, lu_reference, oscillating_case


class TestBasis:
    def test_size_and_mode_layout(self):
        b = FourierBasis(max_mode=3)
        assert b.size == 7
        assert list(b.modes()) == [0, 1, 1, 2, 2, 3, 3]

    def test_weights(self):
        b = FourierBasis(max_mode=2)
        k = np.array([0, 1, 1, 2, 2], dtype=float)
        assert np.abs(b.weights() - np.sqrt(1 + k ** 2)).max() < 1e-15

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

    def test_aliased_basis_refused(self):
        # 16 boundary vertices: mode 8 is its own alias, mode 7 is not
        mesh = build_disk_mesh(2.0, h_target=0.8)
        assert len(mesh.boundary) == 16
        with pytest.raises(PreconditionError, match="coincide"):
            dn_operator(identity_field(2), FourierBasis(max_mode=8), mesh)
        op = dn_operator(identity_field(2), FourierBasis(max_mode=7), mesh)
        assert op.pairing_matrix.shape == (15, 15)

    def test_linear_operator_factors_once(self, factors):
        mesh = build_disk_mesh(2.0, h_target=0.2)
        dn_operator(identity_field(2), FourierBasis(max_mode=3), mesh)
        assert [kind for kind, _, _ in factors] == ["ring"]
        factors.clear()
        dn_operator(constant_field(np.diag([2.0, 3.0])),
                    FourierBasis(max_mode=3), mesh)
        assert [kind for kind, _, _ in factors] == ["splu"]

    def test_factor_kinds_counted(self, factors):
        # every column starts from the zero state, assembled from the
        # wedge (a ring factor); the first Newton system on the fresh mesh
        # computes the LU ordering and every later one reuses it, the
        # constant datum's included: a Newton system is never ring-factored.
        # Every other column ends with a chord step, which reuses its last
        # Newton factor
        mesh = build_disk_mesh(2.0, h_target=0.2)
        basis = FourierBasis(max_mode=2)
        op = dn_operator(preset_field("isotropic-sin"), basis, mesh)
        assert op.iterations[0] == 2
        chords = basis.size - 1
        assert op.factor_kinds == {
            "ring": basis.size, "lu": 1, "chord": chords,
            "lu-reordered": sum(op.iterations) - basis.size - 1 - chords}
        recorded = [kind for kind, _, _ in factors]
        assert recorded.count("ring") == basis.size
        assert recorded.count("splu") == \
            sum(op.iterations) - basis.size - chords
        linear = dn_operator(constant_field(np.diag([2.0, 3.0])), basis, mesh)
        assert linear.factor_kinds == {"lu-reordered": 1}
        assert dn_operator(identity_field(2), basis,
                           mesh).factor_kinds == {"ring": 1}

    def test_nonlinear_pairing_matches_its_solutions(self):
        # each column is paired as soon as it converges; the matrix is the
        # pairing of the stored solutions, each with the system assembled
        # at it
        mesh = build_disk_mesh(2.0, h_target=0.2)
        basis = FourierBasis(max_mode=3)
        field = preset_field("isotropic-sin")
        op = dn_operator(field, basis, mesh)
        assert op.nonlinear and op.all_converged
        coef = mesh.bind(field)
        traces = basis.trace_matrix(mesh)
        want = np.empty_like(op.pairing_matrix)
        for j, u in enumerate(op.solutions):
            system = assemble_frozen(mesh, coef, state=u)
            want[:, j] = traces @ (system.matrix @ u)[mesh.boundary]
        np.testing.assert_allclose(op.pairing_matrix, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

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

    @pytest.mark.parametrize("key", ["product", "isotropic"])
    def test_nonlinear_operator_binds_once(self, key):
        # every column solves with the same field on the same mesh, so the
        # operator maps the quadrature points through F^{-1} and DF once
        base = regular_blowup(0.5)
        calls = {"inverse": 0, "jacobian": 0}

        def counted(name, fn):
            def wrapped(pts):
                calls[name] += 1
                return fn(pts)
            return wrapped

        dmap = DiffMap(base.forward, counted("inverse", base.inverse),
                       counted("jacobian", base.jacobian), domain=base.domain)
        inner = preset_field("isotropic-sin") if key == "product" else \
            IsotropicField(lambda p, t: 2.0 + np.sin(t),
                           StructureConstants(1.0, 3.0, 1.0))
        field = pushforward(inner, dmap)
        mesh = build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.3)
        calls.update(inverse=0, jacobian=0)
        op = dn_operator(field, FourierBasis(max_mode=2), mesh)
        assert op.nonlinear and op.all_converged
        assert calls == {"inverse": 1, "jacobian": 1}


def _shell_case(rho):
    # the truncated shell of shell-linear, on a coarse mesh
    mesh = build_disk_mesh(2.0, aligned_radii=(1.0, rho), h_target=0.2,
                           radial_bands=[(1.0, rho, (rho - 1.0) / 4.0)])
    return truncated_singular_cloak(rho, interior=inclusion_field("5I")), mesh


RADIAL_CASES = {
    "identity": lambda: (identity_field(2), build_disk_mesh(2.0, h_target=0.2)),
    "5I": lambda: (inclusion_field("5I"),
                   build_disk_mesh(2.0, h_target=0.2, n_theta=27)),
    # each mode's block of the ring factor is two rows
    "one interior ring": lambda: (inclusion_field("5I"),
                                  build_disk_mesh(1.0, h_target=0.5,
                                                  n_theta=16)),
    "shell-1.5": lambda: _shell_case(1.5),
    "shell-1.1": lambda: _shell_case(1.1),
    "homogenized-radial": lambda: (
        preset_field("homogenized-radial(1.5,0.125)"),
        build_disk_mesh(3.0, aligned_radii=(1.0, 1.25, 1.5, 2.0),
                        h_target=0.2)),
    "sigma-1": lambda: oscillating_case(target=False),
    "sigma-1-target": lambda: oscillating_case(target=True),
}


def _pairing_and_lu_reference(field, mesh, basis):
    """dn_operator as the program runs it, and again on the same mesh built
    without its ring layout, where SuperLU factors every system."""
    bare = bare_mesh(mesh)
    return dn_operator(field, basis, mesh), dn_operator(field, basis, bare)


class TestRingFactor:
    @pytest.mark.parametrize("case", sorted(RADIAL_CASES))
    def test_ring_path_matches_lu(self, case, factors):
        field, mesh = RADIAL_CASES[case]()
        radius = np.linalg.norm(mesh.vertices[mesh.boundary[0]])
        basis = FourierBasis(max_mode=6, radius=float(radius))
        op, ref = _pairing_and_lu_reference(field, mesh, basis)
        assert [kind for kind, _, _ in factors] == ["ring", "splu"]
        M, R = op.pairing_matrix, ref.pairing_matrix
        assert np.abs(M - R).max() <= 1e-10 * np.abs(R).max()
        assert np.abs(op.solutions - ref.solutions).max() <= 1e-10

    # "5I" is on n_theta = 27, where no mode is its own conjugate but 0
    @pytest.mark.parametrize("case", sorted(RADIAL_CASES))
    def test_mode_solve_matches_all_modes(self, case, ring_solves):
        # every Fourier datum, no load: zero off the outer ring, one mode.
        # The ring factor is at most 7.1e-13 off SuperLU (sigma-1), since
        # mode 0's symbol is summed in long double
        field, mesh = RADIAL_CASES[case]()
        system = assemble_frozen(mesh, mesh.bind(field))
        radius = np.linalg.norm(mesh.vertices[mesh.boundary[0]])
        basis = FourierBasis(max_mode=6, radius=float(radius))
        ii = mesh.interior
        for trace, k in zip(basis.trace_matrix(mesh), basis.modes()):
            u = system.solve_dirichlet(trace)
            assert ring_solves[-1] == k
            want = lu_reference(system, trace)
            scale = np.abs(want).max()
            assert np.abs(u - want).max() <= 1e-12 * scale
            full = np.zeros(mesh.n_vertices)
            full[mesh.boundary] = trace
            every = system._factor()._solve_all(
                (system.load - system.matrix @ full)[ii])
            assert np.abs(u[ii] - every).max() <= 1e-12 * scale
        assert system.factor_kind == "ring"

    def test_constant_datum_on_sigma_1(self):
        # the solution is 1 up to the stiffness's row sums (2.3e-13); with
        # mode 0's symbol summed in double by the FFT, the ring solve was
        # 2.7e-12 from it (SuperLU 4.2e-13)
        field, mesh = oscillating_case(target=False)
        system = assemble_frozen(mesh, mesh.bind(field))
        u = system.solve_dirichlet(np.ones(len(mesh.boundary)))
        assert system.factor_kind == "ring"
        assert np.abs(u - 1.0).max() <= 1e-12
        op = dn_operator(field, FourierBasis(max_mode=2, radius=3.0),
                         mesh.layout)
        assert np.abs(op.solutions[0] - 1.0).max() <= 1e-12

    def test_mode_zero_keeps_a_radial_load(self, ring_solves):
        # the center row's right-hand side is its load alone: a radial
        # source reaches it, a boundary datum does not
        mesh = build_disk_mesh(2.0, h_target=0.2, n_theta=27)
        load = mesh.load(lambda p: 1.0 + (p ** 2).sum(axis=1))
        system = assemble_frozen(mesh, mesh.bind(inclusion_field("5I")),
                                 load=load)
        g = np.full(len(mesh.boundary), 0.5)
        u = system.solve_dirichlet(g)
        want = lu_reference(system, g)
        assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max()
        assert ring_solves == [None]

    def test_mode_solve_refuses_other_modes(self, ring_solves):
        # two modes on the outer ring, one of them 1e-9 of the other (a
        # one-mode solve would miss it by 1e-9); or one mode there and a
        # radial load on the rings between r = 0.5 and 1 alone, or on the
        # center alone: each is solved in every mode
        mesh = build_disk_mesh(2.0, h_target=0.2, n_theta=27)
        field = mesh.bind(inclusion_field("5I"))
        theta = mesh.boundary_angles()
        inner = mesh.load(
            lambda p: (abs(np.linalg.norm(p, axis=1) - 0.75) < 0.25) * 1.0)
        center = np.zeros(mesh.n_vertices)
        center[0] = 1.0
        for g, load in [(np.cos(theta) + np.cos(2 * theta), None),
                        (np.cos(theta) + 1e-9 * np.cos(3 * theta), None),
                        (np.cos(theta), inner), (np.cos(theta), center)]:
            system = assemble_frozen(mesh, field, load=load)
            u = system.solve_dirichlet(g)
            want = lu_reference(system, g)
            assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max()
        assert ring_solves == [None] * 4

    def test_linear_operator_never_solves_every_mode(self, ring_solves):
        # the all-mode FFT solve costs twice the one-mode solve; a linear
        # radial operator on a ring mesh must not fall back to it
        field, mesh = _shell_case(1.5)
        basis = FourierBasis(max_mode=4)
        op = dn_operator(field, basis, mesh)
        assert op.factor_kinds == {"ring": 1}
        assert ring_solves == list(basis.modes())

    def test_first_newton_step_solves_one_mode(self, ring_solves):
        # the first step of each nonlinear column, from the zero state, is
        # ring-factored and its datum lies in one mode; every later step
        # is a Newton system, factored by SuperLU
        mesh = build_disk_mesh(2.0, h_target=0.25)
        basis = FourierBasis(3)
        op = dn_operator(preset_field("isotropic-sin"), basis, mesh)
        assert op.nonlinear
        assert op.factor_kinds["ring"] == 7
        assert ring_solves == list(basis.modes())

    def test_residual_check_names_the_factor(self):
        # a field that is not radial, its full 2D data taken as circulant:
        # the ring factor reads the rows at angular index 0 for all rows,
        # and the residual check refuses the solve
        mesh = build_disk_mesh(2.0, h_target=0.2)
        field = constant_field(np.diag([2.0, 3.0]))
        frozen = assemble_frozen(mesh, mesh.bind(field))
        assert not frozen.circulant
        system = fem.SparseSystem(frozen.matrix.data, frozen.load, mesh,
                                  circulant=True)
        g = np.cos(2.0 * mesh.boundary_angles())
        with pytest.raises(NumericalError, match=r"\(ring factor\)"):
            system.solve_dirichlet(g)

    @given(n_theta=st.integers(8, 40),
           layers=st.lists(st.tuples(st.floats(0.2, 1.8), st.floats(0.2, 8.0)),
                           min_size=1, max_size=3,
                           unique_by=lambda layer: round(layer[0], 2)))
    def test_piecewise_radial_pairing(self, n_theta, layers):
        # a radial piecewise-constant isotropic coefficient: value v_i on
        # the annulus between consecutive radii, identity outside the last
        layers = sorted((round(r, 2), v) for r, v in layers)
        radii = [r for r, _ in layers]
        pieces, inner = [], 0.0
        for r, v in layers:
            pieces.append((annulus(inner, r), constant_field(v * np.eye(2))))
            inner = r
        field = piecewise_field(pieces + [(None, identity_field(2))])
        mesh = build_disk_mesh(2.0, aligned_radii=radii, h_target=0.25,
                               n_theta=n_theta)
        basis = FourierBasis(max_mode=3, radius=2.0)
        op, ref = _pairing_and_lu_reference(field, mesh, basis)
        assert op.factor_kinds == {"ring": 1}
        M, R = op.pairing_matrix, ref.pairing_matrix
        scale = np.abs(R).max()
        assert np.abs(M - R).max() <= 1e-10 * scale
        assert np.abs(M - M.T).max() <= 1e-10 * scale
        # rotation invariance makes cos k and sin k eigenvectors of the
        # discrete DN map, so the pairing has no entry off the diagonal
        assert np.abs(M - np.diag(np.diag(M))).max() <= 1e-10 * scale
        # and the DN map is positive semi-definite: the constant is its
        # null vector, every other mode pairs to a positive energy
        assert np.linalg.eigvalsh(0.5 * (M + M.T))[0] >= -1e-10 * scale


class TestRingLayout:
    """A linear radial operator from the ring layout alone, against the
    one-mode solves of the layout's mesh, against SuperLU, and its band
    sums against the nodal norm."""

    @pytest.mark.parametrize("case", sorted(RADIAL_CASES))
    def test_pairing_is_the_one_mode_solves_of_the_mesh(self, case):
        field, mesh = RADIAL_CASES[case]()
        layout = mesh.layout
        radius = np.linalg.norm(mesh.vertices[mesh.boundary[0]])
        basis = FourierBasis(max_mode=6, radius=float(radius))
        op = dn_operator(field, basis, layout)
        assert op.mesh is layout and op.factor_kinds == {"ring": 1}
        traces = basis.trace_matrix(mesh)
        assert np.array_equal(basis.trace_matrix(layout), traces)
        assert np.array_equal(basis.masses(layout), basis.masses(mesh))
        # the same right-hand sides, FFTs, mode solves and flux sums as the
        # circulant system of the mesh, so bit for bit
        system = assemble_frozen(mesh, mesh.bind(field))
        solutions = np.array([system.solve_dirichlet(g) for g in traces])
        assert np.array_equal(op.pairing_matrix,
                              dn_pairing(system, solutions, traces))
        assert np.array_equal(layout.nodal(op.solutions, basis.modes(),
                                           traces), solutions)
        ref = dn_operator(field, basis, bare_mesh(mesh)).pairing_matrix
        assert np.abs(op.pairing_matrix - ref).max() <= \
            1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("k", [0, 1, 3, 4])
    def test_band_sums_are_the_nodal_norm(self, k):
        # the profile's values from the vertex coordinates; with 8 vertices
        # per ring, mode 4 is its own conjugate
        rng = np.random.default_rng(k)
        for mesh in (build_disk_mesh(1.0, h_target=0.5, n_theta=8),
                     build_disk_mesh(2.0, h_target=0.2, n_theta=27),
                     build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.3,
                                     radial_bands=[(0.8, 1.2, 0.05)]),
                     oscillating_case(target=False)[1]):
            layout = mesh.layout
            profile = [1, 1j] @ rng.standard_normal((2, len(layout.rings) + 1))
            if k:
                profile[0] = 0.0
            ring = (np.arange(mesh.n_vertices) - 1) // mesh.n_theta
            angle = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
            want = l2_norm(mesh, (profile[1 + ring]
                                  * np.exp(1j * k * angle)).real)
            assert abs(mode_l2_norm(layout, profile, k) - want) <= 1e-12 * want

    def test_no_solve_of_every_mode(self, monkeypatch):
        def refuse(self, rhs):
            raise AssertionError("solved in every mode")

        monkeypatch.setattr(fem.RingFactor, "_solve_all", refuse)
        layout = disk_layout(2.0, aligned_radii=(1.0, 1.5), h_target=0.2,
                             radial_bands=[(1.0, 1.5, 0.125)])
        field = truncated_singular_cloak(1.5, interior=inclusion_field("5I"))
        op = dn_operator(field, FourierBasis(max_mode=4), layout)
        assert op.factor_kinds == {"ring": 1}
        assert op.solutions.shape == (9, len(layout.rings) + 1)

    def test_residual_check_names_the_factor(self, monkeypatch):
        # every interior ring of each profile 1e-6 off: the residual is
        # 1e-6 of the right-hand side
        real = fem.RingFactor.mode_profile

        def off(self, coefficient, k):
            p = real(self, coefficient, k)
            p[1:] *= 1.0 + 1e-6
            return p

        monkeypatch.setattr(fem.RingFactor, "mode_profile", off)
        with pytest.raises(NumericalError, match=r"\(ring factor\)"):
            dn_operator(identity_field(2), FourierBasis(max_mode=2),
                        disk_layout(2.0, h_target=0.2))


class TestJson:
    def make_op(self):
        basis = FourierBasis(max_mode=2)
        rng = np.random.default_rng(7)
        M = rng.standard_normal((basis.size, basis.size))
        return DtNOperator(basis, M, coefficient="demo", nonlinear=True,
                           converged=[True, False, True, True, True])

    def test_round_trip_text(self, tmp_path):
        op = self.make_op()
        path = tmp_path / "op.json"
        op.to_json(path)
        back = DtNOperator.from_json(path)
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

    def test_loaded_operator_has_no_solutions(self, tmp_path):
        mesh = build_disk_mesh(2.0, h_target=0.4)
        op = dn_operator(identity_field(2), FourierBasis(2), mesh)
        assert op.mesh is mesh and op.iterations == [1] * 5
        path = tmp_path / "op.json"
        op.to_json(path)
        back = DtNOperator.from_json(path)
        assert back.solutions is None and back.iterations is None
        assert back.mesh is None


def theta(u):
    """Kirchhoff transform of a(u) = 2 + sin u: Theta' = a, Theta(0) = 0."""
    return 2.0 * u + 1.0 - np.cos(u)


def theta_data(basis, n=512):
    """Column j: the basis coefficients of Theta(f_j), by FFT on n angles.

    Index 0 is cos(0 theta), odd indices cos(m theta), even sin(m theta).
    """
    angles = 2.0 * np.pi * np.arange(n) / n
    out = np.zeros((basis.size, basis.size))
    for j, m in enumerate(basis.modes()):
        f = np.cos(m * angles) if j % 2 or j == 0 else np.sin(m * angles)
        c = np.fft.rfft(theta(f))[:basis.max_mode + 1] / n
        out[0, j] = c[0].real
        out[1::2, j] = 2.0 * c[1:].real
        out[2::2, j] = -2.0 * c[1:].imag
    return out


def kirchhoff_pairing(basis, n=512):
    """Exact DN pairing of A = (2 + sin u) I at unit-amplitude data.

    Theta(u) is harmonic with trace Theta(f). Its normal derivative on the
    circle of radius R is sum_m (m / R) (a_m cos + b_m sin) over the
    Fourier coefficients of Theta(f), and pairing with cos m / sin m over
    the arc gives m pi a_m / m pi b_m.
    """
    return (np.pi * basis.modes())[:, None] * theta_data(basis, n)


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

    def test_pushforward_pairing_converges_at_second_order(self):
        # F_*(a(u) I) = a(u) F_*I, and the blow-up fixes the outer circle,
        # so the push-forward has the exact pairing of (2 + sin u) I
        field = pushforward(preset_field("isotropic-sin"), regular_blowup(0.5))
        basis = FourierBasis(max_mode=3, radius=2.0)
        exact = kirchhoff_pairing(basis)
        errs = []
        for h in (0.2, 0.1):
            mesh = build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=h)
            op = dn_operator(field, basis, mesh)
            assert op.nonlinear and op.all_converged
            errs.append(np.abs(op.pairing_matrix - exact).max()
                        / np.abs(exact).max())
        assert errs[0] <= 2e-2
        assert errs[1] <= 5e-3
        assert errs[0] / errs[1] >= 3.5

    def test_product_shell_is_the_linear_shell_on_transformed_data(self):
        # div(a(u) B grad u) = div(B grad Theta(u)): the column of a(u) B
        # with datum f_j is the linear B operator applied to Theta(f_j).
        # B is radial, so its operator keeps modes apart, and the modes of
        # Theta(f_j) above the basis never meet a trace of the basis
        shell = truncated_singular_cloak(1.5)
        field = ProductField(lambda t: 2.0 + np.sin(t), (1.0, 3.0, 1.0),
                             shell)
        basis = FourierBasis(max_mode=3, radius=2.0)
        data = theta_data(basis)
        errs = []
        for h in (0.1, 0.05):
            mesh = build_disk_mesh(2.0, aligned_radii=(1.0, 1.5), h_target=h)
            want = dn_operator(shell, basis, mesh).pairing_matrix @ data
            op = dn_operator(field, basis, mesh)
            assert op.nonlinear and op.all_converged
            errs.append(np.abs(op.pairing_matrix - want).max()
                        / np.abs(want).max())
        assert errs[0] <= 1e-3
        assert errs[1] <= 2.5e-4
        assert errs[0] / errs[1] >= 3.5


def inclusion_pairing(sigma, r, radius, k):
    """Exact pairing of cos k theta (and of sin k theta) for sigma I on
    B_r inside the identity on B_radius.

    Outside the inclusion u = A (rho^k + b rho^-k) cos k theta, inside
    c rho^k cos k theta. Continuity of u and of the flux at r give
    b = -mu r^2k with mu = (sigma - 1)/(sigma + 1); at the outer circle
    the pairing is then pi k (1 + mu q^2k)/(1 - mu q^2k) with q = r/radius.
    """
    mu, q2k = (sigma - 1.0) / (sigma + 1.0), (r / radius) ** (2 * k)
    return np.pi * k * (1.0 + mu * q2k) / (1.0 - mu * q2k)


class TestNearCloakOracle:
    def test_inclusion_pairing_matches_closed_form(self):
        # 5I on B_0.5 is the near-cloak of scale 0.5; the rotation
        # invariance of both pieces keeps every mode to itself
        field = transformed_inner_tensor(constant_field(5.0 * np.eye(2)), 0.5)
        basis = FourierBasis(max_mode=4, radius=2.0)
        exact = inclusion_pairing(5.0, 0.5, 2.0, np.arange(1, 5))
        errs = []
        for h in (0.2, 0.1):
            mesh = build_disk_mesh(2.0, aligned_radii=(0.5,), h_target=h)
            pairing = dn_operator(field, basis, mesh).pairing_matrix
            diag = np.diag(pairing)
            errs.append(max(np.abs(diag[1::2] / exact - 1.0).max(),
                            np.abs(diag[2::2] / exact - 1.0).max()))
            off = np.abs(pairing - np.diag(diag)).max()
            assert off <= 1e-12 * np.abs(pairing).max()
        # first order only: the interface rows of triangles take the
        # inclusion value at the chord midpoints inside B_r
        assert errs[0] <= 3e-2
        assert errs[0] / errs[1] >= 1.7


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


class TestNeumannTrace:
    def test_self_is_zero(self):
        mesh = build_disk_mesh(2.0, h_target=0.2)
        op = dn_operator(identity_field(2), FourierBasis(2), mesh)
        assert neumann_trace_error(op, op, 1) == 0.0

    def test_closed_form_against_zero_flux(self):
        # the cos 2theta datum (column 3) has the solution (r/2)^2 cos 2theta,
        # with flux 2 pi against cos 2theta and none against the other
        # traces, each of mass 2 pi; a zero pairing has no flux, so the
        # weighted norm is sqrt(sqrt(5) (2 pi)^2 / 2 pi)
        basis = FourierBasis(2)
        want = np.sqrt(np.sqrt(5.0) * (2.0 * np.pi) ** 2 / (2.0 * np.pi))
        errs = []
        for h in (0.2, 0.1):
            mesh = build_disk_mesh(2.0, h_target=h)
            op = dn_operator(identity_field(2), basis, mesh)
            zero = DtNOperator(basis, np.zeros((basis.size, basis.size)),
                               mesh=mesh)
            got = neumann_trace_error(op, zero, 3)
            errs.append(abs(got - want) / want)
        assert errs[0] <= 4e-3
        assert errs[1] <= 1e-3
        assert errs[0] / errs[1] >= 3.5

    def test_pairing_column_is_the_band_flux(self):
        # where the coefficient is the identity near the boundary, the
        # boundary rows of the stiffness come from the identity alone, so
        # the pairing column equals the flux of an identity stiffness
        # assembled on that band only
        mesh = build_disk_mesh(2.0, aligned_radii=(0.4,), h_target=0.2)
        basis = FourierBasis(3)
        op = dn_operator(transformed_inner_tensor(inclusion_field("5I"), 0.4),
                         basis, mesh)
        inside = annulus(1.5, 2.0).contains(
            mesh.vertices[mesh.triangles].mean(axis=1))
        eye = np.broadcast_to(np.eye(2), (int(inside.sum()), 2, 2))
        pattern = P1Pattern(mesh.triangles[inside], mesh.n_vertices)
        band = pattern.matrix(p1_stiffness(mesh.areas[inside],
                                           mesh.grads[inside], eye, pattern))
        traces = basis.trace_matrix(mesh)
        for j in range(basis.size):
            flux = traces @ (band @ op.solutions[j])[mesh.boundary]
            assert np.abs(flux - op.pairing_matrix[:, j]).max() <= \
                1e-12 * np.abs(op.pairing_matrix).max()

    def test_operators_on_other_meshes_or_bases_refused(self, tmp_path):
        mesh = build_disk_mesh(2.0, h_target=0.3)
        op = dn_operator(identity_field(2), FourierBasis(2), mesh)
        path = tmp_path / "op.json"
        op.to_json(path)
        others = [
            dn_operator(identity_field(2), FourierBasis(2),
                        build_disk_mesh(2.0, h_target=0.3)),
            DtNOperator.from_json(path),
            dn_operator(identity_field(2), FourierBasis(3), mesh),
        ]
        for other in others:
            with pytest.raises(PreconditionError):
                neumann_trace_error(op, other, 1)
            with pytest.raises(PreconditionError):
                neumann_trace_error(other, op, 1)
