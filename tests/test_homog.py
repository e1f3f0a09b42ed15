import numpy as np
import pytest

from cloaksim.errors import NumericalError, PreconditionError
from cloaksim.homog import (CellProblem, HomogenizedTensor, RadialCloakSpec,
                            RadialTable, build_isotropic_cloak_sequence,
                            cell_lipschitz, cell_means, cloak_targets,
                            default_schedule, fit_cloak_amplitudes,
                            lipschitz_in_t, phi, phi_M, radial_homogenized,
                            solve_cell, zeta)


class TestCutoffs:
    def test_phi_breakpoints(self):
        assert phi(-1.0) == 0.0
        assert phi(0.0) == 0.0
        assert phi(1.0) == 0.5
        assert phi(2.0) == 1.0
        assert phi(3.0) == 1.0
        assert abs(phi(0.5) - 0.125) < 1e-15
        assert abs(phi(1.5) - 0.875) < 1e-15

    def test_phi_monotone(self):
        t = np.linspace(-1.0, 3.0, 400)
        v = phi(t)
        assert np.all(np.diff(v) >= -1e-15)

    def test_phi_m_plateau_and_support(self):
        M = 8
        t = np.array([0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 8.0, -0.5, 9.0])
        v = phi_M(t, M)
        assert v[0] == 0.0 and v[6] == 0.0
        assert v[2] == 1.0 and v[3] == 1.0 and v[4] == 1.0
        assert abs(v[1] - 0.5) < 1e-15 and abs(v[5] - 0.5) < 1e-15
        assert v[7] == 0.0 and v[8] == 0.0

    def test_phi_m_needs_plateau(self):
        with pytest.raises(PreconditionError):
            phi_M(1.0, 3)

    def test_zeta_halves_of_the_period(self):
        # first bump on [0, 1/2), second on [1/2, 1)
        u = np.linspace(0.0, 1.0, 201)[:-1]
        z1 = zeta(1, u)
        z2 = zeta(2, u)
        assert np.all(z1[u >= 0.5] == 0.0)
        assert np.all(z2[u < 0.5] == 0.0)
        assert z1.max() == 1.0 and z2.max() == 1.0

    def test_zeta_shift_identity(self):
        u = np.linspace(0.0, 2.0, 315)
        assert np.abs(zeta(2, u) - zeta(1, u - 0.5)).max() < 1e-15

    def test_zeta_periodic(self):
        u = np.linspace(0.0, 1.0, 97)
        assert np.abs(zeta(1, u + 3.0) - zeta(1, u)).max() < 1e-12

    def test_zeta_index_checked(self):
        with pytest.raises(PreconditionError):
            zeta(3, 0.1)


class TestCellMeans:
    def test_flat_profile(self):
        h, m = cell_means(0.0, 0.0)
        assert h == 1.0 and m == 1.0

    def test_mean_inequality(self):
        h, m = cell_means(0.9, 0.4)
        assert 0.0 < h < m

    def test_degenerate_profile_refused(self):
        with pytest.raises(NumericalError):
            cell_means(0.0, 1.0)


class TestAmplitudeFit:
    def test_identity_targets(self):
        assert fit_cloak_amplitudes(1.0, 1.0) == (0.0, 0.0)

    def test_pinned_transformation_point(self):
        # targets of the shell map at radius 3/2
        a1, a2 = fit_cloak_amplitudes(1.0 / 3.0, 3.0)
        assert abs(a1 - 1.734391) < 1e-5
        assert abs(a2 - 0.649049) < 1e-5
        h, m = cell_means(a1, a2)
        assert abs(h - 1.0 / 3.0) < 1e-10
        assert abs(m - 3.0) < 1e-10

    def test_pinned_flattened_point(self):
        a1, a2 = fit_cloak_amplitudes(2.0 / 9.0, 2.0)
        assert abs(a1 - 1.176386) < 1e-5
        assert abs(a2 - 0.720647) < 1e-5

    def test_round_trip_from_amplitudes(self):
        h, m = cell_means(0.8, 0.5)
        a1, a2 = fit_cloak_amplitudes(h, m, tol=1e-13)
        hh, mm = cell_means(a1, a2)
        assert abs(hh - h) < 1e-10 and abs(mm - m) < 1e-10

    def test_order_violation_rejected(self):
        with pytest.raises(PreconditionError):
            fit_cloak_amplitudes(2.0, 1.0)
        with pytest.raises(PreconditionError):
            fit_cloak_amplitudes(-1.0, 1.0)

    def test_equal_targets_off_one_unattainable(self):
        with pytest.raises(NumericalError):
            fit_cloak_amplitudes(2.0, 2.0)


class TestCloakTargets:
    def test_transformation_annulus_values(self):
        h, m = cloak_targets(1.5, R=1.25, eta=0.0625)
        assert abs(h - 1.0 / 3.0) < 1e-14
        assert abs(m - 3.0) < 1e-14

    def test_flattened_annulus_values(self):
        h, m = cloak_targets(1.5, R=1.25, eta=0.0625, profile="flattened")
        assert abs(h - 2.0 / 9.0) < 1e-14
        assert abs(m - 2.0) < 1e-14

    def test_outside_is_identity(self):
        h, m = cloak_targets(2.7, R=1.5, eta=0.1)
        assert h == 1.0 and m == 1.0

    def test_floor_reaches_psi(self):
        # two transition widths below R the blend is complete
        h, m = cloak_targets(1.5 - 0.3, R=1.5, eta=0.1, psi=2.0)
        assert abs(h - 2.0) < 1e-14
        assert abs(m - 2.0) < 1e-14

    def test_vectorized_matches_scalar(self):
        r = np.array([0.5, 1.2, 1.4, 1.7, 2.3])
        hv, mv = cloak_targets(r, R=1.5, eta=0.1)
        for i, ri in enumerate(r):
            hs, ms = cloak_targets(float(ri), R=1.5, eta=0.1)
            assert abs(hv[i] - hs) < 1e-15
            assert abs(mv[i] - ms) < 1e-15

    def test_bad_inputs_rejected(self):
        with pytest.raises(PreconditionError):
            cloak_targets(1.5, R=2.5, eta=0.1)
        with pytest.raises(PreconditionError):
            cloak_targets(1.5, R=1.5, eta=0.0)
        with pytest.raises(PreconditionError):
            cloak_targets(1.5, R=1.5, eta=0.1, profile="nope")


class TestHomogenizedTensor:
    def constant_tensor(self):
        return HomogenizedTensor(lambda r, t: (2.0, 5.0), name="const")

    def test_eval_axis_point(self):
        T = self.constant_tensor()
        got = T.eval(np.array([1.3, 0.0]))
        assert np.abs(got - np.diag([2.0, 5.0])).max() < 1e-14

    def test_eval_rotated_eigenstructure(self):
        T = self.constant_tensor()
        p = np.array([1.0, 1.0]) / np.sqrt(2.0)
        got = T.eval(p)
        rad = p @ got @ p
        tan = np.array([-p[1], p[0]]) @ got @ np.array([-p[1], p[0]])
        assert abs(rad - 2.0) < 1e-14
        assert abs(tan - 5.0) < 1e-14

    def test_origin_rejected(self):
        with pytest.raises(PreconditionError):
            self.constant_tensor().eval(np.array([0.0, 0.0]))

    def test_cache_exact_at_nodes(self):
        T = HomogenizedTensor(lambda r, t: (1.0 + r, 2.0 + r * r))
        rs = np.linspace(0.2, 2.0, 10)
        C = T.with_cache(rs)
        for r in rs:
            p = np.array([r, 0.0])
            assert np.abs(C.eval(p) - T.eval(p)).max() < 1e-12

    def test_table_bilinear_and_clamped(self):
        # a bilinear function is reproduced inside the lattice; outside,
        # radius and state hold their end values
        rs = np.array([0.5, 1.0, 2.0, 3.0])
        ts = np.array([-1.0, 0.0, 2.0])
        R, T = np.meshgrid(rs, ts, indexing="ij")
        tab = RadialTable(rs, ts, np.stack([1 + R * T, 2 - R], axis=2))
        r = np.array([0.7, 1.3, 2.9, 0.1, 4.0])
        t = np.array([-0.5, 1.0, 0.3, 5.0, -3.0])
        re, te = np.clip(r, 0.5, 3.0), np.clip(t, -1.0, 2.0)
        got = tab.batch(r, t)
        assert np.abs(got[0] - (1 + re * te)).max() < 1e-14
        assert np.abs(got[1] - (2 - re)).max() < 1e-14
        assert tab(1.3, 1.0) == pytest.approx((2.3, 0.7), abs=1e-14)

    def test_as_field_matches_eval(self):
        T = HomogenizedTensor(lambda r, t: (1.5, 2.5))
        f = T.as_field()
        pts = np.array([[0.5, 0.2], [-1.0, 0.7]])
        want = T.eval(pts)
        got = f.eval(pts, np.zeros(2))
        assert np.abs(got - want).max() < 1e-12

    def test_lipschitz_zero_when_state_free(self):
        rep = lipschitz_in_t(self.constant_tensor(), [0.0, 0.5, 1.0],
                             np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert rep.max_ratio == 0.0

    def test_lipschitz_finite_when_state_matters(self):
        T = HomogenizedTensor(lambda r, t: (2.0 + np.sin(t), 2.0 + np.sin(t)))
        rep = lipschitz_in_t(T, np.linspace(0.0, 1.0, 5),
                             np.array([[1.0, 0.0]]))
        assert 0.0 < rep.max_ratio <= 1.01


class TestRadialHomogenized:
    def test_laminate_means(self):
        # alternating {1, 4}: harmonic 1.6, arithmetic 2.5
        T = radial_homogenized(
            lambda r, s, t: np.where(np.asarray(s) < 0.5, 1.0, 4.0))
        h, m = T.means(1.0, 0.0)
        assert abs(h - 1.6) < 1e-6
        assert abs(m - 2.5) < 1e-6

    def test_smooth_profile_means(self):
        # 2 + cos(2 pi s): arithmetic 2, harmonic sqrt(3)
        T = radial_homogenized(lambda r, s, t: 2.0 + np.cos(2 * np.pi *
                                                            np.asarray(s)))
        h, m = T.means(1.0, 0.0)
        assert abs(h - np.sqrt(3.0)) < 1e-9
        assert abs(m - 2.0) < 1e-9

    def test_nonpositive_profile_refused(self):
        T = radial_homogenized(
            lambda r, s, t: np.cos(2 * np.pi * np.asarray(s)))
        with pytest.raises(NumericalError):
            T.means(1.0, 0.0)


def laminate_cell(lo=1.0, hi=4.0):
    def a(p):
        return np.where(p[:, 0] % 1.0 < 0.5, lo, hi)
    return a


class TestCellProblems:
    def test_laminate_tensor(self):
        sol = solve_cell(CellProblem(laminate_cell(), resolution=(64, 64)))
        want = np.diag([1.6, 2.5])
        assert np.abs(sol.tensor - want).max() < 1e-4
        assert sol.mean_residual < 1e-12

    def test_constant_cell_exact(self):
        sol = solve_cell(CellProblem(lambda p: np.full(len(p), 3.0),
                                     resolution=(8, 8)))
        assert np.abs(sol.tensor - 3.0 * np.eye(2)).max() < 1e-10
        assert np.abs(sol.correctors).max() < 1e-10

    def test_checkerboard_isotropic_geometric_mean(self):
        def a(p):
            qx = p[:, 0] % 1.0 < 0.5
            qy = p[:, 1] % 1.0 < 0.5
            return np.where(qx == qy, 1.0, 4.0)
        sol = solve_cell(CellProblem(a, resolution=(64, 64)))
        T = sol.tensor
        assert abs(T[0, 1]) < 1e-10 and abs(T[0, 0] - T[1, 1]) < 1e-10
        # continuum value is the geometric mean 2; the crossed grid
        # overshoots slightly at this resolution
        assert abs(T[0, 0] - 2.0) < 0.02

    def test_smooth_laminate_matches_radial_quadrature(self):
        def a(p):
            return 2.0 + np.cos(2 * np.pi * p[:, 0])
        sol = solve_cell(CellProblem(a, resolution=(64, 64)))
        assert abs(sol.tensor[0, 0] - np.sqrt(3.0)) < 5e-3
        assert abs(sol.tensor[1, 1] - 2.0) < 5e-3

    def test_voigt_reuss_bounds(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            c = rng.uniform(-0.8, 0.8, size=4)

            def a(p, c=c):
                x, y = p[:, 0], p[:, 1]
                return np.exp(c[0] * np.sin(2 * np.pi * x)
                              + c[1] * np.cos(2 * np.pi * y)
                              + c[2] * np.sin(2 * np.pi * (x + y))
                              + c[3])
            sol = solve_cell(CellProblem(a, resolution=(16, 16)))
            harm, arith = sol.bounds
            ev = np.linalg.eigvalsh(sol.tensor)
            assert harm - 1e-10 <= ev.min()
            assert ev.max() <= arith + 1e-10

    def test_resolution_floor(self):
        with pytest.raises(PreconditionError):
            solve_cell(CellProblem(laminate_cell(), resolution=(1, 8)))

    def test_asymmetric_cell_refused(self):
        def a(p):
            out = np.tile(np.eye(2), (len(p), 1, 1))
            out[:, 0, 1] = 0.3
            return out
        with pytest.raises(PreconditionError):
            solve_cell(CellProblem(a, resolution=(8, 8)))

    def test_cell_lipschitz_reports(self):
        def factory(t):
            def a(p, t=t):
                return np.full(len(p), 2.0 + np.sin(t))
            return a
        rep = cell_lipschitz(factory, [0.0, 0.4, 0.8], resolution=(8, 8))
        assert 0.0 < rep.max_ratio <= 1.01
        assert rep.corrector_ratio < 1e-8

        flat = cell_lipschitz(lambda t: laminate_cell(), [0.0, 1.0],
                              resolution=(8, 8))
        assert flat.max_ratio == 0.0


class TestSchedule:
    def test_default_values(self):
        sched = default_schedule(4)
        want = [(1.0 + 0.5 ** n, 0.5 ** n / 4.0, 0.5 ** n / 16.0)
                for n in range(1, 5)]
        assert sched == want


@pytest.fixture(scope="module")
def spec():
    return RadialCloakSpec(1.5, 0.125, 0.03125, r_spacing=0.05)


class TestRadialCloakSpec:
    def test_residual_bound(self, spec):
        assert spec.max_residual <= 1e-10

    def test_fallback_on_sealed_floor(self, spec):
        # deep inside, both targets equal psi and no oscillating profile
        # attains them; those points must fall back and be counted
        assert spec.n_fallback > 0
        assert spec.sigma(0.3) == pytest.approx(2.0, abs=1e-12)

    def test_identity_outside(self, spec):
        assert spec.sigma(2.5) == 1.0
        assert np.all(spec.sigma(np.array([2.01, 2.7, 2.99])) == 1.0)

    def test_sigma_range_matches_amplitudes(self, spec):
        rs = np.linspace(0.01, 1.999, 4001)
        vals = spec.sigma(rs)
        lo = (1.0 - spec.a2.max()) ** 2
        hi = (1.0 + spec.a1.max()) ** 2
        assert vals.min() >= lo * 0.98 - 1e-12
        assert vals.max() <= hi * 1.02 + 1e-12
        assert vals.max() > 2.0     # it genuinely oscillates

    def test_field_adapter(self, spec):
        f = spec.field()
        pts = np.array([[2.5, 0.0], [0.0, 2.5]])
        got = f.eval(pts, np.zeros(2))
        assert np.abs(got - np.eye(2)).max() < 1e-14
        assert f.constants.alpha > 0.0

    def test_homogenized_reference(self, spec):
        T = spec.homogenized()
        h, m = T.means(1.75, 0.0)
        hw, mw = cloak_targets(1.75, R=1.5, eta=0.125)
        assert abs(h - hw) < 1e-6
        assert abs(m - mw) < 1e-6
        h2, m2 = T.means(2.5, 0.0)
        assert abs(h2 - 1.0) < 1e-9 and abs(m2 - 1.0) < 1e-9

    def test_abort_mode_raises(self):
        with pytest.raises(NumericalError):
            RadialCloakSpec(1.5, 0.125, 0.03125, r_spacing=0.05,
                            on_infeasible="abort")

    def test_state_dependent_floor(self):
        spec = RadialCloakSpec(1.5, 0.125, 0.03125, r_spacing=0.1,
                               psi=lambda r, t: 2.0 + t, t_grid=(0.0, 1.0))
        assert spec.sigma(0.3, 0.0) == pytest.approx(2.0, abs=1e-9)
        assert spec.sigma(0.3, 1.0) == pytest.approx(3.0, abs=1e-9)

    def test_bad_inputs(self):
        with pytest.raises(PreconditionError):
            RadialCloakSpec(2.5, 0.1, 0.01)
        with pytest.raises(PreconditionError):
            RadialCloakSpec(1.5, -0.1, 0.01)
        with pytest.raises(PreconditionError):
            RadialCloakSpec(1.5, 0.1, 0.01, on_infeasible="ignore")


class TestSequence:
    def test_default_sequence(self):
        seq = build_isotropic_cloak_sequence(n_terms=2)
        assert len(seq) == 2
        assert seq[0].R == 1.5 and seq[1].R == 1.25
        assert seq[0].eps > seq[1].eps

    def test_monotonicity_enforced(self):
        with pytest.raises(PreconditionError):
            build_isotropic_cloak_sequence(R_seq=[1.5, 1.6],
                                           eta_seq=[0.1, 0.05],
                                           eps_seq=[0.02, 0.01])

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            build_isotropic_cloak_sequence(R_seq=[1.5], eta_seq=[0.1, 0.05],
                                           eps_seq=[0.02, 0.01])
