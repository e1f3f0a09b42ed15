import numpy as np
import pytest

from cloaksim import fem
from cloaksim.coeff import IsotropicField, StructureConstants, identity_field
from cloaksim.dnmap import FourierBasis
from cloaksim.errors import PreconditionError
from cloaksim.fem import assemble_frozen, build_disk_mesh, l2_norm
from cloaksim.geometry import DiffMap, pushforward, regular_blowup
from cloaksim.presets import preset_field
from cloaksim.qsolve import PicardConfig, solve_quasilinear


def sin_field():
    # depends on the state alone, so it declares itself radial
    return IsotropicField(lambda p, t: 2.0 + np.sin(t),
                          StructureConstants(1.0, 3.0, 1.0), name="2+sin(t)",
                          radial=True)


class TestConfig:
    def test_defaults(self):
        cfg = PicardConfig()
        assert cfg.tol == 1e-8
        assert cfg.max_iter == 200

    @pytest.mark.parametrize("kw", [dict(tol=0.0), dict(tol=2.0),
                                    dict(max_iter=0)])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(PreconditionError):
            PicardConfig(**kw)


class TestLinear:
    def test_single_iteration(self):
        # a state-independent coefficient needs exactly one solve
        mesh = build_disk_mesh(2.0, h_target=0.2)
        res = solve_quasilinear(mesh, identity_field(2),
                                lambda p: p[:, 0])
        assert res.converged
        assert res.iterations == 1
        assert np.abs(res.u - mesh.vertices[:, 0]).max() < 2e-2

    def test_result_carries_system(self):
        mesh = build_disk_mesh(1.0, h_target=0.3)
        res = solve_quasilinear(mesh, identity_field(2),
                                np.zeros(len(mesh.boundary)))
        assert res.system is not None
        assert res.system.mesh is mesh
        assert res.u.shape == (mesh.n_vertices,)


class TestPicard:
    def test_two_starts_agree(self):
        # the fixed point is unique, so the start must not matter beyond
        # the stopping tolerance
        mesh = build_disk_mesh(2.0, h_target=0.2)
        cfg = PicardConfig(tol=1e-10)
        bv = lambda p: np.cos(np.arctan2(p[:, 1], p[:, 0]))
        cold = solve_quasilinear(mesh, sin_field(), bv, config=cfg)
        warm = solve_quasilinear(mesh, sin_field(), bv, config=cfg,
                                 warm_start=np.full(mesh.n_vertices, 0.7))
        assert cold.converged and warm.converged
        gap = l2_norm(mesh, cold.u - warm.u)
        assert gap <= 10.0 * cfg.tol

    def test_updates_recorded_and_shrinking(self):
        mesh = build_disk_mesh(2.0, h_target=0.25)
        bv = lambda p: p[:, 0]
        res = solve_quasilinear(mesh, sin_field(), bv)
        assert res.converged
        assert len(res.updates) == res.iterations
        assert res.updates[-1] <= 1e-8
        # contraction: the tail is far below the head
        assert res.updates[-1] < 1e-3 * max(res.updates[0], 1e-20)

    def test_iteration_budget_respected(self):
        mesh = build_disk_mesh(1.0, h_target=0.3)
        cfg = PicardConfig(tol=1e-14, max_iter=2)
        res = solve_quasilinear(mesh, sin_field(), lambda p: p[:, 0],
                                config=cfg)
        assert not res.converged
        assert res.iterations == 2

    def test_unconverged_system_is_assembled_at_u(self):
        # a solve stopped by its budget still returns the system of the
        # state it returns, so dn_pairing reads the flux of that state
        mesh = build_disk_mesh(2.0, h_target=0.2)
        field = preset_field("isotropic-sin")
        res = solve_quasilinear(mesh, field, np.cos(mesh.boundary_angles()),
                                config=PicardConfig(max_iter=2))
        assert not res.converged
        at_u = assemble_frozen(mesh, mesh.bind(field), state=res.u).matrix
        rows = mesh.boundary
        gap = abs(res.system.matrix[rows] - at_u[rows]).max()
        assert gap <= 1e-12 * abs(at_u[rows]).max()

    def test_warm_start_near_solution_is_fast(self):
        mesh = build_disk_mesh(1.0, h_target=0.25)
        bv = lambda p: p[:, 0]
        first = solve_quasilinear(mesh, sin_field(), bv)
        again = solve_quasilinear(mesh, sin_field(), bv,
                                  warm_start=first.u)
        assert again.converged
        assert again.iterations <= 2

    def test_bad_boundary_shape_rejected(self):
        mesh = build_disk_mesh(1.0, h_target=0.3)
        with pytest.raises(PreconditionError):
            solve_quasilinear(mesh, sin_field(), np.zeros(3))

    def test_one_factorization_per_iteration(self, factors):
        # the system re-assembled at convergence is only paired, never
        # split or factored; the first step, at the radial zero state, is
        # rotation-equivariant and the later ones are not; the last step
        # is a chord step on the factor of the Newton step before it
        mesh = build_disk_mesh(2.0, h_target=0.2)
        res = solve_quasilinear(mesh, sin_field(),
                                np.cos(mesh.boundary_angles()))
        assert res.converged and res.iterations > 1
        kinds = [kind for kind, _, _ in factors]
        assert kinds == ["ring"] + ["splu"] * (res.iterations - 2)
        assert res.factor_kinds["chord"] == 1

    def test_source_evaluated_once_per_solve(self):
        # the load does not depend on the state, so a Picard solve
        # integrates it once, not once per step
        calls = []

        def source(pts):
            calls.append(len(pts))
            return np.ones(len(pts))

        mesh = build_disk_mesh(1.0, h_target=0.2)
        res = solve_quasilinear(mesh, sin_field(), lambda p: p[:, 0],
                                source=source)
        assert res.converged and res.iterations > 2
        assert calls == [len(mesh.midpoints)]

    def test_pushforward_maps_points_once(self):
        # F^{-1} and DF at the quadrature points do not depend on the
        # state, so a Picard solve computes them once, not once per step
        base = regular_blowup(0.5)
        calls = {"inverse": 0, "jacobian": 0}

        def counted(name, fn):
            def wrapped(pts):
                calls[name] += 1
                return fn(pts)
            return wrapped

        dmap = DiffMap(base.forward, counted("inverse", base.inverse),
                       counted("jacobian", base.jacobian),
                       domain=base.domain)
        field = pushforward(sin_field(), dmap)
        mesh = build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.3)
        calls.update(inverse=0, jacobian=0)
        res = solve_quasilinear(mesh, field, np.cos(mesh.boundary_angles()))
        assert res.converged and res.iterations > 2
        assert calls == {"inverse": 1, "jacobian": 1}


class TestNewton:
    def test_updates_shrink_quadratically(self):
        # after the first Newton step each update is at most ten times the
        # square of the one before, until the updates reach roundoff
        field = pushforward(preset_field("isotropic-sin"), regular_blowup(0.5))
        mesh = build_disk_mesh(2.0, aligned_radii=(1.0,), h_target=0.2)
        res = solve_quasilinear(mesh, field,
                                np.cos(3.0 * mesh.boundary_angles()),
                                config=PicardConfig(tol=1e-14))
        assert res.converged and not res.damping_activated
        upd = res.updates[1:]
        checked = 0
        for a, b in zip(upd, upd[1:]):
            if b <= 1e-13:
                break
            assert b <= 10.0 * a ** 2, res.updates
            checked += 1
        assert checked >= 3, res.updates

    def test_safeguard_takes_picard_steps(self):
        # the datum 100 cos(theta) sweeps (2 + sin u) through many periods;
        # a Newton update that does not shrink is replaced by the Picard
        # step, and the iteration still reaches the fixed point
        mesh = build_disk_mesh(1.0, h_target=0.2)
        res = solve_quasilinear(mesh, sin_field(),
                                100.0 * np.cos(mesh.boundary_angles()))
        assert res.damping_activated
        assert res.converged and res.updates[-1] <= 1e-8
        ii = mesh.interior
        resid = (res.system.matrix @ res.u - res.system.load)[ii]
        scale = np.abs(res.system.matrix).max() * np.abs(res.u).max()
        assert np.abs(resid).max() <= 1e-8 * scale

    @pytest.mark.parametrize("datum", [1, 5, 16])
    def test_returned_state_solves_the_discrete_problem(self, datum):
        # the last step reuses a factor, so the returned u is checked
        # against the problem itself: K(u) u = load on every interior row
        mesh = build_disk_mesh(2.0, h_target=0.1)
        trace = FourierBasis(max_mode=8).trace_matrix(mesh)[datum]
        res = solve_quasilinear(mesh, preset_field("isotropic-sin"), trace)
        assert res.converged and not res.damping_activated
        assert res.factor_kinds["chord"] == 1
        resid = res.system.matrix @ res.u - res.system.load
        flux = np.linalg.norm(resid[mesh.boundary])
        assert np.linalg.norm(resid[mesh.interior]) <= 1e-12 * flux

    def test_chord_step_waits_for_a_small_newton_update(self, monkeypatch):
        # a step reuses the last Newton factor only after a Newton update
        # of at most sqrt(tol). The Newton update that admits the chord
        # step at tol 1e-8 lies above sqrt(1e-14), so at tol 1e-14 that
        # step is a Newton step and the chord step comes one step later
        steps = []
        real = fem.SparseSystem.solve_dirichlet

        def recording(system, g):
            u = real(system, g)
            steps.append(system.factor_kind)
            return u

        monkeypatch.setattr(fem.SparseSystem, "solve_dirichlet", recording)
        mesh = build_disk_mesh(2.0, h_target=0.2)
        bv = np.cos(mesh.boundary_angles())
        loose = solve_quasilinear(mesh, sin_field(), bv)
        loose_steps, steps[:] = steps[:], []
        tight = solve_quasilinear(mesh, sin_field(), bv,
                                  config=PicardConfig(tol=1e-14))
        n = loose.iterations
        assert loose.converged and tight.converged
        assert not (loose.damping_activated or tight.damping_activated)
        assert 1e-7 < loose.updates[n - 2] <= 1e-4
        assert tight.iterations == n + 1
        lu = {"lu", "lu-reordered"}
        for got, newton_steps in ((loose_steps, n - 2), (steps, n - 1)):
            assert got[0] == "ring" and got[-1] == "chord"
            assert len(got) == newton_steps + 2
            assert set(got[1:-1]) <= lu
        # the same steps up to the one that is a chord step at tol 1e-8
        np.testing.assert_allclose(tight.updates[:n - 1],
                                   loose.updates[:n - 1], rtol=1e-6)

    def test_radial_state_with_gradient(self, factors):
        # zero datum and a constant source give radial states with a
        # gradient: their Newton systems are rotation-invariant but not
        # assembled from a wedge, so SuperLU factors them
        mesh = build_disk_mesh(1.0, h_target=0.2)
        res = solve_quasilinear(mesh, preset_field("isotropic-sin"),
                                np.zeros(len(mesh.boundary)),
                                source=lambda p: np.full(len(p), 4.0))
        assert res.converged and res.iterations > 2
        kinds = [kind for kind, _, _ in factors]
        assert kinds == ["ring"] + ["splu"] * (res.iterations - 2)
        assert res.factor_kinds["chord"] == 1


def theta(u):
    """Kirchhoff transform of a(u) = 2 + sin u: Theta' = a, Theta(0) = 0."""
    return 2.0 * u + 1.0 - np.cos(u)


def kirchhoff_solution(pts, radius=2.0, n=64):
    """u and grad u of -div((2 + sin u) grad u) = 0 with u = cos(theta) on
    the circle of the given radius.

    Theta(u) is the harmonic extension w of Theta(cos theta): with c_k the
    FFT coefficients of the datum, w = Re F(z) for F(z) = c_0 + 2 sum_k
    c_k (z / radius)^k, and grad w = (Re F', -Im F'). Then u = Theta^-1(w)
    by Newton's method (Theta' >= 1) and grad u = grad w / (2 + sin u).
    """
    angles = 2.0 * np.pi * np.arange(n) / n
    c = np.fft.rfft(theta(np.cos(angles))) / n
    k = np.arange(1, n // 2)
    z = (pts[:, 0] + 1j * pts[:, 1])[:, None] / radius
    w = c[0].real + np.real(2.0 * (c[k] * z ** k).sum(axis=1))
    dw = 2.0 * (c[k] * k * z ** (k - 1)).sum(axis=1) / radius
    u = 0.5 * w
    for _ in range(50):
        u -= (theta(u) - w) / (2.0 + np.sin(u))
    assert np.abs(theta(u) - w).max() <= 1e-13
    grad = np.stack([dw.real, -dw.imag], axis=1) / (2.0 + np.sin(u))[:, None]
    return u, grad


class TestKirchhoffSolution:
    def test_converges_at_first_order_in_h1_second_in_l2(self):
        l2, h1 = [], []
        for h in (0.2, 0.1, 0.05):
            mesh = build_disk_mesh(2.0, h_target=h)
            res = solve_quasilinear(mesh, sin_field(),
                                    np.cos(mesh.boundary_angles()),
                                    config=PicardConfig(tol=1e-12))
            assert res.converged
            u, _ = kirchhoff_solution(mesh.vertices)
            _, grad = kirchhoff_solution(
                mesh.vertices[mesh.triangles].mean(axis=1))
            l2.append(l2_norm(mesh, res.u - u))
            gu = np.einsum("tic,ti->tc", mesh.grads,
                           res.u[mesh.triangles])
            h1.append(np.sqrt(np.sum(mesh.areas
                                     * np.sum((gu - grad) ** 2, axis=1))))
        # measured: L2 2.57e-4, 6.44e-5, 1.61e-5; H1 1.10e-2, 5.55e-3, 2.78e-3
        assert l2[0] <= 3e-4 and h1[0] <= 1.3e-2
        for a, b in zip(l2, l2[1:]):
            assert 3.5 <= a / b <= 4.5, l2
        for a, b in zip(h1, h1[1:]):
            assert 1.8 <= a / b <= 2.2, h1


def mms_error(h):
    # u* = x y with A(u) = (2 + sin u) I demands the source
    # g = -cos(x y) (x^2 + y^2); boundary data comes from u* itself
    mesh = build_disk_mesh(1.0, h_target=h)
    field = IsotropicField(lambda p, t: 2.0 + np.sin(t),
                           StructureConstants(1.0, 3.0, 1.0), name="mms")
    exact = lambda p: p[:, 0] * p[:, 1]
    source = lambda p: -np.cos(p[:, 0] * p[:, 1]) * \
        (p[:, 0] ** 2 + p[:, 1] ** 2)
    res = solve_quasilinear(mesh, field, lambda p: exact(p), source=source,
                            config=PicardConfig(tol=1e-12))
    assert res.converged
    uh = res.u
    # gradient error against the exact field at centroids; comparing to
    # the nodal interpolant instead would superconverge and hide the rate
    gu = np.einsum("tic,ti->tc", mesh.grads, uh[mesh.triangles])
    c = mesh.vertices[mesh.triangles].mean(axis=1)
    gex = np.stack([c[:, 1], c[:, 0]], axis=1)
    return float(np.sqrt(np.sum(mesh.areas * np.sum((gu - gex) ** 2, axis=1))))


class TestManufactured:
    def test_h1_error_halves(self):
        errs = [mms_error(h) for h in (0.2, 0.1, 0.05)]
        for a, b in zip(errs, errs[1:]):
            ratio = a / b
            assert 2.0 * 0.85 <= ratio <= 2.0 * 1.15, errs
