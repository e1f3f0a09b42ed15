import numpy as np
import pytest

from cloaksim.coeff import IsotropicField, StructureConstants, identity_field
from cloaksim.errors import PreconditionError
from cloaksim.fem import build_disk_mesh, l2_norm
from cloaksim.qsolve import PicardConfig, solve_quasilinear


def sin_field():
    return IsotropicField(lambda p, t: 2.0 + np.sin(t),
                          StructureConstants(1.0, 3.0, 1.0), name="2+sin(t)")


class TestConfig:
    def test_defaults(self):
        cfg = PicardConfig()
        assert cfg.tol == 1e-8
        assert cfg.max_iter == 200
        assert cfg.damping == 1.0

    @pytest.mark.parametrize("kw", [dict(tol=0.0), dict(tol=2.0),
                                    dict(max_iter=0), dict(damping=0.0),
                                    dict(damping=1.5)])
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
        assert np.abs(res.u.values - mesh.vertices[:, 0]).max() < 2e-2

    def test_result_carries_system(self):
        mesh = build_disk_mesh(1.0, h_target=0.3)
        res = solve_quasilinear(mesh, identity_field(2),
                                np.zeros(len(mesh.boundary)))
        assert res.system is not None
        assert res.mesh is mesh


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
        gap = l2_norm(mesh, cold.u.values - warm.u.values)
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

    def test_warm_start_near_solution_is_fast(self):
        mesh = build_disk_mesh(1.0, h_target=0.25)
        bv = lambda p: p[:, 0]
        first = solve_quasilinear(mesh, sin_field(), bv)
        again = solve_quasilinear(mesh, sin_field(), bv,
                                  warm_start=first.u.values)
        assert again.converged
        assert again.iterations <= 2

    def test_bad_boundary_shape_rejected(self):
        mesh = build_disk_mesh(1.0, h_target=0.3)
        with pytest.raises(PreconditionError):
            solve_quasilinear(mesh, sin_field(), np.zeros(3))

    def test_one_factorization_per_iteration(self, factors):
        # the system re-assembled at convergence is only paired, never
        # split or factored
        mesh = build_disk_mesh(2.0, h_target=0.2)
        res = solve_quasilinear(mesh, sin_field(),
                                np.cos(mesh.boundary_angles()))
        assert res.converged and res.iterations > 1
        assert len(factors) == res.iterations


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
    uh = res.u.values
    # gradient error against the exact field at centroids; comparing to
    # the nodal interpolant instead would superconverge and hide the rate
    gu = np.einsum("tic,ti->tc", mesh.grads, uh[mesh.triangles])
    c = mesh.centroids
    gex = np.stack([c[:, 1], c[:, 0]], axis=1)
    return float(np.sqrt(np.sum(mesh.areas * np.sum((gu - gex) ** 2, axis=1))))


class TestManufactured:
    def test_h1_error_halves(self):
        errs = [mms_error(h) for h in (0.2, 0.1, 0.05)]
        for a, b in zip(errs, errs[1:]):
            ratio = a / b
            assert 2.0 * 0.85 <= ratio <= 2.0 * 1.15, errs
