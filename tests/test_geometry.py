import numpy as np
import pytest

from cloaksim.coeff import (CoefficientField, IsotropicField, ProductField,
                            StructureConstants, ball, constant_field,
                            identity_field, piecewise_field)
from cloaksim.errors import PreconditionError
from cloaksim.geometry import (compose, fd_jacobian, pushforward,
                               regular_blowup, singular_cloak_tensor,
                               singular_map, transformed_inner_tensor,
                               truncated_singular_cloak)
from cloaksim.homog import HomogenizedTensor
from cloaksim.presets import inclusion_field, preset_field


def radial_point(s, angle=0.3, dim=2):
    if dim == 2:
        return s * np.array([np.cos(angle), np.sin(angle)])
    return s * np.array([np.cos(angle) * 0.8, np.sin(angle) * 0.8, 0.6])


class TestSingularMap:
    def test_forward_values(self):
        F = singular_map()
        out = F.forward(np.array([[1.25, 0.0], [0.0, -0.4]]))
        # (1 + |x|/2) xhat
        assert np.allclose(out[0], [1.625, 0.0], atol=1e-14)
        assert np.allclose(out[1], [0.0, -1.2], atol=1e-14)

    def test_fixes_outer_circle(self):
        F = singular_map()
        th = np.linspace(0, 2 * np.pi, 17)
        pts = 2.0 * np.stack([np.cos(th), np.sin(th)], axis=1)
        assert np.allclose(F.forward(pts), pts, atol=1e-13)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 1.9])
    def test_det_closed_form(self, s, dim):
        F = singular_map(dim=dim)
        x = radial_point(s, dim=dim)
        J = F.jacobian(x)
        want = 0.5 * (0.5 + 1.0 / s) ** (dim - 1)
        assert abs(np.linalg.det(J) - want) <= 1e-12 * want

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 1.3, 1.7, 1.9, 0.25, 0.75])
    def test_jacobian_eigen_split(self, s, dim):
        # radial direction carries 1/2, tangential 1/2 + 1/|x|
        F = singular_map(dim=dim)
        x = radial_point(s, dim=dim)
        J = F.jacobian(x)
        xhat = x / np.linalg.norm(x)
        assert np.allclose(J @ xhat, 0.5 * xhat, atol=1e-12)
        w = np.sort(np.linalg.eigvalsh(J))
        assert abs(w[0] - 0.5) <= 1e-12
        assert np.all(np.abs(w[1:] - (0.5 + 1.0 / s)) <= 1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_jacobian_matches_finite_differences(self, dim):
        F = singular_map(dim=dim)
        for s in (0.3, 1.1, 1.8):
            x = radial_point(s, angle=1.1, dim=dim)
            assert np.abs(F.jacobian(x) - fd_jacobian(F, x)).max() < 1e-5

    def test_round_trip(self):
        F = singular_map()
        rng = np.random.default_rng(7)
        r = rng.uniform(0.05, 1.99, 1000)
        th = rng.uniform(0, 2 * np.pi, 1000)
        x = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        assert np.abs(F.inverse(F.forward(x)) - x).max() < 1e-10


class TestRegularBlowup:
    def test_piecewise_values(self):
        F = regular_blowup(0.5)
        out = F.forward(np.array([[0.25, 0.0], [1.25, 0.0], [2.0, 0.0]]))
        # linear x/r inside, affine interpolation on the annulus
        assert np.allclose(out[0], [0.5, 0.0], atol=1e-14)
        assert np.allclose(out[1], [1.5, 0.0], atol=1e-14)
        assert np.allclose(out[2], [2.0, 0.0], atol=1e-14)

    def test_images_of_pieces(self):
        F = regular_blowup(0.3)
        rng = np.random.default_rng(3)
        th = rng.uniform(0, 2 * np.pi, 400)
        r_in = rng.uniform(0.0, 0.3, 400)
        x = np.stack([r_in * np.cos(th), r_in * np.sin(th)], axis=1)
        assert np.linalg.norm(F.forward(x), axis=1).max() <= 1.0 + 1e-12
        r_out = rng.uniform(0.3, 2.0, 400)
        y = np.stack([r_out * np.cos(th), r_out * np.sin(th)], axis=1)
        ry = np.linalg.norm(F.forward(y), axis=1)
        assert ry.min() >= 1.0 - 1e-12 and ry.max() <= 2.0 + 1e-12

    def test_monotone_along_rays(self):
        F = regular_blowup(0.4)
        s = np.linspace(1e-3, 2.0, 500)
        pts = np.stack([s * np.cos(0.7), s * np.sin(0.7)], axis=1)
        imr = np.linalg.norm(F.forward(pts), axis=1)
        assert np.all(np.diff(imr) > 0)

    def test_round_trip(self):
        F = regular_blowup(0.25)
        rng = np.random.default_rng(11)
        r = rng.uniform(0.01, 2.0, 1000)
        th = rng.uniform(0, 2 * np.pi, 1000)
        x = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        assert np.abs(F.inverse(F.forward(x)) - x).max() < 1e-10

    def test_r_range_validated(self):
        with pytest.raises(PreconditionError):
            regular_blowup(0.0)
        with pytest.raises(PreconditionError):
            regular_blowup(2.0)


class TestPushforward:
    def test_batch_evaluation_shape(self):
        A = constant_field(np.diag([2.0, 3.0]))
        F = regular_blowup(0.5)
        pts = np.array([[0.3, 0.4], [1.1, -0.2]])
        B = pushforward(A, F)
        vals = B.eval(F.forward(pts), np.zeros(2))
        assert vals.shape == (2, 2, 2)

    def test_dilation_is_conformal_in_2d(self):
        # x -> 2x pushes I to I in two dimensions
        from cloaksim.geometry import DiffMap

        dil = DiffMap(
            forward=lambda p: 2.0 * np.atleast_2d(p),
            inverse=lambda p: 0.5 * np.atleast_2d(p),
            jacobian=lambda p: np.tile(2.0 * np.eye(2), (len(p), 1, 1)),
            name="dilation",
        )
        B = pushforward(identity_field(2), dil)
        pts = np.array([[0.5, 0.1], [1.0, 1.0]])
        vals = B.eval(pts, np.zeros(2))
        assert np.abs(vals - np.eye(2)).max() < 1e-12

    def test_blowup_pushforward_radial_eigenvalues(self):
        # independent formula for radial maps y = f(s) xhat:
        # radial eig f' s / f ... evaluated through the generic code path
        F = regular_blowup(0.5)
        A = pushforward(identity_field(2), F)
        s = 1.4
        y = F.forward(np.array([[s, 0.0]]))[0]
        val = A.eval(np.array([y]), np.zeros(1))[0]
        # forward on the annulus: f(s) = (2 - 2r + s)/(2 - r), f' = 1/(2-r)
        r = 0.5
        f = (2 - 2 * r + s) / (2 - r)
        fp = 1.0 / (2 - r)
        rad = fp * s / f
        tan = f / (s * fp)
        w = np.sort(np.linalg.eigvalsh(val))
        assert abs(w[0] - min(rad, tan)) < 1e-12
        assert abs(w[1] - max(rad, tan)) < 1e-12

    def test_composition_property(self):
        F1 = regular_blowup(0.5)
        F2 = regular_blowup(0.7)
        A = identity_field(2)
        lhs = pushforward(pushforward(A, F1), F2)
        rhs = pushforward(A, compose(F2, F1))
        rng = np.random.default_rng(5)
        r = rng.uniform(0.05, 1.95, 40)
        th = rng.uniform(0, 2 * np.pi, 40)
        x = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        y = compose(F2, F1).forward(x)
        t = np.zeros(len(y))
        assert np.abs(lhs.eval(y, t) - rhs.eval(y, t)).max() < 1e-10

    def test_isotropic_sin_eigenvalues_closed_form(self):
        # regular_blowup(0.5) is y = psi(s) x/s with s = |x|, psi(s) = 2s
        # on [0, 1/2] and (2/3)(1 + s) on [1/2, 2]. In 2D the push-forward
        # of sigma I has radial eigenvalue sigma psi' s / psi and tangential
        # eigenvalue sigma psi / (s psi'), at s = psi^{-1}(|y|).
        A = pushforward(preset_field("isotropic-sin"), regular_blowup(0.5))
        rng = np.random.default_rng(11)
        rho = rng.uniform(0.05, 2.0, 300)
        th = rng.uniform(0.0, 2.0 * np.pi, 300)
        t = rng.uniform(-4.0, 4.0, 300)
        yhat = np.stack([np.cos(th), np.sin(th)], axis=1)
        perp = np.stack([-np.sin(th), np.cos(th)], axis=1)
        s = np.where(rho <= 1.0, rho / 2.0, 1.5 * rho - 1.0)
        psi = np.where(s <= 0.5, 2.0 * s, (2.0 / 3.0) * (1.0 + s))
        dpsi = np.where(s <= 0.5, 2.0, 2.0 / 3.0)
        sigma = 2.0 + np.sin(t)
        mats = A.eval(rho[:, None] * yhat, t)
        rad = np.einsum("mi,mij,mj->m", yhat, mats, yhat)
        tan = np.einsum("mi,mij,mj->m", perp, mats, perp)
        off = np.einsum("mi,mij,mj->m", yhat, mats, perp)
        np.testing.assert_allclose(rad, sigma * dpsi * s / psi, rtol=1e-13)
        np.testing.assert_allclose(tan, sigma * psi / (s * dpsi), rtol=1e-13)
        assert np.abs(off).max() <= 1e-13 * np.abs(mats).max()


class TestProductPushforward:
    """F_*(a(t) B) = a(t) F_*B: the push-forward of a product field is the
    product of the scalar with the pushed-forward state-free field."""

    @staticmethod
    def product():
        base = constant_field(np.array([[2.0, 0.5], [0.5, 3.0]]))
        return ProductField(lambda t: 2.0 + np.sin(t), (1.0, 3.0, 1.0), base,
                            name="(2+sin t)B")

    def test_values_from_the_map(self):
        F = regular_blowup(0.5)
        field = pushforward(self.product(), F)
        assert isinstance(field, ProductField)
        rng = np.random.default_rng(17)
        rho = rng.uniform(0.05, 1.95, 300)
        th = rng.uniform(0.0, 2.0 * np.pi, 300)
        y = rho[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
        t = rng.uniform(-4.0, 4.0, 300)
        # DF (a B) DF^T / |det DF| at x = F^{-1}(y), from the map alone
        jac = F.jacobian(F.inverse(y))
        a_b = (2.0 + np.sin(t))[:, None, None] * np.array([[2.0, 0.5],
                                                             [0.5, 3.0]])
        det = np.abs(jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0])
        want = np.einsum("mij,mjk,mlk->mil", jac, a_b, jac) / det[:, None, None]
        got = field.eval(y, t)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_constants_match_the_sampled_push_forward(self):
        # the same product, hidden behind a plain field, takes the generic
        # path, which samples the map for the constants
        F = regular_blowup(0.5)
        prod = self.product()
        plain = CoefficientField(lambda p, t: prod.eval(p, t), prod.constants)
        generic = pushforward(plain, F).constants
        fast = pushforward(prod, F).constants
        for name in ("alpha", "beta", "lipschitz_l"):
            want = getattr(generic, name)
            assert abs(getattr(fast, name) - want) <= 1e-14 * want


def _sin_iso(dim):
    return IsotropicField(lambda p, t: 2.0 + np.sin(t),
                          StructureConstants(1.0, 3.0, 1.0), dim=dim)


# radii, then the radial and tangential values there
_RADIAL_TABLE = ([0.0, 1.0, 3.0], [1.0, 0.5, 1.0], [2.0, 3.0, 1.0])


def _radial_table_tensor():
    return HomogenizedTensor(*_RADIAL_TABLE)


def _product_case():
    # reference: (2 + sin t) (lo P + hi (I - P)), with lo and hi
    # interpolated at |y| and P = y y^T / |y|^2
    def reference(y, t):
        r = np.linalg.norm(y, axis=1)
        lo, hi = (np.interp(r, _RADIAL_TABLE[0], v) for v in _RADIAL_TABLE[1:])
        proj = y[:, :, None] * y[:, None, :] / (r ** 2)[:, None, None]
        base = lo[:, None, None] * proj + hi[:, None, None] * (np.eye(2) - proj)
        return np.asarray(2.0 + np.sin(t))[..., None, None] * base

    field = ProductField(lambda t: 2.0 + np.sin(t), (1.0, 3.0, 1.0),
                         _radial_table_tensor())
    return field, reference


def _plain(field):
    return field, field.eval


def _pushforward_case(inner, dmap):
    # reference: DF A DF^T / |det DF| at x = F^{-1}(y), one point at a time
    def reference(y, t):
        x = dmap.inverse(y)
        jac = dmap.jacobian(x)
        mats = inner.eval(x, t)
        return np.array([j @ a @ j.T / abs(np.linalg.det(j))
                         for j, a in zip(jac, mats)])

    return pushforward(inner, dmap), reference


def _piecewise_case():
    # reference: each region's points through its own piece
    region, inner, outer = ball(0.8), _sin_iso(2), constant_field(3.0)

    def reference(y, t):
        tt = np.broadcast_to(t, len(y))
        mask = region.contains(y)
        out = np.empty((len(y), 2, 2))
        out[mask] = inner.eval(y[mask], tt[mask])
        out[~mask] = outer.eval(y[~mask], tt[~mask])
        return out

    return piecewise_field([(region, inner), (None, outer)]), reference


BOUND_CASES = {
    "constant": lambda: _plain(constant_field(np.array([[2.0, 0.5],
                                                        [0.5, 3.0]]))),
    "isotropic": lambda: _plain(_sin_iso(2)),
    "piecewise": _piecewise_case,
    "near-cloak": lambda: _plain(transformed_inner_tensor(_sin_iso(2), 0.5)),
    "truncated-shell": lambda: _plain(truncated_singular_cloak(
        1.25, interior=_sin_iso(2))),
    "homogenized": lambda: _plain(_radial_table_tensor()),
    "product": _product_case,
    "pushforward-2d": lambda: _pushforward_case(
        preset_field("isotropic-sin"), regular_blowup(0.5)),
    "pushforward-3d": lambda: _pushforward_case(
        _sin_iso(3), regular_blowup(0.5, dim=3)),
}


@pytest.mark.parametrize("key", sorted(BOUND_CASES))
def test_bind_matches_eval(key):
    field, reference = BOUND_CASES[key]()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, field.dim))
    y = rng.uniform(0.05, 1.95, 200)[:, None] * x / np.linalg.norm(
        x, axis=1)[:, None]
    at = field.bind(y)
    # one binding serves state after state, per point or scalar
    for t in (rng.uniform(-3.0, 3.0, 200), rng.uniform(-3.0, 3.0, 200), 0.7):
        want = reference(y, t)
        assert np.abs(at(t) - want).max() <= 1e-14 * np.abs(want).max()
        np.testing.assert_array_equal(field.eval(y, t), at(t))


class TestSingularCloakTensor:
    @pytest.mark.parametrize("rho,rad,tan", [
        (1.5, 1.0 / 3.0, 3.0),
        (2.0, 0.5, 2.0),
        (1.25, 0.2, 5.0),
    ])
    def test_eigenvalues_2d(self, rho, rad, tan):
        # radial (rho-1)/rho, tangential rho/(rho-1) at image radius rho
        A = singular_cloak_tensor(dim=2)
        y = radial_point(rho, angle=0.9)
        val = A.eval(np.array([y]), np.zeros(1))[0]
        yhat = y / np.linalg.norm(y)
        assert np.allclose(val @ yhat, rad * yhat, atol=1e-12)
        w = np.sort(np.linalg.eigvalsh(val))
        assert abs(w[0] - rad) < 1e-12 and abs(w[1] - tan) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_radial_eigenvalue_bound(self, dim):
        # source-side bound: radial eigenvalue at |x| = s stays below s^(N-1)
        A = singular_cloak_tensor(dim=dim)
        for s in np.linspace(0.05, 1.95, 25):
            rho = 1.0 + s / 2.0
            y = radial_point(rho, angle=0.2, dim=dim)
            val = A.eval(np.array([y]), np.zeros(1))[0]
            yhat = y / np.linalg.norm(y)
            rad = float(yhat @ val @ yhat)
            assert rad <= s ** (dim - 1) + 1e-12

    def test_domain_validated(self):
        A = singular_cloak_tensor(dim=2)
        with pytest.raises(PreconditionError):
            A.eval(np.array([[0.5, 0.0]]), np.zeros(1))


class TestTruncatedCloak:
    def test_outside_truncation_matches_exact(self):
        cloak = truncated_singular_cloak(1.5)
        exact = singular_cloak_tensor(dim=2)
        y = radial_point(1.7, angle=0.4)
        a = cloak.eval(np.array([y]), np.zeros(1))[0]
        b = exact.eval(np.array([y]), np.zeros(1))[0]
        assert np.abs(a - b).max() < 1e-13

    def test_lining_carries_frozen_rho_values(self):
        rho = 1.5
        cloak = truncated_singular_cloak(rho)
        y = radial_point(1.2, angle=1.3)
        val = cloak.eval(np.array([y]), np.zeros(1))[0]
        yhat = y / np.linalg.norm(y)
        rad = (rho - 1.0) / rho
        tan = rho / (rho - 1.0)
        assert abs(float(yhat @ val @ yhat) - rad) < 1e-12
        w = np.sort(np.linalg.eigvalsh(val))
        assert abs(w[0] - rad) < 1e-12 and abs(w[1] - tan) < 1e-12

    def test_near_two_flattens_to_boundary_eigenvalues(self):
        # the exact tensor at |y| = 2 has eigenvalues (1/2, 2); as rho -> 2
        # the frozen lining carries those values through the whole annulus
        cloak = truncated_singular_cloak(1.999)
        for s in (1.2, 1.6, 1.95):
            y = radial_point(s, angle=0.1)
            val = cloak.eval(np.array([y]), np.zeros(1))[0]
            yhat = y / np.linalg.norm(y)
            assert abs(float(yhat @ val @ yhat) - 0.5) < 5e-3
            w = np.sort(np.linalg.eigvalsh(val))
            assert abs(w[0] - 0.5) < 5e-3 and abs(w[1] - 2.0) < 5e-3

    def test_interior_field_is_used(self):
        inner = constant_field(7.0 * np.eye(2))
        cloak = truncated_singular_cloak(1.4, interior=inner)
        val = cloak.eval(np.array([[0.3, 0.2]]), np.zeros(1))[0]
        assert np.abs(val - 7.0 * np.eye(2)).max() < 1e-14

    def test_rho_validated(self):
        for bad in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(PreconditionError):
                truncated_singular_cloak(bad)


class TestInnerTensor:
    def test_inner_pullback_identity_scale(self):
        # in 2D the conformal factor is 1, so the pulled tensor keeps its
        # values with rescaled argument
        inner = constant_field(5.0 * np.eye(2))
        pulled = transformed_inner_tensor(inner, 0.25)
        val = pulled.eval(np.array([[0.1, 0.05]]), np.zeros(1))[0]
        assert np.abs(val - 5.0 * np.eye(2)).max() < 1e-12

    def test_values_and_support(self):
        f = transformed_inner_tensor(inclusion_field("5I"), 0.2)
        pts = np.array([[0.1, 0.0], [0.5, 0.0]])
        got = f.eval(pts, np.zeros(2))
        # in 2d the load keeps its value on the shrunk disk
        assert np.abs(got[0] - 5.0 * np.eye(2)).max() < 1e-13
        assert np.abs(got[1] - np.eye(2)).max() < 1e-13

    def test_state_passes_through(self):
        f = transformed_inner_tensor(inclusion_field("sin-5I"), 0.5)
        got = f.eval(np.array([[0.2, 0.0]]), np.array([np.pi / 2.0]))
        assert np.abs(got[0] - 15.0 * np.eye(2)).max() < 1e-12
