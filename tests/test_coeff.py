import numpy as np
import pytest

from cloaksim.coeff import (CoefficientField, IsotropicField, ProductField,
                            StructureConstants, annulus, ball, constant_field,
                            identity_field, piecewise_field,
                            validate_structure)
from cloaksim.errors import PreconditionError


class TestStructureConstants:
    def test_fields(self):
        c = StructureConstants(1.0, 4.0, 0.5)
        assert (c.alpha, c.beta, c.lipschitz_l) == (1.0, 4.0, 0.5)

    def test_is_linear_iff_zero_lipschitz(self):
        assert StructureConstants(1.0, 2.0, 0.0).is_linear
        assert not StructureConstants(1.0, 2.0, 0.1).is_linear

    @pytest.mark.parametrize("bad", [
        (0.0, 1.0, 0.0), (-1.0, 1.0, 0.0), (2.0, 1.0, 0.0), (1.0, 2.0, -1.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(PreconditionError):
            StructureConstants(*bad)


class TestFields:
    def test_constant_field_eval(self):
        m = np.array([[2.0, 0.5], [0.5, 3.0]])
        f = constant_field(m)
        pts = np.array([[0.1, 0.2], [1.0, -1.0], [0.0, 0.5]])
        vals = f.eval(pts, np.zeros(3))
        assert vals.shape == (3, 2, 2)
        assert np.abs(vals - m).max() == 0.0
        assert f.is_linear

    def test_identity_field(self):
        f = identity_field(2)
        vals = f.eval(np.array([[0.3, 0.3]]), 0.0)
        assert np.abs(vals[0] - np.eye(2)).max() == 0.0
        assert f.constants.alpha == 1.0 and f.constants.beta >= 1.0

    def test_scalar_state_broadcasts(self):
        f = identity_field(2)
        pts = np.random.default_rng(0).normal(size=(5, 2))
        assert f.eval(pts, 0.0).shape == (5, 2, 2)
        assert f.eval(pts, np.zeros(5)).shape == (5, 2, 2)

    def test_isotropic_field_matrix_and_scalar(self):
        f = IsotropicField(lambda p, t: 2.0 + np.sin(t),
                           StructureConstants(1.0, 3.0, 1.0), name="sin")
        pts = np.array([[0.5, 0.5]])
        t = np.array([np.pi / 2.0])
        val = f.eval(pts, t)[0]
        assert np.abs(val - 3.0 * np.eye(2)).max() < 1e-14
        assert not f.is_linear

    def test_state_dependence_actually_enters(self):
        f = IsotropicField(lambda p, t: 2.0 + np.sin(t),
                           StructureConstants(1.0, 3.0, 1.0))
        pts = np.array([[0.1, 0.1], [0.2, 0.2]])
        t = np.array([0.0, np.pi / 2.0])
        vals = f.eval(pts, t)
        assert abs(vals[0, 0, 0] - 2.0) < 1e-14
        assert abs(vals[1, 0, 0] - 3.0) < 1e-14


class TestRegions:
    def test_contains(self):
        a = annulus(1.0, 2.0)
        pts = np.array([[0.5, 0.0], [1.5, 0.0], [0.0, 2.5]])
        assert list(a.contains(pts)) == [False, True, False]
        b = ball(1.0)
        assert list(b.contains(pts)) == [True, False, False]

    def test_sample_lattice_inside(self):
        a = annulus(0.5, 1.5)
        pts = a.sample_lattice(24)
        r = np.linalg.norm(pts, axis=1)
        assert len(pts) > 0
        assert r.min() >= 0.5 and r.max() <= 1.5

    def test_lattice_avoids_origin(self):
        pts = ball(1.0).sample_lattice(16)
        assert np.linalg.norm(pts, axis=1).min() > 0.0

    def test_bad_bounds(self):
        with pytest.raises(PreconditionError):
            annulus(2.0, 1.0)


class TestPiecewise:
    def test_dispatch_and_fallthrough(self):
        inner = constant_field(5.0 * np.eye(2))
        f = piecewise_field([(ball(1.0), inner), (None, identity_field(2))])
        pts = np.array([[0.5, 0.0], [1.5, 0.0]])
        vals = f.eval(pts, np.zeros(2))
        assert np.abs(vals[0] - 5.0 * np.eye(2)).max() == 0.0
        assert np.abs(vals[1] - np.eye(2)).max() == 0.0

    def test_worst_case_constants(self):
        a = CoefficientField(lambda p, t: np.tile(np.eye(2), (len(p), 1, 1)),
                             StructureConstants(0.5, 1.0, 0.0))
        b = CoefficientField(lambda p, t: np.tile(np.eye(2), (len(p), 1, 1)),
                             StructureConstants(2.0, 8.0, 3.0))
        f = piecewise_field([(ball(1.0), a), (None, b)])
        c = f.constants
        assert (c.alpha, c.beta, c.lipschitz_l) == (0.5, 8.0, 3.0)

    def test_uncovered_point_raises(self):
        f = piecewise_field([(ball(1.0), identity_field(2))])
        with pytest.raises(PreconditionError):
            f.eval(np.array([[1.5, 0.0]]), np.zeros(1))

    def test_empty_raises(self):
        with pytest.raises(PreconditionError):
            piecewise_field([])


class TestProductField:
    B = np.array([[2.0, 0.5], [0.5, 3.0]])

    def product(self, base=None):
        base = base or constant_field(self.B)
        return ProductField(lambda t: 2.0 + np.sin(t), (1.0, 3.0, 1.0), base)

    def test_constants_exact(self):
        # alpha and beta are attained at sin t = -1 and +1; the Lipschitz
        # modulus is the slope of the operator norm at t = 0, where
        # d/dt (2 + sin t) = 1
        f = self.product()
        lo, hi = np.linalg.eigvalsh(self.B)
        c = f.constants
        assert (c.alpha, c.beta, c.lipschitz_l) == (lo, 3.0 * hi, hi)
        p = np.array([0.4, -0.2])
        assert np.linalg.eigvalsh(f.eval(p, -np.pi / 2.0)).min() == \
            pytest.approx(c.alpha, rel=1e-14)
        assert np.linalg.eigvalsh(f.eval(p, np.pi / 2.0)).max() == \
            pytest.approx(c.beta, rel=1e-14)
        dt = 1e-6
        slope = np.linalg.norm(f.eval(p, dt) - f.eval(p, 0.0), 2) / dt
        assert slope == pytest.approx(c.lipschitz_l, rel=1e-9)
        assert not f.is_linear
        assert validate_structure(f, annulus(0.1, 2.0)).ok

    def test_values_and_one_base_evaluation(self):
        calls = []

        def fn(pts, tt):
            calls.append(len(pts))
            return np.broadcast_to(self.B, (len(pts), 2, 2)).copy()

        f = self.product(CoefficientField(fn, StructureConstants(1.0, 4.0)))
        pts = np.array([[0.1, 0.2], [1.0, -0.5], [0.0, 1.5]])
        at = f.bind(pts)
        for t in (np.array([0.0, 1.0, -2.0]), 0.3, np.array([3.0, 0.5, 0.0])):
            want = (2.0 + np.sin(np.broadcast_to(t, 3)))[:, None, None] * self.B
            assert np.abs(at(t) - want).max() <= 1e-15
        assert calls == [3]

    def test_state_dependent_base_refused(self):
        base = IsotropicField(lambda p, t: 2.0 + np.sin(t),
                              StructureConstants(1.0, 3.0, 1.0))
        with pytest.raises(PreconditionError):
            self.product(base)


class TestValidateStructure:
    def test_identity_passes(self):
        rep = validate_structure(identity_field(2), ball(2.0))
        assert rep.ok
        assert rep.symmetry_defect <= 1e-12

    def test_honest_constants_pass(self):
        f = IsotropicField(lambda p, t: 2.0 + np.sin(t),
                           StructureConstants(1.0, 3.0, 1.0))
        rep = validate_structure(f, annulus(0.1, 2.0))
        assert rep.ok

    def test_understated_beta_refuted(self):
        f = IsotropicField(lambda p, t: 2.0 + np.sin(t),
                           StructureConstants(1.0, 2.5, 1.0))
        rep = validate_structure(f, annulus(0.1, 2.0))
        assert not rep.ok
        assert rep.bound_defect > 0.0

    def test_understated_alpha_refuted(self):
        f = IsotropicField(lambda p, t: 2.0 + np.sin(t),
                           StructureConstants(1.5, 3.0, 1.0))
        rep = validate_structure(f, annulus(0.1, 2.0))
        assert not rep.ok
        assert rep.ellipticity_defect > 0.0

    def test_understated_lipschitz_refuted(self):
        f = IsotropicField(lambda p, t: 2.0 + np.sin(t),
                           StructureConstants(1.0, 3.0, 0.2))
        rep = validate_structure(f, annulus(0.1, 2.0))
        assert not rep.ok
        assert rep.lipschitz_defect > 0.0

    def test_asymmetric_matrix_refuted(self):
        def fn(p, t):
            m = np.tile(np.eye(2), (len(p), 1, 1))
            m[:, 0, 1] = 0.3
            return m

        f = CoefficientField(fn, StructureConstants(0.5, 2.0, 0.0))
        rep = validate_structure(f, ball(1.0))
        assert not rep.ok
        assert rep.symmetry_defect > 0.0
