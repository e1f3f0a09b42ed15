import numpy as np
import pytest

from cloaksim.errors import PreconditionError
from cloaksim.homog import cloak_targets
from cloaksim.presets import (COEFFICIENTS, INCLUSION_NAMES, PRESET_NAMES,
                              inclusion_field, parse_preset, preset_cell,
                              preset_field, preset_map, preset_problem)


class TestParse:
    def test_bare_name(self):
        assert parse_preset("identity") == ("identity", [])

    def test_arguments(self):
        name, args = parse_preset("laminate(1,4,0.05)")
        assert name == "laminate"
        assert args == [1.0, 4.0, 0.05]

    def test_whitespace_tolerated(self):
        assert parse_preset("  identity ") == ("identity", [])

    @pytest.mark.parametrize("colon, paren", [
        ("laminate:1,4,0.05", "laminate(1,4,0.05)"),
        ("regular:0.5", "regular(0.5)"),
        ("singular:", "singular()"),
        ("smooth-cos", "smooth-cos")])
    def test_both_written_forms(self, colon, paren):
        assert parse_preset(colon) == parse_preset(paren)

    @pytest.mark.parametrize("key", ["regular-cloak(", "a b", "f(x)",
                                     "laminate(1,,2)"])
    def test_malformed_rejected(self, key):
        with pytest.raises(PreconditionError):
            name, args = parse_preset(key)
            # bare parse may pass for some shapes; building must not
            preset_field(key)


class TestInclusions:
    def test_identity(self):
        f = inclusion_field("identity")
        pts = np.array([[0.3, 0.1]])
        assert np.abs(f.eval(pts, np.zeros(1))[0] - np.eye(2)).max() < 1e-14

    def test_five_i(self):
        f = inclusion_field("5I")
        pts = np.array([[0.3, 0.1]])
        assert np.abs(f.eval(pts, np.zeros(1))[0] - 5 * np.eye(2)).max() < 1e-14

    def test_sin_five_i(self):
        f = inclusion_field("sin-5I")
        pts = np.array([[0.3, 0.1]])
        t = np.array([np.pi / 2.0])
        assert np.abs(f.eval(pts, t)[0] - 15.0 * np.eye(2)).max() < 1e-12
        assert f.constants.lipschitz_l > 0.0

    def test_unknown_rejected(self):
        with pytest.raises(PreconditionError):
            inclusion_field("7I")

    def test_other_coefficients_are_not_inclusions(self):
        with pytest.raises(PreconditionError, match="unknown inclusion"):
            inclusion_field("isotropic-sin")

    def test_inclusions_are_coefficients(self):
        assert INCLUSION_NAMES == ("identity", "5I", "sin-5I")
        assert PRESET_NAMES == tuple(COEFFICIENTS)
        pts = np.array([[0.3, 0.1]])
        t = np.array([0.7])
        for name in INCLUSION_NAMES:
            got = inclusion_field(name)
            want = preset_field(name)
            assert got.name == want.name
            assert np.array_equal(got.eval(pts, t), want.eval(pts, t))


class TestPresets:
    def test_identity(self):
        f = preset_field("identity")
        assert f.is_linear

    def test_isotropic_sin(self):
        f = preset_field("isotropic-sin")
        pts = np.array([[1.0, 0.0]])
        got = f.eval(pts, np.array([np.pi / 2.0]))[0]
        assert np.abs(got - 3.0 * np.eye(2)).max() < 1e-12

    def test_regular_cloak_piecewise(self):
        f = preset_field("regular-cloak(0.1)")
        inside = f.eval(np.array([[0.05, 0.0]]), np.zeros(1))[0]
        outside = f.eval(np.array([[1.5, 0.0]]), np.zeros(1))[0]
        assert np.abs(inside - 5.0 * np.eye(2)).max() < 1e-14
        assert np.abs(outside - np.eye(2)).max() < 1e-14

    def test_regular_cloak_radius_range(self):
        with pytest.raises(PreconditionError):
            preset_field("regular-cloak(1.5)")

    def test_truncated_singular_interior_load(self):
        f = preset_field("truncated-singular-cloak(1.25)")
        got = f.eval(np.array([[0.3, 0.0]]), np.zeros(1))[0]
        assert np.abs(got - 10.0 * np.eye(2)).max() < 1e-12
        far = f.eval(np.array([[1.9, 0.0]]), np.zeros(1))[0]
        # outside the lining the pushed-forward shell tensor applies
        ev = np.linalg.eigvalsh(far)
        assert ev[0] < 1.0 < ev[1]

    def test_homogenized_radial_matches_targets(self):
        f = preset_field("homogenized-radial(1.5,0.125)")
        r = 1.75
        got = f.eval(np.array([[r, 0.0]]), np.zeros(1))[0]
        h, m = cloak_targets(r, R=1.5, eta=0.125)
        # the preset interpolates a 600-point radius table, so agreement
        # is at interpolation error, not machine precision
        assert abs(got[0, 0] - h) < 5e-5
        assert abs(got[1, 1] - m) < 5e-5
        assert abs(got[0, 1]) < 1e-12

    def test_homogenized_radial_alpha_below_eigenvalue(self):
        # the radial eigenvalue at |x| = R = 1.5 is (R - 1)/R = 1/3
        f = preset_field("homogenized-radial(1.5,0.125)")
        ev = np.linalg.eigvalsh(f.eval(np.array([1.5, 0.0]), 0.0))
        assert ev.min() == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert f.constants.alpha <= ev.min()

    def test_laminate_alternates(self):
        f = preset_field("laminate(1,4,0.2)")
        # first half period value 1, second half value 4
        lo = f.eval(np.array([[0.05, 0.0]]), np.zeros(1))[0]
        hi = f.eval(np.array([[0.15, 0.0]]), np.zeros(1))[0]
        assert np.abs(lo - np.eye(2)).max() < 1e-14
        assert np.abs(hi - 4.0 * np.eye(2)).max() < 1e-14

    def test_laminate_validation(self):
        with pytest.raises(PreconditionError):
            preset_field("laminate(0,4,0.2)")
        with pytest.raises(PreconditionError):
            preset_field("laminate(1,4)")

    def test_unknown_preset(self):
        with pytest.raises(PreconditionError):
            preset_field("cloakinator")

    def test_unnamed_fields_take_their_key(self):
        assert preset_field("laminate(1,4,0.2)").name == "laminate(1,4,0.2)"
        assert preset_field("laminate:1,4,0.2").name == "laminate:1,4,0.2"
        assert preset_field("regular-cloak:0.3").name == "regular-cloak(0.3)"

    @pytest.mark.parametrize("key, disk", [
        ("identity", (2.0, (1.0,))),
        ("sin-5I", (2.0, (1.0,))),
        ("regular-cloak(0.3)", (2.0, (0.3, 1.0))),
        ("truncated-singular-cloak:1.25", (2.0, (1.0, 1.25))),
        ("homogenized-radial(1.5,0.125)", (3.0, (1.25, 1.5, 2.0))),
        ("laminate(1,4,0.25)", (2.0, (1.0,)))])
    def test_disk_and_interfaces(self, key, disk):
        field, *got = preset_problem(key)
        assert tuple(got) == disk
        assert field.name == preset_field(key).name

    @pytest.mark.parametrize("key", ["identity(1)", "5I:2", "regular-cloak",
                                     "homogenized-radial(1.5)"])
    def test_value_count_checked(self, key):
        with pytest.raises(PreconditionError, match="takes"):
            preset_field(key)


class TestMaps:
    def test_regular_defaults_to_half(self):
        x = np.array([[0.2, 0.1]])
        assert np.array_equal(preset_map("regular").forward(x),
                              preset_map("regular:0.5").forward(x))


class TestCellProfiles:
    def test_defaults_and_values(self):
        p = np.array([[0.25, 0.25], [0.75, 0.25]])
        assert preset_cell("laminate")(p).tolist() == [1.0, 4.0]
        assert preset_cell("checker(2,3)")(p).tolist() == [2.0, 3.0]
        assert preset_cell("constant:3")(p).tolist() == [3.0, 3.0]
        assert preset_cell("smooth-cos")(p) == pytest.approx([2.0, 2.0])
