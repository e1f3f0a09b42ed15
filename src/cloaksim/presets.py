"""Named coefficient presets for the command line and the sweep drivers.

Keys are either bare names ("identity") or parameterized like
"regular-cloak(0.1)" / "laminate(1,4,0.05)". Inclusion keys name the
coefficient placed on the unit disk before a cloak is wrapped around it.
"""

import re

import numpy as np

from .coeff import (IsotropicField, ProductField, StructureConstants,
                    constant_field, identity_field)
from .errors import PreconditionError
from .geometry import transformed_inner_tensor, truncated_singular_cloak
from .homog import HomogenizedTensor, cloak_targets

__all__ = ["preset_field", "inclusion_field", "parse_preset", "PRESET_NAMES",
           "INCLUSION_NAMES"]

PRESET_NAMES = ("identity", "isotropic-sin", "regular-cloak",
                "truncated-singular-cloak", "homogenized-radial", "laminate")
INCLUSION_NAMES = ("identity", "5I", "sin-5I")

_KEY_RE = re.compile(r"^([a-zA-Z0-9-]+)(?:\(([^)]*)\))?$")


def parse_preset(key):
    m = _KEY_RE.match(key.strip())
    if not m:
        raise PreconditionError(f"malformed preset key {key!r}")
    name = m.group(1)
    args = []
    if m.group(2):
        try:
            args = [float(a) for a in m.group(2).split(",")]
        except ValueError:
            raise PreconditionError(f"non-numeric preset arguments in {key!r}")
    return name, args


def _two_plus_sin(t):
    """2 + sin t: values in [1, 3], Lipschitz modulus 1."""
    return 2.0 + np.sin(t)


def inclusion_field(key):
    """Coefficient for the cloaked region: identity, 5I, or (2+sin t)*5I."""
    key = key.strip()
    if key in ("identity", "I", "1"):
        return identity_field(2)
    if key == "5I":
        return constant_field(5.0 * np.eye(2), name="5I")
    if key in ("sin-5I", "(2+sin t)5I", "(2+sin t)*5I"):
        return ProductField(_two_plus_sin, (1.0, 3.0, 1.0),
                            constant_field(5.0 * np.eye(2)),
                            name="(2+sin t)*5I")
    raise PreconditionError(
        f"unknown inclusion {key!r}; expected one of {INCLUSION_NAMES}")


def _expect_args(name, args, n):
    if len(args) != n:
        raise PreconditionError(
            f"preset {name} takes {n} argument(s), got {len(args)}")


def preset_field(key):
    """Build the coefficient a preset key names.

    identity                          identity on any disk
    isotropic-sin                     (2 + sin t) I
    regular-cloak(r)                  value 5 on the r-disk, identity outside
                                      (the pulled-back near-cloak with a 5I
                                      load at blow-up scale r)
    truncated-singular-cloak(rho)     shell cloak frozen at rho, with the
                                      (2+sin t)*5I load inside the unit disk
    homogenized-radial(R,eta)         anisotropic shell target on radius 3
    laminate(a,b,eps)                 radial two-value laminate, period eps
    """
    name, args = parse_preset(key)
    if name == "identity":
        _expect_args(name, args, 0)
        return identity_field(2)
    if name == "isotropic-sin":
        _expect_args(name, args, 0)
        return ProductField(_two_plus_sin, (1.0, 3.0, 1.0), identity_field(2),
                            name="(2+sin t)I")
    if name == "regular-cloak":
        _expect_args(name, args, 1)
        r = args[0]
        if not (0.0 < r < 1.0):
            raise PreconditionError("regular-cloak radius must lie in (0, 1)")
        field = transformed_inner_tensor(inclusion_field("5I"), r)
        field.name = f"regular-cloak({r:g})"
        return field
    if name == "truncated-singular-cloak":
        _expect_args(name, args, 1)
        rho = args[0]
        return truncated_singular_cloak(rho,
                                        interior=inclusion_field("sin-5I"))
    if name == "homogenized-radial":
        _expect_args(name, args, 2)
        R, eta = args
        rs = np.unique(np.concatenate([
            np.linspace(1e-3, 3.0, 600),
            np.array([R - 2 * eta, R - eta, R, 2.0])]))
        return HomogenizedTensor(rs, *cloak_targets(rs, R, eta), dim=2,
                                 name=key)
    if name == "laminate":
        _expect_args(name, args, 3)
        a, b, eps = args
        if a <= 0 or b <= 0 or eps <= 0:
            raise PreconditionError("laminate values and period must be positive")

        def scalar_fn(pts, t):
            rr = np.linalg.norm(np.atleast_2d(pts), axis=1)
            return np.where(np.mod(rr / eps, 1.0) < 0.5, a, b)

        return IsotropicField(
            scalar_fn, StructureConstants(min(a, b), max(a, b), 0.0),
            dim=2, name=key)
    raise PreconditionError(
        f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
