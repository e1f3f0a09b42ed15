"""Named inputs: the coefficients, the radial maps and the cell profiles.

A key is a bare name ("identity") or a name with values, written
"name(a,b)" or "name:a,b". Each kind of name is one table here, giving
the numbers of values each name takes and what it builds from them.
"""

import re
from typing import NamedTuple

import numpy as np

from .coeff import (IsotropicField, ProductField, StructureConstants,
                    constant_field, identity_field)
from .errors import PreconditionError
from .geometry import (regular_blowup, singular_map, transformed_inner_tensor,
                       truncated_singular_cloak)
from .homog import HomogenizedTensor, cloak_targets

__all__ = ["parse_preset", "preset_problem", "preset_field", "inclusion_field",
           "preset_map", "preset_cell", "COEFFICIENTS", "MAPS",
           "CELL_PROFILES", "PRESET_NAMES", "INCLUSION_NAMES"]

_KEY_RE = re.compile(r"^([a-zA-Z0-9-]+)(?:\(([^)]*)\)|:(.*))?$")


def parse_preset(key):
    """(name, values) of a key written "name", "name(a,b)" or "name:a,b"."""
    m = _KEY_RE.match(key.strip())
    if not m:
        raise PreconditionError(f"malformed preset key {key!r}")
    text = m.group(2) or m.group(3)
    try:
        args = [float(a) for a in text.split(",")] if text else []
    except ValueError:
        raise PreconditionError(f"non-numeric preset arguments in {key!r}")
    return m.group(1), args


class _Named(NamedTuple):
    counts: tuple     # the numbers of values the name takes
    build: object     # values -> what the name stands for
    defaults: tuple   # the values of the bare name


class _Field(NamedTuple):
    counts: tuple
    build: object       # values -> CoefficientField
    disk: object        # values -> (radius, the radii where it jumps)
    inclusion: bool     # a load a sweep may place in the cloaked region


def _two_plus_sin(t):
    """2 + sin t: values in [1, 3], Lipschitz modulus 1."""
    return 2.0 + np.sin(t)


def _sin_five_i():
    return ProductField(_two_plus_sin, (1.0, 3.0, 1.0),
                        constant_field(5.0 * np.eye(2)), name="(2+sin t)*5I")


def _regular_cloak(r):
    """The 5I load on the r-disk, identity outside: a pulled-back cloak."""
    if not (0.0 < r < 1.0):
        raise PreconditionError("regular-cloak radius must lie in (0, 1)")
    field = transformed_inner_tensor(preset_field("5I"), r)
    field.name = f"regular-cloak({r:g})"
    return field


def _homogenized_radial(R, eta):
    """The anisotropic shell target, tabulated out to radius 3."""
    rs = np.unique(np.concatenate([
        np.linspace(1e-3, 3.0, 600),
        np.array([R - 2 * eta, R - eta, R, 2.0])]))
    return HomogenizedTensor(rs, *cloak_targets(rs, R, eta), dim=2)


def _laminate(a, b, eps):
    """Radial two-value laminate of period eps."""
    if a <= 0 or b <= 0 or eps <= 0:
        raise PreconditionError("laminate values and period must be positive")

    def scalar_fn(pts, t):
        # the phase rounded to 12 decimals, so that a rotation of a point
        # on a jump, which moves |x| by a few ulps, keeps it on one side
        rr = np.linalg.norm(np.atleast_2d(pts), axis=1)
        return np.where(np.mod(np.round(rr / eps, 12), 1.0) < 0.5, a, b)

    constants = StructureConstants(min(a, b), max(a, b), 0.0)
    return IsotropicField(scalar_fn, constants, dim=2, radial=True)


def _unit_disk(*values):
    return 2.0, (1.0,)


COEFFICIENTS = {
    "identity": _Field((0,), lambda: identity_field(2), _unit_disk, True),
    "isotropic-sin": _Field(
        (0,), lambda: ProductField(_two_plus_sin, (1.0, 3.0, 1.0),
                                   identity_field(2), name="(2+sin t)I"),
        _unit_disk, False),
    "5I": _Field((0,), lambda: constant_field(5.0 * np.eye(2), name="5I"),
                 _unit_disk, True),
    "sin-5I": _Field((0,), _sin_five_i, _unit_disk, True),
    "regular-cloak": _Field((1,), _regular_cloak,
                            lambda r: (2.0, (r, 1.0)), False),
    # the shell frozen at rho, with the sin-5I load inside
    "truncated-singular-cloak": _Field(
        (1,), lambda rho: truncated_singular_cloak(rho,
                                                   interior=_sin_five_i()),
        lambda rho: (2.0, (1.0, rho)), False),
    "homogenized-radial": _Field((2,), _homogenized_radial,
                                 lambda R, eta: (3.0, (R - 2 * eta, R, 2.0)),
                                 False),
    "laminate": _Field((3,), _laminate, _unit_disk, False),
}
PRESET_NAMES = tuple(COEFFICIENTS)
INCLUSION_NAMES = tuple(k for k, c in COEFFICIENTS.items() if c.inclusion)

MAPS = {
    "regular": _Named((0, 1), regular_blowup, (0.5,)),
    "singular": _Named((0,), singular_map, ()),
}

CELL_PROFILES = {
    "laminate": _Named((0, 2), lambda a, b: lambda p: np.where(
        p[:, 0] % 1.0 < 0.5, a, b), (1.0, 4.0)),
    "checker": _Named((0, 2), lambda a, b: lambda p: np.where(
        (p[:, 0] % 1.0 < 0.5) == (p[:, 1] % 1.0 < 0.5), a, b), (1.0, 4.0)),
    "constant": _Named((0, 1), lambda c: lambda p: np.full(len(p), c), (1.0,)),
    "smooth-cos": _Named(
        (0,), lambda: lambda p: 2.0 + np.cos(2 * np.pi * p[:, 0]), ()),
}


def _lookup(table, kind, key):
    """The entry of the table that a key names, and the key's values."""
    name, values = parse_preset(key)
    if name not in table:
        raise PreconditionError(
            f"unknown {kind} {name!r}; expected one of {tuple(table)}")
    entry = table[name]
    if len(values) not in entry.counts:
        counts = " or ".join(str(n) for n in entry.counts)
        raise PreconditionError(
            f"{kind} {name} takes {counts} values, got {len(values)}")
    return entry, values


def preset_problem(key):
    """(field, disk radius, radii where it jumps) of a COEFFICIENTS key."""
    entry, values = _lookup(COEFFICIENTS, "coefficient", key)
    field = entry.build(*values)
    # a field its builder leaves unnamed is named by its key
    field.name = field.name or key
    return (field, *entry.disk(*values))


def preset_field(key):
    """The coefficient a key of COEFFICIENTS names."""
    return preset_problem(key)[0]


def inclusion_field(key):
    """The load a key of INCLUSION_NAMES places in the cloaked region."""
    if key.strip() not in INCLUSION_NAMES:
        raise PreconditionError(
            f"unknown inclusion {key!r}; expected one of {INCLUSION_NAMES}")
    return preset_field(key)


def preset_map(key):
    """The radial map a key of MAPS names."""
    entry, values = _lookup(MAPS, "map", key)
    return entry.build(*(values or entry.defaults))


def preset_cell(key):
    """The scalar cell coefficient, points (m, 2) -> (m,), that a key of
    CELL_PROFILES names."""
    entry, values = _lookup(CELL_PROFILES, "cell profile", key)
    return entry.build(*(values or entry.defaults))
