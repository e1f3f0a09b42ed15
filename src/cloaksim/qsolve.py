"""Newton iteration for -div(A(x, u) grad u) = g with Dirichlet data.

The discrete problem is K(u) u = load, with K(u) the stiffness matrix of
the coefficient frozen at the state u. The first step freezes the starting
state (zero, unless a warm start is given) and solves the linear problem:
a Picard step. From zero it is assembled with no state, so a radial field
on a ring mesh is assembled from one wedge of triangles and ring-factored
(fem.assemble_frozen), and a datum in one angular mode with no source is
solved in that mode alone (fem.RingFactor.solve).
Every later step is a Newton step on the residual K(u) u - load
(fem.newton_system), except the step after a Newton update of at most
sqrt(tol): that one is a chord step, which solves with the last Newton
matrix, and its factor, against the residual at the current state. An
update that is not smaller than the update before it is replaced by the
Picard step from the same state, and the result records that it was. A
field that does not depend on the state is solved in a single step.
"""

from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import PreconditionError
from .fem import assemble_frozen, l2_norm, newton_system

__all__ = ["PicardConfig", "QSolveResult", "solve_quasilinear", "dn_pairing"]


@dataclass(frozen=True)
class PicardConfig:
    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if not (0 < self.tol < 1):
            raise PreconditionError("tol must lie in (0, 1)")
        if self.max_iter < 1:
            raise PreconditionError("max_iter must be at least 1")


@dataclass
class QSolveResult:
    """Solution and iteration record of solve_quasilinear.

    updates holds the relative L2 update of each step. damping_activated is
    True when the safeguard replaced at least one Newton step by a Picard
    step. system is the system assembled at the returned state, whose
    residual dn_pairing reads as the boundary flux. factor_kinds counts the
    solved systems by SparseSystem.factor_kind; a chord step, which reuses
    the factor of the Newton step before it, counts as "chord".
    """

    u: np.ndarray
    converged: bool
    iterations: int
    updates: list = dc_field(default_factory=list)
    damping_activated: bool = False
    system: object = None
    factor_kinds: Counter = dc_field(default_factory=Counter)


def _boundary_array(mesh, boundary_values):
    if callable(boundary_values):
        g = np.asarray(boundary_values(mesh.vertices[mesh.boundary]), dtype=float)
    else:
        g = np.asarray(boundary_values, dtype=float)
    if g.shape != (len(mesh.boundary),):
        raise PreconditionError("boundary data must give one value per boundary vertex")
    return g


def solve_quasilinear(mesh, field, boundary_values, config=None, source=None,
                      warm_start=None, coef=None):
    """Solve K(u) u = load on a mesh with the given Dirichlet data.

    Parameters
    ----------
    mesh : TriMesh
    field : CoefficientField
    boundary_values : array over boundary vertices, or callable of points
    config : PicardConfig
    source : callable g(points) -> values, optional
    warm_start : nodal array to start the iteration from, optional
    coef : mesh.bind(field), optional; a caller that solves with the same
        field on the same mesh many times binds it once and passes it
    """
    cfg = config or PicardConfig()
    g = _boundary_array(mesh, boundary_values)
    if coef is None:
        coef = mesh.bind(field)
    load = None if source is None else mesh.load(source)

    kinds = Counter()

    def solve(system):
        u = system.solve_dirichlet(g)
        kinds[system.factor_kind] += 1
        return u

    if field.is_linear and warm_start is None:
        system = assemble_frozen(mesh, coef, load=load)
        return QSolveResult(solve(system), converged=True, iterations=1,
                            updates=[], system=system, factor_kinds=kinds)

    u = np.zeros(mesh.n_vertices) if warm_start is None \
        else np.asarray(warm_start, dtype=float).copy()
    activated = False
    updates = []
    chord_below = np.sqrt(cfg.tol)
    newton = None        # the last Newton system, if its update <= sqrt(tol)
    for it in range(1, cfg.max_iter + 1):
        # the first step from zero freezes no state
        state = None if it == 1 and warm_start is None else u
        system = assemble_frozen(mesh, coef, state=state, load=load)
        chord = newton is not None
        if it == 1:
            step = system
        elif chord:
            # J (u_new - u) = load - K(u) u with the last Newton matrix J
            step = newton.with_load(
                newton.matrix @ u - system.matrix @ u + system.load)
        else:
            step = newton_system(system, coef, u)
        u_new = solve(step)
        upd = _update(mesh, u_new, u)
        newton = None
        if it > 1 and upd >= updates[-1]:
            # the safeguard: the Picard step from the same state
            u_new = solve(system)
            upd = _update(mesh, u_new, u)
            activated = True
        elif it > 1 and not chord and upd <= chord_below:
            newton = step
        updates.append(upd)
        u = u_new
        if upd <= cfg.tol:
            break
    # assembled at the returned state, converged or not, so that dn_pairing
    # reads the flux of u itself
    system = assemble_frozen(mesh, coef, state=u, load=load)
    return QSolveResult(u, converged=updates[-1] <= cfg.tol, iterations=it,
                        updates=updates, damping_activated=activated,
                        system=system, factor_kinds=kinds)


def _update(mesh, new, old):
    """L2 norm of the update relative to that of the new iterate."""
    return l2_norm(mesh, new - old) / max(l2_norm(mesh, new), 1e-30)


def dn_pairing(system, solutions, basis_matrix):
    """Boundary flux of each solution of one system paired against each
    trace.

    system : the assembled SparseSystem the solutions solve
    solutions : (n, n_vertices) nodal solutions, one per boundary datum
    basis_matrix : (K, nb) trace values on the boundary vertices

    Returns the (K, n) matrix whose (i, j) entry is the work of the j-th
    solution's boundary flux, the residual of the system at it, against
    the i-th trace. The residual is summed over the entries of the
    boundary rows alone (mesh.boundary_rows), in the order of a product
    with the matrix. Each column is its own sums and products, so it holds
    the same bits whether it is paired alone or with others; one product
    over all columns would also copy the solutions into another memory
    order. With the same basis used for the data and a state-independent
    coefficient the matrix is symmetric.
    """
    basis_matrix = np.atleast_2d(np.asarray(basis_matrix, dtype=float))
    boundary = system.mesh.boundary
    if basis_matrix.shape[1] != len(boundary):
        raise PreconditionError("basis columns must match boundary vertices")
    row, pos, col = system.mesh.boundary_rows
    data, load = system.matrix.data[pos], system.load[boundary]
    out = np.empty((basis_matrix.shape[0], len(solutions)))
    for j, u in enumerate(solutions):
        flux = np.bincount(row, weights=data * u[col], minlength=len(boundary))
        out[:, j] = basis_matrix @ (flux - load)
    return out
