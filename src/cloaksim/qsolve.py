"""Picard iteration for -div(A(x, u) grad u) = g with Dirichlet data.

Each step freezes the state dependence at the previous iterate and solves
the resulting linear problem. A field that does not depend on the state is
solved in a single step. After three growing updates in a row the step is
halved, once; the result records that it was.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import PreconditionError
from .fem import assemble_frozen, l2_norm

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
    u: np.ndarray
    converged: bool
    iterations: int
    updates: list = dc_field(default_factory=list)
    damping_activated: bool = False
    system: object = None


def _boundary_array(mesh, boundary_values):
    if callable(boundary_values):
        g = np.asarray(boundary_values(mesh.vertices[mesh.boundary]), dtype=float)
    else:
        g = np.asarray(boundary_values, dtype=float)
    if g.shape != (len(mesh.boundary),):
        raise PreconditionError("boundary data must give one value per boundary vertex")
    return g


def solve_quasilinear(mesh, field, boundary_values, config=None, source=None,
                      warm_start=None):
    """Solve the frozen-coefficient fixed point problem on a mesh.

    Parameters
    ----------
    mesh : TriMesh
    field : CoefficientField
    boundary_values : array over boundary vertices, or callable of points
    config : PicardConfig
    source : callable g(points) -> values, optional
    warm_start : nodal array to start the iteration from, optional
    """
    cfg = config or PicardConfig()
    g = _boundary_array(mesh, boundary_values)
    coef = mesh.bind(field)
    load = None if source is None else mesh.load(source)

    if field.is_linear and warm_start is None:
        system = assemble_frozen(mesh, coef, load=load)
        u = system.solve_dirichlet(g)
        return QSolveResult(u, converged=True, iterations=1, updates=[],
                            system=system)

    u_prev = np.zeros(mesh.n_vertices) if warm_start is None \
        else np.asarray(warm_start, dtype=float).copy()
    omega = 1.0
    activated = False
    updates = []
    grow = 0
    system = None
    for it in range(1, cfg.max_iter + 1):
        system = assemble_frozen(mesh, coef, state=u_prev, load=load)
        u_hat = system.solve_dirichlet(g)
        u_new = omega * u_hat + (1.0 - omega) * u_prev
        scale = max(l2_norm(mesh, u_new), 1e-30)
        upd = l2_norm(mesh, u_new - u_prev) / scale
        updates.append(upd)
        if len(updates) >= 2 and upd > updates[-2]:
            grow += 1
            if grow >= 3 and not activated:
                omega = 0.5 * omega
                activated = True
        else:
            grow = 0
        u_prev = u_new
        if upd <= cfg.tol:
            # final state must match the assembled operator
            system = assemble_frozen(mesh, coef, state=u_prev, load=load)
            return QSolveResult(u_prev, converged=True, iterations=it,
                                updates=updates, damping_activated=activated,
                                system=system)
    return QSolveResult(u_prev, converged=False, iterations=cfg.max_iter,
                        updates=updates, damping_activated=activated,
                        system=system)


def dn_pairing(solutions, systems, basis_matrix):
    """Boundary flux of each solution paired against each trace.

    solutions : (n, n_vertices) nodal solutions, one per boundary datum
    systems : n SparseSystems, the assembled system each solution solves
        (the same object repeated when one linear system serves them all)
    basis_matrix : (K, nb) trace values on the boundary vertices

    Returns the (K, n) matrix whose (i, j) entry is the work of the j-th
    solution's boundary flux against the i-th trace. With the same basis
    used for the data and a state-independent coefficient the matrix is
    symmetric.
    """
    basis_matrix = np.atleast_2d(np.asarray(basis_matrix, dtype=float))
    if len(solutions) == 0 or len(systems) != len(solutions):
        raise PreconditionError("need one assembled system per solution")
    mesh = systems[0].mesh
    if basis_matrix.shape[1] != len(mesh.boundary):
        raise PreconditionError("basis columns must match boundary vertices")
    out = np.empty((basis_matrix.shape[0], len(solutions)))
    for j, (u, system) in enumerate(zip(solutions, systems)):
        if system.mesh is not mesh:
            raise PreconditionError("solutions live on different meshes")
        flux = system.matrix @ u - system.load
        out[:, j] = basis_matrix @ flux[mesh.boundary]
    return out
