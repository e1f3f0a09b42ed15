"""Dirichlet-to-Neumann operators restricted to a trigonometric basis.

The DN map is observed through the pairing matrix M[i][j] = <flux of the
solution with datum f_j, trace f_i> over the outer circle. Fluxes are
always extracted variationally (pairing with lifted traces), never by
differentiating the finite element solution at the boundary. Every
boundary number is read from pairing matrices: dn_difference compares
whole operators, neumann_trace_error one column of two operators on the
same mesh.
"""

import json
from collections import Counter

import numpy as np

from .errors import PreconditionError
from .fem import assemble_frozen
from .qsolve import PicardConfig, dn_pairing, solve_quasilinear

__all__ = ["FourierBasis", "DtNOperator", "dn_operator", "dn_difference",
           "neumann_trace_error"]


class FourierBasis:
    """Traces {1, cos k0, sin k0 : k = 1..K} on a circle of given radius.

    Index 0 is the constant; indices 2k-1 and 2k are cos and sin of mode k.
    Mode k carries the weight (1 + k^2)^(1/2) of the discrete H^{1/2}
    norm.
    """

    def __init__(self, max_mode=8, radius=2.0):
        if max_mode < 1:
            raise PreconditionError("max_mode must be at least 1")
        self.max_mode = int(max_mode)
        self.radius = float(radius)

    @property
    def size(self):
        return 2 * self.max_mode + 1

    def modes(self):
        """Mode number of each basis index."""
        return (np.arange(self.size) + 1) // 2

    def weights(self):
        """The H^{1/2} weight (1 + k^2)^(1/2) of each basis index."""
        return (1.0 + self.modes().astype(float) ** 2) ** 0.5

    def trace_matrix(self, mesh):
        """(size, n_boundary) values of the basis at the boundary vertices."""
        theta = mesh.boundary_angles()
        out = np.empty((self.size, len(theta)))
        out[0] = 1.0
        angles = np.outer(np.arange(1, self.max_mode + 1), theta)
        np.cos(angles, out=out[1::2])
        np.sin(angles, out=out[2::2])
        return out

    def masses(self, mesh):
        """Discrete L^2(boundary) norms squared of the basis functions."""
        w = mesh.boundary_arc_weights()
        tm = self.trace_matrix(mesh)
        return (tm ** 2) @ w

    def __eq__(self, other):
        return (isinstance(other, FourierBasis)
                and other.max_mode == self.max_mode
                and other.radius == self.radius)

    def __repr__(self):
        return f"FourierBasis(max_mode={self.max_mode}, radius={self.radius})"


class DtNOperator:
    """DN pairing matrix of a coefficient over a FourierBasis.

    Column j of the pairing matrix is the boundary flux of the solution
    with datum j, paired with every trace. Operators computed by
    dn_operator also keep the mesh, the nodal solution of each column
    (row j solves datum j), its iteration count and factor_kinds, the
    count of the systems it factored by SparseSystem.factor_kind;
    operators loaded by from_json have None there, so only dn_difference
    takes them.
    """

    def __init__(self, basis, pairing_matrix, coefficient="", nonlinear=False,
                 converged=None, solutions=None, iterations=None, mesh=None,
                 factor_kinds=None):
        pairing_matrix = np.asarray(pairing_matrix, dtype=float)
        if pairing_matrix.shape != (basis.size, basis.size):
            raise PreconditionError("pairing matrix does not match basis size")
        self.basis = basis
        self.pairing_matrix = pairing_matrix
        self.coefficient = coefficient
        self.nonlinear = bool(nonlinear)
        if converged is None:
            converged = [True] * basis.size
        self.converged = list(bool(c) for c in converged)
        self.solutions = solutions
        self.iterations = iterations
        self.mesh = mesh
        self.factor_kinds = factor_kinds

    @property
    def all_converged(self):
        return all(self.converged)

    def to_json(self, path):
        doc = {
            "basis": self.basis.max_mode,
            "radius": self.basis.radius,
            "matrix": [float(v) for v in self.pairing_matrix.ravel()],
            "converged": self.converged,
            "coefficient": self.coefficient,
            "nonlinear": self.nonlinear,
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, indent=1) + "\n")

    @classmethod
    def from_json(cls, path):
        """Read an operator that to_json wrote; any other document raises
        PreconditionError."""
        with open(path) as fh:
            try:
                doc = json.load(fh)
                basis = FourierBasis(doc["basis"], doc.get("radius", 2.0))
                n = basis.size
                matrix = np.array(doc["matrix"], dtype=float).reshape(n, n)
            except (ValueError, KeyError, TypeError) as exc:
                raise PreconditionError(
                    f"{path} is not an operator file: {exc!r}") from None
        return cls(basis, matrix, coefficient=doc.get("coefficient", ""),
                   nonlinear=doc.get("nonlinear", False),
                   converged=doc.get("converged"))


def dn_operator(A, basis, mesh, cfg=None):
    """Solve one boundary value problem per basis function and pair fluxes.

    A basis whose max_mode reaches half the boundary vertex count raises
    PreconditionError: on that polygon the traces of modes k and n - k
    coincide, and their columns would be aliases.

    For a state-independent coefficient a single factorization serves all
    columns, and every full nodal solution is kept; a ring-factored
    (radial) system solves each datum in its one angular mode
    (RingFactor.solve). Otherwise each column is an independent nonlinear
    solve at amplitude one, all with the coefficient bound once, and the
    operator records a nonlinearity flag: the matrix is then a finite
    probe of a nonlinear map, not a linear restriction. Each such column
    is paired as soon as its solve returns, and its system is dropped
    before the next column's solve.
    """
    rb = np.linalg.norm(mesh.vertices[mesh.boundary], axis=1)
    if np.abs(rb - basis.radius).max() > 1e-9 * basis.radius:
        raise PreconditionError(
            f"basis radius {basis.radius:g} does not match the mesh boundary "
            f"radius {rb.max():.12g}")
    if 2 * basis.max_mode >= len(mesh.boundary):
        raise PreconditionError(
            f"basis max_mode {basis.max_mode} needs more than "
            f"{2 * basis.max_mode} boundary vertices, the mesh has "
            f"{len(mesh.boundary)}: the traces of modes k and n - k coincide")
    cfg = cfg or PicardConfig()
    traces = basis.trace_matrix(mesh)
    solutions = np.empty((basis.size, mesh.n_vertices))
    if A.is_linear:
        system = assemble_frozen(mesh, mesh.bind(A))
        for j in range(basis.size):
            solutions[j] = system.solve_dirichlet(traces[j])
        matrix = dn_pairing(system, solutions, traces)
        iterations = [1] * basis.size
        converged = None
        kinds = Counter([system.factor_kind])
    else:
        coef = mesh.bind(A)
        matrix = np.empty((basis.size, basis.size))
        iterations, converged, kinds = [], [], Counter()
        for j in range(basis.size):
            res = solve_quasilinear(mesh, A, traces[j], config=cfg,
                                    coef=coef)
            solutions[j] = res.u
            # paired at once, and the system dropped before the next
            # column's solve
            matrix[:, [j]] = dn_pairing(res.system, solutions[[j]], traces)
            iterations.append(res.iterations)
            converged.append(res.converged)
            kinds += res.factor_kinds
            del res
    return DtNOperator(basis, matrix, coefficient=A.name,
                       nonlinear=not A.is_linear, converged=converged,
                       solutions=solutions, iterations=iterations, mesh=mesh,
                       factor_kinds=kinds)


def dn_difference(op1, op2):
    """Weighted spectral estimate of the operator norm of the difference.

    Largest singular value of W^{-1/2} (M1 - M2) W^{-1/2}, with W the
    diagonal of H^{1/2} mode weights. A Galerkin estimate over the
    truncated basis, zero when the operators agree.
    """
    if op1.basis != op2.basis:
        raise PreconditionError("operators use different bases")
    w = op1.basis.weights()
    scale = 1.0 / np.sqrt(w)
    d = (op1.pairing_matrix - op2.pairing_matrix) * np.outer(scale, scale)
    return float(np.linalg.svd(d, compute_uv=False)[0])


def neumann_trace_error(op1, op2, column):
    """H^{1/2}-weighted mode norm of the difference of one datum's fluxes.

    Reads column `column` of both pairing matrices and divides each mode
    of the difference by its trace's boundary mass. Both operators must
    come from dn_operator on one mesh, over one basis.
    """
    if op1.basis != op2.basis:
        raise PreconditionError("operators use different bases")
    if op1.mesh is None or op1.mesh is not op2.mesh:
        raise PreconditionError("operators must be computed on one mesh")
    w = op1.basis.weights()
    df = op1.pairing_matrix[:, column] - op2.pairing_matrix[:, column]
    return float(np.sqrt(np.sum(w * df ** 2 / op1.basis.masses(op1.mesh))))
