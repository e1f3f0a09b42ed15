"""Dirichlet-to-Neumann operators restricted to a trigonometric basis.

The DN map is observed through the pairing matrix M[i][j] = <flux of the
solution with datum f_j, trace f_i> over the outer circle. Fluxes are
always extracted variationally (pairing with lifted traces), never by
differentiating the finite element solution at the boundary.
"""

import json

import numpy as np

from .errors import PreconditionError
from .fem import assemble_frozen
from .qsolve import PicardConfig, dn_pairing, solve_quasilinear

__all__ = ["FourierBasis", "DtNOperator", "dn_operator", "dn_difference",
           "neumann_trace_error"]


class FourierBasis:
    """Traces {1, cos k0, sin k0 : k = 1..K} on a circle of given radius.

    Index 0 is the constant; indices 2k-1 and 2k are cos and sin of mode k.
    Mode k carries the weight (1 + k^2)^(1/2) for the discrete H^{1/2}
    norm and its reciprocal for H^{-1/2}.
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
        k = np.empty(self.size, dtype=int)
        k[0] = 0
        for m in range(1, self.max_mode + 1):
            k[2 * m - 1] = m
            k[2 * m] = m
        return k

    def weights(self, exponent=0.5):
        return (1.0 + self.modes().astype(float) ** 2) ** exponent

    def trace_matrix(self, mesh):
        """(size, n_boundary) values of the basis at the boundary vertices."""
        theta = mesh.boundary_angles()
        out = np.empty((self.size, len(theta)))
        out[0] = 1.0
        for k in range(1, self.max_mode + 1):
            out[2 * k - 1] = np.cos(k * theta)
            out[2 * k] = np.sin(k * theta)
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

    Operators computed by dn_operator also keep the mesh, the nodal
    solution of each column (row j solves datum j) and its Picard
    iteration count; operators loaded by from_json have None there.
    """

    def __init__(self, basis, pairing_matrix, coefficient="", nonlinear=False,
                 converged=None, solutions=None, iterations=None, mesh=None):
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

    @property
    def all_converged(self):
        return all(self.converged)

    def to_json(self, path=None):
        doc = {
            "basis": self.basis.max_mode,
            "radius": self.basis.radius,
            "matrix": [float(v) for v in self.pairing_matrix.ravel()],
            "converged": self.converged,
            "coefficient": self.coefficient,
            "nonlinear": self.nonlinear,
        }
        text = json.dumps(doc, indent=1)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, source):
        if isinstance(source, str) and source.lstrip().startswith("{"):
            doc = json.loads(source)
        else:
            with open(source) as fh:
                doc = json.load(fh)
        basis = FourierBasis(doc["basis"], doc.get("radius", 2.0))
        n = basis.size
        matrix = np.array(doc["matrix"], dtype=float).reshape(n, n)
        return cls(basis, matrix, coefficient=doc.get("coefficient", ""),
                   nonlinear=doc.get("nonlinear", False),
                   converged=doc.get("converged"))


def dn_operator(A, basis, mesh, cfg=None, source=None):
    """Solve one boundary value problem per basis function and pair fluxes.

    For a state-independent coefficient a single factorization serves all
    columns. Otherwise each column is an independent Picard iteration at
    amplitude one, and the operator records a nonlinearity flag: the matrix
    is then a finite probe of a nonlinear map, not a linear restriction.
    """
    rb = np.linalg.norm(mesh.vertices[mesh.boundary], axis=1)
    if np.abs(rb - basis.radius).max() > 1e-9 * basis.radius:
        raise PreconditionError(
            f"basis radius {basis.radius:g} does not match the mesh boundary "
            f"radius {rb.max():.12g}")
    cfg = cfg or PicardConfig()
    traces = basis.trace_matrix(mesh)
    if A.is_linear:
        system = assemble_frozen(mesh, A, source=source)
        solutions = np.empty((basis.size, mesh.n_vertices))
        for j in range(basis.size):
            solutions[j] = system.solve_dirichlet(traces[j])
        systems = [system] * basis.size
        iterations = [1] * basis.size
        converged = None
    else:
        results = [solve_quasilinear(mesh, A, traces[j], config=cfg,
                                     source=source)
                   for j in range(basis.size)]
        solutions = np.stack([r.u.values for r in results])
        systems = [r.system for r in results]
        iterations = [r.iterations for r in results]
        converged = [r.converged for r in results]
    matrix = dn_pairing(solutions, systems, traces)
    return DtNOperator(basis, matrix, coefficient=A.name,
                       nonlinear=not A.is_linear, converged=converged,
                       solutions=solutions, iterations=iterations, mesh=mesh)


def dn_difference(op1, op2):
    """Weighted spectral estimate of the operator norm of the difference.

    Largest singular value of W^{-1/2} (M1 - M2) W^{-1/2}, with W the
    diagonal of H^{1/2} mode weights. A Galerkin estimate over the
    truncated basis, zero when the operators agree.
    """
    if op1.basis != op2.basis:
        raise PreconditionError("operators use different bases")
    w = op1.basis.weights(0.5)
    scale = 1.0 / np.sqrt(w)
    d = (op1.pairing_matrix - op2.pairing_matrix) * np.outer(scale, scale)
    return float(np.linalg.svd(d, compute_uv=False)[0])


def _band_identity_check(field, band, n=64):
    pts = band.sample_lattice(n)
    if len(pts) == 0:
        return
    mats = field.eval(pts, np.zeros(len(pts)))
    eye = np.eye(field.dim)
    defect = np.abs(mats - eye).max()
    if defect > 1e-10:
        raise PreconditionError(
            f"coefficient is not the identity on the band (defect {defect:.2e})")


def neumann_trace_error(u1, u2, band, basis=None, field1=None, field2=None):
    """H^{1/2}-weighted mode norm of the difference of boundary fluxes.

    Both functions must be discrete solutions of source-free problems whose
    coefficient equals the identity on the band touching the outer circle;
    fluxes are then computable from the band alone, so the two functions
    may live on different meshes. Pass the coefficients to have the
    identity property checked.
    """
    for fld in (field1, field2):
        if fld is not None:
            _band_identity_check(fld, band)
    basis = basis or FourierBasis()

    def mode_fluxes(u):
        mesh = u.mesh
        inside = band.contains(mesh.centroids)
        tris = mesh.triangles[inside]
        grads = mesh.grads[inside]
        areas = mesh.areas[inside]
        uv = u.values[tris]
        gu = np.einsum("tic,ti->tc", grads, uv)           # grad u per triangle
        traces = basis.trace_matrix(mesh)
        lifts = np.zeros((basis.size, mesh.n_vertices))
        lifts[:, mesh.boundary] = traces
        lv = lifts[:, tris]                                # (K, nt, 3)
        gl = np.einsum("tic,kti->ktc", grads, lv)
        flux = np.einsum("ktc,tc,t->k", gl, gu, areas)
        masses = basis.masses(mesh)
        return flux, masses

    f1, m1 = mode_fluxes(u1)
    f2, m2 = mode_fluxes(u2)
    w = basis.weights(0.5)
    masses = 0.5 * (m1 + m2)
    df = f1 - f2
    return float(np.sqrt(np.sum(w * df ** 2 / masses)))
