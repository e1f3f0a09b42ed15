import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run, so the quick tier
# stays deterministic and its time stays bounded
settings.register_profile("cloaksim", derandomize=True, max_examples=15,
                          deadline=None, database=None)
settings.load_profile("cloaksim")

verdict_lines = []


def record_verdict(line):
    verdict_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not verdict_lines:
        return
    terminalreporter.section("acceptance verdicts")
    for line in verdict_lines:
        terminalreporter.write_line(line)


@pytest.fixture
def factors(monkeypatch):
    """Record (kind, matrix, factor) for every factorization made by
    cloaksim.fem: kind "splu" (SuperLU of the interior block) or "ring"
    (the angular-mode factor; its matrix is the data it reads the bands
    from, RingFactor's system.ring_rows)."""
    from cloaksim import fem

    calls = []
    real_splu = fem.splu

    def recording_splu(matrix, **kwargs):
        lu = real_splu(matrix, **kwargs)
        calls.append(("splu", matrix, lu))
        return lu

    # a subclass, not a wrapper function, so that ring_solves can still
    # patch the solve methods of fem.RingFactor
    class RecordingRingFactor(fem.RingFactor):
        def __init__(self, system):
            super().__init__(system)
            calls.append(("ring", system.ring_rows[0], self))

    monkeypatch.setattr(fem, "splu", recording_splu)
    monkeypatch.setattr(fem, "RingFactor", RecordingRingFactor)
    return calls


@pytest.fixture
def ring_solves(monkeypatch):
    """Record, for every RingFactor solve, the angular mode it solved alone
    (RingFactor.mode_profile, which the one-mode solves of a SparseSystem
    and of a RingSystem both make), or None for a solve of every mode."""
    from cloaksim import fem

    calls = []
    real_mode, real_all = fem.RingFactor.mode_profile, fem.RingFactor._solve_all

    def recording_mode(self, coefficient, k):
        calls.append(int(k))
        return real_mode(self, coefficient, k)

    def recording_all(self, rhs):
        calls.append(None)
        return real_all(self, rhs)

    monkeypatch.setattr(fem.RingFactor, "mode_profile", recording_mode)
    monkeypatch.setattr(fem.RingFactor, "_solve_all", recording_all)
    return calls


def lu_reference(system, g):
    """The Dirichlet solve as a fresh SuperLU factor of the interior block
    computes it."""
    from scipy.sparse.linalg import splu

    from cloaksim.fem import SUPERLU_SETTINGS

    mesh = system.mesh
    ii = mesh.interior
    full = np.zeros(mesh.n_vertices)
    full[mesh.boundary] = g
    rhs = (system.load - system.matrix @ full)[ii]
    lu = splu(system.matrix[ii][:, ii].tocsc(), permc_spec="MMD_AT_PLUS_A",
              **SUPERLU_SETTINGS)
    full[ii] = lu.solve(rhs)
    return full


def oscillating_case(target):
    """Criterion 7's first term, or its homogenized target, and the
    sweep's mesh layout for it with fewer angles."""
    from cloaksim.fem import build_disk_mesh
    from cloaksim.homog import build_isotropic_cloak_sequence

    spec = build_isotropic_cloak_sequence(n_terms=1)[0]
    dr = spec.eps / 8.0
    seam = spec.R - 2 * spec.eta - 2 * dr
    mesh = build_disk_mesh(
        3.0, aligned_radii=(1.0, spec.R - 2 * spec.eta, spec.R, 2.0),
        h_target=0.25, n_theta=32, radial_bands=[(seam, 2.0, dr)])
    return (spec.homogenized() if target else spec.field()), mesh


def bare_mesh(mesh):
    """The same triangulation without its ring layout, on a connectivity
    of its own."""
    from cloaksim.fem import Connectivity, TriMesh

    return TriMesh(mesh.vertices, Connectivity.of(
        mesh.triangles, mesh.boundary, mesh.n_vertices))
