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
    (the angular-mode factor of the assembled matrix)."""
    from cloaksim import fem

    calls = []
    real_splu, real_ring = fem.splu, fem.ring_factor

    def recording_splu(matrix, **kwargs):
        lu = real_splu(matrix, **kwargs)
        calls.append(("splu", matrix, lu))
        return lu

    def recording_ring(system):
        factor = real_ring(system)
        if factor is not None:
            calls.append(("ring", system.matrix, factor))
        return factor

    monkeypatch.setattr(fem, "splu", recording_splu)
    monkeypatch.setattr(fem, "ring_factor", recording_ring)
    return calls
