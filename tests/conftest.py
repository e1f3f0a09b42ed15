import pytest

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
    """Record (matrix, factor) for every splu call made by cloaksim.fem."""
    from cloaksim import fem

    calls = []
    real = fem.splu

    def recording(matrix, **kwargs):
        lu = real(matrix, **kwargs)
        calls.append((matrix, lu))
        return lu

    monkeypatch.setattr(fem, "splu", recording)
    return calls
