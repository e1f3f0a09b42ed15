"""Each script in demos/ runs to the end at its coarsest argument."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# each script with its arguments; a script that takes more than about 3 s
# is slow. shell_truncation takes 6 s at its default h 0.1, about 4 s at
# 0.2; near_cloak_decay is no faster above its default h 0.15
CASES = [
    pytest.param("cell_problems.py", (), id="cell_problems"),
    pytest.param("map_geometry.py", (), id="map_geometry"),
    pytest.param("near_cloak_decay.py", (), id="near_cloak_decay"),
    pytest.param("oscillating_shell.py", (), id="oscillating_shell"),
    pytest.param("shell_truncation.py", ("0.2",), id="shell_truncation",
                 marks=pytest.mark.slow),
]


def test_every_demo_has_a_case():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == \
        sorted(case.values[0] for case in CASES)


@pytest.mark.parametrize("script, args", CASES)
def test_demo_runs(script, args):
    out = subprocess.run([sys.executable, str(DEMOS / script), *args],
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout
