"""The suite's own pytest settings (`[tool.pytest.ini_options]` in
`pyproject.toml`) let a failing test be reported like any other."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

#: a hypothesis test that fails, then one that passes
PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # on a failure hypothesis' plugin imports libcst to suggest an @example;
    # that import's DeprecationWarning, made an error by the settings, ended
    # the run as an INTERNALERROR, and the passing test went unreported
    (tmp_path / "test_pair.py").write_text(PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert proc.returncode == 1
