"""The suite's own pytest configuration in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.just(0))
def test_hypothesis_fails(x):
    assert x != 0


def test_plain_fails():
    assert False
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # Warnings are errors in the suite.  Hypothesis's failure report
    # imports mypy_extensions.TypedDict, whose DeprecationWarning must not
    # become an INTERNALERROR (exit 3) that ends the run there.
    path = tmp_path / "test_pair.py"
    path.write_text(FAILING_PAIR)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "-q", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    out = res.stdout + res.stderr
    assert res.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "test_plain_fails - assert False" in out and "2 failed" in out
