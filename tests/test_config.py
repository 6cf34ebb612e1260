"""The test suite's own configuration: pyproject.toml's pytest settings
must let one failing test fail alone, without ending the session."""

import subprocess
import sys

from conftest import ROOT, src_env

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_rest_running(tmp_path):
    """On a failure, hypothesis imports libcst to write the example's
    patch, and libcst may warn as it loads.  With DeprecationWarning an
    error, that warning used to end the session with an INTERNALERROR
    (exit 3) before the tests after it ran."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
         str(probe)],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True,
        timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert proc.returncode == 1, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
