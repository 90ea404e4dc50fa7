"""The repository's pytest settings report every failure: a failing
Hypothesis property ends its own test, not the session, so the tests after
it still run and the summary counts them."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PLANTED = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x != x


def test_a_passing_test():
    pass
'''


def test_a_failing_property_test_leaves_the_rest_of_the_session_running(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED)
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTEST_", "HYPOTHESIS_"))}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
