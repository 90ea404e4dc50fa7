"""Every demo runs to completion, prints values, never reprs, and prints
exactly the output frozen below."""
import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change to any printed byte must update these
STDOUT_SHA256 = {
    "01_covers_and_instantons": "38571b169ff8def196e9b7969e4fd5dc06b955cf372258c9d6ea6bbadc3e7018",
    "02_torsion_division": "8b9c5e766a60a04c9a90e7cb8c06bb53313e69e4e12c2d91efc4cac800e36dbe",
    "03_class_table_and_reduction": "c9c0d726e5bc63d12b91b5413e102726bca98290b36cc56133637a28f315d546",
    "04_invariant_ledgers": "70efee095c0650272128c8eddc0af500d009d64a18dc55842edd9507f903a594",
    "05_degeneration_trees": "70da21a6982e5768beead04d1c66ba56299da1bd554f9342e28f26bc7ac6ce09",
}


@functools.cache
def _run(demo: Path) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TANGENTIA_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5
    assert [demo.stem for demo in DEMOS] == list(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "Fraction(" not in proc.stdout + proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_is_pinned(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.stem]
