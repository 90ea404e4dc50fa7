"""Neither the library nor the demos rely on ``assert`` for a check, so
every check still runs under ``python -O``."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "tangentia").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_sources_are_found():
    assert len(SOURCES) >= 10
    assert len(DEMOS) == 5


def _asserts(path: Path) -> list[int]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_assert(path):
    found = _asserts(path)
    assert found == [], f"{path.name} asserts at lines {found}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_has_no_assert(path):
    found = _asserts(path)
    assert found == [], f"demos/{path.name} asserts at lines {found}"
