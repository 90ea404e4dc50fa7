"""The library never relies on ``assert`` for a check, so every check still
runs under ``python -O``."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tangentia").glob("*.py"))


def test_sources_are_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], f"{path.name} asserts at lines {found}"
