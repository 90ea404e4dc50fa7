"""Neither the library nor the demos rely on ``assert`` for a check, so
every check still runs under ``python -O``.  ``verify`` fails a check one
way: only ``_expect`` raises ``CheckFailure``, and each call passes a literal
``str.format`` template that is formatted only on failure."""
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


VERIFY = ROOT / "src" / "tangentia" / "verify.py"


def check_failure_raises(nodes, scope=""):
    """The enclosing function of each ``raise CheckFailure`` under ``nodes``."""
    found = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += check_failure_raises(node.body, node.name)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "CheckFailure":
                found.append(scope)
        else:
            found += check_failure_raises(ast.iter_child_nodes(node), scope)
    return found


def expect_calls(body):
    """(line, eager) of each ``_expect`` call: eager when its template is not
    a string literal or any argument is an f-string, built on every pass."""
    calls = [node for node in ast.walk(ast.Module(body=body, type_ignores=[]))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_expect"]
    return [(call.lineno,
             not (len(call.args) > 1 and isinstance(call.args[1], ast.Constant)
                  and isinstance(call.args[1].value, str))
             or any(isinstance(a, ast.JoinedStr) for a in call.args))
            for call in calls]


def test_verify_fails_a_check_one_way():
    body = ast.parse(VERIFY.read_text(), filename=str(VERIFY)).body
    assert check_failure_raises(body) == ["_expect"]
    calls = expect_calls(body)
    assert len(calls) > 20
    assert [line for line, eager in calls if eager] == []


def test_the_failure_path_scan_sees_raises_and_eager_messages():
    body = ast.parse(
        "def _expect(ok, template, *args):\n"
        "    if not ok:\n"
        "        raise CheckFailure(template.format(*args))\n"
        "class C:\n"
        "    def check(self, n):\n"
        "        if n:\n"
        "            raise verify.CheckFailure\n"
        "        _expect(n, 'n = {}', n)\n"
        "        _expect(n, f'n = {n}')\n"
        "        _expect(n, 'n = {}'.format(n))\n"
        "        _expect(n, 'n = {}', f'{n}')\n"
        "        raise ValueError(n)\n"
    ).body
    assert check_failure_raises(body) == ["_expect", "check"]
    assert expect_calls(body) == [(8, False), (9, True), (10, True), (11, True)]
