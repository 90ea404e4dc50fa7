"""The layer graph: the tangentia modules each module imports when it is
loaded, pinned to a DAG, so that a new edge fails the suite.  Every name a
module imports at module level must also be read somewhere in it.

Imports under ``if TYPE_CHECKING:`` serve annotations only and load nothing
at run time.  Imports inside functions (the CLI handlers, the package's
lazily resolved names) are covered by ``tests/test_cold_start.py``.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tangentia"
SOURCES = sorted(PACKAGE.glob("*.py"))

# module -> the modules it imports when it is loaded
LAYERS = {
    "rationals": set(),
    "lattice": {"rationals"},
    "torsion": {"rationals"},
    "trees": {"rationals"},
    "covers": {"rationals"},
    "census": {"lattice", "rationals", "torsion"},
    "assembly": {"census", "covers", "rationals"},
    "verify": {"assembly", "census", "covers", "lattice", "torsion", "trees"},
    "cli": set(),
    "__init__": set(),
}

# the bottom layer imports no other module, not even inside a function
LEAVES = ("rationals",)
# the layers above it import only the number rules, not even inside a function
ON_RATIONALS = ("lattice", "torsion", "trees")


def _named_modules(node):
    """The tangentia modules named by one import statement."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("tangentia.")}
    if node.level:
        base = node.module
    elif node.module == "tangentia" or (node.module or "").startswith("tangentia."):
        base = node.module[len("tangentia."):] or None
    else:
        return set()
    return {base.split(".")[0]} if base else {a.name for a in node.names}


def _is_type_checking(node):
    test = node.test
    return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"


def imports(nodes, into_functions=False):
    """Tangentia modules imported under ``nodes``, skipping ``if TYPE_CHECKING:``
    bodies and, unless ``into_functions``, function bodies."""
    found = set()
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= _named_modules(node)
        elif isinstance(node, ast.If) and _is_type_checking(node):
            found |= imports(node.orelse, into_functions)
        elif into_functions or not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            found |= imports(ast.iter_child_nodes(node), into_functions)
    return found


def _body(name):
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path)).body


def test_every_module_is_in_the_graph():
    assert {p.stem for p in SOURCES} == set(LAYERS)


def test_the_graph_is_acyclic():
    remaining = dict(LAYERS)
    while remaining:
        ready = [m for m, deps in remaining.items() if not deps & set(remaining)]
        assert ready, f"cycle among {sorted(remaining)}"
        for m in ready:
            del remaining[m]


@pytest.mark.parametrize("name", list(LAYERS))
def test_load_time_imports_match_the_graph(name):
    assert imports(_body(name)) == LAYERS[name]


@pytest.mark.parametrize("name", LEAVES)
def test_leaf_layers_import_nothing_even_lazily(name):
    assert imports(_body(name), into_functions=True) == set()


@pytest.mark.parametrize("name", ON_RATIONALS)
def test_layers_on_the_number_rules_import_only_rationals_even_lazily(name):
    assert imports(_body(name), into_functions=True) == {"rationals"}


# dataclasses pulls in inspect, ast and dis at load; no module may import it
DATACLASS_MODULES = set()


def _imports_module(name, stdlib):
    for node in ast.walk(ast.Module(body=_body(name), type_ignores=[])):
        if isinstance(node, ast.Import) and any(a.name == stdlib for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == stdlib:
            return True
    return False


def test_only_the_pinned_modules_import_dataclasses():
    assert {name for name in LAYERS if _imports_module(name, "dataclasses")} == DATACLASS_MODULES


# the integer rule of rationals is the package's one rule for what an integer
# is: no module asks isinstance(..., int), and operator.index is read only by
# rationals and by torsion, whose TorsionPoint.__mul__ keeps Python's strict
# operator protocol
INDEX_MODULES = {"rationals", "torsion"}


def _nodes(body):
    return ast.walk(ast.Module(body=body, type_ignores=[]))


def isinstance_int_lines(body):
    """Lines of the calls ``isinstance(x, int)``, int alone or in a tuple."""
    found = []
    for node in _nodes(body):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            types = node.args[1] if len(node.args) == 2 else None
            names = types.elts if isinstance(types, ast.Tuple) else [types]
            if any(getattr(t, "id", None) == "int" for t in names):
                found.append(node.lineno)
    return found


def operator_index_lines(body):
    """Lines that import ``index`` from operator or read ``operator.index``."""
    return [node.lineno for node in _nodes(body)
            if isinstance(node, ast.ImportFrom) and node.module == "operator"
            and any(a.name == "index" for a in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "index"
            and getattr(node.value, "id", None) == "operator"]


def test_one_integer_rule():
    assert not [name for name in LAYERS if isinstance_int_lines(_body(name))]
    assert {name for name in LAYERS if operator_index_lines(_body(name))} == INDEX_MODULES


def test_the_integer_rule_scan_sees_isinstance_and_operator_index():
    body = ast.parse(
        "import operator\n"
        "from operator import index, itemgetter\n"
        "def f(x):\n"
        "    return isinstance(x, int) or isinstance(x, (float, int)) or operator.index(x)\n"
        "def g(x):\n"
        "    return isinstance(x, float) or isinstance(x, (str, tuple)) or x.index(1)\n"
    ).body
    assert isinstance_int_lines(body) == [4, 4]
    assert operator_index_lines(body) == [2, 4]


# exactness: the package computes in ints and Fractions, so no module writes
# a float constant, calls float(), round(), math.sqrt, math.log or a float
# clock, or divides with "/", which turns two ints into a float.  Each
# exception is listed once with its reason, and a new one fails the suite
# until it is listed here
INEXACT_ALLOWED = {
    ("assembly", "local_invariant", "/"):
        "ledger.total is a Fraction, and a Fraction divided by an int is exact",
}
_INEXACT_CALLS = {"float", "round", "math.sqrt", "math.log",
                  "time.time", "time.monotonic", "time.perf_counter"}


def inexact_nodes(nodes, scope=()):
    """(enclosing definition, what) of each float constant, float(), round(),
    math.sqrt, math.log or float clock call and true division under
    ``nodes``."""
    found = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += inexact_nodes(ast.iter_child_nodes(node), scope + (node.name,))
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((".".join(scope), repr(node.value)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((".".join(scope), "/"))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in _INEXACT_CALLS:
            found.append((".".join(scope), ast.unparse(node.func)))
        found += inexact_nodes(ast.iter_child_nodes(node), scope)
    return found


def test_the_package_computes_exactly():
    found = [(name, *hit) for name in LAYERS for hit in inexact_nodes(_body(name))]
    assert sorted(found) == sorted(INEXACT_ALLOWED)


def test_the_exactness_scan_sees_floats_calls_and_true_division():
    body = ast.parse(
        "import math\n"
        "X = 0.5\n"
        "def f(a, b):\n"
        "    return round(a) + a / b + float(b)\n"
        "class C:\n"
        "    def g(self, x):\n"
        "        x /= 2\n"
        "        return math.sqrt(x) + math.log(x)\n"
        "def exact(a, b):\n"
        "    return a // b + int(a) + math.floor(b) + math.isqrt(a) + time.monotonic_ns()\n"
        "T = time.time() + time.monotonic() + time.perf_counter()\n"
    ).body
    assert sorted(inexact_nodes(body)) == [
        ("", "0.5"), ("", "time.monotonic"), ("", "time.perf_counter"), ("", "time.time"),
        ("C.g", "/"), ("C.g", "math.log"), ("C.g", "math.sqrt"),
        ("f", "/"), ("f", "float"), ("f", "round"),
    ]


# a positivity floor is the integer rule's third argument, _integer(value, name,
# least), not a refusal in a module's own words; only the list-level weights
# check keeps its own
OWN_FLOOR_REFUSALS = {
    ("cli", "cmd_graphs", "weights must be positive integers"),
    ("trees", "propagate_weights", "weights must be positive integers"),
}
_OWN_FLOOR = re.compile(r"must be positive|must be nonnegative|need n >= 0")


def worded_constants(nodes, pattern, scope=()):
    """(enclosing definition, text) of each string constant under ``nodes``
    that ``pattern`` finds."""
    found = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += worded_constants(node.body, pattern, scope + (node.name,))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and pattern.search(node.value):
            found.append((".".join(scope), node.value))
        else:
            found += worded_constants(ast.iter_child_nodes(node), pattern, scope)
    return found


def test_positivity_floors_are_read_by_the_integer_rule():
    found = {(name, *refusal) for name in LAYERS
             for refusal in worded_constants(_body(name), _OWN_FLOOR)}
    assert found == OWN_FLOOR_REFUSALS


def test_the_floor_scan_sees_strings_and_f_strings_by_definition():
    body = ast.parse(
        "class A:\n"
        "    def f(self, n):\n"
        "        raise ValueError(f\"n must be positive, got {n}\")\n"
        "def g():\n"
        "    return 'need n >= 0 and r >= 1', 'must be nonnegative'\n"
        "X = 'weights must be positive'\n"
    ).body
    assert worded_constants(body, _OWN_FLOOR) == [
        ("A.f", "n must be positive, got "), ("g", "need n >= 0 and r >= 1"),
        ("g", "must be nonnegative"), ("", "weights must be positive"),
    ]


# a work budget is the integer rule's fourth argument, _integer(value, name,
# least, most), refused in its one wording; only the integrality box, a
# product of two sizes, keeps its own
BUDGET_REFUSALS = {
    ("rationals", "_integer", " is budgeted to at most "),
    ("covers", "integrality_report", "the integrality box is budgeted to wmax * dmax <= "),
}
_BUDGETED = re.compile("budgeted")


def test_work_budgets_are_read_by_the_integer_rule():
    found = {(name, *refusal) for name in LAYERS
             for refusal in worded_constants(_body(name), _BUDGETED)}
    assert found == BUDGET_REFUSALS


def test_the_budget_scan_sees_a_stray_f_string_refusal():
    planted = ast.parse(
        "def multiple_cover(w, d):\n"
        "    if d > MAX_INSTANTON_DEGREE:\n"
        "        raise ValueError(f\"covers are budgeted to d <= {MAX_INSTANTON_DEGREE}, got {d}\")\n"
    ).body
    assert worded_constants(_body("covers") + planted, _BUDGETED) == [
        ("integrality_report", "the integrality box is budgeted to wmax * dmax <= "),
        ("multiple_cover", "covers are budgeted to d <= "),
    ]


# a checked record never changes and is rebuilt only by its class call, and
# that rule is written once, on the base in rationals; TorsionPoint, which
# is no tuple, keeps its own __reduce__.  Every class that builds its
# instances in __new__ is a checked record, and verify compares with its
# own frozen values, never the library's reference table
RECORD_BASE = "_Record"
RECORD_RULE = {
    ("rationals", "_Record", "_make"), ("rationals", "_Record", "__reduce__"),
    ("rationals", "_Record", "__setattr__"), ("rationals", "_Record", "__delattr__"),
    ("torsion", "TorsionPoint", "__reduce__"),
}
_RULE_MEMBERS = {"_make", "__reduce__", "__setattr__", "__delattr__"}
_LIBRARY_REFERENCE = {"reference_invariant", "REFERENCE_INVARIANTS"}


def _class_members(body):
    """(class, name, bases) of each name a class under ``body`` defines or assigns."""
    found = []
    for node in _nodes(body):
        if isinstance(node, ast.ClassDef):
            bases = [ast.unparse(b) for b in node.bases]
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.append((node.name, item.name, bases))
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    found += [(node.name, t.id, bases) for t in targets if isinstance(t, ast.Name)]
    return found


def record_rule_definitions(body):
    """(class, member) of each definition of a member of the record rule."""
    return [(cls, name) for cls, name, _ in _class_members(body) if name in _RULE_MEMBERS]


def records_off_the_base(body):
    """Classes that define ``__new__`` without the record base first among their bases."""
    return [cls for cls, name, bases in _class_members(body)
            if name == "__new__" and bases[:1] != [RECORD_BASE]]


def names_read(body, names):
    """Lines that read one of ``names``, as a name or an attribute."""
    return [node.lineno for node in _nodes(body)
            if getattr(node, "id", getattr(node, "attr", None)) in names
            and isinstance(node, (ast.Name, ast.Attribute))]


def test_the_record_rule_is_written_once():
    found = {(name, *hit) for name in LAYERS for hit in record_rule_definitions(_body(name))}
    assert found == RECORD_RULE
    assert not [(name, cls) for name in LAYERS for cls in records_off_the_base(_body(name))]
    assert names_read(_body("verify"), _LIBRARY_REFERENCE) == []


def test_the_record_scans_see_stray_definitions():
    body = ast.parse(
        "class A(_Record, _Fields):\n"
        "    def __new__(cls, x):\n"
        "        return tuple.__new__(cls, (x,))\n"
        "    _make = classmethod(lambda cls, fields: cls(*fields))\n"
        "class B(_Fields, _Record):\n"
        "    def __new__(cls):\n"
        "        pass\n"
        "    def __setattr__(self, name, value=None):\n"
        "        raise AttributeError(name)\n"
        "    __delattr__ = __setattr__\n"
        "    def __reduce__(self):\n"
        "        return B, ()\n"
        "class C:\n"
        "    __new__ = object.__new__\n"
        "def f():\n"
        "    _make = 1\n"
        "    return assembly.reference_invariant(4), REFERENCE_INVARIANTS, reference_invariant\n"
    ).body
    assert record_rule_definitions(body) == [
        ("A", "_make"), ("B", "__setattr__"), ("B", "__delattr__"), ("B", "__reduce__"),
    ]
    assert records_off_the_base(body) == ["B", "C"]
    assert names_read(body, _LIBRARY_REFERENCE) == [17, 17, 17]


# the only module-level memos: functools caches of derived read-only tables.
# A memo that serves one call lives in that call, not in a module global, and
# is freed when that call returns, by reference counting, not left for the
# collector (tests/test_trees.py::test_each_call_frees_its_memos_when_it_returns).
# No library module imports gc: collector tuning never stands in for freeing.
MODULE_CACHES = {"census.aggregate_N"}


def test_the_only_module_level_state_is_the_pinned_caches():
    cached = set()
    for name in LAYERS:
        module = importlib.import_module("tangentia" if name == "__init__" else f"tangentia.{name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info"):  # keyed where defined, so re-exports count once
                cached.add(f"{value.__module__.rpartition('.')[2]}.{value.__qualname__}")
    assert cached == MODULE_CACHES
    assert not [name for name in LAYERS if _imports_module(name, "contextvars")]
    assert not [name for name in LAYERS if _imports_module(name, "gc")]


def test_the_scan_sees_through_blocks_but_not_type_checking_or_functions():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import json, tangentia.trees\n"
        "from . import covers, rationals\n"
        "from .census import Component\n"
        "from tangentia.lattice import DivisorClass\n"
        "try:\n"
        "    from tangentia import torsion\n"
        "except ImportError:\n"
        "    pass\n"
        "if TYPE_CHECKING:\n"
        "    from . import verify\n"
        "else:\n"
        "    from . import cli\n"
        "class Record:\n"
        "    from . import assembly\n"
        "def handler():\n"
        "    from . import sneaky\n"
    )
    body = ast.parse(source).body
    assert imports(body) == {
        "trees", "covers", "rationals", "census", "lattice", "torsion", "cli", "assembly",
    }
    assert imports(body, into_functions=True) == imports(body) | {"sneaky"}


def module_level_import_names(nodes):
    """Names bound by the imports under ``nodes`` outside function and class
    bodies, ``if TYPE_CHECKING:`` included; ``from __future__`` binds none."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= module_level_import_names(ast.iter_child_nodes(node))
    return found


def unused_imports(body):
    """Module-level import names that no expression in the module reads,
    annotations included."""
    module = ast.Module(body=body, type_ignores=[])
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return module_level_import_names(body) - read


@pytest.mark.parametrize("name", [m for m in LAYERS if m != "__init__"])
def test_every_module_level_import_is_used(name):
    assert unused_imports(_body(name)) == set()


def test_the_unused_import_scan_sees_annotations_and_type_checking_blocks():
    source = (
        "from __future__ import annotations\n"
        "import os.path, json as js\n"
        "from typing import TYPE_CHECKING, Mapping, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from . import census, trees\n"
        "try:\n"
        "    import zlib\n"
        "except ImportError:\n"
        "    pass\n"
        "def f(x: Mapping[str, census.Component]) -> int:\n"
        "    import re\n"
        "    return os.sep\n"
    )
    assert unused_imports(ast.parse(source).body) == {"js", "Optional", "trees", "zlib"}
