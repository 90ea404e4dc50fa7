"""The import contract: ``import tangentia.cli`` loads no layer, each
subcommand loads only the layers it runs, and every ``from tangentia
import X`` still works.  ``sys.modules`` is process-wide, so each case runs
in a fresh interpreter."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the public names of the package, by defining module
EXPORTS = {
    "assembly": "AssemblyMismatch GwLedger HypothesisViolation LedgerLine assemble_invariant "
                "instanton_census local_invariant pair_contribution reference_invariant",
    "census": "CensusEntry Component NONFLEX_NINE aggregate_N boundary_census class_curve_counts "
              "count_M4 euler_budget",
    "covers": "IntegralityRow divisors instanton_numbers integrality_report local_cover multiple_cover",
    "lattice": "CANONICAL ClassTableRow DivisorClass arithmetic_genus class_literal cremona_reduce "
               "cremona_steps enumerate_classes ordered_count pairing parse_class_literal "
               "tangency_degree",
    "rationals": "binomial",
    "torsion": "Stratum TorsionPoint restriction_class solve_division stratify stratum_sizes "
               "torsion_points",
    "trees": "CombType WeightedCombType enumerate_types propagate_weights",
    "verify": "CheckResult run_all_checks",
}
LAYERS = set(EXPORTS)


def _python(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TANGENTIA_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = """
import json, sys
def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("tangentia."))
"""


def test_importing_the_cli_loads_no_layer():
    assert _python(_LOADED + "import tangentia.cli\nprint(json.dumps(loaded()))") == ["cli"]


# the layers each subcommand loads; a usage error loads none.  No subcommand
# loads dataclasses or inspect, which pull in ast and dis at load
SUBCOMMAND_LAYERS = {
    "mcover --w 3 --d 4": {"covers", "rationals"},
    "instantons --w 3 --dmax 4": {"covers", "rationals"},
    "integrality --wmax 3 --dmax 3": {"covers", "rationals"},
    "classes --degree 4": {"lattice", "rationals"},
    "torsion --strata": {"rationals", "torsion"},
    "torsion --solve --class 2H-E1-E2": {"lattice", "rationals", "torsion"},
    "census --aggregate": {"census", "lattice", "rationals", "torsion"},
    "census --degree 4 --stratum T1 --json": {"census", "lattice", "rationals", "torsion"},
    "check-gw --degree 4": {"assembly", "census", "covers", "lattice", "rationals", "torsion"},
    "graphs --n 2 --r 3 --weights 1,2,3": {"rationals", "trees"},
    "verify-all --json": LAYERS,
    "mcover --w x --d 4": set(),
}


def _main_loads(argv):
    """Exit code of ``main(argv)`` in a fresh interpreter, the tangentia
    modules it loaded, and which of dataclasses and inspect it loaded."""
    code = _LOADED + (
        "import io, contextlib\n"
        "before = set(sys.modules)\n"
        "from tangentia.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "heavy = sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))\n"
        "print(json.dumps([code, loaded(), heavy]))"
    )
    return _python(code)


@pytest.mark.parametrize("argv", list(SUBCOMMAND_LAYERS))
def test_a_subcommand_loads_only_its_layers(argv):
    exit_code, loaded, heavy = _main_loads(argv.split())
    assert exit_code == (1 if "--w x" in argv else 0)
    assert set(loaded) == SUBCOMMAND_LAYERS[argv] | {"cli"}
    assert heavy == []


@pytest.mark.parametrize("argv", [
    ["census", "--aggregate", "--special-cubic"],
    ["census", "--degree", "2"],
    ["torsion", "--strata", "--m", "4"],
    ["torsion", "--solve"],
    ["graphs", "--n", "2", "--r", "3", "--weights", ""],
    ["graphs", "--n", "0", "--r", "3", "--weights", "0,-1,5"],
], ids=["aggregate-special-cubic", "census-no-stratum", "strata-m", "solve-no-class",
        "empty-weights", "non-positive-weights-no-types"])
def test_a_usage_error_loads_no_layer(argv):
    assert _main_loads(argv) == [1, ["cli"], []]


@pytest.mark.parametrize("argv", ["mcover --w 3 --d 4", "instantons --w 3 --dmax 4",
                                  "integrality --wmax 3 --dmax 3"])
def test_covers_subcommands_load_no_dataclasses(argv):
    # dataclasses pulls in inspect, ast and dis; covers' only record type is
    # a NamedTuple, so its subcommands never pay for them
    code = (
        "import io, json, sys, contextlib\n"
        "from tangentia.cli import main\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv.split()!r})\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))"
    )
    exit_code, added = _python(code)
    assert exit_code == 0
    assert "tangentia.covers" in added
    assert "dataclasses" not in added


@pytest.mark.parametrize("statement, loaded", [
    ("import tangentia.torsion", ["tangentia.rationals", "tangentia.torsion"]),
    ("from tangentia.cli import main; main(['torsion', '--strata'])",
     ["tangentia.cli", "tangentia.rationals", "tangentia.torsion"]),
])
def test_torsion_loads_no_other_layer_and_no_dataclasses(statement, loaded):
    # torsion imports DivisorClass for its annotations only
    code = (
        "import io, json, sys, contextlib\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    added = _python(code)
    assert [m for m in added if m.startswith("tangentia.")] == loaded
    assert "dataclasses" not in added


def test_every_export_is_its_modules_object():
    names = _python(
        "import importlib, json, tangentia\n"
        f"exports = {EXPORTS!r}\n"
        "same = {}\n"
        "for module, names in exports.items():\n"
        "    for name in names.split():\n"
        "        value = getattr(tangentia, name)  # resolved through the package first\n"
        "        same[name] = value is getattr(importlib.import_module('tangentia.' + module), name)\n"
        "print(json.dumps([tangentia.__all__, same]))"
    )
    exported, same = names
    assert sorted(exported) == sorted(" ".join(EXPORTS.values()).split())
    assert all(same.values()), [name for name, ok in same.items() if not ok]


def test_star_import_dir_and_module_names_work():
    result = _python(
        "import json\n"
        "import tangentia\n"
        "namespace = {}\n"
        "exec('from tangentia import *', namespace)\n"
        "from tangentia import covers\n"
        "from tangentia import trees as by_name\n"
        "print(json.dumps({\n"
        "    'star': sorted(k for k in namespace if not k.startswith('__')),\n"
        "    'all': sorted(tangentia.__all__),\n"
        "    'dir_has_all': set(tangentia.__all__) <= set(dir(tangentia)),\n"
        "    'covers': covers.multiple_cover(3, 2) == tangentia.multiple_cover(3, 2),\n"
        "    'trees': by_name is tangentia.trees,\n"
        "    'verify_attr': tangentia.verify.__name__,\n"
        "}))"
    )
    assert result["star"] == result["all"]
    assert result["dir_has_all"] and result["covers"] and result["trees"]
    assert result["verify_attr"] == "tangentia.verify"


def test_an_unknown_name_raises_attribute_error():
    import tangentia

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tangentia.no_such_name
    names = dir(tangentia)  # the lazy names, resolved or not, and no unknown one
    assert set(tangentia.__all__) <= set(names) and "no_such_name" not in names
    with pytest.raises(ImportError):
        from tangentia import no_such_name  # noqa: F401


def test_handlers_call_through_the_tracers_patched_attributes():
    # perfbench's tracer wraps functions by patching module attributes after
    # import; the handlers' on-demand imports must still reach the wrappers
    spans = _python(
        "import io, json, sys, contextlib\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import tracer\n"
        "import tangentia.cli as cli\n"
        "recorder = tracer.Recorder()\n"
        "tracer.install(recorder)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['check-gw', '--degree', '4'])\n"
        "assert code == 0\n"
        "print(json.dumps({k: v['calls'] for k, v in recorder.summary()['spans'].items()}))"
    )
    assert spans["cli.cmd_check_gw"] == 1
    assert spans["assembly.assemble_invariant"] == 1
    assert any(name.startswith("census.") and calls for name, calls in spans.items())
