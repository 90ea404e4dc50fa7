import argparse
import gc
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tangentia import assembly, census, cli, covers, lattice, torsion, trees, verify
from tangentia.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture(autouse=True)
def _clean_format_env(monkeypatch):
    monkeypatch.delenv("TANGENTIA_FORMAT", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_mcover_text(capsys):
    code, out, err = run(capsys, "mcover", "--w", "3", "--d", "4")
    assert code == 0
    assert out == "M_3[4] = 35/16\n"
    assert err == ""


def test_mcover_json(capsys):
    code, out, _ = run(capsys, "mcover", "--w", "3", "--d", "4", "--json")
    assert code == 0
    assert json.loads(out) == {"w": 3, "d": 4, "value": "35/16"}


def test_instantons_text(capsys):
    code, out, _ = run(capsys, "instantons", "--w", "3", "--dmax", "6")
    assert code == 0
    assert out.splitlines() == [
        "m_3[1] = 1",
        "m_3[2] = 1",
        "m_3[3] = 1",
        "m_3[4] = 2",
        "m_3[5] = 5",
        "m_3[6] = 13",
    ]


def test_instantons_json(capsys):
    code, out, _ = run(capsys, "instantons", "--w", "4", "--dmax", "4", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload == {"w": 4, "dmax": 4, "values": ["1", "1", "3", "10"]}


def test_integrality_all_pass(capsys):
    code, out, _ = run(capsys, "integrality", "--wmax", "8", "--dmax", "8")
    assert code == 0
    assert "64 rows, w <= 8, d <= 8: all rows pass" in out


def test_integrality_csv(capsys):
    code, out, _ = run(capsys, "integrality", "--wmax", "3", "--dmax", "2", "--csv")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "w,d,value,integer,positive,extrapolated,pass"
    assert len(lines) == 1 + 3 * 2
    assert lines[1] == "1,1,1,True,True,True,True"
    assert lines[2] == "1,2,0,True,False,True,True"


def test_integrality_json_flags(capsys):
    code, out, _ = run(capsys, "integrality", "--wmax", "4", "--dmax", "3", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["all_pass"] is True
    by_key = {(r["w"], r["d"]): r for r in payload["rows"]}
    assert by_key[(2, 2)] == {
        "w": 2, "d": 2, "value": "0", "integer": True,
        "positive": False, "extrapolated": True, "pass": True,
    }
    assert by_key[(4, 3)]["value"] == "3"
    assert by_key[(4, 3)]["extrapolated"] is False


def test_torsion_strata(capsys):
    code, out, _ = run(capsys, "torsion", "--strata")
    assert code == 0
    assert "T1: 9 points" in out
    assert "T2: 27 points" in out
    assert "T3: 108 points" in out


def test_torsion_strata_json(capsys):
    code, out, _ = run(capsys, "torsion", "--strata", "--json")
    assert code == 0
    assert json.loads(out) == {"T1": 9, "T2": 27, "T3": 108}


def test_torsion_solve_text(capsys):
    code, out, _ = run(capsys, "torsion", "--solve", "--class", "2H-E1-E2")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "class 2H-E1-E2 restricts to (1/3, 0), order 3"
    assert lines[1] == "16 solutions of 4*P = c:"
    assert len(lines) == 2 + 16


def test_torsion_solve_json(capsys):
    code, out, _ = run(capsys, "torsion", "--solve", "--class", "2H-E1-E2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["class"] == "2H-E1-E2"
    assert payload["restriction"] == {"x": "1/3", "y": "0", "order": 3}
    assert payload["m"] == 4
    assert len(payload["solutions"]) == 16
    assert payload["solutions"][0] == {
        "x": "1/12", "y": "0", "order": 12, "stratum": "T3",
    }
    strata = [s["stratum"] for s in payload["solutions"]]
    assert sorted(strata).count("T1") == 1
    assert sorted(strata).count("T2") == 3
    assert sorted(strata).count("T3") == 12


@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_repeated_class_terms_add_up(capsys, fmt):
    repeated = run(capsys, "torsion", "--solve", "--class", "H-E1-E1", *fmt)
    assert repeated == run(capsys, "torsion", "--solve", "--class", "H-2E1", *fmt)
    assert repeated[0] == 0 and "H-2E1" in repeated[1] and "E1-E1" not in repeated[1]


def test_classes_csv(capsys):
    code, out, _ = run(capsys, "classes", "--degree", "4", "--csv")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "e,a1,a2,a3,a4,a5,a6,p_a,ordered_count"
    assert len(lines) == 1 + 9


def test_classes_json_totals(capsys):
    code, out, _ = run(capsys, "classes", "--degree", "4", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["validated"] is True
    assert payload["totals"] == {"0": 216, "1": 27}
    assert len(payload["rows"]) == 9
    assert sum(r["ordered_count"] for r in payload["rows"]) == 243


def test_classes_other_degree_flagged(capsys):
    code, out, _ = run(capsys, "classes", "--degree", "3")
    assert code == 0
    assert "unvalidated" in out


def test_census_aggregate_json(capsys):
    code, out, _ = run(capsys, "census", "--aggregate", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["N"] == {"T1": 216, "T2": 1134, "T3": 5184}
    assert payload["per_point"] == {"T1": 8, "T2": 14, "T3": 16}
    assert payload["cross_check"] == 2178


def test_census_entry_text(capsys):
    code, out, _ = run(capsys, "census", "--degree", "4", "--stratum", "T1")
    assert code == 0
    assert out.startswith("degree 4 at T1 (9 points):")
    assert "4-fold cover" in out
    assert "reducible pair" in out
    assert "immersed irreducible" in out


def test_census_special_cubic(capsys):
    code, out, _ = run(
        capsys, "census", "--degree", "3", "--stratum", "T1", "--special-cubic"
    )
    assert code == 0
    assert "special cubic" in out
    assert "cuspidal" in out


def test_census_entry_json(capsys):
    code, out, _ = run(capsys, "census", "--degree", "2", "--stratum", "T1", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["degree"] == 2
    assert payload["stratum"] == "T1"
    assert payload["points"] == 9
    assert payload["components"] == [
        {"kind": "cover", "count": 1, "base_degree": 1, "multiplicity": 2},
    ]


def test_check_gw_all_degrees(capsys):
    for degree, total in ((1, "9"), (2, "135/4"), (3, "244"), (4, "36999/16")):
        code, out, _ = run(capsys, "check-gw", "--degree", str(degree), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["total"] == total
        assert payload["match"] is True
        if degree == 4:
            assert "36999/4" in payload["note"]
        else:
            assert "note" not in payload


def test_check_gw_text(capsys):
    code, out, _ = run(capsys, "check-gw", "--degree", "4")
    assert code == 0
    assert "total 36999/16 vs reference 36999/16: PASS" in out
    assert "note:" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_gw_mismatch_exits_two(capsys, monkeypatch, fmt):
    monkeypatch.setattr(assembly, "reference_invariant", lambda degree: Fraction(36999, 4))
    code, out, err = run(capsys, "check-gw", "--degree", "4", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "FAIL degree 4: assembled 36999/16, reference 36999/4\n"


SELF_CHECK_FAILURES = [
    (census, "aggregate_N",
     lambda: {torsion.Stratum.T1: 217, torsion.Stratum.T2: 1134, torsion.Stratum.T3: 5184},
     argv, "aggregate count 217 for T1 is not divisible by 27")
    for argv in (["census", "--aggregate"], ["census", "--degree", "4", "--stratum", "T1"],
                 ["check-gw", "--degree", "4"])
] + [
    (torsion.TorsionPoint, "__rmul__", lambda p, k: p,  # m * P is P
     ["torsion", "--solve", "--class", "2H-E1-E2"],
     "a solution of 4 * P = (1/3, 0) does not multiply back"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("target, attr, patch, argv, message", SELF_CHECK_FAILURES,
                         ids=[" ".join(case[3][:2]) for case in SELF_CHECK_FAILURES])
def test_a_failed_self_check_exits_two(capsys, monkeypatch, fmt, target, attr, patch, argv,
                                       message):
    # a census, division or ledger that fails its own arithmetic check is a
    # failed verification, not a bad input
    monkeypatch.setattr(target, attr, patch)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"FAIL {message}\n"


def test_graphs_json(capsys):
    code, out, _ = run(capsys, "graphs", "--n", "2", "--r", "3", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 3
    assert len(payload["types"]) == 3
    for entry in payload["types"]:
        assert entry["layers"][0] == ["1:0"]
        assert len(entry["leaf_order"]) == 3
        assert "weights" not in entry


def test_graphs_with_weights(capsys):
    code, out, _ = run(
        capsys, "graphs", "--n", "2", "--r", "3", "--weights", "1,2,3", "--json"
    )
    payload = json.loads(out)
    assert code == 0
    for entry in payload["types"]:
        assert entry["weights"]["1:0"] == 6


def test_graphs_text_labels(capsys):
    code, out, _ = run(capsys, "graphs", "--n", "1", "--r", "2", "--weights", "1,5")
    assert code == 0
    assert "1 types for n=1, r=2" in out
    assert "= label 1 (weight 1)" in out
    assert "(weight 6)" in out


@pytest.mark.parametrize("n, r", [("6", "6"), ("5", "3")])
def test_graphs_cell_with_no_types(capsys, n, r):
    code, out, err = run(capsys, "graphs", "--n", n, "--r", r)
    assert (code, out, err) == (0, f"0 types for n={n}, r={r}\n", "")


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify-all")
    assert code == 0
    assert "10/10 checks passed" in out
    assert out.count("PASS") == 10
    assert "FAIL" not in out


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify-all", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 10
    assert all(c["passed"] for c in payload["checks"])


def _missing_key():
    return {}["absent"]


def _bad_value():
    raise ValueError("no such stratum")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_all_crashing_checks_fail_and_the_rest_run(capsys, monkeypatch, fmt):
    monkeypatch.setattr(verify, "ALL_CHECKS", (
        ("key-error", _missing_key),
        ("value-error", _bad_value),
        ("multiple-cover-values", verify.check_multiple_cover_values),
    ))
    code, out, err = run(capsys, "verify-all", *(["--json"] if fmt == "json" else []))
    assert code == 2
    assert err == ""
    if fmt == "json":
        payload = json.loads(out)
        assert payload["all_passed"] is False
        assert [(c["name"], c["passed"], c["detail"]) for c in payload["checks"]][:2] == [
            ("key-error", False, "KeyError: 'absent'"),
            ("value-error", False, "ValueError: no such stratum"),
        ]
        assert payload["checks"][2]["passed"] is True
    else:
        lines = out.splitlines()
        assert lines[:2] == [
            "FAIL key-error: KeyError: 'absent'",
            "FAIL value-error: ValueError: no such stratum",
        ]
        assert lines[2].startswith("PASS multiple-cover-values: ")
        assert lines[3] == "1/3 checks passed"


def test_torsion_division_failure_names_the_class(capsys, monkeypatch):
    real = torsion.solve_division
    monkeypatch.setattr(torsion, "solve_division", lambda c, m: real(c, m)[1:])
    with pytest.raises(verify.CheckFailure, match=r"^2H-E\d-E\d: 15 solutions$"):
        verify.check_torsion_division()
    monkeypatch.setattr(verify, "ALL_CHECKS", (
        ("torsion-division", verify.check_torsion_division),
    ))
    code, out, _ = run(capsys, "verify-all")
    assert code == 2
    assert re.fullmatch(r"FAIL torsion-division: 2H-E\d-E\d: 15 solutions", out.splitlines()[0])


def test_degeneration_trees_catches_a_dropped_label(capsys, monkeypatch):
    def weight_without_last_label(self, v):
        return sum(self.bottom[x - 1] for x in self.shape._labels_below[v][:-1])

    monkeypatch.setattr(trees.WeightedCombType, "weight", weight_without_last_label)
    with pytest.raises(verify.CheckFailure, match=r"^weight leak on CombType\(n=0, r=1, .*\) with \(1,\)$"):
        verify.check_degeneration_trees()
    monkeypatch.setattr(verify, "ALL_CHECKS", (
        ("degeneration-trees", verify.check_degeneration_trees),
    ))
    code, out, _ = run(capsys, "verify-all")
    assert code == 2
    assert out.splitlines()[0].startswith("FAIL degeneration-trees: weight leak on CombType(")


def test_degeneration_trees_catches_a_dropped_type(monkeypatch):
    real = trees.enumerate_types
    monkeypatch.setattr(
        trees, "enumerate_types",
        lambda n, r: real(n, r)[1:] if (n, r) == (2, 4) else real(n, r),
    )
    with pytest.raises(verify.CheckFailure, match=r"^\|G_\(2,4\)\| = 12, expected 13$"):
        verify.check_degeneration_trees()


def test_degeneration_trees_names_an_invalid_type(monkeypatch):
    monkeypatch.setattr(trees.CombType, "violations", lambda self: [3])
    with pytest.raises(verify.CheckFailure,
                       match=r"^enumerated type invalid: CombType\(n=0, r=1, .*\)$"):
        verify.check_degeneration_trees()


def test_class_table_failures_keep_their_messages(monkeypatch):
    real = lattice.enumerate_classes
    monkeypatch.setattr(lattice, "enumerate_classes", lambda d: real(d)[1:])
    with pytest.raises(verify.CheckFailure, match=r"^class table mismatch: \(\(3, \(0, 0, 1, 1, 1, 2\), 0, 60\), "):
        verify.check_class_table()
    monkeypatch.setattr(verify, "EXPECTED_TABLE", verify.EXPECTED_TABLE[1:])
    with pytest.raises(verify.CheckFailure, match=r"^totals 201/27$"):
        verify.check_class_table()


def _stratum_map(value):
    return {s: value for s in torsion.Stratum}


# at least one failure of every check, with its exact text (a pattern where
# the class named depends on set order): an f-string left in a lazily
# formatted call, or a message whose argument holds braces, shows here as a
# changed text or an escaping exception.  Each fake replaces module.name; a
# default argument holds the real function where the fake calls it.
FAILURES = [
    ("multiple-cover-values", covers, "multiple_cover", lambda w, d: Fraction(1),
     "M_3[2] = 1, expected 3/4"),
    ("multiple-cover-values", covers, "multiple_cover",
     lambda w, d, real=covers.multiple_cover: real(w, d) if d > 1 else Fraction(2),
     "M_1[1] != 1"),
    ("instanton-inversion", covers, "instanton_numbers",
     lambda w, d: dict.fromkeys(range(1, d + 1), 0),
     "m_3[1..6] = [0, 0, 0, 0, 0, 0]"),
    ("instanton-inversion", covers, "multiple_cover",
     lambda w, d, real=covers.multiple_cover: real(w, d) + (d == 2),
     "round trip failed at w=1, d=2"),
    ("instanton-inversion", covers, "integrality_report",
     lambda w, d: [covers.IntegralityRow(3, 2, Fraction(1, 2), False, True, False)],
     "integrality failures: [IntegralityRow(w=3, d=2, value=Fraction(1, 2), "
     "is_integer=False, is_positive=True, extrapolated=False)]"),
    ("cremona-reduction", lattice, "arithmetic_genus", lambda c: c.e,
     re.compile(r"genus changed along reduction of 3H(-\d?E\d)+")),
    ("cremona-reduction", lattice, "tangency_degree", lambda c: c.e,
     re.compile(r"tangency degree changed along reduction of 3H(-\d?E\d)+")),
    ("cremona-reduction", lattice, "cremona_steps", lambda c: iter((c,)),
     re.compile(r"(3H(-\d?E\d)+) reduced to \1")),
    ("torsion-division", torsion, "stratum_sizes", lambda: _stratum_map(0),
     "stratum sizes {<Stratum.T1: 'T1'>: 0, <Stratum.T2: 'T2'>: 0, <Stratum.T3: 'T3'>: 0}"),
    ("torsion-division", census, "stratum_point_count", lambda s: 0,
     "order-9 non-flex count"),
    ("torsion-division", torsion, "restriction_class", lambda c: torsion._point(1, 0, 4),
     re.compile(r"restriction of 2H(-E\d){2} is not 3-torsion")),
    ("torsion-division", torsion, "stratify",
     lambda p, real=torsion.stratify: real(p) and torsion.Stratum.T1,
     re.compile(r"2H(-E\d){2}: split T1/T2/T3 = \(16, 0, 0\)")),
    # a point in no stratum is counted in none, and fails as a split
    ("torsion-division", torsion, "stratify",
     lambda p, real=torsion.stratify: None if p.is_zero else real(p),
     re.compile(r"2H(-E\d){2}: split T1/T2/T3 = \(0, 3, 12\)")),
    ("aggregate-counts", census, "aggregate_N", lambda: _stratum_map(0),
     "aggregate N = {<Stratum.T1: 'T1'>: 0, <Stratum.T2: 'T2'>: 0, <Stratum.T3: 'T3'>: 0}"),
    ("aggregate-counts", census, "count_M4", lambda s: 0,
     "per-point counts (0, 0, 0)"),
    ("aggregate-counts", torsion, "torsion_points", lambda n: [],
     "weighted sum 0"),
    ("invariant-ledgers", assembly, "assemble_invariant",
     lambda d, real=assembly.assemble_invariant: real(d)._replace(lines=real(d).lines[1:]),
     "I_1 = 0"),
    ("invariant-ledgers", assembly, "assemble_invariant",
     lambda d, real=assembly.assemble_invariant: real(d)._replace(note=None),
     "degree 4 misprint note missing"),
    ("local-invariants", assembly, "local_invariant", lambda d: Fraction(0),
     "K_1 = 0"),
    ("degeneration-trees", trees, "enumerate_types",
     lambda n, r, real=trees.enumerate_types: real(n, r)[(n, r) == (4, 5):],
     "|G_(4,5)| = 179"),
    ("instanton-census", assembly, "instanton_census", lambda s: 15,
     "instanton census {<Stratum.T1: 'T1'>: 15, <Stratum.T2: 'T2'>: 15, <Stratum.T3: 'T3'>: 15}"),
]


@pytest.mark.parametrize("name, module, attr, fake, message", FAILURES,
                         ids=[f"{f[0]}-{[g[0] for g in FAILURES[:i]].count(f[0])}"
                              for i, f in enumerate(FAILURES)])
def test_every_check_fails_with_its_message(capsys, monkeypatch, name, module, attr, fake, message):
    monkeypatch.setattr(module, attr, fake)
    check = dict(verify.ALL_CHECKS)[name]
    with pytest.raises(verify.CheckFailure) as failure:
        check()
    if isinstance(message, str):
        assert str(failure.value) == message
    else:
        assert message.fullmatch(str(failure.value))
    monkeypatch.setattr(verify, "ALL_CHECKS", ((name, check),))
    code, out, _ = run(capsys, "verify-all")
    assert (code, out.splitlines()[0]) == (2, f"FAIL {name}: {failure.value}")


def test_verify_all_passes_without_asserts():
    # under -O every assert is stripped, so no check may rely on one
    env = {k: v for k, v in os.environ.items() if not k.startswith("TANGENTIA_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tangentia.cli", "verify-all"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "10/10 checks passed"


@pytest.mark.parametrize("argv", [
    "graphs --n 4 --r 6",  # about 1 MB: a write of the text hits the closed pipe
    "graphs --n 4 --r 6 --json",  # json.dump hits it mid-stream
    "mcover --w 3 --d 4",  # one line: only the final flush hits it
])
def test_a_closed_stdout_pipe_exits_one_quietly(argv):
    # the reader of stdout is gone before the process writes anything; stdout
    # stays block-buffered, so the short output reaches the pipe only on flush
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TANGENTIA_") and k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tangentia.cli", *argv.split()],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


# ---------------------------------------------------------------------------
# format resolution
# ---------------------------------------------------------------------------

def test_env_format_honored(capsys, monkeypatch):
    monkeypatch.setenv("TANGENTIA_FORMAT", "json")
    code, out, _ = run(capsys, "mcover", "--w", "3", "--d", "2")
    assert code == 0
    assert json.loads(out) == {"w": 3, "d": 2, "value": "3/4"}


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("TANGENTIA_FORMAT", "json")
    code, out, _ = run(capsys, "mcover", "--w", "3", "--d", "2", "--format", "text")
    assert code == 0
    assert out == "M_3[2] = 3/4\n"


def test_bad_env_format(capsys, monkeypatch):
    monkeypatch.setenv("TANGENTIA_FORMAT", "yaml")
    code, out, err = run(capsys, "mcover", "--w", "3", "--d", "2")
    assert code == 1
    assert out == ""
    assert "usage error:" in err


def test_csv_refused_outside_tabular_commands(capsys):
    code, _, err = run(capsys, "mcover", "--w", "3", "--d", "2", "--format", "csv")
    assert code == 1
    assert "usage error:" in err


def test_csv_env_refused_for_non_tabular(capsys, monkeypatch):
    monkeypatch.setenv("TANGENTIA_FORMAT", "csv")
    code, _, err = run(capsys, "torsion", "--strata")
    assert code == 1
    assert "usage error:" in err


# ---------------------------------------------------------------------------
# error handling and exit codes
# ---------------------------------------------------------------------------

def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage error:" in err


def test_solve_requires_class(capsys):
    code, _, err = run(capsys, "torsion", "--solve")
    assert code == 1
    assert "usage error:" in err
    assert "--class" in err


def test_solve_with_an_empty_class_refuses_the_literal(capsys):
    # --class was given, so the option is not missing: the literal is empty
    code, out, err = run(capsys, "torsion", "--solve", "--class", "")
    assert (code, out, err) == (1, "", "error: empty class literal\n")


def test_census_needs_selection(capsys):
    code, _, err = run(capsys, "census")
    assert code == 1
    assert "usage error:" in err


def test_census_bad_degree(capsys):
    code, _, err = run(capsys, "census", "--degree", "5", "--stratum", "T1")
    assert code == 1
    assert err.startswith("error:")


def test_census_special_quartic_refused(capsys):
    code, _, err = run(
        capsys, "census", "--degree", "4", "--stratum", "T1", "--special-cubic"
    )
    assert code == 1
    assert err.startswith("error:")


def test_mcover_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "mcover", "--w", "0", "--d", "2")
    assert code == 1
    assert err.startswith("error:")


def test_bad_class_literal(capsys):
    code, _, err = run(capsys, "torsion", "--solve", "--class", "wibble")
    assert code == 1
    assert err.startswith("error:")


def test_graphs_bad_weights(capsys):
    code, _, err = run(capsys, "graphs", "--n", "2", "--r", "3", "--weights", "1,x,3")
    assert code == 1
    assert "usage error:" in err


def test_graphs_weight_arity(capsys):
    code, _, err = run(capsys, "graphs", "--n", "2", "--r", "3", "--weights", "1,2")
    assert code == 1
    assert "usage error:" in err
    assert "expected 3 weights" in err


@pytest.mark.parametrize("n", ["0", "2"], ids=["no-types", "three-types"])
def test_graphs_refuses_non_positive_weights_whatever_the_type_count(capsys, n):
    code, out, err = run(capsys, "graphs", "--n", n, "--r", "3", "--weights", "0,-1,5")
    assert (code, out, err) == (1, "", "error: weights must be positive integers\n")


@pytest.mark.parametrize("argv, message", [
    (("census", "--aggregate", "--degree", "4"),
     "--aggregate takes no --degree, --stratum or --special-cubic"),
    (("census", "--aggregate", "--stratum", "T1"),
     "--aggregate takes no --degree, --stratum or --special-cubic"),
    (("census", "--aggregate", "--special-cubic"),
     "--aggregate takes no --degree, --stratum or --special-cubic"),
    (("torsion", "--strata", "--class", "2H-E1-E2"), "--class and --m apply only to --solve"),
    (("torsion", "--strata", "--m", "4"), "--class and --m apply only to --solve"),
    (("graphs", "--n", "2", "--r", "3", "--weights", ""), "cannot parse weights ''"),
], ids=["aggregate-degree", "aggregate-stratum", "aggregate-special-cubic",
        "strata-class", "strata-m", "empty-weights"])
def test_an_option_the_mode_ignores_is_refused(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"usage error: {message}\n"


def test_graphs_over_budget(capsys):
    code, out, err = run(capsys, "graphs", "--n", "9", "--r", "2")
    assert (code, out, err) == (1, "", "error: n is budgeted to at most 6, got 9\n")


def test_torsion_solve_at_the_division_budget(capsys):
    m = str(torsion.MAX_DIVISION_ORDER)
    code, out, err = run(capsys, "torsion", "--solve", "--class", "2H-E1-E2", "--m", m)
    assert code == 0
    assert err == ""
    assert out.splitlines()[1] == f"{256 * 256} solutions of 256*P = c:"


def test_torsion_solve_past_the_division_budget(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"torsion_points({n}) called past the budget")

    monkeypatch.setattr(torsion, "torsion_points", refuse)
    code, out, err = run(capsys, "torsion", "--solve", "--class", "2H-E1-E2", "--m", "257")
    assert code == 1
    assert out == ""
    assert err == "error: m is budgeted to at most 256, got 257\n"


def test_classes_at_the_degree_budget(capsys):
    assert lattice.MAX_CLASS_DEGREE == 20  # scale workloads search degree <= 16
    code, out, err = run(capsys, "classes", "--degree", "20")
    assert code == 0
    assert err == ""
    assert out.startswith("e=")


def test_instantons_at_the_degree_budget(capsys):
    assert covers.MAX_INSTANTON_DEGREE == 1000  # scale workloads solve dmax <= 400
    code, out, err = run(capsys, "instantons", "--w", "3", "--dmax", "1000")
    assert code == 0
    assert err == ""
    assert len(out.splitlines()) == 1000
    # multiple_cover's budgets: the largest w an admitted integrality box reaches
    assert covers.MAX_CONTACT_ORDER == 4096
    code, out, err = run(capsys, "mcover", "--w", "4096", "--d", "1000")
    assert code == 0
    assert err == ""
    assert out.startswith("M_4096[1000] = ")
    code, out, err = run(capsys, "instantons", "--w", "4096", "--dmax", "1")
    assert (code, out, err) == (0, "m_4096[1] = 1\n", "")


def test_integrality_at_the_box_budget(capsys):
    assert covers.MAX_INTEGRALITY_CELLS == 4096  # scale workloads check 12 x 40
    code, out, err = run(capsys, "integrality", "--wmax", "64", "--dmax", "64")
    assert code == 0
    assert err == ""
    assert out.splitlines()[-1] == "4096 rows, w <= 64, d <= 64: all rows pass"


def _refuse(*args):
    raise AssertionError("work started past the budget")


@pytest.mark.parametrize("argv, module, heavy, message", [
    (("classes", "--degree", "21"), lattice, "_least_spend",
     "degree is budgeted to at most 20, got 21"),
    (("instantons", "--w", "3", "--dmax", "1001"), covers, "binomial",
     "dmax is budgeted to at most 1000, got 1001"),
    (("integrality", "--wmax", "17", "--dmax", "241"), covers, "instanton_numbers",
     "the integrality box is budgeted to wmax * dmax <= 4096, got 17 * 241 = 4097"),
    (("integrality", "--wmax", "1", "--dmax", "1001"), covers, "binomial",
     "dmax is budgeted to at most 1000, got 1001"),
    (("mcover", "--w", "3", "--d", "1001"), covers, "binomial",
     "d is budgeted to at most 1000, got 1001"),
    (("mcover", "--w", "4097", "--d", "1"), covers, "binomial",
     "w is budgeted to at most 4096, got 4097"),
    (("instantons", "--w", "4097", "--dmax", "1"), covers, "binomial",
     "w is budgeted to at most 4096, got 4097"),
    # w is refused by its own budget, whatever dmax is
    (("instantons", "--w", "4097", "--dmax", "5"), covers, "binomial",
     "w is budgeted to at most 4096, got 4097"),
    (("graphs", "--n", "7", "--r", "6"), trees, "_coarsening_patterns",
     "n is budgeted to at most 6, got 7"),
    (("graphs", "--n", "5", "--r", "7"), trees, "_coarsening_patterns",
     "r is budgeted to at most 6, got 7"),
], ids=["classes", "instantons", "integrality", "integrality-dmax", "mcover-d", "mcover-w",
        "instantons-w", "instantons-w-dmax", "graphs-n", "graphs-r"])
def test_past_the_work_budgets(capsys, monkeypatch, argv, module, heavy, message):
    monkeypatch.setattr(module, heavy, _refuse)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# the exit-code contract
# ---------------------------------------------------------------------------

# integers at the edges of each option: signs, small cells, one past each work
# budget (layers, class degree, division order, instanton degree, contact
# order) and 10**30; the budgets themselves are counted below, not swept
BOUNDARY_INTEGERS = ("-1", "0", "1", "2", "3", "4", "7", "21", "257", "1001", "4097", str(10**30))
# class literals, strata and weights, well and badly formed
OPTION_STRINGS = ("2H-E1-E2", "3H-E1-E2-E3-E4-E5-E6", "4H-E1-E2-2E3", "H", "0H", "2H-E7",
                  "T1", "T2", "T3", "NF9", "T4", "1,2,3", "1,0", "", "x")


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _subcommand_options():
    """Each subcommand of the parser with its options; verify-all, whose only
    options are formats and whose exits the tests above pin, is left out."""
    return {name: [a for a in p._actions if a.dest != "help"]
            for name, p in _subparsers(build_parser()).choices.items() if name != "verify-all"}


def _argv(name, actions):
    def words(action):
        if action.nargs == 0:
            return st.just([action.option_strings[0]])
        values = (*action.choices, "yaml") if action.choices else (
            BOUNDARY_INTEGERS if action.type is int else OPTION_STRINGS)
        return st.sampled_from(values).map(lambda v: [action.option_strings[0], v])

    # the required options come along in three argv of four, so most reach a handler
    required = [a for a in actions if a.required]
    optional = st.lists(st.sampled_from(actions), unique=True, max_size=3)
    chosen = st.tuples(st.sampled_from((required, required, required, [])), optional).flatmap(
        lambda pair: st.permutations(list(dict.fromkeys(pair[0] + pair[1]))))
    return chosen.flatmap(lambda acts: st.tuples(*map(words, acts))).map(
        lambda parts: [name, *(w for part in parts for w in part)])


ARGVS = st.one_of([_argv(name, actions) for name, actions in _subcommand_options().items()])


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(ARGVS)
def test_every_argv_keeps_the_exit_code_contract(argv):
    # a correct library fails no verification, so no argv here exits 2
    code, out, err = result = _run_quietly(argv)
    assert code in (0, 1)
    if code == 1:
        assert out == ""
        assert re.fullmatch(r"(usage )?error: [^\n]*\n", err)
    if code == 0:
        assert err == ""
    assert _run_quietly(argv) == result


# ---------------------------------------------------------------------------
# one option parser per subcommand: an argv that names a subcommand first
# builds the top-level parser and that subcommand's alone, any other argv
# builds all nine, and the two read every argv alike
# ---------------------------------------------------------------------------

SUBCOMMANDS = list(_subparsers(build_parser()).choices)


def _run_to_exit(argv):
    """As _run_quietly, for an argv such as --help that argparse ends by
    SystemExit; an argv that returns instead fails."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit:
        main(argv)
    return exit.value.code, out.getvalue(), err.getvalue()


def _run_with_every_parser(argv, run=_run_quietly):
    with mock.patch.object(cli, "build_parser", lambda command=None: build_parser()):
        return run(argv)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_a_subcommand_help_is_the_same_from_its_own_parser(name):
    result = _run_to_exit([name, "--help"])
    assert result == _run_with_every_parser([name, "--help"], run=_run_to_exit)
    assert result[0] == 0 and result[1].startswith(f"usage: tangentia {name} [-h]")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(ARGVS)
def test_the_subcommand_parser_reads_every_argv_as_the_full_parser_does(argv):
    assert _run_quietly(argv) == _run_with_every_parser(argv)


def test_readme_and_module_docstring_list_the_parser_subcommands():
    readme = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    table = re.search(r"```text\n(.*?)```", readme, re.S).group(1).splitlines()
    listed = cli.__doc__.split("Subcommands:\n\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert [line.removeprefix("  ") for line in listed] == table
    assert [line.split()[0] for line in table] == SUBCOMMANDS


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("classes", "--degree", "4", "--json"),
    ("census", "--degree", "4", "--stratum", "T1", "--json"),
    ("torsion", "--solve", "--class", "3H-E1-E2-E3-E4-E5-E6", "--json"),
    ("graphs", "--n", "2", "--r", "4", "--json"),
    ("check-gw", "--degree", "4"),
])
def test_output_is_deterministic(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


# ---------------------------------------------------------------------------
# work counts
# ---------------------------------------------------------------------------

# kernel calls per command line, upper bounds with no clock, each run from an
# empty aggregate_N cache as in a fresh process; a kernel not listed is not
# called.  Every cli entry of perfbench/golden.json and every README command
# has a row, written as its words joined by single spaces, and so does the
# argv at each work budget.  The stratum sizes, the quadrisection split and
# the census counts read the order table, so only verify-all (division, and
# its own 144-point cross-check) and torsion --solve build torsion points.  No
# command calls the CombType constructor: enumerated types are coherent by
# construction.  Each enumerate_types call builds the merge patterns of each
# block count 2..r once.  Refused input exits 1 before any work, except that
# boundary_census is the entry that refuses a census it does not cover
REFUSED = {
    "instantons --w 3": {},
    "mcover --w 0 --d 1": {},
    "mcover --w 3 --d 4 --csv": {},
    "TANGENTIA_FORMAT=csv mcover --w 3 --d 4": {},
    "TANGENTIA_FORMAT=xml classes --degree 4": {},
    "torsion --solve": {},
    "torsion --solve --class 2H-Q": {},
    "census --degree 2": {},
    "census --degree 4 --stratum T1 --special-cubic": {"boundary_census": 1},
    "census --degree 5 --stratum T1": {"boundary_census": 1},
    "check-gw --degree 5": {},
    "graphs --n 2 --r 3 --weights 1,x": {},
}
KERNEL_CALLS = {
    "mcover --w 1 --d 3": {"binomial": 1},
    "mcover --w 3 --d 4": {"binomial": 1},
    "mcover --w 3 --d 4 --json": {"binomial": 1},
    "mcover --w 3 --d 4 --format json": {"binomial": 1},
    "mcover --w 6 --d 2": {"binomial": 1},
    "TANGENTIA_FORMAT=json mcover --w 3 --d 4": {"binomial": 1},
    "TANGENTIA_FORMAT=json mcover --w 3 --d 4 --format text": {"binomial": 1},
    "instantons --w 3 --dmax 6": {"binomial": 4},
    "instantons --w 3 --dmax 6 --json": {"binomial": 4},
    "instantons --w 6 --dmax 4": {"binomial": 4},
    "TANGENTIA_FORMAT=json instantons --w 3 --dmax 6": {"binomial": 4},
    "integrality --wmax 3 --dmax 5 --format csv": {"binomial": 14},
    "integrality --wmax 8 --dmax 8": {"binomial": 60},
    "integrality --wmax 8 --dmax 8 --csv": {"binomial": 60},
    "integrality --wmax 8 --dmax 8 --json": {"binomial": 60},
    "TANGENTIA_FORMAT=csv integrality --wmax 8 --dmax 8": {"binomial": 60},
    "torsion --strata": {},
    "torsion --strata --json": {},
    "TANGENTIA_FORMAT=json torsion --strata": {},
    "torsion --solve --class 2H-E1-E2": {"_point": 33},
    "torsion --solve --class 2H-E1-E2 --json": {"_point": 33},
    "TANGENTIA_FORMAT=json torsion --solve --class 2H-E1-E2": {"_point": 33},
    "torsion --solve --class 4H-E1-E2-2E3 --m 3": {"_point": 19},
    "classes --degree 3": {"_least_spend": 36},
    "classes --degree 4": {"_least_spend": 44},
    "classes --degree 4 --csv": {"_least_spend": 44},
    "classes --degree 4 --json": {"_least_spend": 44},
    "TANGENTIA_FORMAT=csv classes --degree 4": {"_least_spend": 44},
    "census --aggregate": {"_least_spend": 44},
    "census --aggregate --json": {"_least_spend": 44},
    "TANGENTIA_FORMAT=json census --aggregate": {"_least_spend": 44},
    "census --degree 2 --stratum T2 --json": {"boundary_census": 1},
    "census --degree 3 --stratum NF9": {"boundary_census": 1},
    "census --degree 3 --stratum T1 --special-cubic": {"boundary_census": 1},
    "census --degree 4 --stratum T1": {"_least_spend": 44, "boundary_census": 1},
    "census --degree 4 --stratum T1 --json": {"_least_spend": 44, "boundary_census": 1},
    "check-gw --degree 1": {"boundary_census": 1},
    "check-gw --degree 3": {"boundary_census": 2, "binomial": 1},
    "check-gw --degree 4": {"boundary_census": 3, "_least_spend": 44, "binomial": 2},
    "check-gw --degree 4 --json": {"boundary_census": 3, "_least_spend": 44, "binomial": 2},
    "TANGENTIA_FORMAT=json check-gw --degree 4": {"boundary_census": 3, "_least_spend": 44,
                                                  "binomial": 2},
    "graphs --n 1 --r 2": {"_coarsening_patterns": 1},
    "graphs --n 2 --r 3 --weights 1,2,3": {"_coarsening_patterns": 2, "propagate_weights": 3},
    "graphs --n 2 --r 3 --weights 1,2,3 --json": {"_coarsening_patterns": 2,
                                                  "propagate_weights": 3},
    "TANGENTIA_FORMAT=json graphs --n 2 --r 3 --weights 1,2,3": {"_coarsening_patterns": 2,
                                                                 "propagate_weights": 3},
    "graphs --n 4 --r 6": {"_coarsening_patterns": 5},
    "verify-all": {"binomial": 329, "_least_spend": 88, "_point": 8_406,
                   "boundary_census": 19, "propagate_weights": 20_530, "_coarsening_patterns": 24},
    "verify-all --json": {"binomial": 329, "_least_spend": 88, "_point": 8_406,
                          "boundary_census": 19, "propagate_weights": 20_530,
                          "_coarsening_patterns": 24},
    **REFUSED,
    # at each work budget; one past it is refused in test_past_the_work_budgets
    "classes --degree 20": {"_least_spend": 8_144},
    "instantons --w 3 --dmax 1000": {"binomial": 4},
    "integrality --wmax 64 --dmax 64": {"binomial": 3851},
    "torsion --solve --class 2H-E1-E2 --m 256": {"_point": 131_073},
    "graphs --n 5 --r 6": {"_coarsening_patterns": 5},
}


# traced peak bytes per command line, upper bounds with no clock, each taken
# by tracemalloc after one untraced run of the same argv, as the trees
# ratchet is.  Only the selected format is built, and it is written as it is
# made; building every format and printing one joined string read 2.21,
# 1.03, 0.87, 1.45 and 1.71 MB on Python 3.11
PEAK_BYTES = {
    "torsion --solve --class 2H-E1-E2 --m 64": 1_000_000,
    "classes --degree 12": 600_000,
    "integrality --wmax 16 --dmax 64": 500_000,
    "instantons --w 3 --dmax 1000 --json": 1_000_000,
    "graphs --n 4 --r 5 --json": 1_000_000,
}


def _words(line):
    return " ".join(shlex.split(line, comments=True))


def test_every_golden_and_readme_command_has_a_work_count():
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["cli"]
    readme = re.findall(r"^tangentia (.*)$", (ROOT / "README.md").read_text(), re.M)
    assert {_words(line) for line in readme} | set(map(_words, golden)) <= KERNEL_CALLS.keys()
    assert {_words(entry) for entry, want in golden.items() if want["exit"] == 1} == REFUSED.keys()


def _counted(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def _count_parsers(monkeypatch):
    built = {"_Parser": 0}
    monkeypatch.setattr(cli._Parser, "__init__", _counted(built, "_Parser", cli._Parser.__init__))
    return built


@pytest.mark.parametrize("argv", list(KERNEL_CALLS))
def test_points_built_per_subcommand(capsys, monkeypatch, argv):
    calls = dict.fromkeys(["_point", "CombType", "propagate_weights", "_least_spend",
                           "binomial", "boundary_census", "_coarsening_patterns"], 0)
    for module, name in [(torsion, "_point"), (trees, "propagate_weights"),
                         (lattice, "_least_spend"), (covers, "binomial"),
                         (trees, "_coarsening_patterns")]:
        monkeypatch.setattr(module, name, _counted(calls, name, getattr(module, name)))
    monkeypatch.setattr(trees.CombType, "__new__",
                        staticmethod(_counted(calls, "CombType", trees.CombType.__new__)))
    census_entry = _counted(calls, "boundary_census", census.boundary_census)
    monkeypatch.setattr(census, "boundary_census", census_entry)
    monkeypatch.setattr(assembly, "boundary_census", census_entry)  # imported there by name
    parsers = _count_parsers(monkeypatch)
    census.aggregate_N.cache_clear()
    words = argv.split()
    while "=" in words[0] and not words[0].startswith("-"):  # NAME=value settings in front
        monkeypatch.setenv(*words.pop(0).split("=", 1))
    code, out, err = run(capsys, *words)
    if argv in REFUSED:
        assert (code, out) == (1, "") and re.fullmatch(r"(usage )?error: [^\n]*\n", err)
    else:
        assert (code, err) == (0, "")
    assert {k: v for k, v in calls.items() if v > KERNEL_CALLS[argv].get(k, 0)} == {}
    assert parsers == {"_Parser": 2}  # the top-level parser and the named subcommand's


# argv that name no subcommand first: each builds every option parser, the
# top-level one and the nine subcommands'
EVERY_PARSER = ("--help", "", "covers", "--json mcover --w 3 --d 4")


@pytest.mark.parametrize("argv", EVERY_PARSER)
def test_an_argv_naming_no_subcommand_first_builds_every_parser(monkeypatch, argv):
    built = _count_parsers(monkeypatch)
    code, out, err = (_run_to_exit if argv == "--help" else _run_quietly)(argv.split())
    assert built == {"_Parser": 10}
    if argv == "--help":
        assert code == 0 and "{" + ",".join(SUBCOMMANDS) + "}" in out
    else:
        assert (code, out) == (1, "") and err.startswith("usage error: ")


@pytest.mark.parametrize("argv", list(PEAK_BYTES))
def test_traced_peak_per_subcommand(argv):
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        assert main(argv.split()) == 0  # warm: imports and module caches
        gc.collect()
        tracemalloc.start()
        try:
            main(argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < PEAK_BYTES[argv]
