"""Torsion answers of the ``scale`` benchmark, pinned in the suite: every
``solve i j m`` and ``stratify m`` entry recorded in
``perfbench/golden.json`` is replayed in-process and its fingerprint must
match the recorded one.

The fingerprint rule, restated from the benchmark: ``n`` is the length of
the result.  For ``solve i j m`` the call is ``solve_division(c, m)`` with
c = (i/3, j/3), and ``sha`` is the sha256 of ``str((p.x, p.y))`` plus a
newline for each solution in order, so it fixes both the lexicographic
order and the ``Fraction`` views.  For ``stratify m`` the call stratifies
each point of ``torsion_points(m)``, and ``strata`` counts the labels,
``"-"`` standing for no stratum.
"""
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from tangentia.torsion import TorsionPoint, solve_division, stratify, torsion_points

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)["scale"]


def _entries(kind: str) -> list[str]:
    return sorted(key for key in GOLDEN if key.split()[0] == kind)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(str(line).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("entry", _entries("solve"))
def test_golden_solve_entry(entry):
    i, j, m = (int(word) for word in entry.split()[1:])
    sols = solve_division(TorsionPoint(Fraction(i, 3), Fraction(j, 3)), m)
    assert {"n": len(sols), "sha": _digest((p.x, p.y) for p in sols)} == GOLDEN[entry]


@pytest.mark.parametrize("entry", _entries("stratify"))
def test_golden_stratify_entry(entry):
    labels = [s.value if s else "-" for s in map(stratify, torsion_points(int(entry.split()[1])))]
    strata = {label: labels.count(label) for label in sorted(set(labels))}
    assert {"n": len(labels), "strata": strata} == GOLDEN[entry]


def test_golden_torsion_entries_are_present():
    assert len(_entries("solve")) == 36
    assert len(_entries("stratify")) == 5
