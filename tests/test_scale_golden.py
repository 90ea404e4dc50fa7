"""Answers of the ``scale`` benchmark, pinned in the suite: every
``solve i j m``, ``stratify m``, ``classes d`` and ``types n r`` entry
recorded in ``perfbench/golden.json`` is replayed in-process and its
fingerprint must match the recorded one.  The file is only read.

The fingerprint rule, restated from the benchmark: ``n`` is the length of
the result, and a ``sha`` is the sha256 of ``str(item)`` plus a newline for
each item of the result in order, so it fixes the order too.  For
``solve i j m`` the call is ``solve_division(c, m)`` with c = (i/3, j/3),
and an item is ``(p.x, p.y)``, which fixes the ``Fraction`` views.  For
``stratify m`` the call stratifies each point of ``torsion_points(m)``, and
``strata`` counts the labels, ``"-"`` standing for no stratum.  For
``classes d`` the call is ``enumerate_classes(d)`` and an item is
``(r.e, r.a_multiset, r.p_a, r.ordered_count)``; for ``types n r`` it is
``enumerate_types(n, r)`` and an item is ``(t.layers, t.parents,
t.leaf_order)``.
"""
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from tangentia.lattice import enumerate_classes
from tangentia.torsion import TorsionPoint, solve_division, stratify, torsion_points
from tangentia.trees import enumerate_types

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


@pytest.mark.parametrize("entry", _entries("classes"))
def test_golden_classes_entry(entry):
    rows = enumerate_classes(int(entry.split()[1]))
    items = ((r.e, r.a_multiset, r.p_a, r.ordered_count) for r in rows)
    assert {"n": len(rows), "sha": _digest(items)} == GOLDEN[entry]


@pytest.mark.parametrize("entry", _entries("types"))
def test_golden_types_entry(entry):
    types = enumerate_types(*(int(word) for word in entry.split()[1:]))
    items = ((t.layers, t.parents, t.leaf_order) for t in types)
    assert {"n": len(types), "sha": _digest(items)} == GOLDEN[entry]


def test_golden_torsion_entries_are_present():
    assert len(_entries("solve")) == 36
    assert len(_entries("stratify")) == 5


def test_golden_class_and_type_entries_are_present():
    assert _entries("classes") == [f"classes {d}" for d in range(10, 17)]
    assert _entries("types") == ["types 3 6", "types 4 6", "types 5 6"]
