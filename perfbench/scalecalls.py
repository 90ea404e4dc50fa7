"""The scale workload's library calls and the fingerprints that check them.

``run`` is the timed part.  ``fingerprint`` runs after the clock stops and
touches only plain attributes of the results, never a library function, so
a traced pass records no spans for it.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import product

from tangentia import covers, lattice, torsion, trees


def run(call: list):
    kind, *args = call
    if kind == "classes":
        return lattice.enumerate_classes(*args)
    if kind == "types":
        return trees.enumerate_types(*args)
    if kind == "stratify":
        return [torsion.stratify(p) for p in torsion.torsion_points(*args)]
    if kind == "solve":
        i, j, m = args
        c = torsion.TorsionPoint(Fraction(i, 3), Fraction(j, 3))
        return torsion.solve_division(c, m)
    if kind == "instantons":
        return covers.instanton_numbers(*args)
    if kind == "integrality":
        return covers.integrality_report(*args)
    if kind == "weights":
        n, r, top = args
        return [
            (weights, trees.propagate_weights(shape, weights))
            for shape in trees.enumerate_types(n, r)
            for weights in product(range(1, top + 1), repeat=r)
        ]
    raise ValueError(f"unknown scale call {kind!r}")


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(str(line).encode())
        h.update(b"\n")
    return h.hexdigest()


def fingerprint(call: list, result) -> dict:
    """Count and digest of a result, plus the frozen facts it must show."""
    kind = call[0]
    fp: dict = {"n": len(result)}
    if kind == "classes":
        fp["sha"] = _digest((r.e, r.a_multiset, r.p_a, r.ordered_count) for r in result)
    elif kind == "types":
        fp["sha"] = _digest((t.layers, t.parents, t.leaf_order) for t in result)
    elif kind == "stratify":
        labels = [s.value if s else "-" for s in result]
        fp["strata"] = {label: labels.count(label) for label in sorted(set(labels))}
    elif kind == "solve":
        fp["sha"] = _digest((p.x, p.y) for p in result)
    elif kind == "instantons":
        fp["sha"] = _digest(f"{d}:{v}" for d, v in sorted(result.items()))
        if call[1] == 3:
            fp["m3_1_6"] = [str(result[d]) for d in range(1, 7)]
    elif kind == "integrality":
        fp["sha"] = _digest((r.w, r.d, r.value, r.passes) for r in result)
        fp["all_pass"] = all(r.passes for r in result)
    elif kind == "weights":
        fp["sha"] = _digest(w.weights for _, w in result)
        fp["top_is_sum"] = all(
            dict(w.weights)[w.shape.layers[0][0]] == sum(weights) for weights, w in result
        )
    return fp
