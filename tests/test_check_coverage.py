"""The two heaviest checks of ``verify-all`` keep their full coverage.

Each test wraps the library functions a check calls and counts the calls;
no wall clock is read.  A check that shrank its weight sweep, or solved
each distinct restriction only once, would still pass, so only these
counts show it.
"""
from tangentia import torsion, trees, verify


def test_degeneration_trees_weights_every_shape_with_every_weighting(monkeypatch):
    events = []
    propagate, top_weight = trees.propagate_weights, trees.WeightedCombType.top_weight

    def counted_propagate(shape, weights):
        events.append("propagate")
        return propagate(shape, weights)

    def counted_top_weight(weighted):
        events.append("top_weight")
        return top_weight.fget(weighted)

    monkeypatch.setattr(trees, "propagate_weights", counted_propagate)
    monkeypatch.setattr(trees.WeightedCombType, "top_weight", property(counted_top_weight))
    verify.check_degeneration_trees()
    # every shape of every cell (n, r) <= (3, 4), under all 5^r weightings in 1..5
    sweep = sum(len(trees.enumerate_types(n, r)) * 5**r for n in range(4) for r in range(1, 5))
    assert sweep == 20530
    assert events == ["propagate", "top_weight"] * sweep


def test_torsion_division_solves_every_ordered_class(monkeypatch):
    classes, divisions = [], []
    restriction_class, solve_division = torsion.restriction_class, torsion.solve_division

    def counted_restriction(cls):
        classes.append(cls)
        return restriction_class(cls)

    def counted_division(c, m):
        divisions.append((c, m))
        return solve_division(c, m)

    monkeypatch.setattr(torsion, "restriction_class", counted_restriction)
    monkeypatch.setattr(torsion, "solve_division", counted_division)
    verify.check_torsion_division()
    assert len(classes) == len(set(classes)) == 243
    assert len(divisions) == 243 and {m for _, m in divisions} == {4}
    # far fewer distinct restrictions than classes: one solve per class, not per c
    assert len({c for c, _ in divisions}) < 243
