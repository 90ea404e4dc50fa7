import math
import re
import time
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from tangentia.trees import (
    MAX_LAYERS,
    CombType,
    enumerate_types,
    propagate_weights,
)

# ---------------------------------------------------------------------------
# independent counting oracle: chains in the partition lattice, generated
# from restricted growth strings and counted top-down (the implementation
# builds bottom-up from block merges, so the two share no code path)
# ---------------------------------------------------------------------------

def _rgs_partitions(r):
    """All set partitions of {1..r} as frozensets of frozensets."""
    results = []

    def grow(prefix, used):
        if len(prefix) == r:
            blocks = {}
            for index, value in enumerate(prefix, start=1):
                blocks.setdefault(value, set()).add(index)
            results.append(frozenset(frozenset(b) for b in blocks.values()))
            return
        for value in range(used + 1):
            grow(prefix + [value], max(used, value + 1))

    grow([], 0)
    return results


def _strictly_refines(fine, coarse):
    if len(fine) <= len(coarse):
        return False
    return all(any(block <= c for c in coarse) for block in fine)


def _oracle_count(n, r):
    partitions = _rgs_partitions(r)
    discrete = frozenset(frozenset({i}) for i in range(1, r + 1))
    total = frozenset({frozenset(range(1, r + 1))})
    memo = {}

    def chains_down(part, steps):
        if steps == 0:
            return 1 if part == discrete else 0
        key = (part, steps)
        if key not in memo:
            memo[key] = sum(
                chains_down(finer, steps - 1)
                for finer in partitions
                if _strictly_refines(finer, part)
            )
        return memo[key]

    return chains_down(total, n)


def test_counts_against_oracle():
    for n in range(0, 5):
        for r in range(1, 5):
            assert len(enumerate_types(n, r)) == _oracle_count(n, r), (n, r)


# ---------------------------------------------------------------------------
# second counting oracle, with no partitions at all: the interval above a
# partition with k blocks is isomorphic to the partition lattice of k
# elements, so a chain's first step up from the discrete partition picks one
# of S(r, k) partitions with k < r blocks and the rest is a chain for k
# ---------------------------------------------------------------------------

def _stirling2(r, k):
    row = [1] + [0] * k  # S(0, j)
    for _ in range(r):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def _chain_count(n, r):
    if n == 0:
        return 1 if r == 1 else 0
    return sum(_stirling2(r, k) * _chain_count(n - 1, k) for k in range(1, r))


def test_counts_against_stirling_recursion():
    assert [_stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    for n in range(0, 6):
        for r in range(1, 7):
            assert len(enumerate_types(n, r)) == _chain_count(n, r), (n, r)
    # maximal chains merge two blocks per step: r! (r - 1)! / 2^(r - 1)
    for r, expected in [(3, 3), (5, 180), (6, 2700)]:
        assert _chain_count(r - 1, r) == expected
        assert (
            math.factorial(r) * math.factorial(r - 1) // 2 ** (r - 1) == expected
        )


def test_frozen_counts():
    assert len(enumerate_types(0, 1)) == 1
    assert all(len(enumerate_types(n, 1)) == 0 for n in (1, 2, 3, 4))
    assert len(enumerate_types(1, 2)) == 1
    assert all(len(enumerate_types(n, 2)) == 0 for n in (0, 2, 3, 4))
    assert len(enumerate_types(2, 3)) == 3
    assert len(enumerate_types(1, 3)) == 1
    assert len(enumerate_types(2, 4)) == 13
    assert len(enumerate_types(3, 4)) == 18


def test_two_three_matches_middle_partition_count():
    # for n = 2 a type is determined by one partition strictly between the
    # discrete and total ones; for r = 3 those are the three 2-block splits
    middles = [
        p for p in _rgs_partitions(3)
        if len(p) not in (1, 3)
    ]
    assert len(middles) == 3
    assert len(enumerate_types(2, 3)) == len(middles)


def test_enumerated_types_are_valid_and_canonical():
    for n in range(0, 4):
        for r in range(1, 5):
            types = enumerate_types(n, r)
            assert len(set(types)) == len(types)
            for shape in types:
                assert shape.violations() == []
                rebuilt = CombType.from_partition_chain(shape.partition_chain())
                assert rebuilt == shape
    assert enumerate_types(2, 3) == enumerate_types(2, 3)  # deterministic


def test_trivial_type_shape():
    only = enumerate_types(0, 1)[0]
    assert only.layers == (("1:0",),)
    assert only.leaf_order == ("1:0",)
    assert only.parents == ()


def _relabel(shape, perm):
    """Apply the label permutation ``i -> perm[i - 1]`` to every partition
    of the chain and rebuild the canonical tree."""
    chain = tuple(
        tuple(sorted(tuple(sorted(perm[x - 1] for x in block)) for block in part))
        for part in shape.partition_chain()
    )
    return CombType.from_partition_chain(chain)


def _owner_search_tree(chain):
    """Independent construction: each block's parent is the first block of
    the layer above that contains it as a set, and leaves are looked up by
    their one-label blocks."""
    n = len(chain) - 1
    r = sum(len(b) for b in chain[-1])
    ids = [{block: f"{j}:{i}" for i, block in enumerate(part)} for j, part in enumerate(chain, 1)]
    parents = []
    for j in range(1, n + 1):
        for block, name in ids[j].items():
            owner = next(b for b in chain[j - 1] if set(block) <= set(b))
            parents.append((name, ids[j - 1][owner]))
    return CombType(
        n=n,
        r=r,
        layers=tuple(tuple(names[b] for b in part) for names, part in zip(ids, chain)),
        parents=tuple(sorted(parents)),
        leaf_order=tuple(ids[-1][(label,)] for label in range(1, r + 1)),
    )


def test_label_lookup_matches_owner_search_oracle():
    for r in range(1, 6):
        for n in range(0, MAX_LAYERS + 1):
            for shape in enumerate_types(n, r):
                chain = shape.partition_chain()
                # label x -> x mod r + 1, blocks listed in reverse: no part of
                # the relabelled chain is in canonical order
                relabelled = tuple(
                    tuple(tuple(x % r + 1 for x in block) for block in reversed(part))
                    for part in chain
                )
                for candidate in (chain, relabelled):
                    built = CombType.from_partition_chain(candidate)
                    assert built == _owner_search_tree(candidate), candidate
                assert CombType.from_partition_chain(chain) == shape


@pytest.mark.parametrize("chain, message", [
    ((((1, 2, 3),), ((1, 2), (3,)), ((1, 3), (2,)), ((1,), (2,), (3,))),
     "layer 3 ((1, 3), (2,)) does not refine layer 2 ((1, 2), (3,))"),
    ((((1, 2),), ((1,), (2, 3)), ((1,), (2,), (3,))),
     "layer 2 ((1,), (2, 3)) does not refine layer 1 ((1, 2),)"),
    ((((1, 2, 3),), ((1,), (2,))), "layer 2 ((1,), (2,)) does not refine layer 1 ((1, 2, 3),)"),
    ((((1, 2), (2, 3)), ((1,), (2,), (3,))), "layer 1 ((1, 2), (2, 3)) puts a label in two blocks"),
    ((), "a partition chain needs at least one layer"),
    ((((1, 2),),), "bottom layer ((1, 2),) is not the discrete partition of 1..2"),
    ((((1, 2, 3),), ((2,), (3,), (4,))), "layer 2 ((2,), (3,), (4,)) does not refine layer 1"),
    ((((2, 3),), ((2,), (3,))), "bottom layer ((2,), (3,)) is not the discrete partition of 1..2"),
], ids=["blocks-cross", "label-missing-above", "label-dropped", "label-repeated", "empty",
        "bottom-not-discrete", "labels-shifted", "labels-not-from-one"])
def test_a_chain_that_does_not_nest_raises_value_error(chain, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CombType.from_partition_chain(chain)


def test_leaf_permutation_closure():
    for n in range(0, 4):
        for r in range(1, 5):
            types = set(enumerate_types(n, r))
            for shape in types:
                images = {_relabel(shape, perm) for perm in permutations(range(1, r + 1))}
                assert images <= types
                assert _relabel(shape, range(1, r + 1)) == shape


def test_budget_guard():
    with pytest.raises(ValueError):
        enumerate_types(7, 2)
    with pytest.raises(ValueError):
        enumerate_types(2, 7)
    with pytest.raises(ValueError):
        enumerate_types(-1, 2)
    with pytest.raises(ValueError):
        enumerate_types(1, 0)


def test_large_enumeration_is_quick():
    start = time.monotonic()
    types = enumerate_types(4, 5)
    assert len(types) == 180
    assert time.monotonic() - start < 10.0


def test_weight_propagation_conserves_totals():
    for n in range(0, 4):
        for r in range(1, 5):
            for shape in enumerate_types(n, r):
                for weights in product(range(1, 6), repeat=r):
                    weighted = propagate_weights(shape, weights)
                    assert weighted.top_weight == sum(weights)
                    # every interior vertex carries the sum of its children
                    children = shape.children_map
                    for layer in shape.layers[:-1]:
                        for v in layer:
                            assert weighted.weight(v) == sum(
                                weighted.weight(c) for c in children[v]
                            )


def test_weight_propagation_input_checks():
    shape = enumerate_types(2, 3)[0]
    with pytest.raises(ValueError):
        propagate_weights(shape, [1, 2])  # wrong arity
    with pytest.raises(ValueError):
        propagate_weights(shape, [1, 2, 0])  # weights must be positive


def test_invalid_type_is_refused_on_every_call():
    # axiom (3) fails: the chain never branches
    chain = CombType(
        n=1,
        r=1,
        layers=(("1:0",), ("2:0",)),
        parents=(("2:0", "1:0"),),
        leaf_order=("2:0",),
    )
    for _ in range(2):
        with pytest.raises(ValueError):
            propagate_weights(chain, [1])
        with pytest.raises(ValueError):
            chain.partition_chain()


def test_type_is_validated_once_and_lazily(monkeypatch):
    calls = []
    real = CombType.violations

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(CombType, "violations", counting)
    shape = enumerate_types(2, 3)[0]
    assert calls == []  # building a type derives nothing
    maps = []
    for k in range(1, 51):
        assert propagate_weights(shape, (k, 1, 2)).top_weight == k + 3
        maps.append(shape._labels_below)
    shape.partition_chain()
    assert calls == [shape]
    assert all(m is maps[0] for m in maps)  # one labels-below map, not one per call


def test_children_map_is_cached_and_read_only():
    shape = enumerate_types(2, 3)[0]
    children = shape.children_map
    assert children is shape.children_map
    assert all(isinstance(kids, tuple) for kids in children.values())
    with pytest.raises(TypeError):
        children["1:0"] = ()


def test_weight_matches_weights_and_is_read_only():
    for n, r in [(0, 1), (1, 3), (2, 3), (2, 4)]:
        for shape in enumerate_types(n, r):
            weighted = propagate_weights(shape, range(1, r + 1))
            stored = dict(weighted.weights)
            vertices = [v for layer in shape.layers for v in layer]
            assert sorted(stored) == sorted(vertices)
            for v in vertices:
                assert weighted.weight(v) == stored[v]
            assert weighted.top_weight == stored[shape.layers[0][0]]
            with pytest.raises(KeyError):
                weighted.weight("9:9")
            for name in ("shape", "bottom", "weights", "weight", "top_weight"):
                with pytest.raises(AttributeError):
                    setattr(weighted, name, None)


_SMALL_SHAPES = [
    shape for n in range(0, 4) for r in range(1, 5) for shape in enumerate_types(n, r)
]


@given(st.lists(st.integers(1, 10**12), min_size=4, max_size=4))
def test_weights_view_matches_top_down_oracle(weights):
    # top-down recursion over children_map: no labels-below map involved
    for shape in _SMALL_SHAPES:
        bottom = weights[: shape.r]
        leaf = {v: i for i, v in enumerate(shape.leaf_order)}
        children = shape.children_map

        def oracle(v):
            if v in leaf:
                return bottom[leaf[v]]
            return sum(oracle(c) for c in children[v])

        weighted = propagate_weights(shape, bottom)
        expected = tuple(sorted((v, oracle(v)) for layer in shape.layers for v in layer))
        assert weighted.bottom == tuple(bottom)
        assert weighted.weights == expected
        assert all(weighted.weight(v) == w for v, w in expected)
        assert weighted.top_weight == oracle(shape.layers[0][0]) == sum(bottom)


def test_validate_axiom_one():
    # bottom labels not in bijection with the bottom layer
    broken = CombType(
        n=1,
        r=2,
        layers=(("1:0",), ("2:0", "2:1")),
        parents=(("2:0", "1:0"), ("2:1", "1:0")),
        leaf_order=("2:0", "2:0"),
    )
    assert broken.violations() == [1]


def test_validate_axiom_two():
    # middle vertex with no children
    broken = CombType(
        n=2,
        r=1,
        layers=(("1:0",), ("2:0", "2:1"), ("3:0",)),
        parents=(("2:0", "1:0"), ("2:1", "1:0"), ("3:0", "2:0")),
        leaf_order=("3:0",),
    )
    assert 2 in broken.violations()
    # parent link that skips a layer
    skipping = CombType(
        n=2,
        r=2,
        layers=(("1:0",), ("2:0",), ("3:0", "3:1")),
        parents=(("2:0", "1:0"), ("3:0", "2:0"), ("3:1", "1:0")),
        leaf_order=("3:0", "3:1"),
    )
    assert 2 in skipping.violations()


def test_validate_axiom_three():
    # a chain never branches, so every non-bottom layer fails condition (3)
    chain = CombType(
        n=1,
        r=1,
        layers=(("1:0",), ("2:0",)),
        parents=(("2:0", "1:0"),),
        leaf_order=("2:0",),
    )
    assert chain.violations() == [3]


def test_validate_passes_on_hand_built_type():
    shape = CombType(
        n=1,
        r=2,
        layers=(("1:0",), ("2:0", "2:1")),
        parents=(("2:0", "1:0"), ("2:1", "1:0")),
        leaf_order=("2:0", "2:1"),
    )
    assert shape.violations() == []
    assert shape in enumerate_types(1, 2)


def test_a_type_is_read_only_before_and_after_its_maps_are_derived():
    shape = enumerate_types(2, 3)[0]
    names = ("n", "r", "layers", "parents", "leaf_order", "children_map", "_labels_below",
             "violations", "new_attribute", "__dict__")
    for derived in (False, True):
        if derived:
            propagate_weights(shape, (1, 2, 3))
        for name in names:
            with pytest.raises(AttributeError):
                setattr(shape, name, None)
        with pytest.raises(AttributeError):
            del shape.children_map
    assert shape == enumerate_types(2, 3)[0]
    assert propagate_weights(shape, (1, 2, 3)).top_weight == 6


def test_reprs_are_unchanged():
    shape = enumerate_types(0, 1)[0]
    assert repr(shape) == str(shape) == (
        "CombType(n=0, r=1, layers=(('1:0',),), parents=(), leaf_order=('1:0',))"
    )
    assert repr(propagate_weights(shape, [7])) == f"WeightedCombType(shape={shape!r}, bottom=(7,))"


def test_make_and_replace_validate():
    shape = enumerate_types(1, 2)[0]
    assert CombType._make(shape) == shape._replace() == shape
    with pytest.raises(ValueError, match="expected 3 layers"):
        shape._replace(n=2)
    with pytest.raises(ValueError, match="duplicate vertex id"):
        CombType._make((1, 2, (("v",), ("v", "w")), (), ("v", "w")))


def test_constructor_rejects_malformed_structures():
    with pytest.raises(ValueError):
        CombType(n=1, r=1, layers=(("1:0",),), parents=(), leaf_order=("1:0",))
    with pytest.raises(ValueError):
        CombType(
            n=1, r=1,
            layers=(("v", ), ("v",)),  # duplicate id
            parents=(), leaf_order=("v",),
        )
    with pytest.raises(ValueError):
        CombType(
            n=1, r=1,
            layers=(("1:0",), ("2:0",)),
            parents=(("2:0", "ghost"),),
            leaf_order=("2:0",),
        )
