import argparse
import copy
import gc
import hashlib
import math
import pickle
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from tangentia import cli, trees
from tangentia.lattice import MAX_CLASS_DEGREE, enumerate_classes
from tangentia.trees import (
    MAX_LABELS,
    MAX_LAYERS,
    CombType,
    _blocks,
    _coarsening_patterns,
    enumerate_types,
    propagate_weights,
)

# ---------------------------------------------------------------------------
# independent counting oracle: chains in the partition lattice, generated
# from restricted growth strings and counted top-down by a refinement test
# on sets (the implementation merges blocks up from the discrete partition,
# so the two share no code path)
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


def _canonical(part):
    return tuple(sorted(tuple(sorted(block)) for block in part))


BELL = (1, 1, 2, 5, 15, 52, 203)  # set partitions of k items, k = 0..6


def _groupings(items):
    """Every set partition of ``items``, as lists of blocks: each item in
    turn goes into each block opened so far, or opens a new one.  The
    library writes partitions as restricted growth strings instead."""
    groupings = [[]]
    for item in items:
        joined = [g[:i] + [g[i] + [item]] + g[i + 1:] for g in groupings for i in range(len(g))]
        groupings = joined + [g + [[item]] for g in groupings]
    return groupings


def test_groupings_are_the_set_partitions():
    for k in range(1, MAX_LABELS + 1):
        got = _groupings(range(k))
        assert len(got) == BELL[k], k
        assert len({_canonical(g) for g in got}) == BELL[k], k
        assert all(sorted(x for block in g for x in block) == list(range(k)) for g in got), k


def _strict_coarsenings(partition):
    """Partitions obtained by merging at least two blocks of ``partition``:
    the step of the bottom-up build oracle below."""
    for grouping in _groupings(partition):
        if len(grouping) < len(partition):  # something merged
            yield _canonical(sum(group, ()) for group in grouping)


def _from_partition_chain(chain):
    """The tree of a chain (top partition first, discrete partition of 1..r
    last), built top down: layer j's blocks are the vertices ``"j:i"`` in the
    given order, and a block's parent is the vertex owning its labels one layer
    up.  A chain that does not nest or end discrete raises ``ValueError``.
    The build oracles below turn their chains into trees with it."""
    if not chain:
        raise ValueError("a partition chain needs at least one layer")
    layers, parents = [], []
    for j, part in enumerate(chain, start=1):
        layers.append(tuple(f"{j}:{i}" for i in range(len(part))))
        owner = {x: name for name, block in zip(layers[-1], part) for x in block}
        if sum(map(len, part)) != len(owner):
            raise ValueError(f"layer {j} {part} puts a label in two blocks")
        if j > 1:
            links = {(owner[x], above.get(x)) for x in owner}
            if owner.keys() != above.keys() or len(links) != len(part):
                raise ValueError(f"layer {j} {part} does not refine layer {j - 1} {chain[j - 2]}")
            parents += links
        above = owner  # label -> vertex, for the next layer's parents
    r = len(above)
    if sorted(chain[-1]) != [(x,) for x in range(1, r + 1)]:
        raise ValueError(f"bottom layer {chain[-1]} is not the discrete partition of 1..{r}")
    return CombType(n=len(chain) - 1, r=r, layers=tuple(layers), parents=tuple(sorted(parents)),
                    leaf_order=tuple(above[x] for x in range(1, r + 1)))


def test_strict_coarsenings_against_refinement_oracle():
    for r in range(1, 6):
        partitions = _rgs_partitions(r)
        for fine in partitions:
            got = list(_strict_coarsenings(_canonical(fine)))
            assert all(q == _canonical(q) for q in got), fine
            assert len(set(got)) == len(got), fine
            expected = {_canonical(q) for q in partitions if _strictly_refines(fine, q)}
            assert set(got) == expected, fine


def test_coarsening_patterns_merge_to_the_strict_coarsenings():
    # over every partition p of 1..r, r <= 6, held as enumerate_types holds
    # it (the block of each label): merging by each pattern of len(p) blocks
    # (the pattern read at each label's block) gives every strict coarsening
    # of p once, canonical, with the pattern's block count, and each pattern
    # sends a block of p to the merged block that holds it
    for r in range(1, MAX_LABELS + 1):
        for p in sorted(_canonical(p) for p in _rgs_partitions(r)):
            owner = tuple(b for x in range(1, r + 1) for b, block in enumerate(p) if x in block)
            assert _blocks(owner) == p
            got = []
            for m, patterns in enumerate(_coarsening_patterns(len(p))):
                for to in patterns:
                    q = _blocks(tuple(to[b] for b in owner))
                    assert q == _canonical(q) and len(q) == m, (p, to)
                    assert all(set(block) <= set(q[to[i]]) for i, block in enumerate(p)), (p, to)
                    got.append(q)
            assert sorted(got) == sorted(set(got)) == sorted(_strict_coarsenings(p)), p
    # every set partition of range(k) but the one that merges nothing
    counts = [sum(map(len, _coarsening_patterns(k))) for k in range(1, MAX_LABELS + 1)]
    assert counts == [b - 1 for b in BELL[1:]]


# ---------------------------------------------------------------------------
# enumeration oracle: the earlier enumerator, which grows every chain up from
# the discrete partition for n steps, dead ones included, then keeps those
# that reach one block and reverses them; its coarsenings merge blocks looked
# up by index
# ---------------------------------------------------------------------------

def _indexed_coarsenings(partition):
    blocks = list(partition)
    for grouping in _groupings(range(len(blocks))):
        if len(grouping) == len(blocks):
            continue  # nothing merged
        yield _canonical([x for g in group for x in blocks[g]] for group in grouping)


def _grow_then_filter_chains(n, r):
    discrete = _canonical([(i,) for i in range(1, r + 1)])
    chains_up = [[discrete]]
    for _ in range(n):
        chains_up = [
            chain + [coarser]
            for chain in chains_up
            for coarser in _indexed_coarsenings(chain[-1])
        ]
    total = _canonical([tuple(range(1, r + 1))])
    return sorted(tuple(reversed(c)) for c in chains_up if c[-1] == total)


@pytest.mark.parametrize(
    "n, r",
    [(n, r) for n in range(MAX_LAYERS + 1) for r in range(1, 6)] + [(n, 6) for n in range(3)],
)
def test_enumeration_matches_grow_then_filter_oracle(n, r):
    expected = [_from_partition_chain(c) for c in _grow_then_filter_chains(n, r)]
    assert [tuple(t) for t in enumerate_types(n, r)] == [tuple(t) for t in expected]


# ---------------------------------------------------------------------------
# build oracle: an earlier enumerator, which recurses up from the discrete
# partition over (partition, steps left) by coarsening, with no memo and no
# bound, sorts the chains, then builds each type afterwards from its chain
# with _from_partition_chain; enumerate_types instead pushes every chain up
# one layer at a time, merging in sorted order so that no sort is needed,
# and builds the trees' layers and links as it goes
# ---------------------------------------------------------------------------

def _recursive_chains(p, steps):
    if steps == 0:
        return [(p,)] if len(p) == 1 else []
    return [c + (p,) for q in _strict_coarsenings(p) for c in _recursive_chains(q, steps - 1)]


_ALL_CELLS = [(n, r) for n in range(MAX_LAYERS + 1) for r in range(1, MAX_LABELS + 1)]


@pytest.mark.parametrize("n, r", _ALL_CELLS)
def test_enumeration_matches_chain_then_build_oracle(n, r):
    discrete = tuple((i,) for i in range(1, r + 1))
    expected = [_from_partition_chain(c) for c in sorted(_recursive_chains(discrete, n))]
    assert [tuple(t) for t in enumerate_types(n, r)] == [tuple(t) for t in expected]


def test_cells_past_the_last_step_walk_no_lattice(monkeypatch):
    # r blocks merge down to one in at most r - 1 steps: every cell with
    # n > r - 1 is empty, and is known to be so before any pattern is built
    def refuse(k):
        raise AssertionError(f"built the patterns of {k} blocks")

    monkeypatch.setattr(trees, "_coarsening_patterns", refuse)
    with pytest.raises(AssertionError, match="built the patterns"):
        enumerate_types(1, 2)  # the patch is the helper the push merges by
    empty = [(n, r) for n, r in _ALL_CELLS if n > r - 1]
    assert {(6, 6), (5, 3), (1, 1)} <= set(empty)
    for n, r in empty:
        assert enumerate_types(n, r) == [], (n, r)


def test_coarsening_patterns_are_built_once_per_block_count_per_call(monkeypatch):
    built = []
    patterns = trees._coarsening_patterns

    def counted(k):
        built.append(k)
        return patterns(k)

    monkeypatch.setattr(trees, "_coarsening_patterns", counted)
    # once for each block count a partition that merges can have, 2 to r
    for n, r in [(5, 6), (4, 6), (2, 3), (1, 2), (0, 1)]:
        built.clear()
        enumerate_types(n, r)
        assert built == list(range(2, r + 1)), (n, r)
    # the patterns die with the call: a second call builds them afresh
    built.clear()
    enumerate_types(3, 5)
    enumerate_types(3, 5)
    assert built == [2, 3, 4, 5] * 2


def test_each_call_has_its_own_memo():
    first, second = enumerate_types(4, 5), enumerate_types(4, 5)
    assert first == second and first is not second
    first.clear()
    assert len(second) == 180 and second == enumerate_types(4, 5)
    assert not [name for name in dir(trees) if hasattr(getattr(trees, name), "cache_info")]


def test_each_call_frees_its_memos_when_it_returns():
    # a call's patterns and each layer's chains are plain dicts and lists
    # that nothing refers back to, so reference counting frees them as the
    # push moves up a layer and as the call returns; a self-referring
    # closure would leave them to the collector (44,860 objects after
    # (4, 6) for a memoised recursion).  No clock: the collector's count of
    # unreachable objects.  With automatic collection paused, all that a call
    # makes stays in the youngest generation, so collecting that one finds
    # all of the call's garbage.  The class search (126 objects over degrees
    # 0..20 as a self-referring closure) and the CLI's tree rendering (91,263
    # objects for graphs --n 4 --r 6 as one) are held to the same bound
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for n, r in _ALL_CELLS:
            enumerate_types(n, r)
            assert gc.collect(0) < 100, (n, r)
        for degree in range(MAX_CLASS_DEGREE + 1):
            enumerate_classes(degree)
        assert gc.collect(0) < 100
        cli.cmd_graphs(argparse.Namespace(n=4, r=6, weights=None))
        assert gc.collect(0) < 100
    finally:
        if enabled:
            gc.enable()


def test_a_call_shares_its_layers_and_link_pairs():
    # no clock: object identities.  A chain's layers are fixed by its block
    # counts, strictly rising from 1 to r, so C(r - 2, n - 1) distinct layers
    # exist, and each gets one tuple; the parent links use the call's at
    # most n * r * r (child, parent) pairs.  With one layers tuple per chain
    # and one pair per link and level, (4, 6) made 4,245 and 9,187 of them
    for n, r, distinct, pairs in [(4, 6, 4, 46), (5, 6, 1, 50), (3, 6, 6, 38)]:
        types = enumerate_types(n, r)
        assert distinct == math.comb(r - 2, n - 1)
        assert len({id(t.layers) for t in types}) == len({t.layers for t in types}) == distinct
        used = {id(pair) for t in types for pair in t.parents}
        assert len(used) == pairs <= n * r * r, (n, r)


def test_enumeration_peak_memory_is_pinned():
    # a ratchet with no clock: on Python 3.11 the traced peak of (4, 6) is
    # 2.41 MB pushing up a layer at a time, which frees each layer's chains
    # as the next is built; it was 2.58 MB with a memo of every (partition,
    # steps left) kept to the end, and 3.87 MB with a layers tuple and link
    # pairs of their own for each chain
    gc.collect()
    tracemalloc.start()
    try:
        enumerate_types(4, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_800_000


def test_every_enumerated_type_is_coherent_by_construction():
    # enumerate_types builds its types around the constructor's checks, so
    # they are run here instead, on every type its budget allows: the 42
    # cells hold 9,486 types, and each must rebuild through the unchanged
    # constructor and satisfy the axioms
    total = 0
    for n, r in _ALL_CELLS:
        for t in enumerate_types(n, r):
            assert type(t) is CombType, (n, r)
            assert CombType(*t) == t, (n, r)
            assert t.violations() == [], (n, r)
            total += 1
    assert total == 9486


def test_enumeration_output_is_pinned_by_digest():
    # an output-identity ratchet over the whole budget: n outer, r inner,
    # the repr of each cell's list concatenated
    digest = hashlib.sha256()
    for n in range(MAX_LAYERS + 1):
        for r in range(1, MAX_LABELS + 1):
            digest.update(repr(enumerate_types(n, r)).encode())
    assert digest.hexdigest() == "57bb45b7d9379dc3a0f18c9ddd5fa9cd4778b454bac1d776f7bf8953db0d8cca"


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
    # the types are not built by _from_partition_chain, so the round trip is
    # a cross-check of the two builds
    for n, r in [(n, r) for n in range(MAX_LAYERS + 1) for r in range(1, 6)] + [(3, 6)]:
        types = enumerate_types(n, r)
        assert len(set(types)) == len(types)
        for shape in types:
            assert shape.violations() == []
            assert _from_partition_chain(shape.partition_chain()) == shape, (n, r)
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
    return _from_partition_chain(chain)


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
                    built = _from_partition_chain(candidate)
                    assert built == _owner_search_tree(candidate), candidate
                assert _from_partition_chain(chain) == shape


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
        _from_partition_chain(chain)


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


def test_arguments_are_read_as_integers():
    # the integer rule of rationals: an integral value is stored as an int
    assert enumerate_types(2.0, 3) == enumerate_types(2, 3) == enumerate_types(2, 3.0)
    assert enumerate_types(True, 3) == enumerate_types(1, 3)
    assert enumerate_types(Fraction(3), 4) == enumerate_types(3, 4)
    assert all(type(t.n) is type(t.r) is int for t in enumerate_types(2.0, 3.0))
    inf, nan = float("inf"), float("nan")
    for value in (2.5, Fraction(1, 2), "2", inf, -inf, nan, None, [2], 1j):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 0, got {value!r}")):
            enumerate_types(value, 3)
        with pytest.raises(ValueError, match=re.escape(f"r must be a positive integer, got {value!r}")):
            enumerate_types(2, value)
    # the floors of the integer rule: n >= 0 and r >= 1, each named
    with pytest.raises(ValueError, match=r"^n must be an integer >= 0, got -1$"):
        enumerate_types(-1, 3)
    with pytest.raises(ValueError, match=r"^r must be a positive integer, got 0$"):
        enumerate_types(2, 0)


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
    with pytest.raises(ValueError, match=r"^weights must be integers, got \[1\.9, 2, 3\]$"):
        propagate_weights(shape, [1.9, 2, 3])
    # infinities and nan read as any other value that is not an integer
    for weights in ([float("inf"), 2, 3], [1, 2, float("nan")]):
        with pytest.raises(ValueError, match=re.escape(f"weights must be integers, got {weights!r}")):
            propagate_weights(shape, weights)
    for weights in ([float("-inf"), 2, 3], [-1.5, 2, 3]):
        with pytest.raises(ValueError, match="^weights must be positive integers$"):
            propagate_weights(shape, weights)
    # a weight that is no number reads as any other value that is not an integer
    single = enumerate_types(0, 1)[0]
    for one, weights in [(single, ("a",)), (single, ("2",)), (single, (None,)), (shape, [1, None, 3])]:
        with pytest.raises(ValueError, match=re.escape(f"weights must be integers, got {weights!r}")):
            propagate_weights(one, weights)
    # weights are a sequence: an iterator, a number, None, a set or a dict
    # (whose keys would read as weights) is refused, before the arity check
    for weights in (iter([1, 2, 3]), (w for w in [1, 2, 3]), 3, None, {1, 2, 3},
                    frozenset({1, 2, 3}), {1: 1, 2: 2, 3: 3}, {1: 5}):
        with pytest.raises(ValueError, match=re.escape(
                f"weights must be a sequence of integers, got {weights!r}")):
            propagate_weights(shape, weights)
    assert propagate_weights(shape, range(1, 4)).bottom == (1, 2, 3)
    # integral values are stored as ints
    bottom = propagate_weights(shape, [1.0, True, 3]).bottom
    assert bottom == (1, 1, 3) and all(type(w) is int for w in bottom)


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
    # two top vertices, each with one child, so layer 1 does not branch either
    two_tops = CombType(
        n=1,
        r=2,
        layers=(("1:0", "1:1"), ("2:0", "2:1")),
        parents=(("2:0", "1:0"), ("2:1", "1:1")),
        leaf_order=("2:0", "2:1"),
    )
    assert two_tops.violations() == [1, 3]


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
    # the top vertex has a parent
    rooted_below = CombType(
        n=1,
        r=2,
        layers=(("1:0",), ("2:0", "2:1")),
        parents=(("2:0", "1:0"), ("2:1", "1:0"), ("1:0", "2:0")),
        leaf_order=("2:0", "2:1"),
    )
    assert rooted_below.violations() == [2]
    # a bottom vertex with two parents, each one layer up
    two_parents = CombType(
        n=2,
        r=3,
        layers=(("1:0",), ("2:0", "2:1"), ("3:0", "3:1", "3:2")),
        parents=(("2:0", "1:0"), ("2:1", "1:0"), ("3:0", "2:0"), ("3:1", "2:1"),
                 ("3:2", "2:1"), ("3:0", "2:1")),
        leaf_order=("3:0", "3:1", "3:2"),
    )
    assert two_parents.violations() == [2]


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


def test_every_way_of_building_a_weighted_type_checks_it():
    shape = enumerate_types(1, 2)[0]
    weighted = propagate_weights(shape, (1, 2))
    assert trees.WeightedCombType(shape, [1.0, 2]) == weighted._replace() == weighted
    for bottom, message in [((-3, 0), "weights must be positive integers"),
                            ((1.5, "x"), "weights must be integers, got (1.5, 'x')"),
                            ((1,), "expected 2 weights, got 1"),
                            (3, "weights must be a sequence of integers, got 3")]:
        for build in (lambda: trees.WeightedCombType(shape, bottom),
                      lambda: trees.WeightedCombType._make((shape, bottom)),
                      lambda: weighted._replace(bottom=bottom)):
            with pytest.raises(ValueError) as caught:
                build()
            assert str(caught.value) == message
    chain = CombType(1, 1, (("1:0",), ("2:0",)), (("2:0", "1:0"),), ("2:0",))
    with pytest.raises(ValueError, match="violates axioms"):
        weighted._replace(shape=chain)
    for stray in ("x", None, shape.layers, 3):  # no type at all: refused, not AttributeError
        for build in (lambda: propagate_weights(stray, (1,)),
                      lambda: trees.WeightedCombType(stray, (1,)),
                      lambda: trees.WeightedCombType._make((stray, (1,))),
                      lambda: weighted._replace(shape=stray)):
            with pytest.raises(ValueError) as caught:
                build()
            assert str(caught.value) == f"shape must be a CombType, got {stray!r}"


def test_used_and_weighted_types_survive_pickle_and_copy():
    shape = enumerate_types(2, 4)[5]
    weighted = propagate_weights(shape, (1, 2, 3, 4))
    chain = shape.partition_chain()  # every derived map is now read
    for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy):
        again, heavy = copy_of(shape), copy_of(weighted)
        assert (again, heavy) == (shape, weighted)
        assert type(again) is CombType and type(heavy) is trees.WeightedCombType
        assert again.partition_chain() == chain and heavy.weights == weighted.weights


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


_MALFORMED = [
    (dict(n=-1, r=1, layers=(), parents=(), leaf_order=()), "n must be an integer >= 0, got -1"),
    (dict(n=0, r=0, layers=(("1:0",),), parents=(), leaf_order=("1:0",)),
     "r must be a positive integer, got 0"),
    (dict(n=1, r=1, layers=(("1:0",),), parents=(), leaf_order=("1:0",)),
     "expected 2 layers, got 1"),
    (dict(n=2, r=1, layers=(("v",), ("v",)), parents=(("u", "v"),), leaf_order=("u",)),
     "expected 3 layers, got 2"),
    (dict(n=1, r=2, layers=(("v",), ("w", "v")), parents=(), leaf_order=("w",)),
     "duplicate vertex id 'v'"),
    (dict(n=1, r=2, layers=(("a", "b"), ("b", "a")), parents=(("x", "y"),), leaf_order=("z",)),
     "duplicate vertex id 'b'"),
    (dict(n=0, r=2, layers=(("u", "w", "u"),), parents=(), leaf_order=("u", "w")),
     "duplicate vertex id 'u'"),
    (dict(n=1, r=1, layers=(("1:0",), ("2:0",)), parents=(("2:0", "ghost"),), leaf_order=("9:9",)),
     "parent table mentions an unknown vertex"),
    (dict(n=1, r=1, layers=(("1:0",), ("2:0",)), parents=(("ghost", "1:0"),), leaf_order=("2:0",)),
     "parent table mentions an unknown vertex"),
    (dict(n=1, r=1, layers=(("1:0",), ("2:0",)), parents=(("2:0", "1:0"),), leaf_order=("2:9",)),
     "leaf order mentions an unknown vertex"),
    (dict(n=2.5, r=1, layers=(), parents=(), leaf_order=()), "n must be an integer >= 0, got 2.5"),
    (dict(n=1, r="1", layers=(), parents=(), leaf_order=()), "r must be a positive integer, got '1'"),
    (dict(n=None, r=1, layers=(), parents=(), leaf_order=()), "n must be an integer >= 0, got None"),
]


@pytest.mark.parametrize("fields, message", _MALFORMED, ids=[
    "negative-n", "zero-r", "too-few-layers", "too-few-layers-before-duplicate",
    "duplicate-across-layers", "first-duplicate-named", "duplicate-in-a-layer",
    "unknown-parent", "unknown-child", "unknown-leaf", "fractional-n", "string-r", "none-n"])
def test_constructor_errors_are_the_same_on_every_path(fields, message):
    # the exact text, whichever way the fields arrive
    base = enumerate_types(1, 2)[0]
    for build in (lambda: CombType(*fields.values()), lambda: CombType(**fields),
                  lambda: CombType._make(fields.values()), lambda: base._replace(**fields)):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


def test_constructor_reads_n_and_r_by_the_integer_rule():
    # an integral n or r is stored as an int, so no float or bool reaches
    # violations() or partition_chain() to fail there with a bare TypeError
    shape = enumerate_types(1, 2)[0]
    for n, r in [(1.0, 2), (True, 2), (1, 2.0), (Fraction(1), Fraction(2))]:
        for built in (CombType(n, r, *shape[2:]), shape._replace(n=n, r=r)):
            assert built == shape and type(built.n) is type(built.r) is int, (n, r)
            assert built.violations() == [] and built.partition_chain() == shape.partition_chain()
