"""Layered trees recording how a maximally tangent curve can degenerate.

A combinatorial type with parameters (n, r) is a rooted tree whose vertices
are arranged in layers 1 (top) through n+1 (bottom), subject to:

(1) layer 1 consists of a single vertex, and the bottom layer carries a
    labeling bijection from {1, ..., r};
(2) the edges form a tree running only between consecutive layers, every
    vertex below the top layer has exactly one parent, and every vertex
    above the bottom layer has at least one child;
(3) every layer except the bottom one contains a vertex with at least two
    children, so each step down genuinely branches somewhere.

Identifying each vertex with the set of bottom labels below it shows that
such trees are exactly the chains of set partitions of {1, ..., r} from the
discrete partition (bottom) to the one-block partition (top) that coarsen
strictly at every step.  :func:`enumerate_types` pushes those chains up
from the discrete partition one layer at a time and builds each tree as it
goes: a partition's vertex ids are fixed by its layer, and a block's parent
is the vertex owning its labels one layer up, so each partition of a layer
carries its chains' layers and parent links, as two parallel lists.  A
partition is held as a restricted growth string, the block of each label
(blocks numbered by least label), and a merge is one on block indices, of
length k with fewer than k blocks, read at each label's block.  The
patterns of each block count, each (child, parent) link pair (n * r * r at
most) and each distinct layers tuple are made once per call and shared.
Nothing refers back to itself, so reference counting frees each layer's
chains as the next is built, and the rest as the call returns.
Merging each layer in sorted order hands every partition its chains sorted
(top first), each one's links sorted by child, so nothing is sorted after.
A merge into layer j keeps at least j blocks (layer 1 exactly one), so
every chain built reaches the top, and is a type coherent by construction:
none is re-checked by the constructor, and the tests check all 9,486 types
of the budget.  The chains count the types: none once n > r - 1, one for
(n, r) = (0, 1) or (1, r >= 2), and three for (2, 3).

The tree is the stored form: a :class:`CombType` is a read-only named tuple
of its five fields.  Everything else is read off two maps, each built once
per type on first use and kept by the type: each vertex's sorted children,
and, by one bottom-up walk over those, its sorted bottom labels, which,
grouped by layer, are the partition chain (:meth:`CombType.partition_chain`).
A weighted type (:func:`propagate_weights`) is a named tuple of only the
shape and the weights of the bottom labels (contact orders of the degenerate
pieces); the weight of any other vertex, and the full ``weights`` table, is
derived by summing those bottom weights over the labels, so the top vertex
carries the total contact order.
"""
from __future__ import annotations

import functools
from collections.abc import Sequence
from itertools import chain
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .rationals import _Record, _integer, _integers

MAX_LAYERS = 6
MAX_LABELS = 6

Partition = tuple[tuple[int, ...], ...]
_record = tuple.__new__  # a named tuple from its fields, without the class's own __new__


def _coarsening_patterns(k: int) -> list[list[tuple[int, ...]]]:
    """The strict coarsenings of a partition with k blocks, as patterns on
    its block indices: entry m lists each set partition of ``range(k)`` into
    m < k blocks as a restricted growth string, the block of each index,
    blocks numbered by first index.  Each index joins a block already named
    or opens the next one."""
    strings = [()]
    for _ in range(k):
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
    by_count: list[list[tuple[int, ...]]] = [[] for _ in range(k + 1)]
    for s in strings:
        by_count[max(s) + 1].append(s)
    return by_count[:k]  # the one string with k blocks merges nothing


def _blocks(owner: tuple[int, ...]) -> Partition:
    """The canonical partition of 1..r in which label x is in block ``owner[x - 1]``."""
    blocks: list[list[int]] = [[] for _ in range(max(owner) + 1)]
    for x, block in enumerate(owner, start=1):
        blocks[block].append(x)
    return tuple(map(tuple, blocks))


class _CombFields(NamedTuple):
    n: int
    r: int
    layers: tuple[tuple[str, ...], ...]
    parents: tuple[tuple[str, str], ...]
    leaf_order: tuple[str, ...]


class CombType(_Record, _CombFields):
    """A checked record, a layered tree; see the module docstring for axioms.

    ``layers[j - 1]`` holds the vertex ids of layer j, ``parents`` maps each
    non-top vertex to its parent, and ``leaf_order[i]`` is the bottom vertex
    labeled i + 1.  Construction by hand reads n and r by the integer rule
    of :mod:`~tangentia.rationals` with the floors n >= 0 and r >= 1 (1.0 is
    1 and True is 1; 2.5, "1", None, n = -1 or r = 0 raises ``ValueError``),
    and otherwise only checks that the ids are coherent, by set operations:
    the layers' ids are distinct (the first repeat is named), and the parent
    links and the leaf order use only those ids.  Whether the axioms hold is
    the business of :meth:`violations`, so that broken candidates can be
    built and diagnosed.  The types of :func:`enumerate_types` are coherent
    by construction and skip these checks; one call's types may share their
    (immutable) layers and links.

    These fields are the whole type.  The partition chain and every vertex
    weight of a :class:`WeightedCombType` (which stores only this shape and
    its bottom weights) come from one labels-below map (vertex -> sorted
    bottom labels), derived on first use and kept by the instance for its
    lifetime, but not pickled or copied; deriving it runs :meth:`violations`
    once and raises ``ValueError`` for a broken type.  The derived maps live
    in an instance ``__dict__`` that only ``functools.cached_property``
    writes to.
    """

    def __new__(cls, n: int, r: int, layers: tuple[tuple[str, ...], ...],
                parents: tuple[tuple[str, str], ...], leaf_order: tuple[str, ...]) -> CombType:
        n, r = _integer(n, "n", 0), _integer(r, "r", 1)
        if len(layers) != n + 1:
            raise ValueError(f"expected {n + 1} layers, got {len(layers)}")
        ids: set[str] = set()
        for v in chain.from_iterable(layers):  # name the first repeat
            if v in ids:
                raise ValueError(f"duplicate vertex id {v!r}")
            ids.add(v)
        if not ids.issuperset(chain.from_iterable(parents)):
            raise ValueError("parent table mentions an unknown vertex")
        if not ids.issuperset(leaf_order):
            raise ValueError("leaf order mentions an unknown vertex")
        return tuple.__new__(cls, (n, r, layers, parents, leaf_order))

    # -- structure helpers ------------------------------------------------

    @functools.cached_property
    def children_map(self) -> Mapping[str, tuple[str, ...]]:
        children: dict[str, list[str]] = {v: [] for layer in self.layers for v in layer}
        for child, parent in self.parents:
            children[parent].append(child)
        return MappingProxyType({v: tuple(sorted(kids)) for v, kids in children.items()})

    @functools.cached_property
    def _labels_below(self) -> Mapping[str, tuple[int, ...]]:
        """Vertex -> sorted bottom labels below it, keyed in sorted vertex
        order: the one bottom-up walk of a valid type."""
        bad = self.violations()
        if bad:
            raise ValueError(f"invalid combinatorial type: violates axioms {bad}")
        below = {v: (i + 1,) for i, v in enumerate(self.leaf_order)}
        children = self.children_map
        for layer in reversed(self.layers[:-1]):
            for v in layer:
                below[v] = tuple(sorted(x for c in children[v] for x in below[c]))
        return MappingProxyType(dict(sorted(below.items())))

    def violations(self) -> list[int]:
        """Sorted list of violated axiom numbers; empty means valid."""
        bad: set[int] = set()

        if len(self.layers[0]) != 1:
            bad.add(1)
        bottom = set(self.layers[-1])
        if (
            len(self.leaf_order) != self.r
            or len(set(self.leaf_order)) != self.r
            or set(self.leaf_order) != bottom
        ):
            bad.add(1)

        parent_map = dict(self.parents)
        children = self.children_map
        for j, layer in enumerate(self.layers, start=1):
            for v in layer:
                if j == 1:
                    if v in parent_map:
                        bad.add(2)
                else:
                    p = parent_map.get(v)
                    if p is None or p not in self.layers[j - 2]:
                        bad.add(2)
                if j <= self.n and not children[v]:
                    bad.add(2)
        if len(self.parents) != len(set(c for c, _ in self.parents)):
            bad.add(2)  # some vertex has two parents

        for j in range(1, self.n + 1):
            if not any(len(children[v]) >= 2 for v in self.layers[j - 1]):
                bad.add(3)

        return sorted(bad)

    # -- partition chain view ---------------------------------------------

    def partition_chain(self) -> tuple[Partition, ...]:
        """The chain of bottom-label partitions, one per layer, top first."""
        below = self._labels_below
        return tuple(tuple(sorted(below[v] for v in layer)) for layer in self.layers)


def enumerate_types(n: int, r: int) -> list[CombType]:
    """All combinatorial types with n + 1 layers and r labeled bottom
    vertices, in the order of their partition chains (top first).  Bounded
    to n <= 6 and r <= 6; by the integer rule of :mod:`~tangentia.rationals`,
    2.0 reads as 2, and 2.5, inf or nan raises ``ValueError``.

    The chains are pushed up from the discrete partition a layer at a time,
    as the module docstring tells, with the patterns of each block count
    built once for the call; nothing needs unbinding.  A cell with
    n > r - 1 is empty and returns before any pattern is built.  The types
    are coherent by construction and skip the constructor's checks."""
    n, r = _integer(n, "n", 0, MAX_LAYERS), _integer(r, "r", 1, MAX_LABELS)
    if n > r - 1:
        return []  # each step up merges a block: r blocks reach one in at most r - 1
    # the vertex ids of each layer; "j:i" has one digit each under the budget,
    # so string order is (j, i) order and links built by layer come out sorted
    names = [tuple(f"{j}:{i}" for i in range(r)) for j in range(1, n + 2)]
    # pairs[j][i][k] links vertex i of layer j + 2 to vertex k of layer j + 1
    pairs = [[[(v, u) for u in upper] for v in lower] for upper, lower in zip(names, names[1:])]
    patterns = {k: _coarsening_patterns(k) for k in range(2, r + 1)}
    # each partition of the current layer, held as the block of each label,
    # -> its chains down to the discrete partition, as two parallel lists:
    # their layers' ids, top first, and their links sorted by child
    level = {tuple(range(r)): ([(names[n],)], [()])}
    for depth in range(n - 1, -1, -1):
        ids, row, upper = names[depth], pairs[depth], {}
        stacked: dict = {}  # block count -> id(layers below) -> the one layers tuple on them
        for p in sorted(level, key=_blocks):  # so each q's chains arrive in chain order
            lowers, downs = level[p]
            size = max(p) + 1
            for k in range(depth + 1, size) if depth else (1,):
                lift = stacked.setdefault(k, {})  # level keeps each lower alive: its id is a key
                layers = [lift.get(id(lower)) or lift.setdefault(id(lower), (ids[:k],) + lower)
                          for lower in lowers]
                for to in patterns[size][k]:
                    q = tuple(map(to.__getitem__, p))
                    own = tuple(map(list.__getitem__, row, to))  # block i of p -> block to[i]
                    chains = upper.get(q) or upper.setdefault(q, ([], []))
                    chains[0].extend(layers)
                    chains[1].extend([own + link for link in downs])
        level = upper
    tops, links = level.get((0,) * r, ((), ()))
    leaves = names[n]  # each type is coherent by construction: no per-type re-check
    return [_record(CombType, (n, r, layers, parents, leaves)) for layers, parents in zip(tops, links)]


class _WeightedFields(NamedTuple):
    shape: CombType
    bottom: tuple[int, ...]


class WeightedCombType(_Record, _WeightedFields):
    """A shape with a positive weight on each bottom label, a checked record
    whose class call makes the checks of :func:`propagate_weights`.

    The stored form is the shape plus ``bottom``, where ``bottom[i]`` is the
    weight of label i + 1.  Every other weight is derived: a vertex weighs
    the sum of the bottom weights below it, read off the shape's
    labels-below map, and :attr:`weights` lists all of them as
    ``(vertex id, weight)`` pairs in sorted vertex order.
    """

    __slots__ = ()

    def __new__(cls, shape: CombType, bottom: Sequence[int]) -> WeightedCombType:
        return propagate_weights(shape, bottom)

    def weight(self, v: str) -> int:
        total, bottom = 0, self.bottom
        for x in self.shape._labels_below[v]:  # a plain loop: no per-call comprehension frame
            total += bottom[x - 1]
        return total

    @property
    def top_weight(self) -> int:
        return self.weight(self.shape.layers[0][0])

    @property
    def weights(self) -> tuple[tuple[str, int], ...]:
        return tuple((v, self.weight(v)) for v in self.shape._labels_below)


def propagate_weights(
    shape: CombType, root_weights: Sequence[int]
) -> WeightedCombType:
    """Attach ``root_weights[i]`` to bottom label i + 1; every vertex then
    weighs the total weight of the bottom labels below it.  The weights are
    stored as ints, read by the integer rule of :mod:`~tangentia.rationals`;
    one that is not integral, or is no number, raises ValueError, and so do
    weights that are no sequence (an iterator, a set, a dict or a number)
    and a shape that is not a :class:`CombType`."""
    try:
        shape._labels_below  # validates the shape: a broken type raises ValueError
    except AttributeError:  # no test on the valid path: only a non-type lacks the map
        raise ValueError(f"shape must be a CombType, got {shape!r}") from None
    kind = type(root_weights)  # a tuple or a list skips the slower ABC check
    if kind is not tuple and kind is not list and not isinstance(root_weights, Sequence):
        raise ValueError(f"weights must be a sequence of integers, got {root_weights!r}")
    if len(root_weights) != shape.r:
        raise ValueError(f"expected {shape.r} weights, got {len(root_weights)}")
    try:
        if min(root_weights) < 1:
            raise ValueError("weights must be positive integers")
    except TypeError:  # a weight that is no number: the integer rule refuses it
        pass
    bottom = _integers(root_weights)
    if bottom is None:
        raise ValueError(f"weights must be integers, got {root_weights!r}")
    return _record(WeightedCombType, (shape, bottom))  # a plain record: no checks skipped
