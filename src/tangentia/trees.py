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
strictly at every step.  :func:`enumerate_types` lists those chains and
builds each tree top down by label lookup: a block's parent is the vertex
owning its labels one layer up.  The chains count the types: none once
n > r - 1, one for (n, r) = (0, 1) or (1, r >= 2), and three for (2, 3).

The tree is the stored form: a :class:`CombType` is a read-only named tuple
of its five fields.  Everything else is read off one map, built once per
type on first use by a single bottom-up walk and kept by the type: each
vertex's sorted bottom labels.  Grouped by layer, that map is the partition
chain (:meth:`CombType.partition_chain`).  A weighted type
(:func:`propagate_weights`) is a named tuple of only the shape and the
weights of the bottom labels (contact orders of the degenerate pieces); the
weight of any other vertex, and the full ``weights`` table, is derived by
summing those bottom weights over the map, so the top vertex carries the
total contact order.
"""
from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

MAX_LAYERS = 6
MAX_LABELS = 6

Partition = tuple[tuple[int, ...], ...]


def _canon_partition(blocks) -> Partition:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def _set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """All set partitions of ``items``, by recursive insertion."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def _strict_coarsenings(partition: Partition) -> Iterator[Partition]:
    """Partitions obtained by merging at least two blocks of ``partition``."""
    blocks = list(partition)
    for grouping in _set_partitions(range(len(blocks))):
        if len(grouping) == len(blocks):
            continue  # nothing merged
        yield _canon_partition([x for g in group for x in blocks[g]] for group in grouping)


class _CombFields(NamedTuple):
    n: int
    r: int
    layers: tuple[tuple[str, ...], ...]
    parents: tuple[tuple[str, str], ...]
    leaf_order: tuple[str, ...]


class CombType(_CombFields):
    """A layered tree; see the module docstring for the axioms.

    ``layers[j - 1]`` holds the vertex ids of layer j, ``parents`` maps each
    non-top vertex to its parent, and ``leaf_order[i]`` is the bottom vertex
    labeled i + 1.  Construction, on every path (``_make`` and ``_replace``
    included), only checks that the ids are coherent; whether the axioms
    hold is the business of :meth:`violations`, so that broken candidates
    can be built and diagnosed.

    These fields are the whole type.  The partition chain and every vertex
    weight of a :class:`WeightedCombType` (which stores only this shape and
    its bottom weights) come from one labels-below map (vertex -> sorted
    bottom labels), derived on first use and kept by the instance for its
    lifetime; deriving it runs :meth:`violations` once and raises
    ``ValueError`` for a broken type.  Nothing can be assigned to an
    instance, neither a field nor a derived map.
    """

    def __new__(cls, *args, **kwargs) -> CombType:
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 0 or self.r < 1:
            raise ValueError("need n >= 0 and r >= 1")
        if len(self.layers) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} layers, got {len(self.layers)}")
        seen: set[str] = set()
        for layer in self.layers:
            for v in layer:
                if v in seen:
                    raise ValueError(f"duplicate vertex id {v!r}")
                seen.add(v)
        for child, parent in self.parents:
            if child not in seen or parent not in seen:
                raise ValueError("parent table mentions an unknown vertex")
        for v in self.leaf_order:
            if v not in seen:
                raise ValueError("leaf order mentions an unknown vertex")
        return self

    @classmethod
    def _make(cls, iterable) -> CombType:
        return cls(*iterable)

    # the derived maps live in the instance __dict__, which only
    # functools.cached_property writes to
    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: CombType is read-only")

    __delattr__ = __setattr__

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

    @classmethod
    def from_partition_chain(cls, chain: Sequence[Partition]) -> "CombType":
        """The tree of a chain (top partition first, discrete partition of 1..r
        last), built top down: layer j's blocks are the vertices ``"j:i"`` in the
        given order, and a block's parent is the vertex owning its labels one layer
        up.  A chain that does not nest or end discrete raises ``ValueError``."""
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
        return cls(n=len(chain) - 1, r=r, layers=tuple(layers), parents=tuple(sorted(parents)),
                   leaf_order=tuple(above[x] for x in range(1, r + 1)))

    def partition_chain(self) -> tuple[Partition, ...]:
        """Inverse view: the chain of bottom-label partitions, top first."""
        below = self._labels_below
        return tuple(_canon_partition(below[v] for v in layer) for layer in self.layers)


def enumerate_types(n: int, r: int) -> list[CombType]:
    """All combinatorial types with n + 1 layers and r labeled bottom
    vertices, canonically ordered.  Bounded to n <= 6 and r <= 6."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    if n > MAX_LAYERS or r > MAX_LABELS:
        raise ValueError(
            f"enumeration is budgeted to n <= {MAX_LAYERS}, r <= {MAX_LABELS}"
        )
    discrete = _canon_partition([(i,) for i in range(1, r + 1)])
    chains_up: list[list[Partition]] = [[discrete]]
    for _ in range(n):
        chains_up = [
            chain + [coarser]
            for chain in chains_up
            for coarser in _strict_coarsenings(chain[-1])
        ]
    total = _canon_partition([tuple(range(1, r + 1))])
    chains = sorted(tuple(reversed(c)) for c in chains_up if c[-1] == total)
    return [CombType.from_partition_chain(c) for c in chains]


class WeightedCombType(NamedTuple):
    """A shape with a positive weight on each bottom label.

    The stored form is the shape plus ``bottom``, where ``bottom[i]`` is the
    weight of label i + 1.  Every other weight is derived: a vertex weighs
    the sum of the bottom weights below it, read off the shape's
    labels-below map, and :attr:`weights` lists all of them as
    ``(vertex id, weight)`` pairs in sorted vertex order.
    """

    shape: CombType
    bottom: tuple[int, ...]

    def weight(self, v: str) -> int:
        return sum(self.bottom[x - 1] for x in self.shape._labels_below[v])

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
    weighs the total weight of the bottom labels below it."""
    shape._labels_below  # validates the shape: a broken type raises ValueError
    if len(root_weights) != shape.r:
        raise ValueError(f"expected {shape.r} weights, got {len(root_weights)}")
    if min(root_weights) < 1:
        raise ValueError("weights must be positive integers")
    return WeightedCombType(shape, tuple(map(int, root_weights)))
