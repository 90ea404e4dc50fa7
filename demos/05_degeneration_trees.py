"""Layered trees classifying degenerations of a fully tangent curve.

When the target degenerates into a chain of n bubbles, a curve with r
contact pieces falls apart along a layered tree: one vertex on top, the r
labeled pieces at the bottom, and a genuine branching in every layer above
the bottom.  These are the same thing as strict coarsening chains of set
partitions of the labels, which is how the enumeration works.
"""
from tangentia import CombType, enumerate_types, propagate_weights

for n, r in ((0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)):
    print(f"G({n}, {r}): {len(enumerate_types(n, r))} types")
print()

# with one layer step and three labels there is a single type: the top
# vertex splits at once into the three labeled pieces
only = enumerate_types(1, 3)[0]
print("the unique type for n=1, r=3:")
print(f"  layers     {only.layers}")
print(f"  parents    {only.parents}")
print(f"  leaf order {only.leaf_order}")
print()

# the three types for n=2, r=3 correspond to which pair of labels stays
# together one layer longer
for shape in enumerate_types(2, 3):
    chain = shape.partition_chain()
    middle = chain[1]
    print(f"middle partition {middle}")
print()

# ---------------------------------------------------------------------------
# weights ride up the tree
# ---------------------------------------------------------------------------

shape = enumerate_types(2, 3)[0]
weighted = propagate_weights(shape, (2, 3, 7))
print("contact orders 2, 3, 7 propagated to the top:")
for layer in shape.layers:
    row = "  ".join(f"{v}:{weighted.weight(v)}" for v in layer)
    print(f"  {row}")
print(f"top weight {weighted.top_weight} = 2 + 3 + 7")
print()

# ---------------------------------------------------------------------------
# the axioms really cut something down
# ---------------------------------------------------------------------------

# a two-layer "tree" whose single top vertex has a single child fails the
# branching axiom; that is why there are no types with r = 1 and n >= 1
chain_only = CombType(
    n=1,
    r=1,
    layers=(("1:0",), ("2:0",)),
    parents=(("2:0", "1:0"),),
    leaf_order=("2:0",),
)
print(f"violated axioms of the unbranched chain: {chain_only.violations()}")
print(f"G(1, 1) is empty: {enumerate_types(1, 1)}")
