"""Multiply chains with the Pontryagin wedge and apply the inversion map.

The wedge is graded-commutative and satisfies the Leibniz rule, so cycles
multiply to cycles and the product descends to homology.  Run with
``python3 demos/02_products_and_inversion.py``.
"""

from twisthom import (
    boundary,
    format_chain,
    inversion_chain,
    parse_chain,
    parse_group_spec,
    reduce_cycle,
    wedge,
)

group = parse_group_spec("Z_3 x Z_3")
a = parse_chain(group, "[1 0]")
b = parse_chain(group, "[0 1]")

print("Degree-one classes anticommute:")
print(f"  [1 0] ^ [0 1] = {format_chain(wedge(a, b))}")
print(f"  [0 1] ^ [1 0] = {format_chain(wedge(b, a))}")
print(f"  [1 0] ^ [1 0] = {format_chain(wedge(a, a))}")

print("\nEven-degree classes multiply with binomial coefficients:")
e = parse_chain(group, "[2 0]")
print(f"  [2 0] ^ [2 0] = {format_chain(wedge(e, e))}")
print(f"  [2 0] ^ [4 0] = {format_chain(wedge(e, parse_chain(group, '[4 0]')))}")

print("\nLeibniz rule, spot checked on a twisted group:")
twisted = parse_group_spec("Z_4~ x Z_2")
c = parse_chain(twisted, "[1 1]")
d = parse_chain(twisted, "[2 0]")
lhs = boundary(wedge(c, d))
rhs = wedge(boundary(c), d) + (-1) ** c.degree * wedge(c, boundary(d))
print(f"  d(c ^ d)                 = {format_chain(lhs)}")
print(f"  dc ^ d + (-1)^|c| c ^ dd = {format_chain(rhs)}")

mixed = parse_group_spec("Z^3 x Z_3")
x = parse_chain(mixed, "[1 1 1 0] + [0 0 0 3]")
print("\nInversion multiplies [i] by (-1)^ceil(i/2) on untwisted slots and fixes twisted ones:")
print(f"  c    = {format_chain(x)}")
print(f"  j(c) = {format_chain(inversion_chain(x))}")

print("\nThe product of a cycle with its inversion image, reduced to homology:")
chi = wedge(x, inversion_chain(x))
cls = reduce_cycle(chi)
print(f"  c ^ j(c) = {format_chain(chi)}")
print(f"  class {cls}, order {cls.order()}")
