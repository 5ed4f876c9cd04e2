"""The wedge product and the inversion endomorphism on chains.

Both operations act slot by slot.  On one finite factor the product of
generators is

    [2i] ^ [2k]   = C(i+k, k) [2i+2k]
    [2i] ^ [2k+1] = [2k+1] ^ [2i] = C(i+k, k) [2i+2k+1]
    odd ^ odd     = 0

and on an infinite factor [0] is the unit, [1]^[1] = 0.  Tensoring uses
the Koszul rule (a (x) b) ^ (a' (x) b') = (-1)^{|a'||b|} (a^a') (x) (b^b'),
folded from the left, which for monomials x ^ y gives the global sign
(-1) to the power  sum over slots k < j of  deg_y(k) * deg_x(j).

Inversion multiplies each slot independently: the degree-i generator of a
factor picks up (-1)^i when the factor is infinite untwisted, the factor
order q gives (q-1)^ceil(i/2) when finite untwisted, and twisted factors
of either kind are fixed.  These are the maps induced by g -> -g on the
small resolutions, so the result is a chain map of degree zero.  Each
monomial's multiplier is computed once per (group, degree), after the
monomial is validated, and kept in that pair's table,
:func:`_multiplier_table`, one of the per-monomial tables described in
:mod:`twisthom.chains`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .chains import Chain, GroupMismatchError, _validate_monomial


def _atomic_wedge(order: int, a: int, b: int) -> int:
    """Coefficient of [a+b] in [a]^[b] on one factor (0 when the product dies)."""
    if order == 0:
        return 1 if a + b <= 1 else 0
    if a & 1 and b & 1:
        return 0
    return comb((a >> 1) + (b >> 1), b >> 1)


def wedge(x: Chain, y: Chain) -> Chain:
    """Bilinear product; both chains must live over the same group."""
    if x.group != y.group:
        raise GroupMismatchError("wedge operands over different groups")
    group = x.group
    orders = group.orders
    l = len(orders)
    out: dict = {}
    for ma, ca in x.terms.items():
        # Suffix degree sums of the left monomial, for the Koszul sign.
        suffix = [0] * (l + 1)
        for k in range(l - 1, -1, -1):
            suffix[k] = suffix[k + 1] + ma[k]
        for mb, cb in y.terms.items():
            coef = ca * cb
            parity = 0
            mon = []
            for k in range(l):
                a, b = ma[k], mb[k]
                if b:
                    parity ^= (b & 1) & (suffix[k + 1] & 1)
                if a or b:
                    w = _atomic_wedge(orders[k], a, b)
                    if w == 0:
                        coef = 0
                        break
                    coef *= w
                    mon.append(a + b)
                else:
                    mon.append(0)
            if coef:
                if parity:
                    coef = -coef
                key = tuple(mon)
                out[key] = out.get(key, 0) + coef
    return Chain(group, x.degree + y.degree, out)


def _atomic_inversion(order: int, sign: int, i: int) -> int:
    if sign == -1:
        return 1
    if order == 0:
        return -1 if i & 1 else 1
    return (order - 1) ** ((i + 1) >> 1)


def _inversion_multiplier(group, mon) -> int:
    """The integer j multiplies ``mon`` by, the product of its slots' factors."""
    orders, signs = group.orders, group.signs
    mult = 1
    for k, i in enumerate(mon):
        if i:
            mult *= _atomic_inversion(orders[k], signs[k], i)
    return mult


@lru_cache(maxsize=32)
def _multiplier_table(group, degree: int) -> dict:
    """Monomial -> its multiplier, for the monomials of (group, degree)
    that :func:`inversion_chain` has met; made empty the first time."""
    return {}


def inversion_chain(chain: Chain) -> Chain:
    """The chain map induced by inverting every group element.

    Monomials are fixed up to an integer multiple, so no Koszul signs
    arise; on homology the induced map squares to the identity.
    """
    group = chain.group
    mults = _multiplier_table(group, chain.degree)
    out: dict = {}
    for mon, coef in chain.terms.items():
        mult = mults.get(mon)
        if mult is None:
            _validate_monomial(group, mon, chain.degree)
            mult = mults[mon] = _inversion_multiplier(group, mon)
        out[mon] = coef * mult
    return Chain(group, chain.degree, out)
