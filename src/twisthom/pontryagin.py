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

The product kernel reads each term once, as a record of its monomial,
its coefficient and three slot masks (bit k for slot k): the slots of
odd degree, the slots of degree >= 2, and the slots with an odd number
of odd slots before them (the prefix mask).  For a pair of terms a and b:

* the product is zero iff the odd masks meet: odd ^ odd dies on a finite
  slot, and on an infinite one the only odd degree is [1];
* its Koszul sign is the parity of the odd slots of a that lie in the
  prefix mask of b, which counts the pairs k < j with deg_b(k) and
  deg_a(j) both odd;
* its binomial factor C(i+k, k) is 1 unless both degrees are >= 2, so it
  is read only on the slots where the two high masks meet; an infinite
  slot has degree at most 1 and never gets there;
* its monomial is the slotwise sum a + b.

Inversion multiplies each slot independently: the degree-i generator of a
factor picks up (-1)^i when the factor is infinite untwisted, the factor
order q gives (q-1)^ceil(i/2) when finite untwisted, and twisted factors
of either kind are fixed.  These are the maps induced by g -> -g on the
small resolutions, so the result is a chain map of degree zero.  Each
monomial's multiplier is computed once per (group, degree), after the
monomial is validated, and kept in that pair's table,
:func:`_multiplier_table`, one of the per-monomial tables described in
:mod:`twisthom.chains`.

The multiplier mu is multiplicative on every product that survives:
mu(a + b) = mu(a) mu(b) whenever a ^ b != 0.  Slot by slot, ceil((i+k)/2)
differs from ceil(i/2) + ceil(k/2) only when i and k are both odd, and
there the product dies; on an infinite slot (-1)^(i+k) = (-1)^i (-1)^k.
So j of a product is read off its factors' multipliers, and the
symmetrized product x ^ y + s j(x ^ y) weights the pair (a, b) by
1 + s mu(a) mu(b) (the ``sign`` of :func:`_product_terms`), with no
multiplier of the product's degree looked up.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add

from .chains import Chain, GroupMismatchError, _validate_monomial


def _term_records(terms: dict) -> list[tuple]:
    """One record per term of ``terms``, in its order: (monomial,
    coefficient, odd mask, high mask, prefix mask, multiplier), the masks
    as in the module docstring and the multiplier 1; the vanishing pass
    puts j's multiplier there."""
    out = []
    for mon, coef in terms.items():
        odd = high = prefix = 0
        bit = 1
        for i in mon:
            if i:
                if i & 1:
                    odd |= bit
                    prefix ^= -bit << 1  # flips every slot after this one
                if i > 1:
                    high |= bit
            bit <<= 1
        out.append((mon, coef, odd, high, prefix & (bit - 1), 1))
    return out


def _product_terms(xs: list, ys: list, sign: int = 0) -> dict:
    """The product of the records ``xs`` and ``ys`` as monomial ->
    coefficient, in pair order, cancelled coefficients left in.  With a
    nonzero ``sign`` each pair (a, b) is weighted by 1 + sign mu(a) mu(b),
    its multipliers' share of x ^ y + sign j(x ^ y)."""
    out: dict = {}
    for ma, ca, odd_a, high_a, pre_a, mu_a in xs:
        for mb, cb, odd_b, high_b, pre_b, mu_b in ys:
            if odd_a & odd_b:
                continue
            coef = ca * cb
            if sign:
                weight = 1 + sign * mu_a * mu_b
                if not weight:
                    continue
                coef *= weight
            both = high_a & high_b
            while both:
                k = both.bit_length() - 1
                coef *= comb((ma[k] >> 1) + (mb[k] >> 1), mb[k] >> 1)
                both ^= 1 << k
            if (odd_a & pre_b).bit_count() & 1:
                coef = -coef
            key = tuple(map(add, ma, mb))
            out[key] = out.get(key, 0) + coef
    return out


def wedge(x: Chain, y: Chain) -> Chain:
    """Bilinear product; both chains must live over the same group."""
    if x.group != y.group:
        raise GroupMismatchError("wedge operands over different groups")
    out = _product_terms(_term_records(x.terms), _term_records(y.terms))
    return Chain(x.group, x.degree + y.degree, out)


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
    that :func:`inversion_chain` or :func:`_multipliers` has met; made
    empty the first time."""
    return {}


def _stored_multiplier(table: dict, group, mon, degree: int) -> int:
    """The multiplier of a monomial that ``table``, the table of (group,
    degree), lacks: the monomial is validated, then its entry stored."""
    _validate_monomial(group, mon, degree)
    mult = table[mon] = _inversion_multiplier(group, mon)
    return mult


def _multipliers(group, degree: int, mons) -> list[int]:
    """The multiplier of j on each monomial of ``mons``, of one degree."""
    table = _multiplier_table(group, degree)
    out = []
    for mon in mons:
        mult = table.get(mon)
        if mult is None:
            mult = _stored_multiplier(table, group, mon, degree)
        out.append(mult)
    return out


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
            mult = _stored_multiplier(mults, group, mon, chain.degree)
        out[mon] = coef * mult
    return Chain(group, chain.degree, out)
