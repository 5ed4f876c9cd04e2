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

The product kernel reads each term once, as its monomial, its
coefficient and the monomial's record: its odd, high and prefix slot
masks and j's sign mu (below).  A mask has bit k for slot k: the odd mask
holds the slots of odd degree, the high mask those of degree >= 2, and
the prefix mask those with an odd number of odd slots before them.  For
a pair of terms a and b:

* the product is zero iff the odd masks meet: odd ^ odd dies on a finite
  slot, and on an infinite one the only odd degree is [1];
* its Koszul sign is the parity of the odd slots of a that lie in the
  prefix mask of b, which counts the pairs k < j with deg_b(k) and
  deg_a(j) both odd;
* its binomial factor C(i+k, k) is 1 unless both degrees are >= 2, so it
  is read only on the slots where the two high masks meet; an infinite
  slot has degree at most 1 and never gets there;
* its monomial is the slotwise sum a + b.

Inversion fixes every monomial up to its sign mu: j multiplies the
monomial m by mu(m) = (-1)^(sum of ceil(m_k/2) over the untwisted slots
k), and twisted factors of either kind are fixed.  Slot by slot this is
the lift of g -> -g itself to the small resolution, a chain map of
degree zero; on an untwisted Z slot m_k <= 1, so ceil(m_k/2) = m_k, and
one rule covers Z and Z_q.  So j o j is the identity on chains.  Any
other chain lift of g -> -g, such as that of the power map g -> g^(q-1),
which multiplies [i] of Z_q by (q-1)^ceil(i/2), is chain homotopic to
this one, so it gives the same classes and verdicts.

One function, :func:`_record`, computes a monomial's record, and one
table per (group, degree), :func:`_record_table`, keeps it: an
``lru_cache`` of 32 pairs, each a ``chains._MonomialTable``, the class of
every per-monomial table described in :mod:`twisthom.chains`.
:func:`wedge` (through :func:`_term_records`) and :func:`inversion_chain`
read their terms' records from it, so a monomial the table has not met
is validated before its record is computed.  The vanishing pass of
:mod:`twisthom.criterion` calls :func:`_record` on its presentation's own
cycles, with no table and no validation.

The sign mu is multiplicative on every product that survives:
mu(a + b) = mu(a) mu(b) whenever a ^ b != 0.  Slot by slot, ceil((i+k)/2)
differs from ceil(i/2) + ceil(k/2) only when i and k are both odd, and
there the product dies.  So j of a product is read off its factors'
signs, and the symmetrized product x ^ y + s j(x ^ y) weights the pair
(a, b) by 1 + s mu(a) mu(b), which is 0 or 2 (the ``sign`` of
:func:`_product_terms`), with no sign of the product's degree looked up.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add

from .chains import Chain, GroupMismatchError, _MonomialTable


def _record(group, mon) -> tuple:
    """The record of one monomial: (odd mask, high mask, prefix mask, mu),
    the masks as in the module docstring and mu the sign j multiplies it
    by."""
    odd = high = prefix = parity = 0
    for k, (sign, i) in enumerate(zip(group.signs, mon)):
        if i:
            bit = 1 << k
            if i & 1:
                odd |= bit
                prefix ^= -bit << 1  # flips every slot after this one
            if i > 1:
                high |= bit
            if sign == 1:
                parity += (i + 1) >> 1
    return odd, high, prefix & ((1 << len(mon)) - 1), -1 if parity & 1 else 1


@lru_cache(maxsize=32)
def _record_table(group, degree: int) -> _MonomialTable:
    """The record table of (group, degree), made empty the first time."""
    return _MonomialTable(group, degree, _record)


def _term_records(chain: Chain) -> list[tuple]:
    """One record per term of ``chain``, in its order: (monomial,
    coefficient, odd mask, high mask, prefix mask, mu), read from the
    record table of its (group, degree)."""
    table = _record_table(chain.group, chain.degree)
    return [(mon, coef) + table[mon] for mon, coef in chain.terms.items()]


def _product_terms(xs: list, ys: list, sign: int = 0) -> dict:
    """The product of the records ``xs`` and ``ys`` as monomial ->
    coefficient, in pair order, cancelled coefficients left in.  With a
    nonzero ``sign`` each pair (a, b) is weighted by 1 + sign mu(a) mu(b),
    its signs' share of x ^ y + sign j(x ^ y)."""
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
    out = _product_terms(_term_records(x), _term_records(y))
    return Chain(x.group, x.degree + y.degree, out)


def inversion_chain(chain: Chain) -> Chain:
    """The chain map induced by inverting every group element.

    Monomials are fixed up to sign, so no Koszul signs arise, and j o j
    is the identity already on chains.
    """
    table = _record_table(chain.group, chain.degree)
    out: dict = {}
    for mon, coef in chain.terms.items():
        out[mon] = coef * table[mon][3]
    return Chain(chain.group, chain.degree, out)
