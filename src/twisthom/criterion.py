"""The vanishing test for chi(c) = c wedge j(c), and its coverage checker.

``vanishes_for_all`` decides whether every class in H_n has vanishing
chi.  The map c -> chi(c) is quadratic, so with generating cycles
z_1..z_m the vanishing is equivalent to finitely many boundary tests:
each diagonal z_i ^ j(z_i) must bound, and each symmetrized cross term
z_i ^ j(z_j) + z_j ^ j(z_i) must bound.  A failed test yields a witness
class (z_i, or z_i + z_j) verified by the order of its chi value.

Every generating cycle lies in one Koszul block, and j keeps monomials,
so each product z_i ^ j(z_j) lies in the one target block that
:func:`~twisthom.chains.product_block_key` reads off the two keys.  Two
rules skip a pair without forming its product, and both are exact:

* free overlap -- the untwisted Z slots have no pairs, so every monomial
  of a block carries its key's degree there, and [1] ^ [1] = 0 on such a
  slot: when both keys hold a 1 in the same untwisted Z slot, every term
  of the product dies (``product_block_key`` returns None);
* degree -- every monomial of a block has at least its key's total
  degree, so when the target key's total is above 2n no monomial of
  degree 2n lies in the block and the product is zero.

Any other product goes to ``is_boundary``, which splits a chain by block
and checks each part as a cycle and reduces it in its block; a product
lies in one block, so that block alone is touched (a block with no
homology still gets the cycle check).

``theorem_cover`` is the purely syntactic companion: it recognizes the
group shapes and degree ranges for which vanishing is guaranteed without
running any linear algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .chains import Chain, block_key, product_block_key
from .groups import GroupSpec
from .homology import (
    HomologyClass,
    _prime_power_split,
    class_order,
    generating_cycles,
    homology,
    is_boundary,
)
from .pontryagin import inversion_chain, wedge

VANISHES = "Vanishes"
NONZERO_WITNESS = "NonzeroWitness"
THEOREM_COVERED = "TheoremCovered"
NOT_COVERED = "NotCovered"


class DegreeTooSmallError(ValueError):
    """The topological reading of the criterion needs degree >= 2."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of a vanishing or coverage check.

    ``witness`` and the ``chi_*`` fields are set only for NonzeroWitness;
    ``case`` only for TheoremCovered.  ``chi_order`` uses 0 for infinite.

    ``witness`` and ``chi_chain`` are chains, which do not hash, so they
    take part in equality but not in the hash.

    The provenance fields are set by ``vanishes_for_all`` and take no part
    in equality: the generator count, the pairs whose product was formed,
    the pairs skipped by each rule (free overlap, degree), and for a
    witness the failing pair (i, j), with i == j for a diagonal, and the
    key of the block its product fell in.
    """

    kind: str
    group: GroupSpec
    degree: int
    case: str | None = None
    witness: Chain | None = field(default=None, hash=False)
    chi_chain: Chain | None = field(default=None, hash=False)
    chi_order: int | None = None
    generators: int | None = field(default=None, compare=False)
    pairs_formed: int | None = field(default=None, compare=False)
    skipped_free: int | None = field(default=None, compare=False)
    skipped_degree: int | None = field(default=None, compare=False)
    failing_pair: tuple[int, int] | None = field(default=None, compare=False)
    failing_block: tuple | None = field(default=None, compare=False)

    @property
    def vanishes(self) -> bool:
        return self.kind == VANISHES

    @property
    def covered(self) -> bool:
        return self.kind == THEOREM_COVERED

    def __str__(self):
        if self.kind == THEOREM_COVERED:
            return f"TheoremCovered({self.case})"
        if self.kind == NONZERO_WITNESS:
            order = "infinite" if self.chi_order == 0 else str(self.chi_order)
            return f"NonzeroWitness(order {order})"
        return self.kind


def j_star(c: HomologyClass) -> HomologyClass:
    """The endomorphism of homology induced by inverting every group element."""
    h = c.presentation
    return h.reduce(inversion_chain(h.representative(c)))


def chi_chain(cycle: Chain) -> Chain:
    """The chain-level value z ^ j(z) in doubled degree."""
    return wedge(cycle, inversion_chain(cycle))


def chi_square(c: HomologyClass) -> HomologyClass:
    """The class of z ^ j(z) in H_{2n}, independent of the representative z."""
    h = c.presentation
    value = chi_chain(h.representative(c))
    return homology(h.group, 2 * h.degree).reduce(value)


def vanishes_for_all(group: GroupSpec, n: int) -> Verdict:
    """Decide whether chi(c) = 0 for every class c in H_n(group).

    Runs the finite bilinear reduction over generating cycles, diagonals
    first, then pairs i < j.  Cross terms use the identity
    z_j ^ j(z_i) = (-1)^n j(z_i ^ j(z_j)), valid because j is an algebra
    map and the product is graded-commutative at chain level, so each
    pair costs one product and one membership test in its target block,
    unless a skip rule of the module docstring shows the product is zero.
    """
    gens = generating_cycles(group, n)
    jgens = [inversion_chain(z) for z in gens]
    keys = [block_key(group, next(iter(z.terms))) for z in gens]
    sign = -1 if n % 2 else 1
    m = len(gens)
    formed = skipped_free = skipped_degree = 0
    for i, j in itertools.chain(zip(range(m), range(m)), itertools.combinations(range(m), 2)):
        key = product_block_key(group, keys[i], keys[j])
        if key is None:
            skipped_free += 1
            continue
        if sum(key) > 2 * n:
            skipped_degree += 1
            continue
        formed += 1
        value = wedge(gens[i], jgens[j])
        if i != j and not value.is_zero:
            value = value + sign * inversion_chain(value)
        if not is_boundary(value):
            witness = gens[i] if i == j else gens[i] + gens[j]
            chi = value if i == j else chi_chain(witness)
            return Verdict(NONZERO_WITNESS, group, n, witness=witness, chi_chain=chi,
                           chi_order=class_order(chi), generators=m, pairs_formed=formed,
                           skipped_free=skipped_free, skipped_degree=skipped_degree,
                           failing_pair=(i, j), failing_block=key)
    return Verdict(VANISHES, group, n, generators=m, pairs_formed=formed,
                   skipped_free=skipped_free, skipped_degree=skipped_degree)


def _primary(order: int) -> tuple[int, int] | None:
    """(p, e) if the order is a prime power, else None."""
    split = _prime_power_split(order)
    return split[0] if len(split) == 1 else None


def theorem_cover(group: GroupSpec, n: int) -> Verdict:
    """Syntactic test: does (group, omega, n) match a shape with guaranteed
    vanishing?  No homology is computed; the shapes are matched on the
    factor multiset and the degree conditions on n alone.
    """
    if n < 2:
        raise DegreeTooSmallError("coverage check needs degree >= 2")
    if group.twisted:
        return Verdict(THEOREM_COVERED, group, n, case="twisted-action")
    r = sum(1 for f in group.factors if f.order == 0)
    finite = sorted(f.order for f in group.factors if f.order)
    primaries = [_primary(q) for q in finite]
    same_prime = (
        all(pp is not None for pp in primaries)
        and len({pp[0] for pp in primaries}) <= 1
    )
    if not finite and (n % 2 == 1 or 2 * n > r):
        return Verdict(THEOREM_COVERED, group, n, case="free")
    if len(finite) == 1 and same_prime:
        if (n % 2 == 1 and n > r) or (n % 2 == 0 and n >= r):
            return Verdict(THEOREM_COVERED, group, n, case="free-and-one-primary")
    if len(finite) == 2 and same_prime and r <= 1:
        return Verdict(THEOREM_COVERED, group, n, case="low-rank-two-primary")
    if len(finite) == 3 and same_prime and r == 0:
        return Verdict(THEOREM_COVERED, group, n, case="three-primary")
    if finite and all(q == 2 for q in finite) and (n % 2 == 1 or 2 * n > r):
        return Verdict(THEOREM_COVERED, group, n, case="free-and-elementary-two")
    return Verdict(NOT_COVERED, group, n)


def interpret(verdict: Verdict) -> str:
    """Topological reading of a verdict, for degree n >= 2."""
    n = verdict.degree
    if n < 2:
        raise DegreeTooSmallError("interpretation needs degree >= 2")
    group = verdict.group
    if verdict.kind in (VANISHES, THEOREM_COVERED):
        return (
            f"for every connected closed {n}-manifold M with fundamental group "
            f"{group} and matching orientation character: TC(M) < {2 * n} and "
            f"the diagonal cofibre satisfies cat(C(M)) < {2 * n}"
        )
    if verdict.kind == NONZERO_WITNESS:
        return (
            f"any connected closed {n}-manifold M with fundamental group "
            f"{group} and matching orientation character whose reduced "
            f"fundamental class is the witness has TC(M) = {2 * n} = cat(C(M))"
        )
    return "syntactic conditions inconclusive; run vanishes_for_all"


def scan(group: GroupSpec, n: int) -> tuple[Verdict, Verdict]:
    """Coverage first, then the exhaustive vanishing decision."""
    return theorem_cover(group, n), vanishes_for_all(group, n)
