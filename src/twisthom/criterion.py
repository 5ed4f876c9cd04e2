"""The vanishing test for chi(c) = c wedge j(c), and its coverage checker.

``vanishes_for_all`` decides whether every class in H_n has vanishing
chi.  The map c -> chi(c) is quadratic, so with generating cycles
z_1..z_m the vanishing is equivalent to finitely many boundary tests:
each diagonal z_i ^ j(z_i) must bound, and each symmetrized cross term
z_i ^ j(z_j) + z_j ^ j(z_i) must bound.  A failed test yields a witness
class (z_i, or z_i + z_j) verified by the order of its chi value.

``theorem_cover`` is the purely syntactic companion: it recognizes the
group shapes and degree ranges for which vanishing is guaranteed without
running any linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import Chain
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
    """

    kind: str
    group: GroupSpec
    degree: int
    case: str | None = None
    witness: Chain | None = None
    chi_chain: Chain | None = None
    chi_order: int | None = None

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

    Runs the finite bilinear reduction over generating cycles.  Cross
    terms use the identity z_j ^ j(z_i) = (-1)^n j(z_i ^ j(z_j)), valid
    because j is an algebra map and the product is graded-commutative at
    chain level, so each pair costs one product and one membership test.
    """
    gens = generating_cycles(group, n)
    jgens = [inversion_chain(z) for z in gens]
    for z, jz in zip(gens, jgens):
        value = wedge(z, jz)
        if not value.is_zero and not is_boundary(value):
            return _witness_verdict(group, n, z, value)
    sign = -1 if n % 2 else 1
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            cross = wedge(gens[i], jgens[j])
            if cross.is_zero:
                continue
            symm = cross + sign * inversion_chain(cross)
            if not symm.is_zero and not is_boundary(symm):
                w = gens[i] + gens[j]
                return _witness_verdict(group, n, w, chi_chain(w))
    return Verdict(VANISHES, group, n)


def _witness_verdict(group: GroupSpec, n: int, witness: Chain, value: Chain) -> Verdict:
    return Verdict(
        NONZERO_WITNESS,
        group,
        n,
        witness=witness,
        chi_chain=value,
        chi_order=class_order(value),
    )


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
