"""The vanishing test for chi(c) = c wedge j(c), and its coverage checker.

``vanishes_for_all`` decides whether every class in H_n has vanishing
chi.  The map c -> chi(c) is quadratic, so with generating cycles
z_1..z_m the vanishing is equivalent to finitely many boundary tests:
each diagonal z_i ^ j(z_i) must bound, and each symmetrized cross term
z_i ^ j(z_j) + z_j ^ j(z_i) must bound.  A failed test yields a witness
class (z_i, or z_i + z_j) verified by the order of its chi value.

Every generating cycle lies in one Koszul block, and j keeps monomials,
so each product z_i ^ j(z_j) lies in the one target block that
:func:`~twisthom.chains.product_block_key` reads off the two keys.  The
pairs are therefore tested block pair by block pair: the generating
cycles of blocks A and B make one task {A, B} -- the diagonals and the
pairs i < j inside A when A == B, every cross pair otherwise -- whose
products all fall in one target block.  Since H_n is the sum of the
H(A), chi vanishes on H_n iff every task passes: chi vanishes on H(A),
and the bilinear form b(x, y) = chi(x + y) - chi(x) - chi(y) vanishes on
H(A) x H(B).  Three rules decide a task without forming its products,
and all three are exact:

* free overlap -- the untwisted Z slots have no pairs, so every monomial
  of a block carries its key's degree there, and [1] ^ [1] = 0 on such a
  slot: when both keys hold a 1 in the same untwisted Z slot, every term
  of the product dies (``product_block_key`` returns None);
* degree -- every monomial of a block has at least its key's total
  degree, so when the target key's total is above 2n no monomial of
  degree 2n lies in the block and the product is zero;
* orbit -- give each slot a type (``_slot_type``), an int: order + 2
  when untwisted, 0 for a twisted Z, and 1 shared by every twisted
  finite factor, whatever its order.  On a twisted finite slot
  the small complex never reads the order: the differential is 2 on odd
  degrees, ``wedge`` reads only whether the order is 0, and j is the
  identity.  Let sigma permute slots of one type, with the Koszul sign
  of the permutation on each monomial.  Then sigma is a signed monomial
  permutation of the small complex that commutes with the differential,
  with ``wedge`` and with j -- for a swap of two twisted finite slots of
  different orders too, though that swap is no group automorphism.  It
  maps each block A onto the block sigma A, and H(A) isomorphically onto
  H(sigma A), and chi(sigma x) = sigma chi(x).  Since chi is quadratic
  and b bilinear, whether a task passes does not depend on which
  generating cycles present H(A) and H(B); so {sigma A, sigma B} passes
  iff {A, B} does.  Two tasks lie in one orbit iff their canonical forms
  (the columns (type, A_k, B_k) sorted, the smaller of the forms of
  (A, B) and (B, A)) are equal.  The two rules above read the keys slot
  by slot, so each holds or fails for a whole orbit.

The pass decides one task per orbit and never visits the rest.  The
block keys fall into single-key orbits O_s (the sorted columns
(type, A_k)); for each O_s it takes one representative A, and meets
every B of every O_t with t >= s.  The orbit of the task {A, B} holds
|O_s| tasks for the diagonal {A, A}, |O_s| / 2 for each B != A of O_s
(each unordered pair is met from both ends), and |O_s| for each B of a
later O_t.  H(sigma A) is isomorphic to H(A), and a block's generator
count is fixed by its homology (its torsion entries all equal the gcd of
its coefficients), so every task of the orbit has as many pairs as
{A, B}.  The free and degree rules come first, from each key's total
degree and its two slot masks (:func:`~twisthom.chains.key_masks`): the
free rule holds iff the untwisted Z masks meet, the degree rule iff
|A| + |B| plus the number of slots where the untwisted finite masks meet
is above 2n.  A pair either rule decides adds its share of the orbit's
pairs to that rule's count, with no form built; the halves of one
orbit's pairs are summed twice and halved at the end.  Every other B
goes into a bucket by the form of {A, B}, and a bucket is one orbit of
tasks: the representative's pairs count as formed and the rest of the
orbit's as skipped by the orbit rule.  Only a tested bucket reads its
target key, and the generating cycles are built on the first product,
so a cell whose tasks are all skipped or remembered builds none.

Slot inclusions carry the orbit argument from one cell to another.  A
column is idle when its slot is untwisted and both keys hold 0 there.
An untwisted slot at key 0 is unpaired (its [1] is a cycle), so on an
idle slot every monomial of A, of B and of the target block has degree
0.  Dropping the slot is then the inclusion of the smaller group's small
complex as the monomials of degree 0 there; it commutes with the
differential, with ``wedge`` ([0] ^ [0] = [0]) and with j, and maps each
block isomorphically.  So whether a task passes depends only on its
reduced form (``_packed_form``): n, which fixes how many paired slots a
monomial of A raises (n - |A|), then the columns that are not idle,
each packed into one int, its type, A_k and B_k as digits in base n + 2
(a key entry is at most n), sorted, the smaller of the two
orientations.  The packing is one to one and keeps the order of the
columns (type, A_k, B_k), so equal packed forms mean equal column
forms.  A twisted column stays even at key 0: there the slot is paired
(d[1] = 2[0]) and its monomials reach degree 1, so no inclusion drops
it.  Within one cell
the number of slots of each type is fixed, so equal reduced forms mean
equal canonical forms, and the buckets use the reduced form too.  Each
tested form's outcome goes into a module-level memo (``_TASKS``, the
oldest dropped past ``_MAX_TASKS``), so over a family of cells each form
is tested once per process.  A memo hit adds to the counts exactly what
a tested task adds, so the four counts depend on (group, n) alone, and a
remembered failure goes to the ordered pass like a fresh one, so the
witness does not depend on the memo either.

Any other product is a cycle of its one target block, the block that
``product_block_key`` reads off the two keys: products of cycles are
cycles and j is a chain map.  So the block rule of
:mod:`~twisthom.homology` (:func:`~twisthom.homology.block_order`)
decides it there from the gcd g of the block's coefficients alone: the
product has order g / gcd(g, content) and bounds iff that is 1, and a
witness's chi has the order of its failing product.  The decision never
presents H_2n, and it builds no ``Chain`` per product: each generating
cycle is turned once into the term records of :mod:`~twisthom.pontryagin`
(monomial, coefficient, and the monomial's slot masks and j's sign from
``_record``, the function that fills the record table of ``wedge`` and
``inversion_chain``), and a product is the kernel's dict of
coefficients.  A cross pair's symmetrized product
z_i ^ j(z_j) + (-1)^n j(z_i ^ j(z_j)) weights each pair of terms (a, b)
by 1 + (-1)^n mu(a) mu(b), which is 0 or 2, since j multiplies the
product of two monomials by mu(a) mu(b) whenever that product is
nonzero; so no sign of degree 2n is looked up.  The cycles are the
presentation's own, so their monomials need no validation, and the pass
reads no record table: a sweep over many cells would keep evicting
tables of 32 (group, degree) pairs.

``theorem_cover`` is the purely syntactic companion: it recognizes the
group shapes and degree ranges for which vanishing is guaranteed without
running any linear algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd

from .chains import Chain, as_degree, block_pairing, key_masks, product_block_key
from .groups import GroupSpec
from .homology import (
    HomologyClass,
    _prime_power_split,
    block_order,
    format_order,
    generating_cycles,
    homology,
    reduce_cycle,
)
from .pontryagin import _product_terms, _record, inversion_chain, wedge

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
    It is the order of chi at the witness, the first failing pair of the
    ordered pass, and not an invariant of the cell: in degree 3 it is 15
    for Z^3 x Z_15 but 5 for the isomorphic Z^3 x Z_3 x Z_5.

    ``witness`` and ``chi_chain`` are chains, which do not hash, so they
    take part in equality but not in the hash.

    The provenance fields are set by ``vanishes_for_all`` and take no part
    in equality: the generator count, the pairs whose product was formed,
    the pairs skipped by each rule (free overlap, degree, orbit), and for
    a witness the failing pair (i, j), with i == j for a diagonal, and the
    key of the block its product fell in.  A witness reports the counts of
    the ordered pass that found it, which skips no orbit.
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
    skipped_orbit: int | None = field(default=None, compare=False)
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
            return f"NonzeroWitness(order {format_order(self.chi_order)})"
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
    return reduce_cycle(chi_chain(c.representative()))


def vanishes_for_all(group: GroupSpec, n: int) -> Verdict:
    """Decide whether chi(c) = 0 for every class c in H_n(group).

    Runs the finite bilinear reduction over generating cycles.  Cross
    terms use the identity z_j ^ j(z_i) = (-1)^n j(z_i ^ j(z_j)), valid
    because j is an algebra map and the product is graded-commutative at
    chain level, so each pair costs one product, unless a skip rule of the
    module docstring shows the product is zero or its task is an
    orbit-mate of one tested.  The product is a cycle of its target block,
    since products of cycles are cycles and j is a chain map, so the block
    rule there decides whether it bounds and gives a witness's chi order;
    no presentation of H_2n is built.  Products are formed by the product
    kernel of :mod:`~twisthom.pontryagin` on each generator's term records,
    cached per call, with no ``Chain`` built per product; only a witness
    and its chi are chains.

    The generating cycles are grouped by block key, in generator order,
    and each unordered block pair {A, B} is one task: the diagonals and
    pairs i < j inside A when A == B, every cross pair otherwise.  One
    task per orbit is tested.  When every tested task passes, the verdict
    is Vanishes with the orbit-level counts.  When a task fails, the
    ordered pass runs instead -- diagonals first, then pairs i < j, under
    the free and degree rules alone -- and its first failing pair gives
    the witness, the failing pair and block, and the counts (no orbit
    skips).  A task whose reduced form an earlier cell of the process
    decided is not tested again; its remembered outcome counts the same.
    The presentation's cycles are built at the first product; the ordered
    pass takes copies (``generating_cycles``), so a witness never shares
    its terms with the cached cycles.
    """
    n = as_degree(n)
    h = homology(group, n)
    records: dict = {}
    block_gcds: dict = {}
    sign = -1 if n % 2 else 1

    def term_records(i: int) -> tuple[list, list]:
        """The term records of z_i and of j(z_i), built on the first call."""
        entry = records.get(i)
        if entry is None:
            rec = [(m, c) + _record(group, m) for m, c in h._cycles[i].terms.items()]
            entry = records[i] = (rec, [(m, c * mu, o, hi, p, mu) for m, c, o, hi, p, mu in rec])
        return entry

    def pair_order(i: int, j: int, key) -> int:
        """The order of z_i ^ j(z_j), symmetrized when i != j, by the block
        rule of its target block ``key``; the cycles are the
        presentation's own, built on the first call."""
        value = _product_terms(term_records(i)[0], term_records(j)[1], 0 if i == j else sign)
        g = block_gcds.get(key)
        if g is None:
            g = block_gcds[key] = gcd(*block_pairing(group, key)[1])
        return block_order(g, value)

    counts = _orbit_pass(group, n, h._layout, pair_order)
    if counts is None:
        keys = [key for key, ids in h._layout.items() for _ in ids]
        return _ordered_pass(group, n, generating_cycles(group, n), keys, pair_order)
    return Verdict(VANISHES, group, n, generators=h.num_generators, **counts)


_COUNTS = ("pairs_formed", "skipped_free", "skipped_degree", "skipped_orbit")


def _records(group: GroupSpec, keys) -> dict:
    """Block key -> (total degree, untwisted Z mask, untwisted finite
    mask), the masks from :func:`~twisthom.chains.key_masks`."""
    return {key: (sum(key), *key_masks(group, key)) for key in keys}


def _pair_rule(n: int, a: tuple, b: tuple) -> str | None:
    """The provenance field of the rule (free overlap, degree) showing that
    every product of the blocks with records ``a`` and ``b`` is zero in
    degree 2n, or None."""
    if a[1] & b[1]:
        return "skipped_free"
    if a[0] + b[0] + (a[2] & b[2]).bit_count() > 2 * n:
        return "skipped_degree"
    return None


def _slot_type(order: int, sign: int) -> int:
    """The slot's type for the orbit rule: order + 2 when untwisted, 0 for
    a twisted Z, and 1 for every twisted finite factor, whose order the
    small complex never reads."""
    if sign == 1:
        return order + 2
    return 1 if order else 0


def _packed_form(n: int, types, a, b) -> tuple:
    """The reduced canonical form of the unordered block pair {a, b} in
    degree n, under slot permutations and inclusions: n, then one int per
    column that is not idle (untwisted, 0 in both keys), its ``types``
    entry, a_k and b_k as digits in base n + 2, sorted, the smaller of
    the forms of (a, b) and (b, a)."""
    base = n + 2
    ab, ba = [], []
    for c, i, j in zip(types, a, b):
        if i or j or c < 2:
            c *= base
            ab.append((c + i) * base + j)
            ba.append((c + j) * base + i)
    ab.sort()
    ba.sort()
    return (n, *min(ab, ba))


# Outcome (passes or not) of each reduced task form tested so far, oldest
# first; past _MAX_TASKS the oldest is dropped.
_TASKS: dict[tuple, bool] = {}
_MAX_TASKS = 1 << 14


def _orbit_pass(group: GroupSpec, n: int, blocks: dict, pair_order) -> dict | None:
    """The counts of the pass over task orbits under the three skip rules,
    or None when a tested task fails; ``blocks`` maps each block key to
    the range of its generators, and ``pair_order(i, j, key)`` is the
    order of the pair's product in its target block ``key``."""
    types = tuple(map(_slot_type, group.orders, group.signs))
    records = _records(group, blocks)
    orbits: dict = {}
    for key in blocks:
        orbits.setdefault(tuple(sorted(zip(types, key))), []).append(key)
    orbits = list(orbits.values())
    counts = dict.fromkeys(_COUNTS, 0)
    twice = dict.fromkeys(_COUNTS, 0)  # pairs met from both ends of one orbit
    for s, orbit in enumerate(orbits):
        a = orbit[0]
        ia, ra = blocks[a], records[a]
        buckets: dict = {}  # form -> [first key met, its orbit, keys met]
        for t in range(s, len(orbits)):
            for b in orbits[t]:
                rule = _pair_rule(n, ra, records[b])
                if rule is None:
                    form = _packed_form(n, types, a, b)
                    entry = buckets.get(form)
                    if entry is None:
                        buckets[form] = [b, t, 1]
                    else:
                        entry[2] += 1
                elif b == a:
                    counts[rule] += len(ia) * (len(ia) + 1) // 2 * len(orbit)
                else:
                    (twice if t == s else counts)[rule] += len(ia) * len(blocks[b]) * len(orbit)
        for form, (b, t, c) in buckets.items():
            ib = blocks[b]
            if b == a:
                size, tasks = len(ia) * (len(ia) + 1) // 2, len(orbit)
            else:
                size = len(ia) * len(ib)
                tasks = len(orbit) * c // 2 if t == s else len(orbit) * c
            counts["pairs_formed"] += size
            counts["skipped_orbit"] += size * (tasks - 1)
            passes = _TASKS.get(form)
            if passes is None:
                key = product_block_key(group, a, b)
                pairs = (itertools.chain(zip(ia, ia), itertools.combinations(ia, 2)) if a == b
                         else itertools.product(ia, ib))
                passes = _TASKS[form] = all(pair_order(i, j, key) == 1 for i, j in pairs)
                if len(_TASKS) > _MAX_TASKS:
                    del _TASKS[next(iter(_TASKS))]
            if not passes:
                return None
    for rule, pairs in twice.items():
        counts[rule] += pairs // 2
    return counts


def _ordered_pass(group: GroupSpec, n: int, gens, keys, pair_order) -> Verdict:
    """Diagonals first, then pairs i < j, under the free and degree rules;
    the first pair whose product does not bound gives the witness.  The
    witness's chi has that product's order: for z_i + z_j it adds the two
    diagonals, which this pass has already seen bound or vanish."""
    m = len(gens)
    records = _records(group, keys)
    counts = dict.fromkeys(_COUNTS, 0)
    for i, j in itertools.chain(zip(range(m), range(m)), itertools.combinations(range(m), 2)):
        rule = _pair_rule(n, records[keys[i]], records[keys[j]])
        if rule is not None:
            counts[rule] += 1
            continue
        counts["pairs_formed"] += 1
        key = product_block_key(group, keys[i], keys[j])
        order = pair_order(i, j, key)
        if order != 1:
            witness = gens[i] if i == j else gens[i] + gens[j]
            return Verdict(NONZERO_WITNESS, group, n, witness=witness,
                           chi_chain=chi_chain(witness), chi_order=order, generators=m,
                           failing_pair=(i, j), failing_block=key, **counts)
    return Verdict(VANISHES, group, n, generators=m, **counts)


def _primary(order: int) -> tuple[int, int] | None:
    """(p, e) if the order is a prime power, else None."""
    split = _prime_power_split(order)
    return split[0] if len(split) == 1 else None


def theorem_cover(group: GroupSpec, n: int) -> Verdict:
    """Syntactic test: does (group, omega, n) match a shape with guaranteed
    vanishing?  No homology is computed; the shapes are matched on the
    factor multiset and the degree conditions on n alone.
    """
    n = as_degree(n)
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
