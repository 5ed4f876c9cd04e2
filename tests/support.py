"""Shared data for the test suite: grids, random chains, matrix helpers.

The acceptance tests and several module tests draw from the same family
grid and the same seeded chain generators; keeping them here means every
file exercises identical inputs.
"""

from __future__ import annotations

import itertools
import random
import sys
from math import comb

from hypothesis import strategies as st

from twisthom import (
    Chain,
    CyclicFactor,
    GroupMismatchError,
    GroupSpec,
    boundary,
    parse_group_spec,
    zero_chain,
)
from twisthom.chains import _atomic_boundary, basis, block_position, product_block_key
from twisthom.homology import HomologyPresentation, class_order, generating_cycles, is_boundary
from twisthom.pontryagin import inversion_chain


def G(text: str) -> GroupSpec:
    return parse_group_spec(text)


def clear_stores() -> None:
    """Empty every store of the engine: each ``lru_cache`` defined in a
    ``twisthom`` module (the presentations, and with them their position
    tables, included) and the task memo of ``criterion``."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("twisthom."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                    value.cache_clear()
    sys.modules["twisthom.criterion"]._TASKS.clear()


# The three-way oracle grid: finite groups whose bar complex fits under a
# 60000-element cap through degree 2n+1 for the degrees that matter.
ORACLE_GROUPS = ("Z_2", "Z_3", "Z_4", "Z_2 x Z_2", "Z_3 x Z_3", "Z_2~", "Z_4~")

# Cells outside the covered grid where chi does not vanish.
SHARPNESS_CELLS = [
    ("Z^4", 2),
    ("Z^3 x Z_3", 3),
    ("Z^7 x Z_3", 6),
    ("Z^7 x Z_3", 7),
    ("Z^2 x Z_3 x Z_3", 4),
    ("Z^2 x Z_3 x Z_3", 5),
    ("Z x Z_3 x Z_3 x Z_3", 4),
    ("Z x Z_3 x Z_3 x Z_3", 7),
    ("Z_3 x Z_3 x Z_3 x Z_3", 5),
    ("Z_3 x Z_3 x Z_3 x Z_3", 6),
    ("Z^8 x Z_2", 4),
]

# Small mixed bag for module-level property tests.
PROPERTY_GROUPS = (
    "Z",
    "Z~",
    "Z_3",
    "Z_4~",
    "Z^2 x Z_3",
    "Z~ x Z_2",
    "Z_2 x Z_4~",
    "Z x Z_3 x Z_3",
)


def _free(r: int) -> tuple[CyclicFactor, ...]:
    return (CyclicFactor(0),) * r


def _twisted_family():
    kinds = (
        CyclicFactor(0, 1),
        CyclicFactor(0, -1),
        CyclicFactor(2, 1),
        CyclicFactor(2, -1),
        CyclicFactor(4, 1),
        CyclicFactor(4, -1),
    )
    for k in range(1, 5):
        for combo in itertools.combinations_with_replacement(kinds, k):
            if any(f.twisted for f in combo):
                yield GroupSpec(combo)


def criterion_grid() -> list[tuple[GroupSpec, int]]:
    """Every (group, degree) cell of the verification grid, deduplicated.

    Six families, degrees 2 through 6, each with its own degree window:
    twisted groups of at most four factors with orders in {infinite, 2, 4};
    Z^r; Z^r with one primary factor; Z^r with two primaries of one prime
    and r at most 1; three primaries of one prime; Z^r x (Z_2)^s.
    """
    cells: dict[tuple[GroupSpec, int], None] = {}

    def add(group: GroupSpec, n: int) -> None:
        cells.setdefault((group, n), None)

    degrees = range(2, 7)
    for group in _twisted_family():
        for n in degrees:
            add(group, n)
    for r in range(1, 7):
        for n in degrees:
            if n % 2 or 2 * n > r:
                add(GroupSpec(_free(r)), n)
    for r in range(7):
        for p in (2, 3):
            for a in (1, 2):
                g = GroupSpec(_free(r) + (CyclicFactor(p**a),))
                for n in degrees:
                    if (n % 2 and n > r) or (n % 2 == 0 and n >= r):
                        add(g, n)
    for r in range(2):
        for p in (2, 3):
            for a, b in itertools.combinations_with_replacement((1, 2), 2):
                g = GroupSpec(_free(r) + (CyclicFactor(p**a), CyclicFactor(p**b)))
                for n in degrees:
                    add(g, n)
    for p in (2, 3):
        for a, b, c in itertools.combinations_with_replacement((1, 2), 3):
            g = GroupSpec(
                (CyclicFactor(p**a), CyclicFactor(p**b), CyclicFactor(p**c))
            )
            for n in degrees:
                add(g, n)
    for r in range(7):
        for s in range(1, 4):
            g = GroupSpec(_free(r) + (CyclicFactor(2),) * s)
            for n in degrees:
                if n % 2 or 2 * n > r:
                    add(g, n)
    return list(cells)


def mixed_slot_family() -> list[tuple[GroupSpec, int]]:
    """Z^r (r <= 3), placed first and also last, times 1-3 factors from
    {Z_2, Z_3, Z_4, Z_9}, in degrees 2..5: slots of one order side by side
    with slots of another, where an orbit rule that merged them would
    skip block pairs that are not images of one another."""
    groups: dict[GroupSpec, None] = {}
    for r in range(4):
        free = (CyclicFactor(0),) * r
        for k in range(1, 4):
            for orders in itertools.combinations_with_replacement((2, 3, 4, 9), k):
                finite = tuple(CyclicFactor(q) for q in orders)
                groups.setdefault(GroupSpec(free + finite), None)
                groups.setdefault(GroupSpec(finite + free), None)
    return [(g, n) for g in groups for n in range(2, 6)]


def twisted_cells() -> list[tuple[GroupSpec, int]]:
    """Twisted groups of 1-3 factors from {Z, Z~, Z_2, Z_2~, Z_4, Z_4~,
    Z_6, Z_6~}, in degrees 0..5 (0..4 for three factors): twisted finite
    slots of different orders side by side, which share one slot type."""
    kinds = [CyclicFactor(q, s) for q in (0, 2, 4, 6) for s in (1, -1)]
    cells = []
    for k in range(1, 4):
        for combo in itertools.combinations_with_replacement(kinds, k):
            if any(f.twisted for f in combo):
                cells += [(GroupSpec(combo), n) for n in range(6 if k < 3 else 5)]
    return cells


def grid_groups() -> list[GroupSpec]:
    seen: dict[GroupSpec, None] = {}
    for g, _ in criterion_grid():
        seen.setdefault(g, None)
    return list(seen)


def reference_atomic_wedge(order: int, a: int, b: int) -> int:
    """Coefficient of [a+b] in [a]^[b] on one factor (0 when the product dies)."""
    if order == 0:
        return 1 if a + b <= 1 else 0
    if a & 1 and b & 1:
        return 0
    return comb((a >> 1) + (b >> 1), b >> 1)


def reference_wedge(x: Chain, y: Chain) -> Chain:
    """The wedge product as a slot-by-slot loop over every pair of terms:
    each slot's factor from ``reference_atomic_wedge``, the Koszul sign
    from the suffix degree sums of the left monomial.  ``wedge`` must give
    the same terms in the same order."""
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
                    w = reference_atomic_wedge(orders[k], a, b)
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


def reference_vanishing(group: GroupSpec, n: int):
    """The vanishing decision as a plain pairwise loop, with no skip rule
    and no block targeting: ``(kind, witness, chi_order)``, the witness
    None when chi vanishes.  Diagonals first, then pairs i < j, each cross
    term symmetrized as z_i ^ j(z_j) + (-1)^n j(z_i ^ j(z_j)).  Products
    are formed with ``reference_wedge``, not the engine's product kernel,
    and decided by the public ``is_boundary``.
    """
    gens = generating_cycles(group, n)
    jgens = [inversion_chain(z) for z in gens]
    for z, jz in zip(gens, jgens):
        value = reference_wedge(z, jz)
        if not value.is_zero and not is_boundary(value):
            return "NonzeroWitness", z, class_order(value)
    sign = -1 if n % 2 else 1
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            cross = reference_wedge(gens[i], jgens[j])
            if cross.is_zero:
                continue
            symm = cross + sign * inversion_chain(cross)
            if not symm.is_zero and not is_boundary(symm):
                w = gens[i] + gens[j]
                return "NonzeroWitness", w, class_order(reference_wedge(w, inversion_chain(w)))
    return "Vanishes", None, None


def reference_slot_type(order: int, sign: int) -> tuple[int, int]:
    """The slot's type for the orbit rule as a pair: (order, +1) when
    untwisted, (0, -1) for a twisted Z, and (1, -1) for every twisted
    finite factor (no factor has order 1)."""
    if sign == 1 or order == 0:
        return (order, sign)
    return (1, -1)


def reference_skip_rule(n: int, target) -> str | None:
    """The rule (free overlap, degree) that a product with block key
    ``target`` from ``product_block_key`` falls under in degree 2n, or None."""
    if target is None:
        return "skipped_free"
    if sum(target) > 2 * n:
        return "skipped_degree"
    return None


def reference_orbit_form(n: int, types, a, b) -> tuple:
    """The reduced canonical form of {a, b} as a tuple: n, then the
    columns (type, a_k, b_k) over ``reference_slot_type`` types, idle
    columns (untwisted, 0 in both keys) dropped, sorted, the smaller of
    the two orientations, each column flattened to four ints."""
    ab = [(o, s, i, j) for (o, s), i, j in zip(types, a, b) if i or j or s < 0]
    ba = [(o, s, j, i) for o, s, i, j in ab]
    ab.sort()
    ba.sort()
    return (n, *itertools.chain.from_iterable(min(ab, ba)))


def reference_orbit_counts(group: GroupSpec, n: int) -> tuple[int, int, int, int]:
    """The provenance counts of a vanishing cell from a loop over every
    unordered block pair: ``(formed, free, degree, orbit)``.  A pair is
    counted under the free-overlap or degree rule when one holds, else
    as formed when its orbit form (the columns (type, a_k, b_k) over
    ``reference_slot_type``, sorted, the smaller orientation) is new,
    else as an orbit skip; each counts its generator pairs.
    """
    blocks: dict = {}
    for i, z in enumerate(generating_cycles(group, n)):
        blocks.setdefault(block_position(group, next(iter(z.terms)))[0], []).append(i)
    types = tuple(map(reference_slot_type, group.orders, group.signs))
    counts = dict.fromkeys(("skipped_free", "skipped_degree", "formed", "orbit"), 0)
    tested = set()
    keys = list(blocks)
    for s, a in enumerate(keys):
        for b in keys[s:]:
            m, k = len(blocks[a]), len(blocks[b])
            size = m * (m + 1) // 2 if a == b else m * k
            rule = reference_skip_rule(n, product_block_key(group, a, b))
            if rule is None:
                form = tuple(min(sorted(zip(types, a, b)), sorted(zip(types, b, a))))
                rule = "orbit" if form in tested else "formed"
                tested.add(form)
            counts[rule] += size
    return (counts["formed"], counts["skipped_free"], counts["skipped_degree"],
            counts["orbit"])


def reference_layout(group: GroupSpec, n: int) -> dict:
    """Block key -> range of its generators, by the basis walk: every key
    in the order it first appears in ``basis(group, n)``, its block built
    by ``_block`` of a fresh presentation, the blocks with homology kept
    and ordered torsion first."""
    fresh = HomologyPresentation(group, n)
    keys = dict.fromkeys(block_position(group, m)[0] for m in basis(group, n))
    cores = [(k, core) for k in keys if (core := fresh._block(k)[1].core).generators]
    cores.sort(key=lambda kc: not kc[1].torsion)
    out, start = {}, 0
    for k, core in cores:
        out[k] = range(start, start + len(core.generators))
        start = out[k].stop
    return out


def reference_faces(group: GroupSpec, mon) -> tuple:
    """The differential of one monomial, slot by slot from
    ``_atomic_boundary``: (face, coefficient) pairs in slot order, each
    coefficient signed by the degrees of the slots before it."""
    out = []
    for k, i in enumerate(mon):
        c = _atomic_boundary(group.orders[k], group.signs[k], i)
        if c:
            out.append((mon[:k] + (i - 1,) + mon[k + 1:], (-1) ** sum(mon[:k]) * c))
    return tuple(out)


def reference_inversion(group: GroupSpec, mon) -> int:
    """The sign of j on one monomial, the product over its slots of the
    lift of g -> -g: (-1)^i on an untwisted Z, (-1)^ceil(i/2) on an
    untwisted Z_q, and 1 on a twisted slot."""
    out = 1
    for order, sign, i in zip(group.orders, group.signs, mon):
        if sign == 1:
            out *= (-1) ** (i if order == 0 else (i + 1) // 2)
    return out


def reference_record(group: GroupSpec, mon) -> tuple:
    """The record ``pontryagin`` keeps for one monomial, from the per-slot
    definitions: (odd mask, high mask, prefix mask, sign), bit k of a mask
    set when slot k has odd degree, has degree at least 2, or has an odd
    number of odd-degree slots before it, and the sign of j from
    ``reference_inversion``."""
    def mask(flags) -> int:
        return sum(1 << k for k, flag in enumerate(flags) if flag)

    odd = [i % 2 == 1 for i in mon]
    return (mask(odd), mask(i >= 2 for i in mon),
            mask(sum(odd[:k]) % 2 == 1 for k in range(len(mon))),
            reference_inversion(group, mon))


def _atomic_power_inversion(order: int, sign: int, i: int) -> int:
    if sign == -1:
        return 1
    if order == 0:
        return -1 if i & 1 else 1
    return (order - 1) ** ((i + 1) >> 1)


def reference_power_inversion(chain: Chain) -> Chain:
    """The lift of the power map g -> g^(q-1) on each finite untwisted
    slot: it multiplies [i] of Z_q by (q-1)^ceil(i/2), [1] of an
    untwisted Z by -1, and fixes twisted slots.  It lifts the same group
    map as ``inversion_chain``, so the two are chain homotopic."""
    group = chain.group
    out = {}
    for mon, coef in chain.terms.items():
        for order, sign, i in zip(group.orders, group.signs, mon):
            coef *= _atomic_power_inversion(order, sign, i)
        out[mon] = coef
    return Chain(group, chain.degree, out)


def random_chain(
    rng: random.Random,
    group: GroupSpec,
    degree: int,
    max_terms: int = 3,
    max_coeff: int = 4,
) -> Chain:
    """A small random chain; zero when the degree has no basis."""
    mons = basis(group, degree)
    if not mons:
        return zero_chain(group, degree)
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(mons)
        terms[m] = terms.get(m, 0) + rng.randint(-max_coeff, max_coeff)
    return Chain(group, degree, terms)


def random_cycle(
    rng: random.Random, group: GroupSpec, n: int, max_coeff: int = 3
) -> Chain:
    """A random cycle: a few generating cycles plus a random boundary."""
    gens = generating_cycles(group, n)
    out = zero_chain(group, n)
    if gens:
        for z in rng.sample(gens, min(len(gens), 3)):
            out = out + rng.randint(-max_coeff, max_coeff) * z
    return out + boundary(random_chain(rng, group, n + 1))


_FACTOR_POOL = (
    [CyclicFactor(0, 1), CyclicFactor(0, -1)]
    + [CyclicFactor(q) for q in (2, 3, 4, 6, 8, 9)]
    + [CyclicFactor(q, -1) for q in (2, 4, 6, 8)]
)


def group_strategy(max_factors: int = 3, min_factors: int = 0):
    return st.lists(
        st.sampled_from(_FACTOR_POOL), min_size=min_factors, max_size=max_factors
    ).map(lambda fs: GroupSpec(tuple(fs)))


def chain_strategy(group: GroupSpec, degree: int, max_coeff: int = 5):
    mons = basis(group, degree)
    if not mons:
        return st.just(zero_chain(group, degree))

    def build(pairs) -> Chain:
        terms: dict = {}
        for m, c in pairs:
            terms[m] = terms.get(m, 0) + c
        return Chain(group, degree, terms)

    term = st.tuples(st.sampled_from(mons), st.integers(-max_coeff, max_coeff))
    return st.lists(term, max_size=4).map(build)


@st.composite
def group_degree_chain(draw, degrees=(1, 2, 3), max_factors: int = 3):
    group = draw(group_strategy(max_factors))
    degree = draw(st.sampled_from(degrees))
    chain = draw(chain_strategy(group, degree))
    return group, degree, chain


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(cols):
                    oi[j] += v * bk[j]
    return out


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def reference_cancel_units(cols, rows):
    """The unit-cancelling loop as it was before the bar reduction fused
    its Schur update: full sweeps over every column, repeated until one
    finds no unit, with a separate pass for each of the row, the column
    and the update.  ``bar._cancel_units`` must yield the same log and
    leave the same columns."""
    found = True
    while found:
        found = False
        for c in list(cols):
            col = cols[c]
            r = None
            for rk, v in col.items():
                if v in (1, -1) and (r is None or len(rows[rk]) < len(rows[r])):
                    r = rk
            if r is None:
                continue
            found = True
            u = col[r]
            rowvals = {c2: cols[c2][r] for c2 in rows[r] if c2 != c}
            colvals = {rk: v for rk, v in col.items() if rk != r}
            for c2, v2 in rowvals.items():
                lam = v2 // u
                col2 = cols[c2]
                for rk, val in colvals.items():
                    w = col2.get(rk, 0) - lam * val
                    if w:
                        if rk not in col2:
                            rows[rk].add(c2)
                        col2[rk] = w
                    elif rk in col2:
                        del col2[rk]
                        rows[rk].discard(c2)
                del col2[r]
            for rk in colvals:
                rows[rk].discard(c)
            del cols[c]
            del rows[r]
            yield r, c, u, rowvals, colvals
