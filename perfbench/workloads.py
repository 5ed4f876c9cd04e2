"""Inputs and operations of the four benchmark workloads.

Every input is built from ``(workload, seed)`` with the standard library
and the public ``twisthom`` API alone.  ``build`` returns plain records
(group specs and integers), one per operation; ``OPERATIONS`` maps a
record's kind to ``(run, check)``: ``run(record)`` is the timed call into
twisthom and ``check(record, result)`` validates the result outside the
timed region.  Random chains are stored
as basis picks ``(u, coefficient)`` and resolved as ``basis[u % len]``
inside the operation, so building the inputs does none of the program's
own work.

Why each workload, and which layers it stresses:

* ``sweep`` -- the paper's main use: ``theorem_cover`` plus
  ``vanishes_for_all`` over the 1152-cell covered grid, the 11 sharpness
  cells and the 10 recorded examples.  Wedge products and echelon
  membership tests dominate.
* ``homology`` -- large presentations: basis enumeration, differential
  assembly and dense Smith forms, with seeded reduce/representative round
  trips.  Almost no wedge work.
* ``queries`` -- many small law checks over the 240 grid groups, reading
  cached presentations; per-call overhead, cache lookups and repeated
  ``generating_cycles`` dominate.
* ``oracle`` -- small complex vs Kunneth vs bar resolution; the only
  workload that touches the bar layer.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
import random

from twisthom import (
    Chain,
    CyclicFactor,
    GroupSpec,
    HomologyClass,
    bar_homology,
    basis,
    boundary,
    chi_chain,
    chi_profile,
    class_order,
    homology,
    homology_type,
    inversion_chain,
    is_cycle,
    parse_group_spec,
    reduce_cycle,
    run_all,
    theorem_cover,
    vanishes_for_all,
    wedge,
    zero_chain,
)
from twisthom.homology import generating_cycles, is_boundary

WORKLOADS = ("sweep", "homology", "queries", "oracle")

GRID_CELLS = 1152

SHARPNESS_CELLS = (
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
)

EXAMPLE_IDS = (
    "ex:cond_a", "ex:cond_b", "ex:cond_b_even", "ex:cond_c", "ex:cond_c_odd",
    "ex:cond_d_1", "ex:cond_d_1_even", "ex:cond_d_2", "ex:cond_d_2odd", "ex:cond_e",
)

# Each group with its top degree.  The two 1001-element top bases and the
# mixed-prime group are where the dense Smith form is most expensive.  On
# the mixed-prime group H_8 (basis 495) takes minutes, so it stops at n=7
# (basis 330, about 2s), which still shows the jump from n=6 (about 0.1s).
HOMOLOGY_GROUPS = (
    ("Z_2 x Z_2 x Z_2 x Z_2 x Z_2", 10),
    ("Z_2 x Z_4 x Z_8 x Z_3 x Z_3", 10),
    ("Z_3 x Z_3 x Z_3 x Z_3", 12),
    ("Z^3 x Z_2 x Z_2 x Z_2", 10),
    ("Z~ x Z_2 x Z_4~ x Z_2~ x Z_3", 10),
    ("Z_4 x Z_9 x Z_8 x Z_6 x Z_6", 7),
)
ROUND_TRIPS = 4

QUERY_DRAWS = 40

ORACLE_GROUPS = ("Z_2", "Z_3", "Z_4", "Z_2 x Z_2", "Z_3 x Z_3", "Z_2~", "Z_4~")
ORACLE_DEGREES = range(5)
ORACLE_CAP = 60000

# ----------------------------------------------------------------- grid

def _twisted_family():
    kinds = (
        CyclicFactor(0, 1), CyclicFactor(0, -1),
        CyclicFactor(2, 1), CyclicFactor(2, -1),
        CyclicFactor(4, 1), CyclicFactor(4, -1),
    )
    for k in range(1, 5):
        for combo in itertools.combinations_with_replacement(kinds, k):
            if any(f.twisted for f in combo):
                yield GroupSpec(combo)


def criterion_grid() -> list[tuple[GroupSpec, int]]:
    """The covered grid: six families, degrees 2..6, deduplicated.

    Twisted groups of at most four factors with orders in {infinite, 2, 4};
    Z^r; Z^r with one primary factor; Z^r (r <= 1) with two primaries of
    one prime; three primaries of one prime; Z^r x (Z_2)^s.
    """
    cells: dict[tuple[GroupSpec, int], None] = {}
    degrees = range(2, 7)

    def free(r):
        return (CyclicFactor(0),) * r

    for g in _twisted_family():
        for n in degrees:
            cells.setdefault((g, n), None)
    for r in range(1, 7):
        for n in degrees:
            if n % 2 or 2 * n > r:
                cells.setdefault((GroupSpec(free(r)), n), None)
    for r in range(7):
        for p in (2, 3):
            for a in (1, 2):
                g = GroupSpec(free(r) + (CyclicFactor(p ** a),))
                for n in degrees:
                    if (n % 2 and n > r) or (n % 2 == 0 and n >= r):
                        cells.setdefault((g, n), None)
    for r in range(2):
        for p in (2, 3):
            for a, b in itertools.combinations_with_replacement((1, 2), 2):
                g = GroupSpec(free(r) + (CyclicFactor(p ** a), CyclicFactor(p ** b)))
                for n in degrees:
                    cells.setdefault((g, n), None)
    for p in (2, 3):
        for a, b, c in itertools.combinations_with_replacement((1, 2), 3):
            g = GroupSpec(tuple(CyclicFactor(p ** e) for e in (a, b, c)))
            for n in degrees:
                cells.setdefault((g, n), None)
    for r in range(7):
        for s in range(1, 4):
            g = GroupSpec(free(r) + (CyclicFactor(2),) * s)
            for n in degrees:
                if n % 2 or 2 * n > r:
                    cells.setdefault((g, n), None)
    return list(cells)


def grid_groups() -> list[GroupSpec]:
    return list(dict.fromkeys(g for g, _ in criterion_grid()))


# --------------------------------------------------------------- inputs

def build(workload: str, seed: int) -> list[tuple]:
    """The workload's input records; one record per operation.

    ``sweep`` and ``oracle`` enumerate fixed grids in a fixed order, so
    their inputs do not depend on the seed: reordering would move cache
    fills and memory peaks between operations.  ``homology`` and
    ``queries`` draw their round trips and chains from the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        grid = criterion_grid()
        if len(grid) != GRID_CELLS:
            raise RuntimeError(f"covered grid has {len(grid)} cells, expected {GRID_CELLS}")
        return ([("cell", g, n) for g, n in grid]
                + [("sharp", parse_group_spec(t), n) for t, n in SHARPNESS_CELLS]
                + [("example", ident) for ident in EXAMPLE_IDS])
    if workload == "homology":
        return [("degree", g, n, tuple((rng.getrandbits(32), _picks(rng))
                                       for _ in range(ROUND_TRIPS)))
                for g, top in ((parse_group_spec(t), top) for t, top in HOMOLOGY_GROUPS)
                for n in range(top + 1)]
    if workload == "queries":
        out = []
        for g in grid_groups():
            for _ in range(QUERY_DRAWS):
                out.append(("dd", g, _drawn(rng, (1, 2, 3, 4))))
                out.append(("leibniz", g, _drawn(rng, (1, 2, 3)), _drawn(rng, (1, 2, 3))))
                out.append(("commute", g, _drawn(rng, (1, 2, 3)), _drawn(rng, (1, 2, 3))))
                out.append(("inversion", g, _drawn(rng, (1, 2, 3, 4))))
                out.append(("half_square", g, _drawn(rng, (1, 3))))
                out.append(("jj", g, *_drawn(rng, (1, 2, 3)), rng.getrandbits(32)))
        return out
    if workload == "oracle":
        return [("oracle", parse_group_spec(t), n) for t in ORACLE_GROUPS for n in ORACLE_DEGREES]
    raise ValueError(f"unknown workload {workload!r}")


def _picks(rng: random.Random):
    """One to three basis picks (u, coefficient), coefficients in -4..4."""
    return tuple((rng.getrandbits(32), rng.getrandbits(8) % 9 - 4)
                 for _ in range(1 + rng.getrandbits(8) % 3))


def _drawn(rng: random.Random, degrees):
    """A random chain as (degree, picks)."""
    return degrees[rng.getrandbits(8) % len(degrees)], _picks(rng)


def digest(records) -> str:
    """Fingerprint of the inputs, for checking that a seed reproduces them."""
    return hashlib.sha256(pickle.dumps(records, protocol=4)).hexdigest()


def _chain(group: GroupSpec, degree: int, picks) -> Chain:
    mons = basis(group, degree)
    if not mons:
        return zero_chain(group, degree)
    terms: dict = {}
    for u, c in picks:
        m = mons[u % len(mons)]
        terms[m] = terms.get(m, 0) + c
    return Chain(group, degree, terms)


# ----------------------------------------------------------- operations
#
# Each record kind has a ``run`` (the timed call into twisthom) and a
# ``check`` of its result, made outside the timed region.

def _cell(r):
    _, g, n = r
    return theorem_cover(g, n), vanishes_for_all(g, n)


def _cell_ok(r, res):
    cover, verdict = res
    return cover.covered and verdict.vanishes


def _sharp(r):
    return vanishes_for_all(r[1], r[2])


def _sharp_ok(r, v):
    w = v.witness
    return (v.kind == "NonzeroWitness" and w is not None and is_cycle(w)
            and v.chi_order != 1 and class_order(chi_chain(w)) == v.chi_order)


def _example(r):
    return run_all(only=r[1])


def _example_ok(r, res):
    return len(res) == 1 and res[0].ok


def _degree(r):
    """Present H_n, then reduce(representative(c) + boundary(b)) per trip."""
    _, g, n, trips = r
    h = homology(g, n)
    out = []
    for coord_seed, picks in trips:
        pick = random.Random(coord_seed)
        torsion = tuple(pick.randrange(d) for d in h.torsion_divisors)
        free = tuple(pick.randint(-3, 3) for _ in range(h.free_rank))
        cls = HomologyClass(h, free, torsion)
        z = h.representative(cls) + boundary(_chain(g, n + 1, picks))
        out.append(h.reduce(z) == cls)
    return h, out


def _degree_ok(r, res):
    h, trips_ok = res
    return h.abelian_type() == homology_type(r[1], r[2]) and all(trips_ok)


def _oracle(r):
    _, g, n = r
    small = homology(g, n)
    answers = (small.abelian_type(), homology_type(g, n),
               bar_homology(g, n, cap=ORACLE_CAP))
    size = g.group_order
    profiles = None
    if small.free_rank == 0 and size ** (2 * n + 1) <= ORACLE_CAP:
        profiles = (chi_profile("small", g, n),
                    chi_profile("bar", g, n, cap=ORACLE_CAP))
    return answers, profiles


def _oracle_ok(r, res):
    answers, profiles = res
    return len(set(answers)) == 1 and (profiles is None or profiles[0] == profiles[1])


def _dd(r):
    return boundary(boundary(_chain(r[1], *r[2]))).is_zero


def _leibniz(r):
    a, b = _chain(r[1], *r[2]), _chain(r[1], *r[3])
    sign = -1 if a.degree % 2 else 1
    return boundary(wedge(a, b)) == wedge(boundary(a), b) + sign * wedge(a, boundary(b))


def _commute(r):
    a, b = _chain(r[1], *r[2]), _chain(r[1], *r[3])
    sign = -1 if (a.degree * b.degree) % 2 else 1
    return wedge(a, b) == sign * wedge(b, a)


def _inversion(r):
    c = _chain(r[1], *r[2])
    return boundary(inversion_chain(c)) == inversion_chain(boundary(c))


def _half_square(r):
    c = _chain(r[1], *r[2])
    square = wedge(boundary(c), boundary(c))
    if any(v % 2 for v in square.terms.values()):
        return False
    return is_boundary(Chain(square.group, square.degree,
                             {m: v // 2 for m, v in square.terms.items()}))


def _jj(r):
    """A random cycle (a few generating cycles plus a boundary) has the
    same class after inverting twice."""
    _, g, n, picks, sample_seed = r
    gens = generating_cycles(g, n)
    pick = random.Random(sample_seed)
    z = zero_chain(g, n)
    for gen in pick.sample(gens, min(len(gens), 3)):
        z = z + pick.randint(-3, 3) * gen
    z = z + boundary(_chain(g, n + 1, picks))
    return reduce_cycle(inversion_chain(inversion_chain(z))) == reduce_cycle(z)


def _holds(r, res):
    return res is True


OPERATIONS = {
    "cell": (_cell, _cell_ok),
    "sharp": (_sharp, _sharp_ok),
    "example": (_example, _example_ok),
    "degree": (_degree, _degree_ok),
    "oracle": (_oracle, _oracle_ok),
    "dd": (_dd, _holds),
    "leibniz": (_leibniz, _holds),
    "commute": (_commute, _holds),
    "inversion": (_inversion, _holds),
    "half_square": (_half_square, _holds),
    "jj": (_jj, _holds),
}
