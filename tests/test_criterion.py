"""Vanishing criterion: chi classes, theorem coverage, verdict prose."""

import itertools
import math
import random

import pytest

from support import (
    SHARPNESS_CELLS,
    G,
    criterion_grid,
    mixed_slot_family,
    random_chain,
    random_cycle,
    reference_orbit_counts,
    reference_orbit_form,
    reference_slot_type,
    reference_vanishing,
    twisted_cells,
)
from twisthom import (
    Chain,
    CyclicFactor,
    DegreeTooSmallError,
    GroupSpec,
    Verdict,
    boundary,
    chi_chain,
    chi_square,
    format_chain,
    interpret,
    inversion_chain,
    is_cycle,
    j_star,
    parse_chain,
    reduce_cycle,
    scan,
    theorem_cover,
    vanishes_for_all,
    wedge,
)
from twisthom import criterion
from twisthom.chains import basis, block_pairing, block_position, product_block_key
from twisthom.criterion import _slot_type
from twisthom.homology import block_order, class_order, generating_cycles, homology, homology_type


def test_j_star_sign_on_free_classes():
    g = G("Z^3")
    for n in (1, 2, 3):
        p = homology(g, n)
        for i in range(p.num_generators):
            c = p.generator(i)
            expected = p.reduce((-1) ** n * c.representative())
            assert j_star(c) == expected


def test_j_star_sign_on_odd_torsion():
    g = G("Z_3 x Z_9")
    for n in (1, 3, 5):
        m = (n + 1) // 2
        p = homology(g, n)
        for i in range(p.num_generators):
            c = p.generator(i)
            assert j_star(c) == p.reduce((-1) ** m * c.representative())


def test_j_star_of_zero():
    p = homology(G("Z_3"), 3)
    assert j_star(p.zero()) == p.zero()


def test_chi_square_nonzero_even_case():
    g = G("Z^2 x Z_3 x Z_3")
    z = parse_chain(g, "[1 0 3 0] + [0 1 0 3]")
    cls = chi_square(reduce_cycle(z))
    assert cls.order() == 3
    assert cls == reduce_cycle(parse_chain(g, "2*[1 1 3 3]"))


def test_chi_square_nonzero_odd_case():
    g = G("Z_3 x Z_3 x Z_3 x Z_3")
    z = parse_chain(g, "[0 3 1 1] + [4 1 0 0] + [3 2 0 0]")
    cls = chi_square(reduce_cycle(z))
    assert cls.order() == 3
    assert cls == reduce_cycle(parse_chain(g, "[3 5 1 1]"))


def test_chi_square_of_zero():
    g = G("Z_3 x Z_3")
    assert chi_square(homology(g, 3).zero()) == homology(g, 6).zero()


def test_chi_chain_matches_wedge_with_inversion():
    g = G("Z^3 x Z_3")
    rng = random.Random(29)
    for _ in range(20):
        c = random_chain(rng, g, rng.choice((1, 2, 3)))
        assert chi_chain(c) == wedge(c, inversion_chain(c))


def test_chi_is_well_defined_on_homology():
    g = G("Z_2 x Z_4~")
    rng = random.Random(31)
    for n in (1, 2):
        for _ in range(10):
            z = random_cycle(rng, g, n)
            smudged = z + boundary(random_chain(rng, g, n + 1))
            assert reduce_cycle(chi_chain(z)) == reduce_cycle(chi_chain(smudged))


def test_chi_bilinear_expansion():
    g = G("Z_3 x Z_3")
    rng = random.Random(37)
    for n in (1, 2):
        for _ in range(10):
            a = random_cycle(rng, g, n)
            b = random_cycle(rng, g, n)
            lhs = reduce_cycle(chi_chain(a + b))
            rhs = (
                reduce_cycle(chi_chain(a))
                + reduce_cycle(chi_chain(b))
                + reduce_cycle(wedge(a, inversion_chain(b)))
                + reduce_cycle(wedge(b, inversion_chain(a)))
            )
            assert lhs == rhs


def test_even_square_halves_to_a_class():
    g = G("Z_3 x Z_3")
    rng = random.Random(41)
    for _ in range(10):
        z = random_cycle(rng, g, 2)
        square = wedge(z, z)
        assert all(v % 2 == 0 for v in square.terms.values())
        half = Chain(g, 4, {m: v // 2 for m, v in square.terms.items()})
        assert boundary(half).is_zero
        cls = reduce_cycle(half)
        assert cls + cls == reduce_cycle(square)


def test_free_rank_four_witness():
    g = G("Z^4")
    v = vanishes_for_all(g, 2)
    assert v.kind == "NonzeroWitness"
    assert not v.vanishes
    assert v.chi_order == 0
    assert v.witness == parse_chain(g, "[1 1 0 0] + [0 0 1 1]")
    assert format_chain(v.chi_chain) == "2*[1 1 1 1]"


@pytest.mark.parametrize(
    "group, n",
    [("Z^3", 3), ("Z_2~ x Z_2", 2), ("Z_2~ x Z_2", 3), ("Z_3", 2), ("Z_3", 1)],
)
def test_vanishing_groups(group, n):
    v = vanishes_for_all(G(group), n)
    assert v.kind == "Vanishes"
    assert v.vanishes
    assert v.witness is None


@pytest.mark.parametrize(
    "group, n, case",
    [
        ("Z_2~ x Z^5", 3, "twisted-action"),
        ("Z^4", 3, "free"),
        ("Z^2 x Z_9", 5, "free-and-one-primary"),
        ("Z_3 x Z_3", 2, "low-rank-two-primary"),
        ("Z_3 x Z_3 x Z_3", 4, "three-primary"),
        ("Z^3 x Z_2", 2, "free-and-elementary-two"),
        ("Z^2 x Z_2 x Z_2", 4, "free-and-elementary-two"),
    ],
)
def test_theorem_cover_cases(group, n, case):
    v = theorem_cover(G(group), n)
    assert v.kind == "TheoremCovered"
    assert v.covered
    assert v.case == case


@pytest.mark.parametrize(
    "group, n",
    [("Z^6", 2), ("Z^7 x Z_3", 7), ("Z_2 x Z_3", 2), ("Z^4", 2)],
)
def test_theorem_cover_gaps(group, n):
    v = theorem_cover(G(group), n)
    assert v.kind == "NotCovered"
    assert not v.covered
    assert v.case is None


def test_degree_two_floor():
    with pytest.raises(DegreeTooSmallError):
        theorem_cover(G("Z^4"), 1)
    with pytest.raises(DegreeTooSmallError):
        interpret(vanishes_for_all(G("Z_3"), 1))
    assert vanishes_for_all(G("Z_3"), 1).vanishes


def test_non_integer_degrees_are_refused():
    # theorem_cover(Z, 2.5) used to return TheoremCovered(free), and scan
    # passed it through.  The type is checked before the degree floor.
    for n in (2.5, 2.0, 1.0):
        for decide in (theorem_cover, vanishes_for_all, scan):
            with pytest.raises(TypeError):
                decide(G("Z"), n)


def test_a_bool_degree_is_read_as_its_int():
    for g in (G("Z^4"), G("Z_3")):
        for decide in (theorem_cover, vanishes_for_all):
            v = decide(g, True + True)
            assert v == decide(g, 2) and type(v.degree) is int
    v = vanishes_for_all(G("Z_3"), True)
    assert v == vanishes_for_all(G("Z_3"), 1) and type(v.degree) is int


def test_interpret_prose():
    assert "TC(M) < 6" in interpret(theorem_cover(G("Z^4"), 3))
    assert "TC(M) = 4 = cat(C(M))" in interpret(vanishes_for_all(G("Z^4"), 2))
    inconclusive = interpret(theorem_cover(G("Z^6"), 2))
    assert "inconclusive" in inconclusive
    assert "vanishes_for_all" in inconclusive


def test_scan_is_consistent():
    g = G("Z^3 x Z_3")
    cover, vanish = scan(g, 3)
    assert cover == theorem_cover(g, 3)
    assert vanish == vanishes_for_all(g, 3)


def test_verdict_str_forms():
    assert str(theorem_cover(G("Z^4"), 3)) == "TheoremCovered(free)"
    assert str(vanishes_for_all(G("Z^4"), 2)) == "NonzeroWitness(order infinite)"
    assert str(vanishes_for_all(G("Z^3 x Z_3"), 3)) == "NonzeroWitness(order 3)"
    assert str(vanishes_for_all(G("Z_2~ x Z_2"), 2)) == "Vanishes"
    assert str(theorem_cover(G("Z^6"), 2)) == "NotCovered"


def test_verdict_provenance():
    v = vanishes_for_all(G("Z^4"), 2)
    assert (v.generators, v.pairs_formed, v.skipped_free, v.skipped_degree) == (6, 1, 10, 0)
    assert v.skipped_orbit == 0
    assert v.failing_pair == (0, 5)
    assert v.failing_block == (1, 1, 1, 1)
    assert v == Verdict(v.kind, v.group, v.degree, witness=v.witness,
                        chi_chain=v.chi_chain, chi_order=v.chi_order)
    for text, n in (("Z_3 x Z_3", 3), ("Z^2 x Z_2 x Z_2", 3), ("Z_3", 1),
                    ("Z_2 x Z_2 x Z_2", 3)):
        v = vanishes_for_all(G(text), n)
        m = v.generators
        assert v.vanishes and v.failing_pair is None and v.failing_block is None
        assert (v.pairs_formed + v.skipped_free + v.skipped_degree + v.skipped_orbit
                == m * (m + 1) // 2)
    assert vanishes_for_all(G("Z_3"), 1).skipped_degree == 1
    v = vanishes_for_all(G("Z_2 x Z_2 x Z_2"), 3)
    assert (v.generators, v.pairs_formed, v.skipped_free, v.skipped_degree,
            v.skipped_orbit) == (7, 5, 0, 10, 13)
    # Twisted finite slots of different orders are one slot type.
    v = vanishes_for_all(G("Z_2~ x Z_4~ x Z_6~"), 3)
    assert (v.generators, v.pairs_formed, v.skipped_free, v.skipped_degree,
            v.skipped_orbit) == (6, 7, 0, 0, 14)


def test_verdicts_hash():
    for group, n in SHARPNESS_CELLS + [("Z_3 x Z_3", 3)]:
        v = vanishes_for_all(G(group), n)
        twin = Verdict(v.kind, v.group, v.degree, witness=v.witness,
                       chi_chain=v.chi_chain, chi_order=v.chi_order)
        assert v == twin and hash(v) == hash(twin)
        assert len({v, twin}) == 1


# The witness of each sharpness cell, pinned as printed: a change in how
# generators are chosen (their signs, or which cycle presents a class)
# moves these strings even when every verdict stays the same.
SHARPNESS_WITNESSES = {
    ("Z^4", 2): "[0 0 1 1] + [1 1 0 0]",
    ("Z^3 x Z_3", 3): "[0 0 0 3] + [1 1 1 0]",
    ("Z^7 x Z_3", 6): "-[0 0 0 0 0 0 1 5] + [1 1 1 1 1 1 0 0]",
    ("Z^7 x Z_3", 7): "[0 0 0 0 0 0 0 7] + [1 1 1 1 1 1 1 0]",
    ("Z^2 x Z_3 x Z_3", 4): "-[0 1 0 3] - [1 0 1 2] - [1 0 2 1]",
    ("Z^2 x Z_3 x Z_3", 5): "[0 0 0 5] + [1 1 3 0]",
    ("Z x Z_3 x Z_3 x Z_3", 4): "[0 0 1 3] - [1 1 0 2] - [1 2 0 1]",
    ("Z x Z_3 x Z_3 x Z_3", 7): "[0 0 0 7] - [1 1 1 4] + [1 2 1 3]",
    ("Z_3 x Z_3 x Z_3 x Z_3", 5): "[0 0 0 5] + [1 1 3 0]",
    ("Z_3 x Z_3 x Z_3 x Z_3", 6): "[0 0 1 5] + [1 1 4 0] - [2 1 3 0]",
    ("Z^8 x Z_2", 4): "[0 0 0 0 1 1 1 1 0] + [1 1 1 1 0 0 0 0 0]",
}


@pytest.mark.parametrize("group, n", SHARPNESS_CELLS)
def test_sharpness_witness_is_pinned(group, n):
    assert format_chain(vanishes_for_all(G(group), n).witness) == SHARPNESS_WITNESSES[group, n]


def _agrees_with_reference(group, n):
    v = vanishes_for_all(group, n)
    kind, witness, chi_order = reference_vanishing(group, n)
    return v.kind == kind and v.witness == witness and v.chi_order == chi_order


CRITERION_CELLS = [("Z^4", 2), ("Z^3", 3), ("Z_2~ x Z_2", 2), ("Z_2~ x Z_2", 3),
                   ("Z_3", 2), ("Z_3", 1), ("Z^3 x Z_3", 3)]


@pytest.mark.parametrize("group, n", SHARPNESS_CELLS + CRITERION_CELLS)
def test_vanishing_matches_the_reference_loop(group, n):
    assert _agrees_with_reference(G(group), n)


def test_vanishing_matches_the_reference_loop_on_the_grid():
    cells = [(g, n) for g, n in criterion_grid() if homology(g, n).num_generators <= 30]
    assert len(cells) == 1058
    assert [(str(g), n) for g, n in cells if not _agrees_with_reference(g, n)] == []


def test_vanishing_matches_the_reference_loop_on_mixed_slots():
    cells = mixed_slot_family()
    assert len(cells) == 952
    verdicts = [vanishes_for_all(g, n) for g, n in cells]
    assert sum(not v.vanishes for v in verdicts) == 380
    assert sum(v.skipped_orbit > 0 for v in verdicts if v.vanishes) > 0
    assert [(str(g), n) for g, n in cells if not _agrees_with_reference(g, n)] == []


# Vanishing cells where most block pairs are skipped as orbit-mates.
ORBIT_CELLS = [("Z_2 x Z_2 x Z_2 x Z_2 x Z_2", 5), ("Z_2 x Z_2 x Z_2 x Z_2 x Z_2", 6),
               ("Z_2~ x Z_2~ x Z_2~ x Z_2", 5), ("Z_4~ x Z_4~ x Z_2 x Z_2", 4),
               ("Z^2 x Z_2 x Z_2 x Z_2", 5)]


@pytest.mark.parametrize("group, n", ORBIT_CELLS)
def test_orbit_skips_match_the_reference_loop(group, n):
    v = vanishes_for_all(G(group), n)
    assert v.vanishes and v.skipped_orbit > v.pairs_formed
    assert (v.pairs_formed, v.skipped_free, v.skipped_degree,
            v.skipped_orbit) == reference_orbit_counts(G(group), n)
    assert _agrees_with_reference(G(group), n)


def test_vanishing_matches_the_reference_loop_on_twisted_cells():
    # Every twisted cell of degree >= 2 vanishes, so the witnesses come
    # from degrees 0 and 1, and the counts are checked on the rest.
    cells = twisted_cells()
    assert len(cells) == 680
    verdicts = [vanishes_for_all(g, n) for g, n in cells]
    assert sum(not v.vanishes for v in verdicts) == 130
    assert all(v.vanishes for (g, n), v in zip(cells, verdicts) if n >= 2)
    assert [(str(g), n) for g, n in cells if not _agrees_with_reference(g, n)] == []
    assert [(str(g), n) for (g, n), v in zip(cells, verdicts) if v.vanishes
            and (v.pairs_formed, v.skipped_free, v.skipped_degree, v.skipped_orbit)
            != reference_orbit_counts(g, n)] == []
    v = vanishes_for_all(G("Z_2 x Z_2~ x Z_4 x Z_4~"), 6)
    assert v.vanishes and v.pairs_formed == 704
    assert (v.pairs_formed, v.skipped_free, v.skipped_degree,
            v.skipped_orbit) == reference_orbit_counts(v.group, 6)


# One of each slot kind the orbit rule must tell apart or merge.
SLOT_KINDS = ("Z", "Z~", "Z_2", "Z_2~", "Z_3", "Z_4", "Z_4~", "Z_6~", "Z_9")


def _swapped(chain: Chain) -> Chain:
    """The first two slots of every monomial swapped, with the Koszul
    sign (-1)^(a b) of the two degrees a, b; over the same group."""
    return Chain(chain.group, chain.degree,
                 {(b, a, *rest): -v if a & b & 1 else v
                  for (a, b, *rest), v in chain.terms.items()})


def _swap_is_an_automorphism(group: GroupSpec, rng: random.Random) -> bool:
    """Whether the signed swap of the first two slots maps the basis onto
    itself and commutes with ``boundary``, ``wedge`` and ``inversion_chain``
    on seeded random chains."""
    for d in range(6):
        mons = basis(group, d)
        if {(b, a, *rest) for a, b, *rest in mons} != set(mons):
            return False
    for _ in range(40):
        x = random_chain(rng, group, rng.randint(1, 4))
        y = random_chain(rng, group, rng.randint(1, 3))
        if (boundary(_swapped(x)) != _swapped(boundary(x))
                or wedge(_swapped(x), _swapped(y)) != _swapped(wedge(x, y))
                or inversion_chain(_swapped(x)) != _swapped(inversion_chain(x))):
            return False
    return True


def test_slot_types_are_the_slot_swap_automorphism_classes():
    # The orbit rule is exact only if every pair of slots of one type
    # swaps as an automorphism of the small complex, and it skips the
    # most only if every such pair has one type.  A Z_3 slot stands by
    # so that the Koszul signs and the wedge's cross terms come into play.
    rng = random.Random(71)
    for f, g in itertools.combinations_with_replacement(SLOT_KINDS, 2):
        group = G(f"{f} x {g} x Z_3")
        a, b = group.factors[:2]
        same = _slot_type(a.order, a.sign) == _slot_type(b.order, b.sign)
        assert _swap_is_an_automorphism(group, rng) == same, (f, g)


def _verdict_record(v: Verdict) -> tuple:
    return (v.kind, format_chain(v.witness) if v.witness is not None else None, v.chi_order,
            v.failing_pair, v.failing_block, v.pairs_formed, v.skipped_free,
            v.skipped_degree, v.skipped_orbit)


def test_verdicts_do_not_depend_on_the_task_memo(monkeypatch):
    # The memo of task outcomes by reduced form is shared by every cell
    # of the process.  Cold (cleared before each cell), filled by earlier
    # cells, fully warm, and evicting on every insert, each cell must get
    # the same verdict, witness, provenance and counts.
    cells = twisted_cells() + mixed_slot_family()
    cold = []
    for g, n in cells:
        criterion._TASKS.clear()
        cold.append(_verdict_record(vanishes_for_all(g, n)))
    criterion._TASKS.clear()
    filling = [_verdict_record(vanishes_for_all(g, n)) for g, n in cells]
    size = len(criterion._TASKS)
    assert 0 < size < criterion._MAX_TASKS
    warm = [_verdict_record(vanishes_for_all(g, n)) for g, n in cells]
    assert len(criterion._TASKS) == size  # every form was already decided
    criterion._TASKS.clear()
    monkeypatch.setattr(criterion, "_MAX_TASKS", 1)
    evicting = [_verdict_record(vanishes_for_all(g, n)) for g, n in cells]
    assert len(criterion._TASKS) <= 1
    assert filling == cold and warm == cold and evicting == cold


@pytest.mark.parametrize("group, n, kind", [("Z^4", 2, "NonzeroWitness"),
                                            ("Z^3 x Z_3", 3, "NonzeroWitness"),
                                            ("Z^3", 3, "Vanishes"),
                                            ("Z_2 x Z_2 x Z_2", 3, "Vanishes")])
def test_the_pass_presents_degree_n_only(group, n, kind, monkeypatch):
    # Each product is decided by the block rule of its target block, so
    # the pass builds no presentation of H_2n, whether it finds a witness
    # or not.
    monkeypatch.setattr(criterion, "_TASKS", {})
    homology.cache_clear()
    verdict = vanishes_for_all(G(group), n)
    assert verdict.kind == kind
    assert homology.cache_info().currsize == 1
    hits = homology.cache_info().hits
    homology(G(group), n)
    assert homology.cache_info().hits == hits + 1


def _guard_cells() -> list[tuple[GroupSpec, int]]:
    """The mixed-slot and twisted families, and the sharpness cells with
    at most 60 generating cycles, each cell once."""
    sharp = [(G(text), n) for text, n in SHARPNESS_CELLS
             if len(generating_cycles(G(text), n)) <= 60]
    assert len(sharp) == 8
    return list(dict.fromkeys(mixed_slot_family() + twisted_cells() + sharp))


def test_products_are_cycles_of_their_target_block_with_the_block_rule_order():
    # What the pass relies on: for every pair the free and degree rules
    # let through, the symmetrized product is a cycle, lies wholly in the
    # block product_block_key names, and has the order the block rule
    # gives from that block's gcd alone.
    pairs = unbounded = 0
    for g, n in _guard_cells():
        gens = generating_cycles(g, n)
        keys = [block_position(g, next(iter(z.terms)))[0] for z in gens]
        jgens = [inversion_chain(z) for z in gens]
        sign = -1 if n % 2 else 1
        m = len(gens)
        for i, j in itertools.chain(zip(range(m), range(m)), itertools.combinations(range(m), 2)):
            key = product_block_key(g, keys[i], keys[j])
            if key is None or sum(key) > 2 * n:
                continue
            value = wedge(gens[i], jgens[j])
            if i != j:
                value = value + sign * inversion_chain(value)
            assert is_cycle(value)
            assert all(block_position(g, mon)[0] == key for mon in value.terms)
            order = block_order(math.gcd(*block_pairing(g, key)[1]), value.terms)
            assert order == class_order(value), (g, n, i, j)
            pairs += 1
            unbounded += order != 1
    assert (pairs, unbounded) == (39087, 10885)


def _inclusion_family() -> list[tuple[GroupSpec, int]]:
    """Groups of 1-2 factors from SLOT_KINDS, each also with one untwisted
    factor from {Z, Z_2, Z_3, Z_4} appended, in degrees 0..5: the block
    pairs of G reappear in G x C with an idle column for C."""
    groups: dict[GroupSpec, None] = {}
    for k in (1, 2):
        for combo in itertools.combinations_with_replacement(SLOT_KINDS, k):
            g = G(" x ".join(combo))
            groups.setdefault(g, None)
            for extra in ("Z", "Z_2", "Z_3", "Z_4"):
                groups.setdefault(GroupSpec(g.factors + G(extra).factors), None)
    return [(g, n) for g in groups for n in range(6)]


def test_each_reduced_task_form_has_one_outcome():
    # The memo is exact only if a task's outcome is a function of its
    # reduced form: n and the columns that are not idle, whatever group
    # the task came from.  Each cell starts from an empty memo, so every
    # entry below is a task the cell tested itself.
    outcomes: dict[tuple, set] = {}
    sources: dict[tuple, set] = {}
    for g, n in _inclusion_family():
        criterion._TASKS.clear()
        vanishes_for_all(g, n)
        for form, passes in criterion._TASKS.items():
            outcomes.setdefault(form, set()).add(passes)
            sources.setdefault(form, set()).add(g)
    criterion._TASKS.clear()
    assert [form for form, seen in outcomes.items() if len(seen) > 1] == []
    assert {False} in outcomes.values() and {True} in outcomes.values()
    assert sum(len(groups) > 1 for groups in sources.values()) > len(sources) // 2


def _mask_cells() -> list[tuple[GroupSpec, int]]:
    return list(dict.fromkeys(criterion_grid() + twisted_cells() + mixed_slot_family()))


def test_key_masks_give_the_product_block_key_rules():
    # The pass reads the free and degree rules off each key's total degree
    # and two slot masks, never building the target key of a skipped pair:
    # on every ordered key pair, the untwisted Z masks meet iff
    # product_block_key says None, and otherwise |a| + |b| plus the common
    # bits of the untwisted finite masks is the target's total degree.
    pairs = dead = 0
    for g, n in _mask_cells():
        keys = list(homology(g, n)._layout)
        records = criterion._records(g, keys)
        for a, b in itertools.product(keys, repeat=2):
            (da, ones_a, above_a), (db, ones_b, above_b) = records[a], records[b]
            target = product_block_key(g, a, b)
            assert (target is None) == bool(ones_a & ones_b), (g, a, b)
            if target is not None:
                assert sum(target) == da + db + (above_a & above_b).bit_count(), (g, a, b)
            pairs += 1
            dead += target is None
    assert pairs == 810936 and 0 < dead < pairs


def test_packed_forms_are_equal_iff_the_tuple_forms_are():
    # The memo is keyed by packed forms across every cell of the process,
    # so on each pair the rules let through (the pairs the memo sees), two
    # packed forms agree iff the reference tuple forms, over (order, sign)
    # slot types, agree.
    by_packed: dict = {}
    by_tuple: dict = {}
    for g, n in _mask_cells():
        keys = list(homology(g, n)._layout)
        records = criterion._records(g, keys)
        types = tuple(map(_slot_type, g.orders, g.signs))
        reference = tuple(map(reference_slot_type, g.orders, g.signs))
        for s, a in enumerate(keys):
            for b in keys[s:]:
                if criterion._pair_rule(n, records[a], records[b]) is None:
                    packed = criterion._packed_form(n, types, a, b)
                    form = reference_orbit_form(n, reference, a, b)
                    by_packed.setdefault(packed, set()).add(form)
                    by_tuple.setdefault(form, set()).add(packed)
    assert all(len(forms) == 1 for forms in by_packed.values())
    assert all(len(forms) == 1 for forms in by_tuple.values())
    assert len(by_packed) > 1000


@pytest.mark.parametrize("group, n", [("Z^5", 3), ("Z_2 x Z_2~", 5), ("Z^2 x Z_2", 3)])
def test_cycles_are_built_only_for_a_tested_task(group, n, monkeypatch):
    # Z^5 in degree 3 skips every pair by the free rule, Z_2 x Z_2~ in
    # degree 5 by the degree rule.  Z^2 x Z_2 in degree 3 tests one task:
    # cold it builds the cycles, and a fresh presentation whose task is
    # already remembered builds none.
    monkeypatch.setattr(criterion, "_TASKS", {})
    homology.cache_clear()
    v = vanishes_for_all(G(group), n)
    assert v.vanishes and v.generators == homology(G(group), n).num_generators > 0
    assert ("_cycles" in vars(homology(G(group), n))) == (v.pairs_formed > 0)
    homology.cache_clear()
    assert vanishes_for_all(G(group), n).pairs_formed == v.pairs_formed
    assert "_cycles" not in vars(homology(G(group), n))


@pytest.mark.parametrize("group, n", [("Z^4", 2), ("Z~", 0)])
def test_a_witness_does_not_alias_the_cached_cycles(group, n):
    # Z^4 in degree 2 fails on a cross pair, Z~ in degree 0 on a diagonal,
    # whose witness is one generating cycle.
    v = vanishes_for_all(G(group), n)
    assert v.kind == "NonzeroWitness"
    before = [format_chain(z) for z in generating_cycles(G(group), n)]
    v.witness.terms.clear()
    v.witness.terms[(0,) * len(G(group))] = 7
    assert [format_chain(z) for z in generating_cycles(G(group), n)] == before


def _untwisted_cover_family() -> list[tuple[GroupSpec, int]]:
    """Z^r (r <= 3) times 1-4 factors from {Z_2, Z_3, Z_4, Z_6, Z_8, Z_9},
    in degrees 2..6: a family beyond the covered grid."""
    cells = []
    for r in range(4):
        for k in range(1, 5):
            for orders in itertools.combinations_with_replacement((2, 3, 4, 6, 8, 9), k):
                g = GroupSpec((CyclicFactor(0),) * r + tuple(CyclicFactor(q) for q in orders))
                cells += [(g, n) for n in range(2, 7)]
    return cells


def _twisted_cover_family() -> list[tuple[GroupSpec, int]]:
    """1-3 factors from a pool of slot kinds, at least one of them twisted,
    in degrees 2..6: every cell is covered by the twisted-action case."""
    kinds = ("Z", "Z~", "Z_2", "Z_2~", "Z_3", "Z_4", "Z_4~", "Z_6", "Z_6~", "Z_8~", "Z_9")
    cells = []
    for k in range(1, 4):
        for combo in itertools.combinations_with_replacement(kinds, k):
            g = G(" x ".join(combo))
            if g.twisted:
                cells += [(g, n) for n in range(2, 7)]
    return cells


def test_coverage_implies_vanishing_beyond_the_grid():
    for family, size, covered in ((_untwisted_cover_family(), 4180, 297),
                                  (_twisted_cover_family(), 1400, 1400)):
        assert len(family) == size
        cells = [(g, n) for g, n in family if theorem_cover(g, n).covered]
        assert len(cells) == covered
        assert [(str(g), n) for g, n in cells if not vanishes_for_all(g, n).vanishes] == []


# Each cyclic group next to its coprime split, the twist kept on the 2-part.
COPRIME_SPLITS = [("Z_6", "Z_2 x Z_3"), ("Z_12~", "Z_4~ x Z_3"), ("Z_10", "Z_2 x Z_5"),
                  ("Z_6~", "Z_2~ x Z_3"), ("Z_18", "Z_2 x Z_9"), ("Z_12", "Z_4 x Z_3"),
                  ("Z_15", "Z_3 x Z_5")]


def test_verdict_is_invariant_under_coprime_splits():
    seen = 0
    for whole, split in COPRIME_SPLITS:
        for r in range(3):
            free = "Z^%d x " % r if r else ""
            g, h = G(free + whole), G(free + split)
            for n in range(2, 8):
                v, w = vanishes_for_all(g, n), vanishes_for_all(h, n)
                assert (v.kind, v.chi_order) == (w.kind, w.chi_order), (str(g), n)
                assert homology_type(g, n) == homology_type(h, n), (str(g), n)
                seen += 1
    assert seen == 126


# Every cell above vanishes.  These split cells have witnesses; chi_order
# is the order of chi at the first witness the ordered pass meets, which
# a split can move (Z^3 x Z_15 and Z^3 x Z_3 x Z_5 in degree 3: 15 and
# 5), so only the kind and the homology type are compared here.
WITNESS_SPLITS = [("Z^3 x Z_6", "Z^3 x Z_2 x Z_3", 3), ("Z^4 x Z_6", "Z^4 x Z_2 x Z_3", 2),
                  ("Z^2 x Z_3 x Z_6", "Z^2 x Z_3 x Z_2 x Z_3", 4),
                  ("Z^3 x Z_15", "Z^3 x Z_3 x Z_5", 3)]


@pytest.mark.parametrize("whole, split, n", WITNESS_SPLITS)
def test_witness_kind_is_invariant_under_coprime_splits(whole, split, n):
    g, h = G(whole), G(split)
    assert vanishes_for_all(g, n).kind == vanishes_for_all(h, n).kind == "NonzeroWitness"
    assert homology_type(g, n) == homology_type(h, n)


def _permuted_cells() -> list[tuple[GroupSpec, int]]:
    """The sharpness cells, and Z^r (r <= 2) times two factors from
    {Z_2, Z_3, Z_4, Z_9} in degrees 2..4."""
    cells = [(G(group), n) for group, n in SHARPNESS_CELLS]
    for r in range(3):
        for orders in itertools.combinations_with_replacement((2, 3, 4, 9), 2):
            g = GroupSpec((CyclicFactor(0),) * r + tuple(CyclicFactor(q) for q in orders))
            cells += [(g, n) for n in range(2, 5)]
    return cells


def test_verdict_is_invariant_under_factor_permutation():
    # The witness may move with the factors, whose order is significant;
    # the verdict kind and the order of chi may not.
    seen = 0
    for g, n in _permuted_cells():
        v = vanishes_for_all(g, n)
        for factors in sorted(set(itertools.permutations(g.factors)), key=repr):
            w = vanishes_for_all(GroupSpec(factors), n)
            assert (w.kind, w.chi_order) == (v.kind, v.chi_order), (str(g), n, factors)
            seen += 1
    assert seen == 532
