"""Vanishing criterion: chi classes, theorem coverage, verdict prose."""

import random

import pytest

from support import (
    SHARPNESS_CELLS,
    G,
    criterion_grid,
    random_chain,
    random_cycle,
    reference_vanishing,
)
from twisthom import (
    Chain,
    DegreeTooSmallError,
    Verdict,
    boundary,
    chi_chain,
    chi_square,
    format_chain,
    interpret,
    inversion_chain,
    j_star,
    parse_chain,
    reduce_cycle,
    scan,
    theorem_cover,
    vanishes_for_all,
    wedge,
)
from twisthom.homology import homology


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
    assert v.failing_pair == (0, 5)
    assert v.failing_block == (1, 1, 1, 1)
    assert v == Verdict(v.kind, v.group, v.degree, witness=v.witness,
                        chi_chain=v.chi_chain, chi_order=v.chi_order)
    for text, n in (("Z_3 x Z_3", 3), ("Z^2 x Z_2 x Z_2", 3), ("Z_3", 1)):
        v = vanishes_for_all(G(text), n)
        m = v.generators
        assert v.vanishes and v.failing_pair is None and v.failing_block is None
        assert v.pairs_formed + v.skipped_free + v.skipped_degree == m * (m + 1) // 2
    assert vanishes_for_all(G("Z_3"), 1).skipped_degree == 1


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
