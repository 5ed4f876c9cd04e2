"""Wedge product and inversion: closed forms, signs, algebra laws."""

import random

import pytest
from hypothesis import given, settings

from support import (
    G,
    PROPERTY_GROUPS,
    group_degree_chain,
    mixed_slot_family,
    random_chain,
    random_cycle,
    reference_atomic_wedge,
    reference_power_inversion,
    reference_wedge,
    twisted_cells,
)
from twisthom import (
    GroupMismatchError,
    boundary,
    inversion_chain,
    monomial_chain,
    parse_chain,
    reduce_cycle,
    wedge,
    zero_chain,
)
from twisthom.chains import basis
from twisthom.criterion import NONZERO_WITNESS, chi_chain, vanishes_for_all
from twisthom.homology import generating_cycles, homology, is_boundary
from twisthom.pontryagin import _record


def test_atomic_wedge_one_finite_factor():
    g = G("Z_3")
    m = lambda i: monomial_chain(g, (i,))
    assert wedge(m(2), m(2)) == parse_chain(g, "2*[4]")
    assert wedge(m(2), m(4)) == parse_chain(g, "3*[6]")
    assert wedge(m(1), m(2)) == parse_chain(g, "[3]")
    assert wedge(m(2), m(1)) == parse_chain(g, "[3]")
    assert wedge(m(1), m(1)).is_zero
    assert wedge(m(1), m(3)).is_zero
    assert wedge(m(0), m(5)) == m(5)


def test_atomic_wedge_infinite_factor():
    g = G("Z")
    m = lambda i: monomial_chain(g, (i,))
    assert wedge(m(0), m(0)) == m(0)
    assert wedge(m(0), m(1)) == m(1)
    assert wedge(m(1), m(0)) == m(1)
    assert wedge(m(1), m(1)).is_zero


def test_koszul_sign_across_slots():
    g = G("Z_3 x Z_3")
    a = monomial_chain(g, (1, 0))
    b = monomial_chain(g, (0, 1))
    assert wedge(a, b) == parse_chain(g, "[1 1]")
    assert wedge(b, a) == parse_chain(g, "-[1 1]")


def test_recorded_product_value():
    g = G("Z^3 x Z_3")
    a = parse_chain(g, "[1 1 1 0]")
    b = parse_chain(g, "[0 0 0 3]")
    assert wedge(a + b, -1 * a + 4 * b) == parse_chain(g, "5*[1 1 1 3]")


def test_unit_monomial():
    g = G("Z~ x Z_2 x Z_3")
    unit = monomial_chain(g, (0, 0, 0))
    rng = random.Random(7)
    for degree in (0, 1, 2, 3):
        c = random_chain(rng, g, degree)
        assert wedge(unit, c) == c
        assert wedge(c, unit) == c


def test_wedge_group_mismatch():
    with pytest.raises(GroupMismatchError):
        wedge(parse_chain(G("Z_3"), "[1]"), parse_chain(G("Z_2"), "[1]"))


def test_inversion_examples():
    g = G("Z^3 x Z_3")
    a = parse_chain(g, "[1 1 1 0]")
    b = parse_chain(g, "[0 0 0 3]")
    assert inversion_chain(a + b) == -1 * a + b
    assert inversion_chain(monomial_chain(g, (0, 0, 0, 0))) == monomial_chain(
        g, (0, 0, 0, 0)
    )


def test_inversion_fixes_twisted_factors():
    g = G("Z_2~")
    for k in range(5):
        c = monomial_chain(g, (k,))
        assert inversion_chain(c) == c
    gt = G("Z~")
    assert inversion_chain(monomial_chain(gt, (1,))) == monomial_chain(gt, (1,))


def test_inversion_signs_untwisted():
    g = G("Z")
    assert inversion_chain(monomial_chain(g, (1,))) == -1 * monomial_chain(g, (1,))
    z9 = G("Z_9")
    assert inversion_chain(monomial_chain(z9, (1,))) == -1 * monomial_chain(z9, (1,))
    assert inversion_chain(monomial_chain(z9, (2,))) == -1 * monomial_chain(z9, (2,))
    assert inversion_chain(monomial_chain(z9, (3,))) == monomial_chain(z9, (3,))


def test_inversion_of_zero():
    assert inversion_chain(zero_chain(G("Z_3"), 2)).is_zero


@settings(max_examples=120)
@given(group_degree_chain(degrees=(1, 2, 3)))
def test_inversion_is_a_chain_map(data):
    _, _, c = data
    assert boundary(inversion_chain(c)) == inversion_chain(boundary(c))


@settings(max_examples=120)
@given(group_degree_chain(degrees=(1, 2, 3)))
def test_inversion_is_linear(data):
    group, degree, c = data
    assert inversion_chain(2 * c) == 2 * inversion_chain(c)
    assert inversion_chain(c + c) == inversion_chain(c) + inversion_chain(c)


def _pairs(rng, group, degrees, count):
    for _ in range(count):
        p = rng.choice(degrees)
        q = rng.choice(degrees)
        yield random_chain(rng, group, p), random_chain(rng, group, q)


@pytest.mark.parametrize("group", PROPERTY_GROUPS)
def test_leibniz(group):
    g = G(group)
    rng = random.Random(101)
    for a, b in _pairs(rng, g, (1, 2, 3), 40):
        sign = -1 if a.degree % 2 else 1
        lhs = boundary(wedge(a, b))
        rhs = wedge(boundary(a), b) + sign * wedge(a, boundary(b))
        assert lhs == rhs


@pytest.mark.parametrize("group", PROPERTY_GROUPS)
def test_graded_anticommutativity(group):
    g = G(group)
    rng = random.Random(202)
    for a, b in _pairs(rng, g, (1, 2, 3), 40):
        sign = -1 if (a.degree * b.degree) % 2 else 1
        assert wedge(a, b) == sign * wedge(b, a)


@pytest.mark.parametrize("group", PROPERTY_GROUPS)
def test_odd_chains_square_to_zero(group):
    g = G(group)
    rng = random.Random(303)
    for degree in (1, 3):
        for _ in range(30):
            c = random_chain(rng, g, degree)
            assert wedge(c, c).is_zero


@pytest.mark.parametrize("group", PROPERTY_GROUPS)
def test_even_squares_are_even(group):
    g = G(group)
    rng = random.Random(404)
    for degree in (2, 4):
        for _ in range(30):
            c = random_chain(rng, g, degree)
            square = wedge(c, c)
            assert all(v % 2 == 0 for v in square.terms.values())


@pytest.mark.parametrize("group", PROPERTY_GROUPS)
def test_boundary_squares_halve_to_boundaries(group):
    g = G(group)
    rng = random.Random(505)
    for degree in (1, 3):
        for _ in range(15):
            c = random_chain(rng, g, degree)
            square = wedge(boundary(c), boundary(c))
            assert all(v % 2 == 0 for v in square.terms.values())
            half = type(square)(
                square.group, square.degree, {m: v // 2 for m, v in square.terms.items()}
            )
            assert is_boundary(half)


@pytest.mark.parametrize("group", PROPERTY_GROUPS)
def test_associativity(group):
    g = G(group)
    rng = random.Random(606)
    for _ in range(25):
        a = random_chain(rng, g, rng.choice((1, 2)))
        b = random_chain(rng, g, rng.choice((1, 2)))
        c = random_chain(rng, g, rng.choice((1, 2)))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@pytest.mark.parametrize("group", ["Z_3", "Z_4~", "Z_2 x Z_4~", "Z x Z_3 x Z_3"])
def test_inversion_is_an_algebra_map_on_homology(group):
    g = G(group)
    rng = random.Random(707)
    for _ in range(12):
        a = random_cycle(rng, g, rng.choice((1, 2)))
        b = random_cycle(rng, g, rng.choice((1, 2)))
        lhs = reduce_cycle(inversion_chain(wedge(a, b)))
        rhs = reduce_cycle(wedge(inversion_chain(a), inversion_chain(b)))
        assert lhs == rhs


def test_wedge_bilinearity():
    g = G("Z_2 x Z_3")
    rng = random.Random(808)
    for _ in range(25):
        a = random_chain(rng, g, 1)
        b = random_chain(rng, g, 1)
        c = random_chain(rng, g, 2)
        assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)
        assert wedge(c, a + b) == wedge(c, a) + wedge(c, b)
        assert wedge(3 * a, c) == 3 * wedge(a, c)


def _product_groups():
    """PROPERTY_GROUPS, then the groups of the twisted and mixed-slot cells."""
    groups = dict.fromkeys(map(G, PROPERTY_GROUPS))
    for g, _ in twisted_cells() + mixed_slot_family():
        groups.setdefault(g, None)
    return list(groups)


def test_wedge_matches_the_reference_product():
    """The mask kernel gives the slot loop's terms in the slot loop's
    order, cancelled terms included: z ^ z for an odd z = x + w holds the
    cross terms x ^ w and w ^ x, which cancel."""
    rng = random.Random(909)
    cancelled = 0
    for g in _product_groups():
        for _ in range(4):
            p, q = rng.randrange(5), rng.randrange(5)
            x, y, w = (random_chain(rng, g, d, max_terms=4) for d in (p, q, p))
            z = x + w
            for a, b in ((x, y), (y, x), (z, z)):
                assert list(wedge(a, b).terms.items()) == list(reference_wedge(a, b).terms.items())
            cancelled += p % 2 == 1 and not reference_wedge(x, w).is_zero
    assert cancelled > 100


def test_inversion_multiplier_is_multiplicative_on_nonzero_products():
    """mu(a + b) = mu(a) mu(b) for every pair of basis monomials of degree
    at most 3 whose product is nonzero, the identity the vanishing pass
    weights its symmetrized pairs by."""
    checked = 0
    for g in _product_groups():
        mons = {m: _record(g, m)[3] for d in range(4) for m in basis(g, d)}
        for a, mu_a in mons.items():
            for b, mu_b in mons.items():
                if all(map(reference_atomic_wedge, g.orders, a, b)):
                    ab = tuple(i + k for i, k in zip(a, b))
                    assert _record(g, ab)[3] == mu_a * mu_b
                    checked += 1
    assert checked > 100_000


def test_j_is_an_involution_on_chains():
    # The sign lift squares to the identity on chains, not only on
    # homology: the power lift gave j(j([1])) = 4*[1] over Z_3.
    rng = random.Random(1010)
    checked = 0
    for g in _product_groups():
        for n in range(6):
            for c in [random_chain(rng, g, n, max_terms=4), *generating_cycles(g, n)]:
                assert inversion_chain(inversion_chain(c)) == c
                checked += not c.is_zero
    assert checked > 16_000


def test_j_agrees_with_the_power_lift_on_homology():
    # Both lifts cover g -> -g, so they are chain homotopic and send each
    # generating cycle to one class.
    checked = moved = 0
    for g in _product_groups():
        for n in range(6):
            h = homology(g, n)
            for z in generating_cycles(g, n):
                jz = h.reduce(inversion_chain(z))
                assert jz == h.reduce(reference_power_inversion(z))
                checked += 1
                moved += jz != h.reduce(z)
    assert checked > 14_000 and moved > 4_000


def test_j_gives_each_witness_the_chi_class_of_the_power_lift():
    # PROPERTY_GROUPS in degrees 2..5, then the twisted and mixed-slot cells.
    cells = [(G(text), n) for text in PROPERTY_GROUPS for n in range(2, 6)]
    witnesses = 0
    for g, n in dict.fromkeys(cells + twisted_cells() + mixed_slot_family()):
        v = vanishes_for_all(g, n)
        if v.kind == NONZERO_WITNESS:
            w = v.witness
            assert v.chi_chain == chi_chain(w)
            assert is_boundary(v.chi_chain - wedge(w, reference_power_inversion(w)))
            witnesses += 1
    assert witnesses > 500
