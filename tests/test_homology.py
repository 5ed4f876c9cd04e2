"""Homology presentations: closed forms, reduction, and Kunneth checks."""

import random

import pytest

from support import G, PROPERTY_GROUPS, random_chain, random_cycle
from twisthom import (
    AbelianType,
    GroupSpec,
    InfiniteGroupError,
    NotACycleError,
    boundary,
    class_order,
    homology_type,
    kunneth_predict,
    parse_chain,
    reduce_cycle,
    zero_chain,
)
from twisthom.chains import basis, block_key, block_pairing, monomial_chain, product_block_key
from twisthom.homology import (
    _koszul,
    _koszul_columns,
    generating_cycles,
    homology,
    is_boundary,
)
from twisthom.pontryagin import inversion_chain, wedge


@pytest.mark.parametrize(
    "group, expected",
    [
        ("Z_5", ["Z", "Z_5", "0", "Z_5", "0", "Z_5"]),
        ("Z", ["Z", "Z", "0", "0", "0", "0"]),
        ("Z~", ["Z_2", "0", "0", "0", "0", "0"]),
        ("Z_4~", ["Z_2", "0", "Z_2", "0", "Z_2", "0"]),
        ("Z_3 x Z_3", ["Z", "Z_3^2", "Z_3", "Z_3^3", "Z_3^2"]),
        ("1", ["Z", "0", "0", "0"]),
    ],
)
def test_closed_forms(group, expected):
    g = G(group)
    for n, want in enumerate(expected):
        assert str(homology(g, n)) == want


def test_two_torsion_product():
    g = G("Z_2 x Z_2")
    assert str(homology(g, 2)) == "Z_2"
    assert str(homology(g, 3)) == "Z_2^3"


def test_mixed_free_and_torsion():
    assert str(homology(G("Z^3 x Z_3"), 6)) == "Z_3^4"


def test_reduce_scales_with_coefficients():
    g = G("Z^3 x Z_3")
    p = homology(g, 6)
    base = p.reduce(parse_chain(g, "[1 1 1 3]"))
    five = p.reduce(parse_chain(g, "5*[1 1 1 3]"))
    assert five == base + base
    assert five.order() == 3
    assert reduce_cycle(parse_chain(g, "5*[1 1 1 3]")) == five


def test_infinite_order_class():
    g = G("Z x Z")
    c = parse_chain(g, "[0 1]")
    assert class_order(c) == 0
    assert homology(g, 1).reduce(c).order() == 0


def test_classes_enumeration():
    p = homology(G("Z_3"), 3)
    members = list(p.classes())
    assert len(members) == 3
    assert p.zero() in members
    with pytest.raises(InfiniteGroupError):
        list(homology(G("Z x Z"), 1).classes())


@pytest.mark.parametrize("group, n", [("Z_3", 3), ("Z_2 x Z_2", 2), ("Z x Z_4~", 2)])
def test_generator_representative_round_trip(group, n):
    p = homology(G(group), n)
    for i in range(p.num_generators):
        gen = p.generator(i)
        rep = gen.representative()
        assert p.reduce(rep) == gen


def test_reduce_is_additive():
    g = G("Z_3 x Z_3")
    rng = random.Random(11)
    p = homology(g, 3)
    for _ in range(15):
        a = random_cycle(rng, g, 3)
        b = random_cycle(rng, g, 3)
        assert p.reduce(a + b) == p.reduce(a) + p.reduce(b)


def test_reduce_rejects_non_cycles():
    g = G("Z_3")
    c = parse_chain(g, "[4]")
    assert not boundary(c).is_zero
    with pytest.raises(NotACycleError):
        homology(g, 4).reduce(c)
    with pytest.raises(NotACycleError):
        reduce_cycle(c)


def test_reduce_ignores_boundaries():
    g = G("Z_2 x Z_4~")
    rng = random.Random(13)
    p = homology(g, 2)
    for _ in range(10):
        z = random_cycle(rng, g, 2)
        smudge = boundary(random_chain(rng, g, 3))
        assert p.reduce(z + smudge) == p.reduce(z)


def test_kunneth_predict_examples():
    assert str(kunneth_predict(G("Z_2"), G("Z_2"), 2)) == "Z_2"
    assert str(kunneth_predict(G("Z"), G("Z"), 1)) == "Z^2"
    for n in range(6):
        assert kunneth_predict(G("Z_4~"), G("1"), n) == homology_type(G("Z_4~"), n)


@pytest.mark.parametrize("group", PROPERTY_GROUPS)
def test_homology_type_matches_presentation(group):
    g = G(group)
    for n in range(5):
        assert homology_type(g, n) == homology(g, n).abelian_type()


@pytest.mark.parametrize("group", ["Z^2 x Z_3", "Z x Z_2 x Z_4", "Z_3 x Z_3"])
def test_kunneth_for_every_split(group):
    g = G(group)
    for cut in range(len(g.factors) + 1):
        left = GroupSpec(g.factors[:cut])
        right = GroupSpec(g.factors[cut:])
        for n in range(6):
            assert homology(g, n).abelian_type() == kunneth_predict(left, right, n)


def test_coprime_torsion_wedges_vanish():
    from twisthom import wedge

    g = G("Z_2 x Z_3")
    product = wedge(parse_chain(g, "[1 0]"), parse_chain(g, "[0 1]"))
    p = homology(g, 2)
    assert p.is_trivial
    assert p.reduce(product) == p.zero()


def test_generating_cycles_generate():
    g = G("Z_2 x Z_2")
    p = homology(g, 3)
    cycles = generating_cycles(g, 3)
    assert len(cycles) == p.num_generators
    for i, z in enumerate(cycles):
        assert boundary(z).is_zero
        assert p.reduce(z) == p.generator(i)


def test_presentation_is_deterministic():
    g = G("Z_2 x Z_4~")
    first = [str(homology(g, n)) for n in range(5)]
    homology.cache_clear()
    second = [str(homology(g, n)) for n in range(5)]
    assert first == second
    assert generating_cycles(g, 3) == generating_cycles(g, 3)


@pytest.mark.parametrize("group", ["Z_3", "Z_2 x Z_2", "Z_4~", "Z x Z_3 x Z_3"])
def test_class_order_agrees(group):
    # class_order reduces only the touched blocks; reduce builds the full
    # coordinates.  Both must give the same order.
    g = G(group)
    rng = random.Random(17)
    for n in (1, 2, 3):
        for _ in range(8):
            z = random_cycle(rng, g, n)
            assert class_order(z) == reduce_cycle(z).order()


def test_is_boundary():
    g = G("Z_3 x Z_3")
    c = parse_chain(g, "[1 2] + 2*[2 1]")
    assert is_boundary(boundary(c))
    rep = homology(g, 2).generator(0).representative()
    assert not is_boundary(rep)
    assert is_boundary(zero_chain(g, 2))


def test_abelian_type_algebra():
    a = AbelianType.from_divisors(0, (4,))
    b = AbelianType.from_divisors(0, (6,))
    assert str(a.tensor(b)) == "Z_2"
    assert str(AbelianType.from_divisors(1, (4,)).tor(b)) == "Z_2"
    assert str(AbelianType.from_divisors(1, (2,)) + AbelianType.from_divisors(2, (3,))) == "Z^3 + Z_2 + Z_3"
    assert str(AbelianType.from_divisors(1, (6,))) == "Z + Z_2 + Z_3"
    assert AbelianType.from_divisors(0, ()) == homology_type(G("Z"), 3)


def test_primary_form_and_block_divisors():
    h = homology(G("Z_6"), 1)
    assert str(h) == "Z_2 + Z_3"
    assert h.torsion_divisors == (6,)
    assert h.generator(0).order() == 6
    assert str(homology(G("Z_2 x Z_4 x Z_8 x Z_3 x Z_3"), 10)) == "Z_2^30 + Z_4^5 + Z_3^5"


def test_presentations_are_values():
    # homology() keeps 256 presentations; evicting one and rebuilding it
    # must give classes that still compare equal and still add.
    g = G("Z_3")
    z = parse_chain(g, "[1]")
    first = reduce_cycle(z)
    for k in range(2, 300):
        homology(G("Z_2"), k)
    second = reduce_cycle(z)
    assert second.presentation is not first.presentation
    assert second.presentation == first.presentation
    assert hash(second.presentation) == hash(first.presentation)
    assert second == first
    assert (first + second).order() == 3
    assert first.presentation.representative(second) == second.representative()


BLOCK_GROUPS = PROPERTY_GROUPS + ("Z_6", "Z_6~ x Z_3")


@pytest.mark.parametrize("group", BLOCK_GROUPS)
def test_blocks_are_koszul_complexes(group):
    # The boundary of a monomial stays in its block, and equals the block's
    # Koszul differential under the subset indexing of its raised slots.
    g = G(group)
    for n in range(6):
        for mon in basis(g, n):
            key = block_key(g, mon)
            slots, coeffs = block_pairing(g, key)
            t = n - sum(key)
            subset = tuple(s for s, k in enumerate(slots) if mon[k] != key[k])
            assert len(subset) == t
            assert all(mon[slots[s]] == key[slots[s]] + 1 for s in subset)
            column = _koszul_columns(coeffs, t)[_koszul(coeffs, t).index[subset]]
            lower = _koszul(coeffs, t - 1).subsets if t else ()
            want = {}
            for i, v in column.items():
                target = list(key)
                for s in lower[i]:
                    target[slots[s]] += 1
                want[tuple(target)] = v
            d = boundary(monomial_chain(g, mon)).terms
            assert all(block_key(g, target) == key for target in d)
            assert d == want


@pytest.mark.parametrize("group", BLOCK_GROUPS)
def test_products_land_in_the_predicted_block(group):
    # Every product of two generating cycles lies in the block that
    # product_block_key reads off their keys, and is zero when it says None
    # or when that block's key has degree above the product's.
    g = G(group)
    for n in (1, 2, 3):
        gens = generating_cycles(g, n)
        keys = [block_key(g, next(iter(z.terms))) for z in gens]
        for z, key in zip(gens, keys):
            assert {block_key(g, mon) for mon in z.terms} == {key}
        for zi, ki in zip(gens, keys):
            for zj, kj in zip(gens, keys):
                product = wedge(zi, inversion_chain(zj))
                target = product_block_key(g, ki, kj)
                if target is None or sum(target) > 2 * n:
                    assert product.is_zero
                else:
                    assert all(block_key(g, mon) == target for mon in product.terms)


def test_product_block_key_rules():
    g = G("Z x Z~ x Z_3 x Z_4~")
    assert product_block_key(g, (1, 0, 1, 2), (0, 0, 1, 0)) == (1, 0, 3, 2)
    assert product_block_key(g, (1, 0, 0, 2), (0, 0, 1, 2)) == (1, 0, 1, 4)
    assert product_block_key(g, (1, 0, 1, 0), (1, 0, 0, 0)) is None
    assert product_block_key(g, (0, 0, 1, 0), (0, 0, 1, 0)) == (0, 0, 3, 0)


def test_cycle_check_in_an_exact_block():
    # Block (1, 1) of Z_2 x Z_3 is K(2, 3): exact, so it has no homology,
    # but a chain in it is still checked as a cycle.
    g = G("Z_2 x Z_3")
    assert _koszul((2, -3), 1).core.generators == ()
    with pytest.raises(NotACycleError):
        reduce_cycle(parse_chain(g, "[2 1]"))
    assert not is_boundary(parse_chain(g, "[2 1]"))
    assert is_boundary(boundary(parse_chain(g, "[2 2]")))


@pytest.mark.parametrize(
    "group, degrees",
    [("Z_4 x Z_9 x Z_8 x Z_6 x Z_6", range(9)), ("Z_2 x Z_2 x Z_2 x Z_2 x Z_2 x Z_2", (12,))],
    ids=["mixed-prime-to-8", "Z_2^6-at-12"],
)
def test_large_presentations_match_homology_type(group, degrees):
    g = G(group)
    for n in degrees:
        assert homology(g, n).abelian_type() == homology_type(g, n)
