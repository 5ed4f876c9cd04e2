"""Homology presentations: closed forms, reduction, and Kunneth checks."""

import hashlib
import importlib.util
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

from support import (
    SHARPNESS_CELLS,
    G,
    PROPERTY_GROUPS,
    grid_groups,
    mixed_slot_family,
    random_chain,
    random_cycle,
    reference_layout,
    twisted_cells,
)
from twisthom import (
    AbelianType,
    Chain,
    CyclicFactor,
    DegreeMismatchError,
    GroupSpec,
    InfiniteGroupError,
    InvalidMonomialError,
    NotACycleError,
    boundary,
    class_order,
    homology_type,
    kunneth_predict,
    parse_chain,
    reduce_cycle,
    zero_chain,
)
from twisthom.chains import (
    basis,
    block_keys,
    block_pairing,
    block_position,
    format_chain,
    monomial_chain,
    product_block_key,
)
from twisthom.homology import (
    HomologyClass,
    _koszul,
    block_order,
    generating_cycles,
    homology,
    is_boundary,
)
from twisthom.pontryagin import inversion_chain, wedge

ROOT = Path(__file__).resolve().parents[1]


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


def test_homology_classes_refuse_non_integers():
    h = homology(G("Z_3"), 1)
    with pytest.raises(TypeError):
        HomologyClass(h, (), (0.5,))
    with pytest.raises(TypeError):
        0.5 * h.generator(0)
    assert 2 * h.generator(0) == h.generator(0) + h.generator(0)


def test_homology_classes_are_values_whatever_sequence_holds_the_coordinates():
    # free was kept as given: HomologyClass(h, [1], [1]) differed from
    # HomologyClass(h, (1,), (1,)) and hash() raised TypeError.
    h = homology(G("Z x Z_2"), 1)
    assert (h.free_rank, h.torsion_divisors) == (1, (2,))
    a, b = HomologyClass(h, [1], [3]), HomologyClass(h, (1,), (1,))
    assert a == b and hash(a) == hash(b)
    assert a.free == (1,) and a.torsion == (1,)
    assert len({a, b, h.generator(0) + h.generator(1)}) == 1
    # A bool free coordinate was kept as a bool, printed "(0 mod 2, True)".
    c = HomologyClass(h, (True,), (0,))
    assert type(c.free[0]) is int and str(c) == str(h.reduce(c.representative())) == "(0 mod 2, 1)"


def test_generator_refuses_a_non_integer_index():
    # generator(0.5) used to return the zero class and generator(1.0)
    # generator 1.
    h = homology(G("Z_2 x Z_2"), 1)
    for which in (0.5, 1.0, "1"):
        with pytest.raises(TypeError):
            h.generator(which)
    assert h.generator(True) == h.generator(1)
    with pytest.raises(IndexError):
        h.generator(h.num_generators)


def test_homology_refuses_a_non_integer_degree():
    # homology(Z_2, 1.0) used to return the cached degree-1 presentation,
    # and homology(Z_3, 2.0) a presentation that raised only when read.
    g = G("Z_2")
    h = homology(g, 1)
    for n in (1.0, 1.5, -0.5):
        with pytest.raises(TypeError):
            homology(g, n)
    with pytest.raises(TypeError):
        homology(G("Z_3"), 2.0)
    assert homology(g, 1) is h
    with pytest.raises(TypeError):
        reduce_cycle(Chain(g, 1.0, {(1,): 1}))

def test_homology_type_refuses_a_non_integer_degree():
    # homology_type(Z_2, 1.5) used to answer 0 by the Kunneth route, where
    # reading homology(Z_2, 1.5) raises TypeError.  The degree is checked
    # before the cache is read, so 1.0 is refused even once degree 1 is
    # cached.
    for text in ("Z_2", "Z_3 x Z_4~"):
        g = G(text)
        assert homology_type(g, 1) == homology(g, 1).abelian_type()
        for n in (1.5, 1.0, -0.5):
            with pytest.raises(TypeError):
                homology_type(g, n)
        with pytest.raises(TypeError):
            homology(g, 1.5).abelian_type()
        assert homology_type(g, -1) == AbelianType.zero()
        assert homology_type(g, True) == homology_type(g, 1)


def test_a_bool_degree_is_read_as_its_int():
    # homology(Z_2, True) used to build and cache a second presentation,
    # printed as H_True(Z_2), beside the degree-1 one.
    g = G("Z_2")
    homology.cache_clear()
    homology_type.cache_clear()
    assert homology(g, True) is homology(g, 1)
    assert homology(g, 1).degree == 1 and type(homology(g, True).degree) is int
    assert repr(homology(g, True)) == "<HomologyPresentation H_1(Z_2) = Z_2>"
    assert homology_type(g, True) == homology_type(g, 1)
    assert homology.cache_info().currsize == 1
    assert homology_type.cache_info().currsize == 1
    with pytest.raises(TypeError, match="homology degree must be an integer"):
        homology(g, "1")


def test_block_keys_checks_its_degree():
    g = G("Z_2 x Z")
    for bad in (1.5, "2"):
        with pytest.raises(TypeError, match="homology degree must be an integer"):
            block_keys(g, bad)
    assert block_keys(g, True) == block_keys(g, 1)


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


@pytest.mark.parametrize("group", ["Z_3", "Z_2 x Z_2", "Z_4~", "Z x Z_3 x Z_3",
                                   "Z_4 x Z_6", "Z_12 x Z_18", "Z_6 x Z_10 x Z_15"])
def test_class_order_agrees(group):
    # class_order applies the block rule to the touched blocks; reduce
    # builds the full coordinates.  Both must give the same order.  The
    # last three groups have blocks, such as K(4, -6) and K(6, 10, -15),
    # whose gcd equals none of their coefficients.  Sums and differences of
    # two generating cycles give cycles whose content differs from the
    # gcd of any one coefficient with the block's gcd.
    g = G(group)
    rng = random.Random(17)
    for n in (1, 2, 3):
        cycles = [random_cycle(rng, g, n) for _ in range(8)]
        for a, b in itertools.combinations_with_replacement(generating_cycles(g, n), 2):
            cycles += [a + b, a - b]
        for z in cycles:
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


def test_from_divisors_splits_each_distinct_divisor_once(monkeypatch):
    module = sys.modules["twisthom.homology"]
    calls = []
    split = module._prime_power_split

    def counted(d):
        calls.append(d)
        return split(d)

    monkeypatch.setattr(module, "_prime_power_split", counted)
    divisors = (2, 12, 2, 12, 2)
    t = AbelianType.from_divisors(1, divisors)
    assert sorted(calls) == [2, 12]
    assert t == AbelianType(1, tuple(sorted(p for d in divisors for p in split(d))))
    assert str(t) == "Z + Z_2^3 + Z_4^2 + Z_3^2"


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
    # Koszul differential on the subset of its raised slots, whose entries
    # are keyed by the subsets of the faces' raised slots.
    g = G(group)
    for n in range(6):
        for mon in basis(g, n):
            key, raised = block_position(g, mon)
            slots, coeffs = block_pairing(g, key)
            t = n - sum(key)
            subset = tuple(s for s, k in enumerate(slots) if mon[k] != key[k])
            assert raised == subset and len(subset) == t
            assert all(mon[slots[s]] == key[slots[s]] + 1 for s in subset)
            column = _koszul(coeffs, t).columns[subset]
            want = {}
            for lower, v in column.items():
                target = list(key)
                for s in lower:
                    target[slots[s]] += 1
                want[tuple(target)] = v
            d = boundary(monomial_chain(g, mon)).terms
            assert all(block_position(g, target)[0] == key for target in d)
            assert d == want


@pytest.mark.parametrize("group", BLOCK_GROUPS)
def test_products_land_in_the_predicted_block(group):
    # Every product of two generating cycles lies in the block that
    # product_block_key reads off their keys, and is zero when it says None
    # or when that block's key has degree above the product's.
    g = G(group)
    for n in (1, 2, 3):
        gens = generating_cycles(g, n)
        keys = [block_position(g, next(iter(z.terms)))[0] for z in gens]
        for z, key in zip(gens, keys):
            assert {block_position(g, mon)[0] for mon in z.terms} == {key}
        for zi, ki in zip(gens, keys):
            for zj, kj in zip(gens, keys):
                product = wedge(zi, inversion_chain(zj))
                target = product_block_key(g, ki, kj)
                if target is None or sum(target) > 2 * n:
                    assert product.is_zero
                else:
                    assert all(block_position(g, mon)[0] == target for mon in product.terms)


def test_product_block_key_rules():
    g = G("Z x Z~ x Z_3 x Z_4~")
    assert product_block_key(g, (1, 0, 1, 2), (0, 0, 1, 0)) == (1, 0, 3, 2)
    assert product_block_key(g, (1, 0, 0, 2), (0, 0, 1, 2)) == (1, 0, 1, 4)
    assert product_block_key(g, (1, 0, 1, 0), (1, 0, 0, 0)) is None
    assert product_block_key(g, (0, 0, 1, 0), (0, 0, 1, 0)) == (0, 0, 3, 0)


def test_koszul_shapes_are_closed_form():
    # K(c) = g K(c/g) with c/g primitive, so H_t is (Z_g)^C(m-1, t) when
    # g > 1, zero when g = 1, and Z only for the empty shape.
    values = (2, -2, 3, 4, 6, 9, 10, 12, 15, 18)
    for m in range(4):
        for coeffs in itertools.product(values, repeat=m):
            g = math.gcd(*coeffs)
            for t in range(m + 1):
                kos = _koszul(coeffs, t)
                assert kos.g == g
                assert kos.core.torsion == ((g,) * math.comb(m - 1, t) if g > 1 else ())
                assert kos.core.free_rank == (m == 0)


def test_malformed_chains_are_refused():
    g = G("Z x Z_3")
    outside = Chain(g, 6, {(5, 1): 1})
    short = Chain(g, 7, {(5, 1): 1, (0, 0, 0): 2})
    wrong_degree = Chain(g, 2, {(1, 3): 1})
    for chain, error in ((outside, InvalidMonomialError), (short, InvalidMonomialError),
                         (wrong_degree, DegreeMismatchError)):
        for check in (class_order, is_boundary, reduce_cycle):
            with pytest.raises(error):
                check(chain)
    with pytest.raises(InvalidMonomialError):
        reduce_cycle(Chain(g, 3, {(0, 0, 0): 1}))


def test_cycle_check_in_an_exact_block():
    # Block (1, 1) of Z_2 x Z_3 is K(2, 3): exact, so it has no homology,
    # but a chain in it is still checked as a cycle.
    g = G("Z_2 x Z_3")
    assert _koszul((2, -3), 1).core.generators == ()
    with pytest.raises(NotACycleError):
        reduce_cycle(parse_chain(g, "[2 1]"))
    assert not is_boundary(parse_chain(g, "[2 1]"))
    assert is_boundary(boundary(parse_chain(g, "[2 2]")))


def test_exact_blocks_are_built_once(monkeypatch):
    # An exact block is kept like any other: checking a chain in it a
    # second time builds nothing.
    module = sys.modules["twisthom.homology"]
    calls = []
    pairing = module.block_pairing

    def counted(*args):
        calls.append(args)
        return pairing(*args)

    monkeypatch.setattr(module, "block_pairing", counted)
    z = boundary(parse_chain(G("Z_2 x Z_3"), "[2 2]"))
    assert block_position(z.group, (2, 1))[0] == block_position(z.group, (1, 2))[0] == (1, 1)
    assert is_boundary(z)
    made = len(calls)
    assert is_boundary(z)
    assert len(calls) == made


def _layout_cells() -> list:
    """The grid and sharpness groups in degrees 0..6, the twisted and
    mixed-slot families, the benchmark's large presentations to their top
    degree, the trivial group, and Z_2^8 in degree 12."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    groups = dict.fromkeys(grid_groups() + [G(text) for text, _ in SHARPNESS_CELLS])
    cells = [(g, n) for g in groups for n in range(7)] + twisted_cells() + mixed_slot_family()
    cells += [(G(text), n) for text, top in workloads.HOMOLOGY_GROUPS for n in range(top + 1)]
    cells += [(G("1"), n) for n in range(4)]
    return cells + [(G(" x ".join(["Z_2"] * 8)), 12)]


def test_layout_enumerates_the_basis_walk_in_closed_form():
    for g, n in _layout_cells():
        h = homology(g, n)
        assert list(h._layout.items()) == list(reference_layout(g, n).items()), (g, n)
        for key in h._layout:
            slots, coeffs = block_pairing(g, key)
            assert h._blocks[key] == (slots, _koszul(coeffs, n - sum(key)))
        # The keys left out are the blocks with paired slots of gcd 1.
        walked = dict.fromkeys(block_position(g, mon)[0] for mon in basis(g, n))
        kept = [key for key in walked if math.gcd(*block_pairing(g, key)[1]) != 1]
        assert block_keys(g, n) == [(key, *block_pairing(g, key)) for key in kept], (g, n)


def test_presenting_a_degree_reads_no_basis():
    module = sys.modules["twisthom.homology"]
    assert not hasattr(module, "basis")
    module.homology.cache_clear()
    basis.cache_clear()
    for text, n in (("Z x Z_3 x Z_4~", 5), ("Z~ x Z_2 x Z_4~ x Z_2~ x Z_3", 6),
                    ("Z_2 x Z_2 x Z_2 x Z_2 x Z_2", 8), ("Z^3 x Z_2", 4), ("1", 0)):
        h = module.homology(G(text), n)
        assert h._layout and h.num_generators == len(h._cycles)
        assert [h.reduce(z) for z in h._cycles] == h.generators()
    assert basis.cache_info().currsize == 0


# sha256 of format_chain of every generating cycle over the grid and
# sharpness groups in degrees 0..6; any change to a cycle or to the
# generator order moves it.
CYCLES_DIGEST = "19165a9c708864e12444e5d9e4b71ceda0105171429c306e4bda94e9b182c8ab"


def test_generating_cycles_are_pinned():
    groups = dict.fromkeys(grid_groups() + [G(text) for text, _ in SHARPNESS_CELLS])
    lines = [f"{g} {n} {format_chain(z)}"
             for g in groups for n in range(7) for z in generating_cycles(g, n)]
    assert len(groups) == 245 and len(lines) == 17142
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CYCLES_DIGEST


@pytest.mark.parametrize(
    "group, degrees",
    [("Z_4 x Z_9 x Z_8 x Z_6 x Z_6", range(9)), ("Z_2 x Z_2 x Z_2 x Z_2 x Z_2 x Z_2", (12,))],
    ids=["mixed-prime-to-8", "Z_2^6-at-12"],
)
def test_large_presentations_match_homology_type(group, degrees):
    g = G(group)
    for n in degrees:
        assert homology(g, n).abelian_type() == homology_type(g, n)


def _permutation_groups() -> list[GroupSpec]:
    """The sharpness groups, and Z^r (r <= 2) times two factors from
    {Z_2, Z_3, Z_4~, Z_9}."""
    groups = dict.fromkeys(G(group) for group, _ in SHARPNESS_CELLS)
    factors = [G(text).factors[0] for text in ("Z_2", "Z_3", "Z_4~", "Z_9")]
    for r in range(3):
        for pair in itertools.combinations_with_replacement(factors, 2):
            groups.setdefault(GroupSpec((CyclicFactor(0),) * r + pair), None)
    return list(groups)


def test_homology_type_is_invariant_under_factor_permutation():
    seen = 0
    for g in _permutation_groups():
        types = [homology(g, n).abelian_type() for n in range(5)]
        for factors in sorted(set(itertools.permutations(g.factors)), key=repr):
            permuted = GroupSpec(factors)
            assert [homology(permuted, n).abelian_type() for n in range(5)] == types, factors
            seen += 5
    assert seen == 935


def test_presentation_entry_points_refuse_foreign_inputs():
    g = G("Z_2 x Z_2")
    with pytest.raises(ValueError, match="nonnegative"):
        homology(g, -1)
    h1, h2 = homology(g, 1), homology(g, 2)
    z = generating_cycles(g, 1)[0]
    for chain in (Chain(G("Z_2 x Z_4"), 1, dict(z.terms)), Chain(g, 2, {(1, 1): 1})):
        with pytest.raises(ValueError, match="does not live where"):
            h1.reduce(chain)
    with pytest.raises(ValueError, match="different presentation"):
        h1.representative(h2.generator(0))
    with pytest.raises(ValueError, match="arity"):
        HomologyClass(h1, (), (1,))
    with pytest.raises(ValueError, match="different presentations"):
        h1.generator(0) + h2.generator(0)


def test_class_subtraction_adds_the_negative():
    h = homology(G("Z x Z_6"), 1)
    assert (h.free_rank, h.torsion_divisors) == (1, (6,))
    t, f = h.generators()
    a, b = 3 * f + 5 * t, 7 * f + 4 * t
    assert a - b == a + (-b) == HomologyClass(h, (-4,), (1,))
    assert (a - b) + b == a and (a - a).is_zero


def test_abelian_type_is_zero():
    assert AbelianType.zero().is_zero
    assert homology_type(G("Z_3"), 2).is_zero
    assert not homology_type(G("Z_3"), 1).is_zero
    assert not AbelianType(1, ()).is_zero


def test_block_order_is_the_rule_class_order_applies():
    # Z_4 x Z_6: [1 1] spans degree 0 of K(4, -6), where g = 2; in degree
    # 3, [3 0] spans degree 0 of K(4) and [0 3] of K(6).
    g = G("Z_4 x Z_6")
    assert block_order(2, {0: 1}) == 2 == class_order(parse_chain(g, "[1 1]"))
    assert block_order(2, {0: 6}) == 1 == class_order(parse_chain(g, "6*[1 1]"))
    assert block_order(0, {0: -5}) == 0 == class_order(parse_chain(G("Z"), "-5*[0]"))
    assert block_order(0, {}) == block_order(4, {}) == 1 == class_order(zero_chain(g, 2))
    mixed = parse_chain(g, "[3 0] + 2*[0 3]")
    assert class_order(mixed) == math.lcm(4, block_order(6, {0: 2})) == 12
