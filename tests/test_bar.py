"""Bar resolution oracle: boundary, shuffles, inversion, and profiles."""

import random

import pytest

from support import G
from twisthom import CapExceededError, InfiniteGroupError, bar, homology_type
from twisthom.bar import (
    bar_boundary,
    bar_chain,
    bar_homology,
    bar_inversion,
    chi_profile,
    elements,
    omega_of,
    shuffle_product,
)
from twisthom.bar import _window


def test_elements_enumeration():
    assert elements(G("Z_2")) == [(0,), (1,)]
    assert elements(G("Z_2 x Z_3")) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]


def test_omega_values():
    gt = G("Z_2~")
    assert omega_of(gt, (0,)) == 1
    assert omega_of(gt, (1,)) == -1
    g = G("Z_4")
    assert all(omega_of(g, e) == 1 for e in elements(g))
    mixed = G("Z_2~ x Z_2")
    for a, b in elements(mixed):
        assert omega_of(mixed, (a, b)) == (-1) ** a


def test_bar_chain_length_validation():
    with pytest.raises(ValueError):
        bar_chain(G("Z_3"), 2, {((1,),): 1})


def test_bar_boundary_examples():
    v = (1,)
    c = bar_chain(G("Z_2"), 2, {(v, v): 1})
    assert bar_boundary(c).terms == {((1,),): 2, ((0,),): -1}
    ct = bar_chain(G("Z_2~"), 2, {(v, v): 1})
    assert bar_boundary(ct).terms == {((0,),): -1}


def _random_bar_chain(rng, group, degree, max_terms=4):
    els = elements(group)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(rng.choice(els) for _ in range(degree))
        terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
    return bar_chain(group, degree, {k: v for k, v in terms.items() if v})


@pytest.mark.parametrize("group", ["Z_3", "Z_2~ x Z_2", "Z_4~"])
def test_bar_boundary_squares_to_zero(group):
    g = G(group)
    rng = random.Random(43)
    for degree in (2, 3):
        for _ in range(20):
            c = _random_bar_chain(rng, g, degree)
            assert bar_boundary(bar_boundary(c)).is_zero


def test_bar_homology_values():
    assert str(bar_homology(G("Z_2~"), 0)) == "Z_2"
    assert str(bar_homology(G("Z_2"), 1)) == "Z_2"
    assert str(bar_homology(G("Z_2"), 2)) == "0"
    assert str(bar_homology(G("Z_3"), 3)) == "Z_3"


@pytest.mark.parametrize("group", ["Z_2", "Z_3", "Z_2~", "Z_4~", "Z_2 x Z_2"])
def test_bar_agrees_with_small_resolution(group):
    g = G(group)
    for n in range(4):
        assert bar_homology(g, n) == homology_type(g, n)


def test_shuffle_unit():
    g = G("Z_3")
    unit = bar_chain(g, 0, {(): 1})
    a = bar_chain(g, 1, {((1,),): 1})
    assert shuffle_product(unit, a) == a
    assert shuffle_product(a, unit) == a


def test_shuffle_degree_one_signs():
    g = G("Z_3")
    a = bar_chain(g, 1, {((1,),): 1})
    b = bar_chain(g, 1, {((2,),): 1})
    assert shuffle_product(a, b).terms == {((1,), (2,)): 1, ((2,), (1,)): -1}


@pytest.mark.parametrize("group", ["Z_3", "Z_2~ x Z_2"])
def test_shuffle_leibniz(group):
    g = G(group)
    rng = random.Random(47)
    for _ in range(15):
        a = _random_bar_chain(rng, g, rng.choice((1, 2)))
        b = _random_bar_chain(rng, g, rng.choice((1, 2)))
        sign = -1 if a.degree % 2 else 1
        lhs = bar_boundary(shuffle_product(a, b))
        rhs = shuffle_product(bar_boundary(a), b) + sign * shuffle_product(
            a, bar_boundary(b)
        )
        assert lhs == rhs


@pytest.mark.parametrize("group", ["Z_3", "Z_2~ x Z_2"])
def test_shuffle_anticommutativity(group):
    g = G(group)
    rng = random.Random(53)
    for _ in range(15):
        a = _random_bar_chain(rng, g, rng.choice((1, 2)))
        b = _random_bar_chain(rng, g, rng.choice((1, 2)))
        sign = -1 if (a.degree * b.degree) % 2 else 1
        assert shuffle_product(a, b) == sign * shuffle_product(b, a)


def test_bar_inversion_entries():
    g = G("Z_3")
    a = bar_chain(g, 1, {((1,),): 1})
    assert bar_inversion(a).terms == {((2,),): 1}
    pair = bar_chain(g, 2, {((1,), (2,)): 1})
    assert bar_inversion(pair).terms == {((2,), (1,)): 1}


@pytest.mark.parametrize("group", ["Z_3", "Z_2~ x Z_2", "Z_4~"])
def test_bar_inversion_is_an_involutive_chain_map(group):
    g = G(group)
    rng = random.Random(59)
    for _ in range(15):
        c = _random_bar_chain(rng, g, rng.choice((1, 2, 3)))
        assert bar_inversion(bar_inversion(c)) == c
        assert bar_boundary(bar_inversion(c)) == bar_inversion(bar_boundary(c))


def test_chi_profile_sources_agree():
    g = G("Z_3")
    assert chi_profile("small", g, 3) == ((1, 1), (3, 1), (3, 1))
    assert chi_profile("bar", g, 3) == ((1, 1), (3, 1), (3, 1))
    gt = G("Z_4~")
    assert chi_profile("small", gt, 2) == chi_profile("bar", gt, 2) == ((1, 1), (2, 1))


def test_chi_profile_trivial_group():
    assert chi_profile("small", G("1"), 1) == ((1, 1),)
    assert chi_profile("small", G("1"), 4) == ((1, 1),)


def test_chi_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        chi_profile("nope", G("Z_3"), 1)
    with pytest.raises(InfiniteGroupError):
        chi_profile("bar", G("Z_3"), 0)


def test_caps():
    with pytest.raises(CapExceededError):
        bar_homology(G("Z_3 x Z_3"), 4, cap=20000)
    with pytest.raises(CapExceededError):
        chi_profile("bar", G("Z_3"), 3, cap=100)


def test_window_cache_is_bounded():
    bar._WINDOWS.clear()
    cells = [(G(f"Z_{q}"), n) for q in range(2, 36) for n in (0, 1)]
    assert len(cells) > bar._MAX_WINDOWS
    first = [bar_homology(g, n) for g, n in cells[:4]]
    for g, n in cells:
        bar_homology(g, n)
        assert len(bar._WINDOWS) <= bar._MAX_WINDOWS
    assert all((g, n) not in bar._WINDOWS for g, n in cells[:4])
    assert [bar_homology(g, n) for g, n in cells[:4]] == first
    assert first == [homology_type(g, n) for g, n in cells[:4]]


def test_infinite_groups_rejected():
    with pytest.raises(InfiniteGroupError):
        bar_homology(G("Z"), 1)
    with pytest.raises(InfiniteGroupError):
        chi_profile("bar", G("Z x Z_2"), 1)


@pytest.mark.parametrize("group, n", [("Z_3", 3), ("Z_2 x Z_2", 1), ("Z_4~", 2)])
def test_window_lift_round_trip(group, n):
    g = G(group)
    w = _window(g, n, 20000)
    identity = tuple(0 for _ in g.factors)
    torsion = w.pres.torsion
    assert w.pres.free_rank == 0
    for j, divisor in enumerate(torsion):
        coords = tuple(1 if i == j else 0 for i in range(len(torsion)))
        z = w.lift((), coords)
        assert all(identity not in key for key in z.terms)
        assert w.class_coords(z) == ((), coords)
        assert w.order_of(z) == divisor
        residue = bar_boundary(z)
        assert all(identity in key for key in residue.terms)


@pytest.mark.parametrize("group, degrees", [("Z_3", (1, 2, 3)), ("Z_2 x Z_2", (1, 2)), ("Z_4~", (1, 2))])
def test_profile_orders_divide_group_order(group, degrees):
    g = G(group)
    size = g.group_order
    for n in degrees:
        for order, chi_order in chi_profile("bar", g, n):
            assert order >= 1 and size % order == 0
            assert chi_order >= 1 and size % chi_order == 0
