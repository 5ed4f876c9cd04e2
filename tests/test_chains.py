"""Chain complex: basis order, the differential, literals, validation."""

import pytest
from hypothesis import assume, given, settings

from support import G, PROPERTY_GROUPS, chain_strategy, group_degree_chain
from twisthom import (
    Chain,
    ChainError,
    ChainSyntaxError,
    DegreeMismatchError,
    GroupMismatchError,
    InvalidMonomialError,
    basis,
    boundary,
    format_chain,
    is_cycle,
    kunneth_predict,
    monomial_chain,
    parse_chain,
    zero_chain,
)


def test_basis_lex_order():
    assert basis(G("Z x Z"), 1) == ((0, 1), (1, 0))
    assert basis(G("Z_3"), 5) == ((5,),)
    assert basis(G("Z_3 x Z_3"), 2) == ((0, 2), (1, 1), (2, 0))


def test_basis_counts():
    assert len(basis(G("Z^4"), 2)) == 6
    assert len(basis(G("Z^4"), 5)) == 0
    assert basis(G("1"), 0) == ((),)
    assert basis(G("1"), 3) == ()
    assert basis(G("Z"), 2) == ()
    assert basis(G("Z"), -1) == ()


def test_basis_respects_infinite_cap():
    for mon in basis(G("Z^2 x Z_3"), 4):
        assert mon[0] <= 1 and mon[1] <= 1
        assert sum(mon) == 4


def test_basis_and_kunneth_refuse_a_degree_that_is_not_an_int_cold_and_warm():
    # basis(g, 1.0) raised a bare TypeError on a cold cache and returned the
    # degree-1 basis once basis(g, 1) was cached; kunneth_predict(g, g, 2.0)
    # failed inside range.  The check now runs before the cache is read.
    g = G("Z_2 x Z_3")
    for warm in (False, True):
        basis.cache_clear()
        if warm:
            basis(g, 1)
        with pytest.raises(TypeError, match="degree must be an integer"):
            basis(g, 1.0)
        assert basis(g, True) == basis(g, 1) == ((0, 1), (1, 0))
        assert basis.cache_info().currsize == 1
    with pytest.raises(TypeError, match="degree must be an integer"):
        kunneth_predict(g, g, 2.0)
    assert kunneth_predict(g, g, True) == kunneth_predict(g, g, 1)


@pytest.mark.parametrize(
    "group, mon",
    [
        ("Z", (2,)),
        ("Z", (-1,)),
        ("Z_3", (1, 1)),
        ("Z_3 x Z_3", (1,)),
    ],
)
def test_monomial_validation(group, mon):
    with pytest.raises(InvalidMonomialError):
        monomial_chain(G(group), mon)


def test_atomic_boundaries():
    assert boundary(monomial_chain(G("Z_3"), (4,))) == parse_chain(G("Z_3"), "3*[3]")
    assert boundary(monomial_chain(G("Z_3"), (3,))).is_zero
    assert boundary(monomial_chain(G("Z~"), (1,))) == parse_chain(G("Z~"), "2*[0]")
    assert boundary(monomial_chain(G("Z"), (1,))).is_zero
    assert boundary(monomial_chain(G("Z_4~"), (1,))) == parse_chain(G("Z_4~"), "2*[0]")
    assert boundary(monomial_chain(G("Z_4~"), (2,))).is_zero


def test_koszul_sign_in_boundary():
    g = G("Z_3 x Z_3")
    assert boundary(monomial_chain(g, (2, 2))) == parse_chain(g, "3*[1 2] + 3*[2 1]")
    assert boundary(monomial_chain(g, (1, 2))) == parse_chain(g, "-3*[1 1]")


def test_degree_zero_boundary_is_zero():
    c = monomial_chain(G("Z_3"), (0,))
    assert boundary(c).is_zero
    assert boundary(c).degree == -1


@pytest.mark.parametrize("group", PROPERTY_GROUPS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_boundary_squared_zero_on_basis(group, n):
    g = G(group)
    for mon in basis(g, n):
        assert boundary(boundary(monomial_chain(g, mon))).is_zero


@settings(max_examples=120)
@given(group_degree_chain(degrees=(1, 2, 3, 4)))
def test_boundary_squared_zero_random(data):
    _, _, chain = data
    assert boundary(boundary(chain)).is_zero


@settings(max_examples=80)
@given(
    chain_strategy(G("Z~ x Z_2 x Z_3"), 3),
    chain_strategy(G("Z~ x Z_2 x Z_3"), 3),
)
def test_boundary_is_linear(a, b):
    assert boundary(a + b) == boundary(a) + boundary(b)
    assert boundary(3 * a) == 3 * boundary(a)
    assert boundary(-a) == -boundary(a)


def test_boundary_deterministic():
    g = G("Z_2 x Z_4~")
    c = parse_chain(g, "[2 1] - 3*[1 2] + [0 3]")
    assert boundary(c) == boundary(c)
    assert basis(g, 3) is basis(g, 3)


def test_chain_arithmetic():
    g = G("Z_3")
    a = parse_chain(g, "[1]")
    b = parse_chain(g, "2*[1]")
    assert a + b == parse_chain(g, "3*[1]")
    assert a - b == parse_chain(g, "-[1]")
    assert 0 * a == zero_chain(g, 1)
    assert (a + b) - (a + b) == zero_chain(g, 1)
    assert is_cycle(a)


def test_scalars_must_be_ints():
    # A float scalar used to give float coefficients, which reduce_cycle
    # then turned into a made-up class such as (0.5 mod 3).
    a = parse_chain(G("Z_3"), "[1]")
    with pytest.raises(TypeError):
        0.5 * a
    assert 2 * a == a + a


def test_mismatch_errors():
    with pytest.raises(GroupMismatchError):
        parse_chain(G("Z_3"), "[1]") + parse_chain(G("Z_2"), "[1]")
    with pytest.raises(DegreeMismatchError):
        parse_chain(G("Z_3"), "[1]") + parse_chain(G("Z_3"), "[2]")


@pytest.mark.parametrize(
    "text, expected_terms",
    [
        ("[1 1 1 3]", {(1, 1, 1, 3): 1}),
        ("2*[1 1 1 3]", {(1, 1, 1, 3): 2}),
        ("-2*[0 0 0 6]", {(0, 0, 0, 6): -2}),
        ("[1 1 0 4] + [0 1 1 4]", {(1, 1, 0, 4): 1, (0, 1, 1, 4): 1}),
        ("[1 1 0 4]-[0 1 1 4]", {(1, 1, 0, 4): 1, (0, 1, 1, 4): -1}),
        ("3*[1 0 0 5] - 2*[1 0 0 5]", {(1, 0, 0, 5): 1}),
        ("[1 0 0 5] - [1 0 0 5]", {}),
    ],
)
def test_parse_chain_examples(text, expected_terms):
    g = G("Z^3 x Z_3")
    assert parse_chain(g, text).terms == expected_terms


def test_parse_empty_group_monomial():
    c = parse_chain(G("1"), "[]")
    assert c.terms == {(): 1}
    assert c.degree == 0


@pytest.mark.parametrize(
    "text",
    ["", "   ", "[1 2", "1 2]", "[a b]", "[1 0] [0 1]", "[1 0]++[0 1]", "2**[1 0]", "junk"],
)
def test_parse_syntax_errors(text):
    with pytest.raises(ChainSyntaxError):
        parse_chain(G("Z_3 x Z_3"), text)


def test_parse_degree_and_slot_errors():
    g = G("Z_3 x Z_3")
    with pytest.raises(DegreeMismatchError):
        parse_chain(g, "[1 0] + [0 2]")
    with pytest.raises(InvalidMonomialError):
        parse_chain(g, "[1 2 3]")
    with pytest.raises(InvalidMonomialError):
        parse_chain(G("Z x Z"), "[2 0]")


def test_format_examples():
    g = G("Z^3 x Z_3")
    assert format_chain(parse_chain(g, "2*[1 1 1 3]")) == "2*[1 1 1 3]"
    assert format_chain(zero_chain(g, 2)) == "0"
    c = Chain(g, 2, {(1, 1, 0, 0): -1, (0, 1, 1, 0): 2})
    assert format_chain(c) == "2*[0 1 1 0] - [1 1 0 0]"
    lead = Chain(g, 2, {(1, 1, 0, 0): -2})
    assert format_chain(lead) == "-2*[1 1 0 0]"


@settings(max_examples=120)
@given(group_degree_chain(degrees=(0, 1, 2, 3)))
def test_parse_format_round_trip(data):
    group, _, chain = data
    assume(not chain.is_zero)
    assert parse_chain(group, format_chain(chain)) == chain

