"""Group grammar: parsing, formatting, validation, round trips."""

import pickle

import pytest
from hypothesis import given

from support import G, group_strategy
from twisthom import (
    CyclicFactor,
    GroupSpec,
    GroupSpecError,
    GroupSyntaxError,
    InvalidOrderError,
    InvalidSignError,
    format_group_spec,
    parse_group_spec,
)
from twisthom.homology import homology


@pytest.mark.parametrize(
    "text, orders, signs",
    [
        ("Z", (0,), (1,)),
        ("Z~", (0,), (-1,)),
        ("Z^3", (0, 0, 0), (1, 1, 1)),
        ("Z^2~", (0, 0), (-1, -1)),
        ("Z_4", (4,), (1,)),
        ("Z_4~", (4,), (-1,)),
        ("Z_12~", (12,), (-1,)),
        ("1", (), ()),
        ("Z^2 x Z_3 x Z_3", (0, 0, 3, 3), (1, 1, 1, 1)),
        ("Z x Z_2~ x Z~", (0, 2, 0), (1, -1, -1)),
    ],
)
def test_parse_examples(text, orders, signs):
    g = parse_group_spec(text)
    assert g.orders == orders
    assert g.signs == signs


def test_whitespace_is_insignificant():
    assert parse_group_spec("Z^2xZ_3 x Z_3") == parse_group_spec("Z^2 x Z_3 x Z_3")
    assert format_group_spec(parse_group_spec("Z^2xZ_3 x Z_3")) == "Z x Z x Z_3 x Z_3"


@pytest.mark.parametrize(
    "text, shown",
    [
        ("1", "1"),
        ("Z", "Z"),
        ("Z^4", "Z x Z x Z x Z"),
        ("Z~ x Z_2", "Z~ x Z_2"),
        ("Z_4~x Z", "Z_4~ x Z"),
    ],
)
def test_format_examples(text, shown):
    assert format_group_spec(parse_group_spec(text)) == shown
    assert str(parse_group_spec(text)) == shown


@pytest.mark.parametrize(
    "text", ["", "  ", "foo", "Z_", "Z^", "Z__3", "Z x", "x Z", "Z_3_4", "Z**2", "Z_3 + Z_2"]
)
def test_syntax_errors(text):
    with pytest.raises(GroupSyntaxError):
        parse_group_spec(text)


@pytest.mark.parametrize("text", ["Z_1", "Z_0", "Z^0"])
def test_order_errors(text):
    with pytest.raises(InvalidOrderError):
        parse_group_spec(text)


@pytest.mark.parametrize("text", ["Z_3~", "Z_9~", "Z x Z_7~"])
def test_sign_errors(text):
    with pytest.raises(InvalidSignError):
        parse_group_spec(text)


def test_error_hierarchy():
    for exc in (GroupSyntaxError, InvalidOrderError, InvalidSignError):
        assert issubclass(exc, GroupSpecError)
        assert issubclass(exc, ValueError)


def test_factor_validation_direct():
    with pytest.raises(InvalidOrderError):
        CyclicFactor(1)
    with pytest.raises(InvalidOrderError):
        CyclicFactor(-2)
    with pytest.raises(InvalidSignError):
        CyclicFactor(2, 0)
    with pytest.raises(InvalidSignError):
        CyclicFactor(3, -1)
    assert CyclicFactor(0, -1).twisted
    assert not CyclicFactor(4).twisted


def test_group_order_and_flags():
    assert G("Z_2 x Z_3").group_order == 6
    assert G("Z_2 x Z_3").is_finite
    assert G("Z x Z_2").group_order == 0
    assert not G("Z x Z_2").is_finite
    assert G("1").group_order == 1
    assert G("1").is_finite
    assert G("Z~ x Z_2").twisted
    assert not G("Z x Z_2").twisted
    assert len(G("Z^3 x Z_3")) == 4


def test_factor_order_is_preserved():
    assert G("Z_2 x Z") != G("Z x Z_2")
    assert G("Z_2 x Z").orders == (2, 0)


@given(group_strategy(max_factors=4))
def test_round_trip(group: GroupSpec):
    assert parse_group_spec(format_group_spec(group)) == group


@given(group_strategy(max_factors=4))
def test_group_spec_is_hashable_and_consistent(group: GroupSpec):
    again = GroupSpec(tuple(group.factors))
    assert hash(group) == hash(again)
    assert group == again
    if group.is_finite:
        expected = 1
        for f in group.factors:
            expected *= f.order
        assert group.group_order == expected
    else:
        assert group.group_order == 0


def test_group_specs_are_values():
    a = parse_group_spec("Z^2 x Z_4~")
    b = GroupSpec((CyclicFactor(0), CyclicFactor(0), CyclicFactor(4, -1)))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert homology(a, 3) is homology(b, 3)
    for g in (a, b):
        back = pickle.loads(pickle.dumps(g))
        assert back == a and hash(back) == hash(a)
        assert (back.orders, back.signs) == ((0, 0, 4), (1, 1, -1))
        assert homology(back, 3) is homology(a, 3)
    assert a != parse_group_spec("Z^2 x Z_4")
    assert a != parse_group_spec("Z x Z_4~ x Z")
    assert a != a.factors
