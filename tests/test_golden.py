"""Recorded examples: every stored chi class recomputes on the nose."""

import dataclasses

import pytest

from twisthom import GOLDEN, example_ids, parse_chain, parse_group_spec, reduce_cycle, run_all
from twisthom.golden import run_example


def test_all_examples_pass():
    results = run_all()
    assert len(results) == 10
    for r in results:
        assert r.ok, f"{r.example.ident}: {r.detail}"
        assert r.status == "PASS"
        assert r.detail == "class and order as expected"


def test_example_ids_order():
    assert example_ids() == [ex.ident for ex in GOLDEN]
    assert example_ids()[0] == "ex:cond_a"
    assert len(set(example_ids())) == 10


def test_single_example_selection():
    results = run_all("ex:cond_c")
    assert len(results) == 1
    assert results[0].example.ident == "ex:cond_c"
    assert results[0].ok


def test_unknown_example_rejected():
    with pytest.raises(KeyError):
        run_all("nope")


def test_sign_tolerance_is_rare():
    flagged = {ex.ident for ex in GOLDEN if ex.up_to_sign}
    assert flagged == {"ex:cond_a", "ex:cond_d_1_even"}


@pytest.mark.parametrize("ex", GOLDEN, ids=lambda ex: ex.ident)
def test_recorded_order_matches_recorded_class(ex):
    group = parse_group_spec(ex.group_text)
    recorded = reduce_cycle(parse_chain(group, ex.chi_text))
    assert recorded.order() == ex.order


@pytest.mark.parametrize("ex", GOLDEN, ids=lambda ex: ex.ident)
def test_recorded_cycles_are_cycles(ex):
    from twisthom import is_cycle

    group = parse_group_spec(ex.group_text)
    assert is_cycle(parse_chain(group, ex.cycle_text))


def test_a_doctored_example_reports_each_mismatch():
    ex = GOLDEN[1]  # ex:cond_b: chi is 2*[1 1 1 3], of order 3
    wrong_class = run_example(dataclasses.replace(ex, chi_text="[1 1 1 3]", order=9))
    assert not wrong_class.ok and wrong_class.status == "FAIL"
    assert wrong_class.computed == "(0 mod 3, 0 mod 3, 0 mod 3, 1 mod 3)"
    assert wrong_class.computed_order == 3
    assert wrong_class.detail == ("class mismatch: got (0 mod 3, 0 mod 3, 0 mod 3, 1 mod 3), "
                                  "want (0 mod 3, 0 mod 3, 0 mod 3, 2 mod 3); "
                                  "order mismatch: got 3, want 9")
    signed = run_example(dataclasses.replace(GOLDEN[0], chi_text="[1 1 1 1]"))
    assert signed.detail == "class mismatch: got (2), want (1) up to sign"
    with pytest.raises(ValueError, match="cycle literal has degree 3, table says 4"):
        run_example(dataclasses.replace(ex, degree=4))
