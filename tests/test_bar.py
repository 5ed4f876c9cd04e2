"""Bar resolution oracle: boundary, shuffles, inversion, and profiles."""

import dataclasses
import hashlib
import itertools
import random

import pytest

from support import ORACLE_GROUPS, PROPERTY_GROUPS, G, random_chain, reference_cancel_units
from twisthom import AbelianType, CapExceededError, InfiniteGroupError, bar, homology_type
from twisthom.bar import (
    BarChain,
    bar_boundary,
    bar_homology,
    bar_inversion,
    chi_profile,
    elements,
    omega_of,
    shuffle_product,
)
from twisthom.bar import _cancel_units, _Complex, _key_boundary
from twisthom.chains import (
    DegreeMismatchError,
    GroupMismatchError,
    boundary,
    monomial_chain,
    parse_chain,
)
from twisthom.pontryagin import wedge


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
        BarChain(G("Z_3"), 2, {((1,),): 1})
    # Each entry is a group element: one exponent e per factor, 0 <= e < order.
    for g, terms in [("Z_3", {((5,),): 1}), ("Z_3", {((1, 2),): 1}), ("Z_3", {((-1,),): 1}),
                     ("Z_3", {((),): 1}), ("Z_2 x Z_3", {((1, 3),): 1}),
                     ("Z_2 x Z_3", {((1,),): 1})]:
        with pytest.raises(ValueError):
            BarChain(G(g), 1, terms)


def test_bar_chain_refuses_keys_and_elements_that_are_not_tuples():
    # BarChain(Z_2, 1, {(1,): 1}) used to fail with a bare TypeError
    # (object of type 'int' has no len()).
    for degree, terms in ((1, {(1,): 1}), (2, {((0,), 1): 1}), (1, {1: 1}), (1, {"a": 1})):
        with pytest.raises(ValueError):
            BarChain(G("Z_2"), degree, terms)
    assert BarChain(G("Z_2"), 1, {((1,),): 1}).terms == {((1,),): 1}


def test_bar_chain_refuses_exponents_that_are_not_ints():
    # ((0.5,),) over Z_2 used to be built, print 1*[0.5] and have boundary
    # 0, because 0 <= 0.5 < 2 holds.  A bool is an int, as in a monomial.
    for e in (0.5, 1.0, "1", None):
        with pytest.raises(ValueError, match="not an element of the group"):
            BarChain(G("Z_2"), 1, {((e,),): 1})
    with pytest.raises(ValueError, match="not an element of the group"):
        BarChain(G("Z_2 x Z_3"), 2, {((1, 2), (0, 2.0)): 1})
    assert BarChain(G("Z_2"), 1, {((True,),): 1}) == BarChain(G("Z_2"), 1, {((1,),): 1})


def test_bar_chain_refuses_coefficients_and_degrees_that_are_not_ints():
    # Both used to be built, though a bar chain is an integer combination
    # of tuples of its degree's length.
    for coef in (0.5, 1.0, "1", None):
        with pytest.raises(ValueError, match="coefficient is not an integer"):
            BarChain(G("Z_2"), 1, {((1,),): coef})
    for degree in (1.0, "1", None):
        with pytest.raises(TypeError, match="degree must be an integer"):
            BarChain(G("Z_2"), degree, {((1,),): 1})
    # A bool is read as its int, in a coefficient and in the degree.
    b = BarChain(G("Z_2"), True, {((1,),): True})
    assert type(b.degree) is int
    assert b == BarChain(G("Z_2"), 1, {((1,),): 1})


def test_bar_chain_scalars_must_be_ints():
    a = BarChain(G("Z_3"), 1, {((1,),): 1})
    with pytest.raises(TypeError):
        0.5 * a
    assert (2 * a).terms == {((1,),): 2}


def test_bar_boundary_examples():
    v = (1,)
    c = BarChain(G("Z_2"), 2, {(v, v): 1})
    assert bar_boundary(c).terms == {((1,),): 2, ((0,),): -1}
    ct = BarChain(G("Z_2~"), 2, {(v, v): 1})
    assert bar_boundary(ct).terms == {((0,),): -1}


def _random_bar_chain(rng, group, degree, max_terms=4):
    els = elements(group)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(rng.choice(els) for _ in range(degree))
        terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
    return BarChain(group, degree, {k: v for k, v in terms.items() if v})


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
    unit = BarChain(g, 0, {(): 1})
    a = BarChain(g, 1, {((1,),): 1})
    assert shuffle_product(unit, a) == a
    assert shuffle_product(a, unit) == a


def test_shuffle_degree_one_signs():
    g = G("Z_3")
    a = BarChain(g, 1, {((1,),): 1})
    b = BarChain(g, 1, {((2,),): 1})
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
    a = BarChain(g, 1, {((1,),): 1})
    assert bar_inversion(a).terms == {((2,),): 1}
    pair = BarChain(g, 2, {((1,), (2,)): 1})
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
    # A negative degree is refused whatever the cached complex holds.
    for text in ("Z_3", "Z_2~"):
        g = G(text)
        for warm in (False, True):
            bar._reduced.cache_clear()
            if warm:
                bar_homology(g, 3)
            for source in ("bar", "small"):
                for n in (-1, -2):
                    with pytest.raises(ValueError, match="homology degree must be nonnegative"):
                        chi_profile(source, g, n)


def test_bar_entry_points_refuse_a_non_integer_degree():
    # bar_homology(Z_3, 1.5) used to build the cached Z_3 complex through
    # degree 3 before failing with a bare list-index TypeError, and
    # chi_profile("bar", Z_2, 1.5) failed the same way.  The degree is now
    # checked before any work, and a bool is read as its int.
    bar._reduced.cache_clear()
    bar_homology(G("Z_2"), 1)
    top = bar._reduced(G("Z_2")).top
    before = bar._reduced.cache_info()
    for n in (1.5, 1.0, "1"):
        for refused in (lambda: bar_homology(G("Z_3"), n),
                        lambda: chi_profile("bar", G("Z_2"), n),
                        lambda: chi_profile("small", G("Z_2"), n)):
            with pytest.raises(TypeError, match="homology degree must be an integer"):
                refused()
        # No complex was even looked up, so none was made or extended.
        assert bar._reduced.cache_info() == before
    assert bar._reduced(G("Z_2")).top == top
    assert bar_homology(G("Z_3"), True) == bar_homology(G("Z_3"), 1)
    for source in ("bar", "small"):
        assert chi_profile(source, G("Z_2"), True) == chi_profile(source, G("Z_2"), 1)


def test_bar_entry_points_refuse_a_cap_that_is_not_an_int():
    # cap="9" used to fail inside the size comparison with "'>' not
    # supported".  The cap is checked before any work, and a bool is
    # read as its int.
    bar._reduced.cache_clear()
    bar_homology(G("Z_2"), 1)
    before = bar._reduced.cache_info()
    for cap in ("9", 9.0, None, 1.5):
        for refused in (lambda: bar_homology(G("Z_3"), 1, cap),
                        lambda: chi_profile("bar", G("Z_2"), 1, cap),
                        lambda: chi_profile("small", G("Z_2"), 1, cap)):
            with pytest.raises(TypeError, match="bar cap must be an integer"):
                refused()
        # No complex was even looked up, so none was made or extended.
        assert bar._reduced.cache_info() == before
    with pytest.raises(CapExceededError, match="cap is 1$"):
        bar_homology(G("Z_2"), 0, True)
    assert bar_homology(G("Z_3"), 2, cap=27) == homology_type(G("Z_3"), 2)


def test_caps():
    with pytest.raises(CapExceededError):
        bar_homology(G("Z_3 x Z_3"), 4, cap=20000)
    with pytest.raises(CapExceededError):
        chi_profile("bar", G("Z_3"), 3, cap=100)


def test_a_refused_call_leaves_the_complexes_unchanged():
    # The cap is checked at the top degree before any extension, so a
    # chi profile refused at degree 2n+1 does not first build Z_3 through
    # n+1 and leave that complex cached.
    bar._reduced.cache_clear()
    with pytest.raises(CapExceededError, match="bar degree 7 needs 2187 basis elements"):
        chi_profile("bar", G("Z_3"), 3, cap=100)
    info = bar._reduced.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    bar_homology(G("Z_3"), 1)
    top = bar._reduced(G("Z_3")).top
    before = bar._reduced.cache_info()
    for refused in (lambda: chi_profile("bar", G("Z_3"), 3, cap=100),
                    lambda: bar_homology(G("Z_3"), 6, cap=100)):
        with pytest.raises(CapExceededError):
            refused()
        # No complex was even looked up, so none was made or extended.
        assert bar._reduced.cache_info() == before
    assert bar._reduced(G("Z_3")).top == top


def test_shuffle_product_refuses_mixed_groups_and_negative_degrees_are_zero():
    a = BarChain(G("Z_2"), 1, {((1,),): 1})
    b = BarChain(G("Z_3"), 1, {((1,),): 1})
    with pytest.raises(ValueError, match="different groups"):
        shuffle_product(a, b)
    assert bar_homology(G("Z_3"), -1) == AbelianType.zero()


def test_window_cache_is_bounded():
    # One reduced complex per group; the bound counts groups.
    bar._reduced.cache_clear()
    cells = [(G(f"Z_{q}"), n) for q in range(2, 36) for n in (0, 1)]
    assert bar._reduced.cache_info().maxsize == 16
    assert len({g for g, _ in cells}) > 16
    first = [bar_homology(g, n) for g, n in cells[:4]]
    for g, n in cells:
        bar_homology(g, n)
        assert bar._reduced.cache_info().currsize <= 16
    misses = bar._reduced.cache_info().misses
    assert [bar_homology(g, n) for g, n in cells[:4]] == first
    # The complexes of Z_2 and Z_3 had been dropped, so each was made again.
    assert bar._reduced.cache_info().misses == misses + 2
    assert first == [homology_type(g, n) for g, n in cells[:4]]


def test_infinite_groups_rejected():
    with pytest.raises(InfiniteGroupError):
        bar_homology(G("Z"), 1)
    with pytest.raises(InfiniteGroupError):
        bar_homology(G("Z"), -1)
    with pytest.raises(InfiniteGroupError):
        chi_profile("bar", G("Z x Z_2"), 1)
    with pytest.raises(InfiniteGroupError):
        BarChain(G("Z"), 0, {})
    with pytest.raises(InfiniteGroupError):
        elements(G("Z x Z_2"))


@pytest.mark.parametrize("group", ["Z_3 x Z_3", "Z_2~ x Z_2", "Z_2 x Z_4~", "Z_6"])
def test_coded_columns_match_key_boundary(group):
    # Column j of d_k, built from the base-(|G|-1) digits of j, holds the
    # faces _key_boundary gives the j-th nontrivial k-tuple, in its order
    # and with its coefficients, less the faces that are degenerate, that
    # cancel, or that lie off the rows kept.
    g = G(group)
    cx = _Complex(g)
    identity = tuple(0 for _ in g.factors)
    b = len(cx.nontrivial)
    assert cx.decode(0, 0) == () and cx.encode(()) == 0
    for k in range(1, 5):
        keys = list(itertools.product(cx.nontrivial, repeat=k))
        for j, key in enumerate(keys):
            assert cx.encode(key) == j and cx.decode(k, j) == key
            assert cx.encode(key[:k - 1] + (identity,)) is None
        for kept in (range(b ** (k - 1)), range(0, b ** (k - 1), 3)):
            # Fresh int objects, so sharing them is a property of _columns.
            prev = {int(str(f)): {} for f in kept}
            cols, rows = cx._columns(k, prev)
            assert list(cols) == list(range(len(keys)))
            holders = {}
            for j, key in enumerate(keys):
                faces = [(cx.encode(face), v) for face, v in _key_boundary(g, g.orders, key).items()
                         if v and identity not in face]
                assert list(cols[j].items()) == [(f, v) for f, v in faces if f in prev]
                for f in cols[j]:
                    holders.setdefault(f, set()).add(j)
            assert rows == holders
            # Every entry on a row is keyed on prev's own int object.
            assert {id(f) for col in cols.values() for f in col} <= {id(f) for f in prev}


def _cancellation(cancel, cols, rows):
    """The log of ``cancel`` on the columns and the columns it leaves, as
    item lists, so that dict order counts; and how many of its pivots
    came from a sweep after the first.  Sweeps visit the columns in their
    starting order, so a pivot on a column before the last pivot's column
    opens a new sweep."""
    position = {c: i for i, c in enumerate(cols)}
    log, sweep, later, last = [], 1, 0, -1
    for r, c, u, rowvals, colvals in cancel(cols, rows):
        log.append((r, c, u, list(rowvals.items()), list(colvals.items())))
        if position[c] < last:
            sweep += 1
        later += sweep > 1
        last = position[c]
    return log, [(c, list(col.items())) for c, col in cols.items()], later


def _random_matrix(rng):
    """Sparse columns keyed by distinct ints in shuffled order, entries
    +-1..+-3, some columns empty, and the reverse index from rows."""
    cols = {}
    for c in rng.sample(range(100), rng.randint(1, 24)):
        cols[c] = {r: rng.choice((-3, -2, -1, 1, 2, 3)) for r in rng.sample(range(16), rng.randint(0, 6))}
    rows = {}
    for c, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(c)
    return cols, rows


def test_unit_cancellation_matches_full_sweeps():
    # _cancel_units fuses the Schur update into one walk of the pivot row;
    # it must give the log and the survivors of reference_cancel_units,
    # pivot for pivot, dict order included.
    later = 0
    for group in ORACLE_GROUPS:
        g = G(group)
        cx = _Complex(g)
        while g.group_order ** (cx.top + 1) <= 60000:
            k = cx.top + 1
            want = _cancellation(reference_cancel_units, *cx._columns(k, cx.cols))
            assert _cancellation(_cancel_units, *cx._columns(k, cx.cols)) == want, (group, k)
            later += want[2]
            cx._extend()
    rng = random.Random(97)
    for _ in range(2000):
        seed = rng.random()
        want = _cancellation(reference_cancel_units, *_random_matrix(random.Random(seed)))
        assert _cancellation(_cancel_units, *_random_matrix(random.Random(seed))) == want, seed
        later += want[2]
    # Some pivots are found only by a repeated sweep.
    assert later > 0


@pytest.mark.parametrize("group, n", [
    ("Z_3", 3), ("Z_2 x Z_2", 1), ("Z_4~", 2),
    ("Z_3 x Z_3", 3), ("Z_6", 3), ("Z_2~ x Z_2", 2),
])
def test_window_lift_round_trip(group, n):
    g = G(group)
    cx = _Complex(g)
    # The reduction's contract: each d_k has no unit left to cancel just
    # after it is reduced, d_1 through d_{n+1}.
    for _ in range(n + 1):
        cx._extend()
        assert all(v not in (1, -1) for col in cx.cols.values() for v in col.values())
    identity = tuple(0 for _ in g.factors)
    torsion = cx.pres[n].torsion
    assert cx.pres[n].free_rank == 0
    rng = random.Random(61)
    for j, divisor in enumerate(torsion):
        coords = tuple(1 if i == j else 0 for i in range(len(torsion)))
        z = cx.lift(n, (), coords)
        assert all(identity not in key for key in z.terms)
        assert cx.class_coords(z) == ((), coords)
        assert cx.order_of(z) == divisor
        residue = bar_boundary(z)
        assert all(identity in key for key in residue.terms)
        # push sends a boundary to the zero class, degenerate tuples and all.
        for _ in range(3):
            b = _random_bar_chain(rng, g, n + 1)
            assert cx.class_coords(z + bar_boundary(b)) == cx.class_coords(z)


@pytest.mark.parametrize("group, n", [("Z_3 x Z_3", 1), ("Z_2 x Z_4~", 2)])
def test_extension_order_does_not_matter(group, n):
    # H_n is presented when the complex reaches degree n + 1; reaching
    # 2n + 1 first, as chi_profile does, must not move a lift or a class.
    g = G(group)
    far, near = _Complex(g), _Complex(g)
    for cx, top in ((far, 2 * n + 1), (near, n + 1)):
        while cx.top < top:
            cx._extend()
    torsion = far.pres[n].torsion
    assert near.pres[n] == far.pres[n] and torsion
    rng = random.Random(67)
    cycles = []
    for residues in itertools.product(*(range(d) for d in torsion)):
        z = far.lift(n, (), residues)
        assert near.lift(n, (), residues) == z
        cycles.append(z + bar_boundary(_random_bar_chain(rng, g, n + 1)))
    coords = [far.class_coords(z) for z in cycles]
    assert [near.class_coords(z) for z in cycles] == coords
    while near.top < 2 * n + 1:
        near._extend()
    assert [near.class_coords(z) for z in cycles] == coords


@pytest.mark.parametrize("group, degrees", [("Z_3", (1, 2, 3)), ("Z_2 x Z_2", (1, 2)), ("Z_4~", (1, 2))])
def test_profile_orders_divide_group_order(group, degrees):
    g = G(group)
    size = g.group_order
    for n in degrees:
        for order, chi_order in chi_profile("bar", g, n):
            assert order >= 1 and size % order == 0
            assert chi_order >= 1 and size % chi_order == 0


@pytest.mark.parametrize("group", ORACLE_GROUPS)
def test_lifted_classes_and_their_chi_values_are_cycles(group):
    # Every degree whose chi-profile fits the oracle comparison's cap of
    # 60000: a lifted class must bound only degenerate tuples, and so
    # must its chi value, whether or not that value's class is zero.
    g = G(group)
    identity = tuple(0 for _ in g.factors)
    n = 0
    while g.group_order ** (2 * n + 1) <= 60000:
        cx = bar._complex(g, 2 * n + 1, 60000)
        for residues in itertools.product(*(range(d) for d in cx.pres[n].torsion)):
            z = cx.lift(n, (), residues)
            assert all(identity in key for key in bar_boundary(z).terms), (n, residues)
            chi = shuffle_product(z, bar_inversion(z))
            assert all(identity in key for key in bar_boundary(chi).terms), (n, residues)
        n += 1


def test_constructors_own_the_zero_free_invariant():
    # Producers leave cancelled coefficients to the Chain and BarChain
    # constructors; no chain, and no stored entry of the reduced bar
    # complex, keeps a zero.
    def zero_free(chain, expected):
        assert chain.terms == expected and 0 not in chain.terms.values()

    g = G("Z^2 x Z_3")
    a = parse_chain(g, "[1 0 0] + 2*[0 0 1]")
    zero_free(a + parse_chain(g, "-[1 0 0] + [0 1 0]"), {(0, 1, 0): 1, (0, 0, 1): 2})
    zero_free(a + (-a), {})
    zero_free(0 * a, {})
    zero_free(monomial_chain(g, (0, 0, 1), 0), {})
    zero_free(parse_chain(G("Z_3"), "[1] - [1]"), {})
    rng = random.Random(71)
    for group in PROPERTY_GROUPS:
        for n in (2, 3, 4):
            zero_free(boundary(boundary(random_chain(rng, G(group), n))), {})
    x = parse_chain(G("Z^2"), "[1 0] + [0 1]")  # raw terms of x ^ x: {(1, 1): 0}
    zero_free(wedge(x, x), {})
    for group in ("Z_3", "Z_2~ x Z_2"):
        gb = G(group)
        for _ in range(10):
            zero_free(bar_boundary(bar_boundary(_random_bar_chain(rng, gb, 3))), {})
            x = _random_bar_chain(rng, gb, 1)
            zero_free(shuffle_product(x, x), {})
            zero_free(x - x, {})
    for group in ("Z_4~", "Z_2 x Z_2"):
        cx = _Complex(G(group))
        while cx.top < 5:
            cx._extend()
        assert all(0 not in col.values() for col in cx.cols.values()), group
        for log in cx.log:
            for *_, rowvals, colvals in log:
                assert 0 not in rowvals.values() and 0 not in colvals.values(), group


def test_chain_and_bar_chain_do_not_mix():
    # Chain + BarChain used to return a Chain holding a bar tuple as a
    # monomial, on which boundary then raised TypeError.
    c = parse_chain(G("Z_2"), "[1]")
    b = BarChain(G("Z_2"), 1, {((1,),): 1})
    for mix in (lambda: c + b, lambda: b + c, lambda: c - b, lambda: b - c):
        with pytest.raises(TypeError):
            mix()
    assert not c == b and not b == c
    # Bar chains over different groups or degrees refuse as chains do.
    with pytest.raises(GroupMismatchError):
        b + BarChain(G("Z_3"), 1, {((1,),): 1})
    with pytest.raises(DegreeMismatchError):
        b + BarChain(G("Z_2"), 2, {((1,), (1,)): 1})


def test_chains_are_unhashable_values():
    c = parse_chain(G("Z_2"), "[1]")
    b = BarChain(G("Z_2"), 1, {((1,),): 1})
    for x in (c, b):
        with pytest.raises(TypeError):
            hash(x)
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.terms = {}
    c.terms = {(1,): 2}
    assert c == 2 * parse_chain(G("Z_2"), "[1]")


def test_subtraction_adds_the_negative():
    rng = random.Random(89)
    for group in ("Z_3", "Z_2~ x Z_2", "Z_4~"):
        g = G(group)
        for _ in range(20):
            n = rng.choice((1, 2, 3))
            for a, b in ((random_chain(rng, g, n), random_chain(rng, g, n)),
                         (_random_bar_chain(rng, g, n), _random_bar_chain(rng, g, n))):
                assert a - b == a + (-1) * b
                assert (a - a).terms == {}


# sha256 of one record per lifted class over the oracle groups, in every
# degree whose chi-profile fits the cap of 60000: the lift, and the class
# coordinates of its chi value.  Any change to lift or push moves it.
LIFTS_DIGEST = "2cadbcdc5a68252d2a29ed1a0efa64a91d9798e7c60c89bb77c8217a035b8419"


def test_lifted_classes_are_pinned():
    lines = []
    for group in ORACLE_GROUPS:
        g = G(group)
        n = 0
        while g.group_order ** (2 * n + 1) <= 60000:
            cx = bar._complex(g, 2 * n + 1, 60000)
            for residues in itertools.product(*(range(d) for d in cx.pres[n].torsion)):
                z = cx.lift(n, (), residues)
                chi = cx.class_coords(shuffle_product(z, bar_inversion(z)))
                lines.append(f"{g} {n} {residues} {z} {chi}")
            n += 1
    assert len(lines) == 77
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LIFTS_DIGEST
