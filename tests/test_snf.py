"""Exact linear algebra: Smith form and quotient presentations."""

import itertools
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import identity, mat_mul
from twisthom.homology import _koszul_columns
from twisthom.snf import quotient_presentation, smith_normal_form


def assert_smith(matrix, res, ncols=None):
    """V is unimodular with inverse Vinv, the columns of matrix @ V past
    the rank vanish, and the divisors form a positive divisor chain."""
    n = len(matrix[0]) if matrix else (ncols or 0)
    assert mat_mul(res.V, res.Vinv) == identity(n)
    assert mat_mul(res.Vinv, res.V) == identity(n)
    for row in mat_mul(matrix, res.V):
        assert not any(row[res.rank:])
    divisors = res.divisors
    assert all(d > 0 for d in divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0


def _det(matrix):
    if not matrix:
        return 1
    return sum((-1) ** j * v * _det([row[:j] + row[j + 1:] for row in matrix[1:]])
               for j, v in enumerate(matrix[0]) if v)


def determinantal_ratios(matrix):
    """d_k / d_(k-1) for the gcds d_k of the k x k minors, while d_k != 0."""
    m, n = len(matrix), len(matrix[0])
    out, prev = [], 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                d = gcd(d, _det([[matrix[i][j] for j in cols] for i in rows]))
        if not d:
            break
        out.append(d // prev)
        prev = d
    return out


def test_diagonal_example():
    res = smith_normal_form([[2, 0], [0, 3]])
    assert res.divisors == [1, 6]
    assert_smith([[2, 0], [0, 3]], res)


def test_single_entry():
    res = smith_normal_form([[3]])
    assert res.divisors == [3]
    assert res.rank == 1


def test_zero_matrix():
    matrix = [[0, 0, 0], [0, 0, 0]]
    res = smith_normal_form(matrix)
    assert res.rank == 0
    assert res.divisors == []
    assert_smith(matrix, res)


def test_no_rows_needs_ncols():
    res = smith_normal_form([], ncols=3)
    assert res.rank == 0
    assert res.divisors == []
    assert res.V == identity(3) and res.Vinv == identity(3)


def test_known_three_by_three():
    matrix = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    res = smith_normal_form(matrix)
    assert res.divisors == [2, 6, 12]
    assert_smith(matrix, res)


def test_column_transform_inverse():
    matrix = [[1, 2, 3], [4, 5, 6]]
    res = smith_normal_form(matrix)
    assert mat_mul(res.V, res.Vinv) == identity(3)
    assert mat_mul(res.Vinv, res.V) == identity(3)
    assert_smith(matrix, res)


def test_columns_past_rank_vanish():
    # Rank 1: the last two columns of V span the kernel.
    matrix = [[1, 2, 3], [2, 4, 6]]
    res = smith_normal_form(matrix)
    assert res.rank == 1
    assert [row[1:] for row in mat_mul(matrix, res.V)] == [[0, 0], [0, 0]]
    assert_smith(matrix, res)


def test_negative_pivot_is_made_positive():
    res = smith_normal_form([[-3]])
    assert res.divisors == [3]
    assert res.V == [[-1]] and res.Vinv == [[-1]]


def test_ragged_and_shape_errors():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2]], ncols=3)


def test_determinism():
    matrix = [[4, -6, 2], [6, 6, 6], [0, 8, 4]]
    first = smith_normal_form(matrix)
    second = smith_normal_form(matrix)
    assert first.V == second.V
    assert first.Vinv == second.Vinv
    assert first.divisors == second.divisors


small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=150)
@given(small_matrices)
def test_smith_property(matrix):
    assert_smith(matrix, smith_normal_form(matrix))


@settings(max_examples=100)
@given(small_matrices)
def test_divisors_are_determinantal_ratios(matrix):
    assert smith_normal_form(matrix).divisors == determinantal_ratios(matrix)


def test_quotient_presentation_free_and_torsion():
    # E: Z^2 -> Z with zero map, D: Z -> Z^2 with image 3 e_0.
    pres = quotient_presentation([{}, {}], 1, [{0: 3}])
    assert pres.free_rank == 1
    assert pres.torsion == (3,)
    # e_0 is pure torsion of order 3, e_1 is free.
    f0, t0 = pres.class_coords({0: 1})
    assert not any(f0) and t0[0] % 3 != 0
    f1, t1 = pres.class_coords({1: 1})
    assert any(f1)
    f3, t3 = pres.class_coords({0: 3})
    assert not any(f3) and all(t % 3 == 0 for t in t3)


def test_quotient_presentation_kernel_restriction():
    # E: Z^2 -> Z, (x, y) -> x + y; kernel spanned by (1, -1); D = 0.
    pres = quotient_presentation([{0: 1}, {0: 1}], 1, [])
    assert pres.free_rank == 1
    assert pres.torsion == ()
    free, torsion = pres.class_coords({0: 1, 1: -1})
    assert any(free) and not torsion


def test_quotient_roundtrip():
    pres = quotient_presentation([{}, {}, {}], 1, [{0: 2}, {1: 6}])
    assert pres.free_rank == 1
    assert pres.torsion == (2, 6)
    nt = len(pres.torsion)
    for which in range(nt + pres.free_rank):
        free = tuple(
            1 if which - nt == i else 0 for i in range(pres.free_rank)
        )
        torsion = tuple(1 if which == i else 0 for i in range(nt))
        vec = pres.vector_from_coords(free, torsion)
        got_free, got_torsion = pres.class_coords(vec)
        assert got_free == free
        assert tuple(
            t % d for t, d in zip(got_torsion, pres.torsion)
        ) == torsion


def _koszul_presentation(coeffs, t):
    return quotient_presentation(_koszul_columns(coeffs, t), comb(len(coeffs), t - 1),
                                 _koszul_columns(coeffs, t + 1))


def test_generator_coords_are_unit_vectors():
    for pres in (
        quotient_presentation([{}, {}, {}], 1, [{0: 2}, {1: 6}]),
        quotient_presentation([{0: 1}, {0: 1}, {}], 1, [{0: 4, 1: -4, 2: 6}]),
        _koszul_presentation((2, 4, 6), 1),
        _koszul_presentation((4, -4, 8, 2), 2),
        _koszul_presentation((3, 3, 3), 2),
    ):
        nt = len(pres.torsion)
        count = nt + pres.free_rank
        assert count and len(pres.generators) == len(pres.coord_rows) == count
        for i, gen in enumerate(pres.generators):
            unit = [int(i == j) for j in range(count)]
            assert pres.class_coords(gen) == (tuple(unit[nt:]), tuple(unit[:nt]))
            assert pres.vector_from_coords(unit[nt:], unit[:nt]) == gen


def test_quotient_presentation_rejects_escaping_boundary():
    # D's column e_0 is not in ker E, so im D is not inside ker E.  The
    # check raises ValueError, and so it still runs under python -O.
    with pytest.raises(ValueError, match="escapes the kernel"):
        quotient_presentation([{0: 1}, {}], 1, [{0: 1}])
