"""Exact linear algebra: Smith form and quotient presentations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import identity, mat_mul
from twisthom.snf import quotient_presentation, smith_normal_form


def assert_smith(matrix, res, ncols=None):
    m = len(matrix)
    n = len(matrix[0]) if matrix else (ncols or 0)
    umv = mat_mul(mat_mul(res.U, matrix), res.V)
    assert umv == res.D
    divisors = res.divisors
    assert all(d > 0 for d in divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0
    for i in range(m):
        for j in range(n):
            if i != j or i >= res.rank:
                assert res.D[i][j] == 0


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
    assert res.D == []
    assert len(res.V) == 3


def test_known_three_by_three():
    matrix = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    res = smith_normal_form(matrix)
    assert res.divisors == [2, 6, 12]
    assert_smith(matrix, res)


def test_inverses_when_requested():
    matrix = [[1, 2, 3], [4, 5, 6]]
    res = smith_normal_form(matrix, want_uinv=True, want_vinv=True)
    assert mat_mul(res.U, res.Uinv) == identity(2)
    assert mat_mul(res.Uinv, res.U) == identity(2)
    assert mat_mul(res.V, res.Vinv) == identity(3)
    assert mat_mul(res.Vinv, res.V) == identity(3)
    assert_smith(matrix, res)


def test_inverses_absent_by_default():
    res = smith_normal_form([[5]])
    assert res.Uinv is None and res.Vinv is None


def test_want_v_off_keeps_row_data():
    matrix = [[6, 10, 15], [0, 30, 5]]
    full = smith_normal_form(matrix)
    slim = smith_normal_form(matrix, want_uinv=True, want_v=False)
    assert slim.V is None
    assert slim.divisors == full.divisors
    assert slim.rank == full.rank
    assert mat_mul(slim.U, slim.Uinv) == identity(2)


def test_want_vinv_requires_want_v():
    with pytest.raises(ValueError):
        smith_normal_form([[1]], want_vinv=True, want_v=False)


def test_ragged_and_shape_errors():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2]], ncols=3)


def test_determinism():
    matrix = [[4, -6, 2], [6, 6, 6], [0, 8, 4]]
    first = smith_normal_form(matrix, want_uinv=True, want_vinv=True)
    second = smith_normal_form(matrix, want_uinv=True, want_vinv=True)
    assert first.U == second.U
    assert first.V == second.V
    assert first.D == second.D


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
    res = smith_normal_form(matrix, want_uinv=True, want_vinv=True)
    assert_smith(matrix, res)
    assert mat_mul(res.U, res.Uinv) == identity(len(matrix))
    assert mat_mul(res.V, res.Vinv) == identity(len(matrix[0]))


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


def test_quotient_presentation_rejects_escaping_boundary():
    # D's column e_0 is not in ker E, so im D is not inside ker E.  The
    # check raises ValueError, and so it still runs under python -O.
    with pytest.raises(ValueError, match="escapes the kernel"):
        quotient_presentation([{0: 1}, {}], 1, [{0: 1}])
