"""Exact linear algebra: Smith form and quotient presentations."""

import itertools
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import identity, mat_mul
from twisthom.homology import _koszul_columns
from twisthom.snf import quotient_presentation, smith_normal_form


def snf(matrix, ncols=None):
    """smith_normal_form of a dense matrix, handed over as sparse rows."""
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    return smith_normal_form(rows, len(matrix[0]) if matrix else ncols)


def densify(res):
    """V (sparse columns) and Vinv (sparse rows) as dense square matrices."""
    n = len(res.V)
    return ([[col.get(i, 0) for col in res.V] for i in range(n)],
            [[row.get(j, 0) for j in range(n)] for row in res.Vinv])


def assert_smith(matrix, res, ncols=None):
    """V is unimodular with inverse Vinv, the columns of matrix @ V past
    the rank vanish, and the divisors form a positive divisor chain."""
    n = len(matrix[0]) if matrix else (ncols or 0)
    V, Vinv = densify(res)
    assert len(V) == n
    assert mat_mul(V, Vinv) == identity(n)
    assert mat_mul(Vinv, V) == identity(n)
    for row in mat_mul(matrix, V):
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
    res = snf([[2, 0], [0, 3]])
    assert res.divisors == [1, 6]
    assert_smith([[2, 0], [0, 3]], res)


def test_single_entry():
    res = snf([[3]])
    assert res.divisors == [3]
    assert res.rank == 1


def test_zero_matrix():
    matrix = [[0, 0, 0], [0, 0, 0]]
    res = snf(matrix)
    assert res.rank == 0
    assert res.divisors == []
    assert_smith(matrix, res)


def test_no_rows_needs_ncols():
    res = smith_normal_form([], 3)
    assert res.rank == 0
    assert res.divisors == []
    assert res.V == [{0: 1}, {1: 1}, {2: 1}] and res.Vinv == [{0: 1}, {1: 1}, {2: 1}]


def test_known_three_by_three():
    matrix = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    res = snf(matrix)
    assert res.divisors == [2, 6, 12]
    assert_smith(matrix, res)


def test_column_transform_inverse():
    matrix = [[1, 2, 3], [4, 5, 6]]
    res = snf(matrix)
    V, Vinv = densify(res)
    assert mat_mul(V, Vinv) == identity(3)
    assert mat_mul(Vinv, V) == identity(3)
    assert_smith(matrix, res)


def test_columns_past_rank_vanish():
    # Rank 1: the last two columns of V span the kernel.
    matrix = [[1, 2, 3], [2, 4, 6]]
    res = snf(matrix)
    assert res.rank == 1
    assert [row[1:] for row in mat_mul(matrix, densify(res)[0])] == [[0, 0], [0, 0]]
    assert_smith(matrix, res)


def test_negative_pivot_is_made_positive():
    res = smith_normal_form([{0: -3}], 1)
    assert res.divisors == [3]
    assert res.V == [{0: -1}] and res.Vinv == [{0: -1}]


def test_ragged_and_shape_errors():
    # A sparse row cannot be ragged; the shape check that is left refuses
    # an entry outside the ncols columns, before any work.
    for rows, ncols in [([{0: 1, 2: 3}], 2), ([{0: 1}, {-1: 2}], 2), ([{0: 1}], 0),
                        ([{}, {3: 1}], 3)]:
        with pytest.raises(ValueError, match="outside"):
            smith_normal_form(rows, ncols)
    # Stored zeros are not entries: they are neither refused nor pivots.
    res = smith_normal_form([{0: 0, 1: 2}, {5: 0}], 2)
    assert res.divisors == [2]
    # quotient_presentation refuses a boundary column entry outside E's
    # columns in the same way.
    with pytest.raises(ValueError, match="outside"):
        quotient_presentation({0: {}, 1: {}}, 1, [{2: 1}])


def test_pivot_column_is_cleared_in_row_order():
    # V depends on the order in which the pivot column is cleared: live
    # rows in index order, as the docstring states.
    # V and Vinv are the dense [[0, 1, 2], [0, -128, -257], [-1, 3172, 6369]]
    # and [[-28, -25, -1], [257, 2, 0], [-128, -1, 0]], by columns and rows.
    matrix = [[-7, 0, 6], [8, 4, -2], [4, -9, -9], [8, 3, -5]]
    res = snf(matrix)
    assert res.divisors == [1, 1, 50]
    assert res.V == [{2: -1}, {0: 1, 1: -128, 2: 3172}, {0: 2, 1: -257, 2: 6369}]
    assert res.Vinv == [{0: -28, 1: -25, 2: -1}, {0: 257, 1: 2}, {0: -128, 1: -1}]
    assert_smith(matrix, res)


def test_determinism():
    matrix = [[4, -6, 2], [6, 6, 6], [0, 8, 4]]
    first = snf(matrix)
    second = snf(matrix)
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
    assert_smith(matrix, snf(matrix))


@settings(max_examples=100)
@given(small_matrices)
def test_divisors_are_determinantal_ratios(matrix):
    assert snf(matrix).divisors == determinantal_ratios(matrix)


def test_quotient_presentation_free_and_torsion():
    # E: Z^2 -> Z with zero map, D: Z -> Z^2 with image 3 e_0.
    pres = quotient_presentation({0: {}, 1: {}}, 1, [{0: 3}])
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
    pres = quotient_presentation({0: {0: 1}, 1: {0: 1}}, 1, [])
    assert pres.free_rank == 1
    assert pres.torsion == ()
    free, torsion = pres.class_coords({0: 1, 1: -1})
    assert any(free) and not torsion


def test_quotient_roundtrip():
    pres = quotient_presentation({0: {}, 1: {}, 2: {}}, 1, [{0: 2}, {1: 6}])
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


# Koszul block shapes (coefficients, degree) of up to 6 slots.
KOSZUL_SHAPES = [((2, 4, 6), 1), ((4, -4, 8, 2), 2), ((3, 3, 3), 2),
                 ((2, -2, 2, 2, -2), 2), ((3,) * 6, 3)]


def _koszul_presentation(coeffs, t):
    return quotient_presentation(_koszul_columns(coeffs, t), comb(len(coeffs), t - 1),
                                 list(_koszul_columns(coeffs, t + 1).values()))


def test_generator_coords_are_unit_vectors():
    for pres in (
        quotient_presentation({0: {}, 1: {}, 2: {}}, 1, [{0: 2}, {1: 6}]),
        quotient_presentation({0: {0: 1}, 1: {0: 1}, 2: {}}, 1, [{0: 4, 1: -4, 2: 6}]),
        *(_koszul_presentation(coeffs, t) for coeffs, t in KOSZUL_SHAPES),
    ):
        nt = len(pres.torsion)
        count = nt + pres.free_rank
        assert count and len(pres.generators) == len(pres.coord_rows) == count
        for i, gen in enumerate(pres.generators):
            unit = [int(i == j) for j in range(count)]
            assert pres.class_coords(gen) == (tuple(unit[nt:]), tuple(unit[:nt]))
            assert pres.vector_from_coords(unit[nt:], unit[:nt]) == gen


def test_koszul_differentials_are_in_smith_form():
    # Koszul differentials of up to 6 slots (15 x 20 and 20 x 15 for
    # (3,) * 6) reach fill-in that the 4 x 4 random matrices rarely do.
    for coeffs, t in KOSZUL_SHAPES:
        for s in (t, t + 1):
            faces = itertools.combinations(range(len(coeffs)), s - 1)
            columns = list(_koszul_columns(coeffs, s).values())
            dense = [[col.get(f, 0) for col in columns] for f in faces]
            assert_smith(dense, snf(dense, ncols=len(columns)), ncols=len(columns))


def test_quotient_presentation_rejects_escaping_boundary():
    # D's column e_0 is not in ker E, so im D is not inside ker E.  The
    # check raises ValueError, and so it still runs under python -O.
    with pytest.raises(ValueError, match="escapes the kernel"):
        quotient_presentation({0: {0: 1}, 1: {}}, 1, [{0: 1}])


def _relabelled(columns, boundaries, col_id, row_id):
    """E's columns and D's columns with every column id and row id mapped."""
    return ({col_id(c): {row_id(f): v for f, v in col.items()} for c, col in columns.items()},
            [{col_id(c): v for c, v in col.items()} for col in boundaries])


def test_presentation_is_keyed_by_the_callers_ids():
    # E's columns go in the mapping's order and its rows in sorted id
    # order, so an order-preserving relabelling of the ids relabels the
    # presentation the same way and changes nothing else.  The Koszul
    # subsets are compared with dense positions and with strings.
    for coeffs, t in KOSZUL_SHAPES:
        m, nrows = len(coeffs), comb(len(coeffs), t - 1)
        columns = _koszul_columns(coeffs, t)
        boundaries = list(_koszul_columns(coeffs, t + 1).values())
        col_at = {s: j for j, s in enumerate(columns)}
        row_at = {f: i for i, f in enumerate(itertools.combinations(range(m), t - 1))}
        e, d = _relabelled(columns, boundaries, col_at.__getitem__, row_at.__getitem__)
        dense = quotient_presentation(e, nrows, d)
        for col_id in (lambda s: s, lambda s: "x" + "".join(map(str, s))):
            e, d = _relabelled(columns, boundaries, col_id, col_id)
            pres = quotient_presentation(e, nrows, d)
            assert (pres.torsion, pres.free_rank) == (dense.torsion, dense.free_rank)
            ids = [col_id(s) for s in columns]
            assert pres.coord_rows == tuple({ids[j]: v for j, v in row.items()}
                                            for row in dense.coord_rows)
            assert pres.generators == tuple({ids[j]: v for j, v in gen.items()}
                                            for gen in dense.generators)


def test_quotient_presentation_refuses_ids_it_was_not_given():
    # A D entry outside E's column ids is refused, and so are more distinct
    # row ids than nrows_e; exactly nrows_e of them are accepted.
    with pytest.raises(ValueError, match="outside E's columns"):
        quotient_presentation({"a": {}, "b": {}}, 1, [{"a": 1, "c": 1}])
    with pytest.raises(ValueError, match="more row ids than nrows_e"):
        quotient_presentation({"a": {"x": 1}, "b": {"y": 1}}, 1, [])
    pres = quotient_presentation({"a": {"x": 1}, "b": {"y": 1}, "c": {}}, 2, [{"c": 2}])
    assert (pres.torsion, pres.free_rank, pres.generators) == ((2,), 0, ({"c": 1},))
