"""Exact integer linear algebra.

Everything here works over Z with arbitrary-precision Python ints; nothing
is ever done in floating point or a fixed-width dtype.  Vectors are sparse
dicts from an index or id to a nonzero value, and one kernel does all the
arithmetic on them: :func:`_addmul` (target += q * source, dropping
entries that cancel), :func:`_dot` and :func:`_combination`.  Two layers
rest on it:

* :func:`smith_normal_form` -- Smith normal form of a matrix given as
  sparse rows, tracking only the column transform V, as sparse columns,
  and its inverse, as sparse rows; they give the kernel and kernel
  coordinates.  Each pivot is the entry of least absolute value to keep
  intermediate entries small.
* :func:`quotient_presentation` -- a subquotient lattice ker E / im D,
  presented by one sparse coordinate row and one sparse cycle per
  generator.  It takes the kernel from the Smith form of E, and the row
  transform of D written in kernel coordinates from the Smith form of
  that matrix's transpose.  This is the one piece of plumbing shared by
  the small-resolution homology engine, which calls it once per Koszul
  block shape, and the bar-resolution oracle.

The two layers differ in how they name things.  ``smith_normal_form``
works on dense positions: rows and columns 0, 1, 2, ...  Its callers
never do.  ``quotient_presentation`` takes E's columns keyed by the
caller's own ids (Koszul subsets, bar codes), over the caller's own row
ids, and hands out coordinate rows and generators keyed by the same
column ids; it numbers columns and rows internally and keeps those
numbers to itself.
"""

from __future__ import annotations

from dataclasses import dataclass


def _addmul(target: dict[int, int], source: dict[int, int], q: int) -> None:
    """target += q * source, in place; an entry that cancels is removed,
    and a new entry goes after the existing ones (a row's dict order is
    the order in which ``smith_normal_form`` clears it)."""
    for j, v in source.items():
        w = target.get(j, 0) + q * v
        if w:
            target[j] = w
        else:
            target.pop(j, None)


def _dot(a: dict[int, int], b: dict[int, int]) -> int:
    """Dot product of two sparse vectors, walking ``a``."""
    return sum(v * b.get(j, 0) for j, v in a.items())


def _combination(vectors, weights: dict[int, int]) -> dict[int, int]:
    """The sum of weights[i] * vectors[i], zero-free."""
    out: dict[int, int] = {}
    for i, w in weights.items():
        if w:
            _addmul(out, vectors[i], w)
    return out


@dataclass
class SmithNormalForm:
    """The column half of U @ M @ V == D, with U, V unimodular and D diagonal.

    Only ``V``, as a list of sparse columns, and its inverse ``Vinv``, as
    a list of sparse rows, are kept: the first ``rank`` columns of M @ V
    span the image and the rest are zero, so the last columns of ``V``
    are a kernel basis and the last rows of ``Vinv`` give kernel
    coordinates.  ``divisors`` are D's positive diagonal entries, a
    divisor chain d1 | d2 | ... | dr.
    """

    V: list[dict[int, int]]
    Vinv: list[dict[int, int]]
    divisors: list[int]

    @property
    def rank(self) -> int:
        return len(self.divisors)


def smith_normal_form(matrix: list[dict[int, int]], ncols: int) -> SmithNormalForm:
    """Smith normal form of an integer matrix with ``ncols`` columns, given
    as one sparse row per matrix row; an entry whose column is outside
    0..ncols-1 raises ``ValueError``.

    The matrix is kept once, as a working copy of its rows.  V starts as
    the identity, one sparse column per column, and Vinv as the identity,
    one sparse row per column.  Every row operation, column operation on
    V, row operation on Vinv and divisor-chain fold is one ``_addmul``.
    The rows not yet used as pivot rows are the live rows.  Each round
    takes the live entry of least ``(|v|, row, col)`` as the pivot and
    clears around it:

    1. Its column, by row operations on the live rows in index order.
       A nonzero remainder is smaller than the pivot and becomes the
       pivot.
    2. Its row, by column operations in the order of the pivot row's
       dict.  The pivot column is zero off the pivot row by then, so
       ``col j -= q * col pj`` changes only the pivot row's entry in
       column j, besides V and Vinv.  That is why no column index is
       kept.  A nonzero remainder again becomes the pivot.
    3. The divisor chain.  If the pivot does not divide every live
       entry, the first live row in index order with an entry it does
       not divide is added to the pivot row, and clearing resumes; the
       pivot's row then leaves a remainder smaller than the pivot.

    A negative pivot is made positive by negating its column of V and its
    row of Vinv.

    >>> smith_normal_form([{0: 2}, {1: 3}], 2).divisors
    [1, 6]
    >>> res = smith_normal_form([{0: 2, 1: 4}], 2)
    >>> res.divisors, res.V[res.rank]
    ([2], {1: 1, 0: -2})
    """
    rows = [{j: v for j, v in row.items() if v} for row in matrix]
    if any(not 0 <= j < ncols for row in rows for j in row):
        raise ValueError("matrix entry outside columns 0..ncols-1")
    V = [{j: 1} for j in range(ncols)]
    Vinv = [{j: 1} for j in range(ncols)]
    live = list(range(len(rows)))
    pivot_cols: list[int] = []
    divisors: list[int] = []

    while True:
        best = None
        for i in live:
            for j, v in rows[i].items():
                key = (abs(v), i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, pi, pj = best
        while True:
            p = rows[pi][pj]
            # 1. The pivot column, live rows in index order.
            remainder = None
            for i in live:
                if i != pi and pj in rows[i]:
                    _addmul(rows[i], rows[pi], -(rows[i][pj] // p))
                    if pj in rows[i]:
                        remainder = i
                        break
            if remainder is not None:
                pi = remainder
                continue
            # 2. The pivot row.  Column pj is clear, so each column
            # operation changes row[j] alone in the working copy.
            row = rows[pi]
            for j in [j for j in row if j != pj]:
                q = row[j] // p
                row[j] -= q * p
                _addmul(V[j], V[pj], -q)
                _addmul(Vinv[pj], Vinv[j], q)
                if row[j]:
                    pj = j
                    break
                del row[j]
            else:
                # 3. Row and column are clear: enforce the divisor chain.
                offender = next((i for i in live if i != pi
                                 and any(v % p for v in rows[i].values())), None)
                if offender is None:
                    break
                _addmul(rows[pi], rows[offender], 1)
        if p < 0:
            p = -p
            V[pj] = {i: -v for i, v in V[pj].items()}
            Vinv[pj] = {j: -v for j, v in Vinv[pj].items()}
        live.remove(pi)
        pivot_cols.append(pj)
        divisors.append(p)

    order = pivot_cols + [j for j in range(ncols) if j not in pivot_cols]
    return SmithNormalForm(V=[V[j] for j in order], Vinv=[Vinv[j] for j in order],
                           divisors=divisors)


@dataclass
class QuotientPresentation:
    """Reduction data for H = ker E / im D, one entry per generator,
    torsion generators first, every vector keyed by E's column ids.

    ``coord_rows[i]`` is a sparse row whose dot product with a cycle is
    the cycle's i-th homology coordinate (taken mod ``torsion[i]`` for a
    torsion generator); ``generators[i]`` is a sparse cycle whose class
    is the i-th generator.  A cycle's entries on ids outside E meet no
    coordinate row, so they add nothing to its coordinates.
    """

    torsion: tuple[int, ...]
    free_rank: int
    coord_rows: tuple[dict[int, int], ...]
    generators: tuple[dict[int, int], ...]

    def class_coords(self, vector: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(free, torsion) homology coordinates of a cycle; the caller
        guarantees it is one."""
        u = [_dot(vector, row) for row in self.coord_rows]
        nt = len(self.torsion)
        return tuple(u[nt:]), tuple(c % d for c, d in zip(u, self.torsion))

    def vector_from_coords(self, free, torsion) -> dict[int, int]:
        """A representative cycle with the given homology coordinates."""
        return _combination(self.generators, dict(enumerate((*torsion, *free))))


def quotient_presentation(e_columns: dict, nrows_e: int,
                          d_columns: list[dict]) -> QuotientPresentation:
    """Present ker E / im D, with E given as a mapping from the caller's
    column ids to sparse columns over the caller's row ids, at most
    ``nrows_e`` of them, and D as sparse columns over E's column ids.
    The coordinate rows and generators come back keyed by E's column ids.

    E's columns take the mapping's order and its rows the sorted order of
    their ids; those positions stay inside this function.  The last k
    columns of E's V are a kernel basis, and the last k rows of its Vinv
    give kernel coordinates.  X, D written in those coordinates, is
    brought to Smith form by a row transform ux; the Smith form of X's
    transpose, whose sparse rows are D's columns dotted with the
    coordinate rows, supplies it as ux = V'^T.  Each generator, at a
    position p with a divisor above 1 or past the rank, keeps row p of
    ux @ coords, the combination of the coordinate rows weighted by
    column p of V', and column p of kernel @ ux^-1, the combination of
    the kernel columns weighted by row p of V'^-1.

    More distinct row ids than ``nrows_e``, or an entry of D outside E's
    column ids, raises ``ValueError``.  im D must lie inside ker E (the
    caller's boundary-squared guarantee); this is checked via the part of
    the coordinate solve that must vanish, and a violation raises
    ``ValueError`` too.
    """
    ids = list(e_columns)
    position = {c: j for j, c in enumerate(ids)}
    row_ids = sorted({i for col in e_columns.values() for i in col})
    if len(row_ids) > nrows_e:
        raise ValueError("E has more row ids than nrows_e")
    row_position = {i: r for r, i in enumerate(row_ids)}
    e_rows: list[dict[int, int]] = [{} for _ in row_ids]
    for j, col in enumerate(e_columns.values()):
        for i, v in col.items():
            e_rows[row_position[i]][j] = v
    if any(c not in position for col in d_columns for c in col):
        raise ValueError("boundary column entry outside E's columns")
    d_cols = [{position[c]: v for c, v in col.items()} for col in d_columns]
    res = smith_normal_form(e_rows, len(ids))
    r = res.rank
    k = len(ids) - r
    coords, kernel = res.Vinv[r:], res.V[r:]
    if any(_dot(col, row) for col in d_cols for row in res.Vinv[:r]):
        raise ValueError("boundary column escapes the kernel")
    x_t = [{i: w for i, row in enumerate(coords) if (w := _dot(col, row))}
           for col in d_cols]
    xres = smith_normal_form(x_t, k)
    keep = [p for p, d in enumerate(xres.divisors) if d > 1] + list(range(xres.rank, k))

    def by_id(vec: dict[int, int]) -> dict:
        return {ids[j]: v for j, v in vec.items()}

    return QuotientPresentation(
        torsion=tuple(d for d in xres.divisors if d > 1),
        free_rank=k - xres.rank,
        coord_rows=tuple(by_id(_combination(coords, xres.V[p])) for p in keep),
        generators=tuple(by_id(_combination(kernel, xres.Vinv[p])) for p in keep),
    )
