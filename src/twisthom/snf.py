"""Exact integer linear algebra.

Everything here works over Z with arbitrary-precision Python ints; nothing
is ever done in floating point or a fixed-width dtype.  Two layers:

* :func:`smith_normal_form` -- Smith normal form that tracks only the
  column transform V and its inverse, which give the kernel and kernel
  coordinates.  Pivots are chosen by minimal absolute value to keep
  intermediate entries small.
* :func:`quotient_presentation` -- a subquotient lattice ker E / im D,
  presented by one coordinate row and one cycle per generator.  It takes
  the kernel from the Smith form of E, and the row transform of D written
  in kernel coordinates from the Smith form of that matrix's transpose.
  This is the one piece of plumbing shared by the small-resolution
  homology engine, which calls it once per Koszul block shape, and the
  bar-resolution oracle.
"""

from __future__ import annotations

from dataclasses import dataclass


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass
class SmithNormalForm:
    """The column half of U @ M @ V == D, with U, V unimodular and D diagonal.

    Only ``V`` and its inverse ``Vinv`` are kept: the first ``rank`` columns
    of M @ V span the image and the rest are zero, so the last columns of
    ``V`` are a kernel basis and the last rows of ``Vinv`` give kernel
    coordinates.  ``divisors`` are D's positive diagonal entries, a divisor
    chain d1 | d2 | ... | dr.
    """

    V: list[list[int]]
    Vinv: list[list[int]]
    divisors: list[int]

    @property
    def rank(self) -> int:
        return len(self.divisors)


def smith_normal_form(matrix, ncols: int | None = None) -> SmithNormalForm:
    """Smith normal form of an integer matrix given as a list of rows.

    ``ncols`` disambiguates the shape when the matrix has zero rows.
    Deterministic: each pivot is the remaining entry of minimal absolute
    value, ties broken by position, and a negative pivot is made positive
    by negating its column.  The working copy is kept as mirrored sparse
    row/column dicts so pivot searches cost the number of surviving
    nonzeros, not the full shape; the transforms are dense.

    >>> smith_normal_form([[2, 0], [0, 3]]).divisors
    [1, 6]
    >>> res = smith_normal_form([[2, 4]])
    >>> res.divisors, [row[res.rank] for row in res.V]
    ([2], [-2, 1])
    """
    m = len(matrix)
    if m:
        n = len(matrix[0])
        if any(len(row) != n for row in matrix):
            raise ValueError("ragged matrix")
        if ncols is not None and ncols != n:
            raise ValueError("ncols disagrees with row length")
    else:
        n = 0 if ncols is None else ncols
    rows: list[dict[int, int]] = [
        {j: v for j, v in enumerate(row) if v} for row in matrix
    ]
    cols: list[dict[int, int]] = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    V = identity_matrix(n)
    Vinv = identity_matrix(n)

    def row_combine(i, t, q):
        # row i -= q * row t
        ri = rows[i]
        for j, v in rows[t].items():
            w = ri.get(j, 0) - q * v
            if w:
                ri[j] = w
                cols[j][i] = w
            else:
                ri.pop(j, None)
                cols[j].pop(i, None)

    def col_combine(j, t, q):
        # col j -= q * col t
        cj = cols[j]
        for i, v in cols[t].items():
            w = cj.get(i, 0) - q * v
            if w:
                cj[i] = w
                rows[i][j] = w
            else:
                cj.pop(i, None)
                rows[i].pop(j, None)
        for row in V:
            if row[t]:
                row[j] -= q * row[t]
        Vt, Vj = Vinv[t], Vinv[j]
        for k in range(n):
            if Vj[k]:
                Vt[k] += q * Vj[k]

    live_rows = set(range(m))
    live_cols = set(range(n))
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    while True:
        best = None
        for i in live_rows:
            for j, v in rows[i].items():
                a = -v if v < 0 else v
                key = (a, i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, pi, pj = best
        while True:
            p = rows[pi][pj]
            moved = False
            for i2 in [i for i in cols[pj] if i != pi]:
                v = cols[pj].get(i2, 0)
                if not v:
                    continue
                q = v // p
                if q:
                    row_combine(i2, pi, q)
                rem = rows[i2].get(pj, 0)
                if rem:
                    # The remainder is strictly smaller; make it the pivot.
                    pi = i2
                    moved = True
                    break
            if moved:
                continue
            for j2 in [j for j in rows[pi] if j != pj]:
                v = rows[pi].get(j2, 0)
                if not v:
                    continue
                q = v // p
                if q:
                    col_combine(j2, pj, q)
                if rows[pi].get(j2, 0):
                    pj = j2
                    moved = True
                    break
            if moved:
                continue
            # Row and column of the pivot are clear.  Enforce that the
            # pivot divides every remaining entry (divisor chain); folding
            # an offending row into the pivot row strictly shrinks the gcd.
            p = rows[pi][pj]
            offender = -1
            if p != 1 and p != -1:
                for i2 in sorted(live_rows):
                    if i2 == pi:
                        continue
                    for v in rows[i2].values():
                        if v % p:
                            offender = i2
                            break
                    if offender >= 0:
                        break
            if offender < 0:
                break
            row_combine(pi, offender, -1)  # row pi += row offender
        if rows[pi][pj] < 0:
            # Row and column of the pivot are clear: negate its column.
            rows[pi][pj] = cols[pj][pi] = -rows[pi][pj]
            for row in V:
                row[pj] = -row[pj]
            Vinv[pj] = [-v for v in Vinv[pj]]
        pivot_rows.append(pi)
        pivot_cols.append(pj)
        live_rows.discard(pi)
        live_cols.discard(pj)

    col_order = pivot_cols + sorted(live_cols)
    return SmithNormalForm(
        V=[[row[j] for j in col_order] for row in V],
        Vinv=[Vinv[j] for j in col_order],
        divisors=[rows[i][j] for i, j in zip(pivot_rows, pivot_cols)],
    )


@dataclass
class QuotientPresentation:
    """Reduction data for H = ker E / im D inside Z^ncols, one entry per
    generator, torsion generators first.

    ``coord_rows[i]`` is a dense length-``ncols`` row whose dot product
    with a cycle is the cycle's i-th homology coordinate (taken mod
    ``torsion[i]`` for a torsion generator); ``generators[i]`` is a sparse
    cycle whose class is the i-th generator.
    """

    torsion: tuple[int, ...]
    free_rank: int
    coord_rows: tuple[list[int], ...]
    generators: tuple[dict[int, int], ...]

    def class_coords(self, vector: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(free, torsion) homology coordinates of a cycle; the caller
        guarantees it is one."""
        u = [sum(v * row[idx] for idx, v in vector.items()) for row in self.coord_rows]
        nt = len(self.torsion)
        return tuple(u[nt:]), tuple(c % d for c, d in zip(u, self.torsion))

    def vector_from_coords(self, free, torsion) -> dict[int, int]:
        """A representative cycle with the given homology coordinates."""
        vec: dict[int, int] = {}
        for c, gen in zip((*torsion, *free), self.generators):
            if c:
                for idx, v in gen.items():
                    vec[idx] = vec.get(idx, 0) + c * v
        return {idx: v for idx, v in vec.items() if v}


def quotient_presentation(e_columns: list[dict[int, int]], nrows_e: int,
                          d_columns: list[dict[int, int]]) -> QuotientPresentation:
    """Present ker E / im D, with E given by sparse columns over row indices
    0..nrows_e-1 and D by sparse columns over E's column indices.

    The last k columns of E's V are a kernel basis, and the last k rows of
    its Vinv give kernel coordinates.  X, D written in those coordinates,
    is brought to Smith form by a row transform ux; the Smith form of X's
    transpose, whose rows are D's columns, supplies it as ux = V'^T.  Each
    generator, at a position p with a divisor above 1 or past the rank,
    keeps row p of ux @ coords and column p of kernel @ ux^-1.

    im D must lie inside ker E (the caller's boundary-squared guarantee);
    this is checked via the part of the coordinate solve that must vanish,
    and a violation raises ``ValueError``.
    """
    ncols = len(e_columns)
    dense = [[0] * ncols for _ in range(nrows_e)]
    for j, col in enumerate(e_columns):
        for i, v in col.items():
            dense[i][j] = v
    res = smith_normal_form(dense, ncols=ncols)
    r = res.rank
    k = ncols - r
    coords = res.Vinv[r:]
    for col in d_columns:
        for row in res.Vinv[:r]:
            if sum(row[idx] * v for idx, v in col.items()):
                raise ValueError("boundary column escapes the kernel")
    x_t = [[sum(v * coords[i][idx] for idx, v in col.items()) for i in range(k)]
           for col in d_columns]
    xres = smith_normal_form(x_t, ncols=k)
    keep = [p for p, d in enumerate(xres.divisors) if d > 1] + list(range(xres.rank, k))
    kernel = [[row[r + i] for row in res.V] for i in range(k)]

    def combine(vectors, weights):
        out = [0] * ncols
        for w, vec in zip(weights, vectors):
            if w:
                for idx, x in enumerate(vec):
                    if x:
                        out[idx] += w * x
        return out

    coord_rows = tuple(combine(coords, [row[p] for row in xres.V]) for p in keep)
    generators = tuple({idx: v for idx, v in enumerate(combine(kernel, xres.Vinv[p])) if v}
                       for p in keep)
    return QuotientPresentation(
        torsion=tuple(d for d in xres.divisors if d > 1),
        free_rank=k - xres.rank,
        coord_rows=coord_rows,
        generators=generators,
    )
