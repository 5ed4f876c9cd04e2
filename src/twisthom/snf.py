"""Exact integer linear algebra.

Everything here works over Z with arbitrary-precision Python ints; nothing
is ever done in floating point or a fixed-width dtype.  Two layers:

* :func:`smith_normal_form` -- dense Smith normal form with the unimodular
  transforms (and optionally their inverses) tracked through every
  elementary operation.  Pivots are chosen by minimal absolute value to
  keep intermediate entries small.
* :func:`quotient_presentation` -- the reduction data for a subquotient
  lattice ker E / im D, built from the two Smith forms.  This is the one
  piece of plumbing shared by the small-resolution homology engine, which
  calls it once per Koszul block shape, and the bar-resolution oracle.
"""

from __future__ import annotations

from dataclasses import dataclass


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass
class SmithNormalForm:
    """Holds U @ M @ V == D with U, V unimodular and D diagonal.

    The diagonal entries are nonnegative and form a divisor chain
    d1 | d2 | ... | dr, followed by zeros.  ``Uinv``/``Vinv`` are only
    present when requested, and ``V`` can be switched off entirely for
    wide matrices whose column transform would dwarf the matrix itself.
    """

    U: list[list[int]]
    D: list[list[int]]
    V: list[list[int]] | None
    Uinv: list[list[int]] | None
    Vinv: list[list[int]] | None
    rank: int

    @property
    def divisors(self) -> list[int]:
        return [self.D[i][i] for i in range(self.rank)]


def smith_normal_form(matrix, ncols: int | None = None,
                      want_uinv: bool = False, want_vinv: bool = False,
                      want_v: bool = True) -> SmithNormalForm:
    """Smith normal form of an integer matrix given as a list of rows.

    ``ncols`` disambiguates the shape when the matrix has zero rows.
    Deterministic: each pivot is the remaining entry of minimal absolute
    value, ties broken by position.  The working copy is kept as mirrored
    sparse row/column dicts so pivot searches cost the number of surviving
    nonzeros, not the full shape; transforms are dense.  ``want_v=False``
    skips the ncols x ncols column transform, which is the only quadratic
    cost in the column count; callers that need divisors and row data on
    a very wide matrix should switch it off.

    >>> res = smith_normal_form([[2, 0], [0, 3]])
    >>> [res.D[0][0], res.D[1][1]]
    [1, 6]
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
    if want_vinv and not want_v:
        raise ValueError("want_vinv needs the column transform")
    U = identity_matrix(m)
    V = identity_matrix(n) if want_v else None
    Uinv = identity_matrix(m) if want_uinv else None
    Vinv = identity_matrix(n) if want_vinv else None

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
        Ui, Ut = U[i], U[t]
        for j in range(m):
            if Ut[j]:
                Ui[j] -= q * Ut[j]
        if Uinv is not None:
            for row in Uinv:
                if row[i]:
                    row[t] += q * row[i]

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
        if V is not None:
            for row in V:
                if row[t]:
                    row[j] -= q * row[t]
        if Vinv is not None:
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
            for j in list(rows[pi]):
                rows[pi][j] = -rows[pi][j]
                cols[j][pi] = rows[pi][j]
            Ui = U[pi]
            for j in range(m):
                Ui[j] = -Ui[j]
            if Uinv is not None:
                for row in Uinv:
                    row[pi] = -row[pi]
        pivot_rows.append(pi)
        pivot_cols.append(pj)
        live_rows.discard(pi)
        live_cols.discard(pj)

    rank = len(pivot_rows)
    row_order = pivot_rows + sorted(live_rows)
    col_order = pivot_cols + sorted(live_cols)
    D = [[0] * n for _ in range(m)]
    for t in range(rank):
        D[t][t] = rows[pivot_rows[t]][pivot_cols[t]]
    U = [U[i] for i in row_order]
    if V is not None:
        V = [[row[j] for j in col_order] for row in V]
    if Uinv is not None:
        Uinv = [[row[i] for i in row_order] for row in Uinv]
    if Vinv is not None:
        Vinv = [Vinv[j] for j in col_order]
    return SmithNormalForm(U=U, D=D, V=V, Uinv=Uinv, Vinv=Vinv, rank=rank)


@dataclass
class QuotientPresentation:
    """Reduction data for H = ker E / im D inside Z^ncols.

    ``kernel`` has one length-``ncols`` column per kernel basis vector;
    ``coords`` recovers kernel coordinates of any cycle (its rows are the
    bottom rows of the inverse column transform of E's Smith form).  The
    quotient's own Smith data (``ux``, ``uxinv``, ``diag``) turns kernel
    coordinates into homology coordinates:

        u = ux @ w;  torsion coordinates u[i] mod diag[i] at the positions
        with diag[i] > 1, free coordinates u[rank_x:].
    """

    ncols: int
    kernel: list[list[int]]          # ncols x k, columns are a kernel basis
    coords: list[list[int]]          # k x ncols
    ux: list[list[int]]              # k x k
    uxinv: list[list[int]]           # k x k
    rank_x: int
    diag: list[int]                  # rank_x entries, divisor chain
    torsion: tuple[int, ...]         # diag entries > 1
    tor_positions: tuple[int, ...]   # their indices in diag
    free_rank: int

    @property
    def kernel_rank(self) -> int:
        return len(self.coords)

    def kernel_coords(self, vector: dict[int, int]) -> list[int]:
        """Coordinates w with kernel @ w == vector; caller guarantees a cycle."""
        k = self.kernel_rank
        w = [0] * k
        for idx, val in vector.items():
            if val:
                for i in range(k):
                    c = self.coords[i][idx]
                    if c:
                        w[i] += val * c
        return w

    def class_coords(self, vector: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(free, torsion) homology coordinates of a cycle."""
        w = self.kernel_coords(vector)
        k = self.kernel_rank
        u = [0] * k
        for i in range(k):
            row = self.ux[i]
            s = 0
            for j in range(k):
                if row[j] and w[j]:
                    s += row[j] * w[j]
            u[i] = s
        free = tuple(u[self.rank_x:])
        torsion = tuple(u[p] % self.diag[p] for p in self.tor_positions)
        return free, torsion

    def vector_from_coords(self, free, torsion) -> dict[int, int]:
        """A representative cycle with the given homology coordinates."""
        k = self.kernel_rank
        u = [0] * k
        for pos, c in zip(self.tor_positions, torsion):
            u[pos] = c
        for j, c in enumerate(free):
            u[self.rank_x + j] = c
        w = [0] * k
        for i in range(k):
            row = self.uxinv[i]
            s = 0
            for j in range(k):
                if row[j] and u[j]:
                    s += row[j] * u[j]
            w[i] = s
        vec: dict[int, int] = {}
        for idx in range(self.ncols):
            s = 0
            kern = self.kernel[idx]
            for i in range(k):
                if kern[i] and w[i]:
                    s += kern[i] * w[i]
            if s:
                vec[idx] = s
        return vec


def quotient_presentation(e_columns: list[dict[int, int]], nrows_e: int,
                          d_columns: list[dict[int, int]]) -> QuotientPresentation:
    """Present ker E / im D, with E given by sparse columns over row indices
    0..nrows_e-1 and D by sparse columns over E's column indices.

    im D must lie inside ker E (the caller's boundary-squared guarantee);
    this is checked via the part of the coordinate solve that must vanish,
    and a violation raises ``ValueError``.
    """
    ncols = len(e_columns)
    dense = [[0] * ncols for _ in range(nrows_e)]
    for j, col in enumerate(e_columns):
        for i, v in col.items():
            dense[i][j] = v
    res = smith_normal_form(dense, ncols=ncols, want_vinv=True)
    r = res.rank
    k = ncols - r
    kernel = [[res.V[idx][r + i] for i in range(k)] for idx in range(ncols)]
    coords = res.Vinv[r:] if k else []
    for col in d_columns:
        for row in res.Vinv[:r]:
            if sum(row[idx] * v for idx, v in col.items()):
                raise ValueError("boundary column escapes the kernel")
    x_rows = [[0] * len(d_columns) for _ in range(k)]
    for j, col in enumerate(d_columns):
        for idx, val in col.items():
            if val:
                for i in range(k):
                    c = coords[i][idx]
                    if c:
                        x_rows[i][j] += val * c
    xres = smith_normal_form(x_rows, ncols=len(d_columns), want_uinv=True,
                             want_v=False)
    diag = [xres.D[i][i] for i in range(xres.rank)]
    tor_positions = tuple(i for i, d in enumerate(diag) if d > 1)
    torsion = tuple(diag[i] for i in tor_positions)
    return QuotientPresentation(
        ncols=ncols,
        kernel=kernel,
        coords=coords,
        ux=xres.U,
        uxinv=xres.Uinv,
        rank_x=xres.rank,
        diag=diag,
        torsion=torsion,
        tor_positions=tor_positions,
        free_rank=k - xres.rank,
    )
