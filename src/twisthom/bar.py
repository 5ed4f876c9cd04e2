"""Brute-force twisted homology over the normalized bar complex.

This is the oracle side of the engine: for a finite group it computes
H_n, the shuffle product, and the inversion map directly on bar tuples.
It shares two pieces of plumbing with the small-complex pipeline: the
chain container arithmetic (``BarChain`` and ``Chain`` rest on one base
in :mod:`twisthom.chains`) and the exact linear algebra of
:mod:`twisthom.snf`.  It shares none of the mathematics: the bar
differential, the shuffle product, the inversion and the reduction here
are independent of the small complex.  Basis sizes grow like |G|^k, so
every entry point takes a cap and refuses to materialize anything larger.

The workhorse is one reduced complex per group, kept by ``_reduced`` (an
``lru_cache`` of 16 groups) and extended one differential at a time,
lowest degree first.  Each d_k is built once and reduced by cancelling
unit entries (Gaussian reduction of based complexes): plain sweeps over
the columns, each cancelling a column's unit in its shortest row,
repeated until a sweep finds none.  Each differential keeps one pivot
log: its row halves lift generators of H_k back to honest bar cycles,
its column halves push cycles of H_{k-1} into the reduced basis.
H_{k-1} is presented as soon as d_k is reduced.  The complex is built on
the normalized subquotient (tuples with no identity entries), which has
the same homology on a basis of (|G|-1)^k elements instead of |G|^k.

That basis is coded: with b = |G|-1, the nontrivial elements get the
codes 0..b-1 in the order of ``elements``, and a k-tuple is the base-b
number whose digits are its codes, which is its position in the
enumeration of nontrivial k-tuples.  Each column of d_k is computed
from the digits of its position, through one Cayley table of codes and
one list of omega values per group; tuples appear only where bar
chains enter (``push``) and leave (``lift``).  Vectors are keyed by code
end to end: the presentation of H_{k-1} takes the surviving columns of
d_{k-1} and the columns of d_k keyed by their codes, and its coordinate
rows and generators come back keyed the same way, so no code is ever
renumbered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .chains import _Combination, as_degree
from .criterion import chi_chain
from .groups import GroupSpec
from .homology import (
    AbelianType,
    InfiniteGroupError,
    class_order,
    coords_order,
    homology,
)
from .snf import _addmul, _dot, quotient_presentation


class CapExceededError(RuntimeError):
    """A bar degree would need more basis elements than the cap allows."""


# Default basis size limit per bar degree.
BAR_CAP = 20000


Element = tuple[int, ...]
BarKey = tuple[Element, ...]


def elements(group: GroupSpec) -> list[Element]:
    """All group elements as exponent vectors, lexicographically."""
    if not group.is_finite:
        raise InfiniteGroupError("bar computations need a finite group")
    return list(itertools.product(*(range(o) for o in group.orders)))


def omega_of(group: GroupSpec, elt: Element) -> int:
    """Value of the orientation character on the element."""
    w = 1
    for s, e in zip(group.signs, elt):
        if s < 0 and e % 2:
            w = -w
    return w


def _mul(orders: tuple[int, ...], x: Element, y: Element) -> Element:
    return tuple((a + b) % o for a, b, o in zip(x, y, orders))


def _inv(orders: tuple[int, ...], x: Element) -> Element:
    return tuple((-a) % o for a, o in zip(x, orders))


@dataclass(frozen=True, eq=False)
class BarChain(_Combination):
    """Integer combination of bar tuples of one degree, over a finite group.

    Each tuple has ``degree`` entries, each a group element: one int
    exponent e per factor, 0 <= e < order (a bool counts as its int).
    Anything else, or a coefficient that is not an int, raises
    ``ValueError``; a degree that is not an int raises ``TypeError``
    (:func:`~twisthom.chains.as_degree`).
    The arithmetic and the zero-free invariant come from the base
    :class:`~twisthom.chains._Combination`, shared with ``Chain``: the
    constructor checks the keys, then the base drops zero coefficients,
    so every bar chain holds only nonzero ones.
    """

    group: GroupSpec
    degree: int
    terms: dict[BarKey, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.group.is_finite:
            raise InfiniteGroupError("bar computations need a finite group")
        object.__setattr__(self, "degree", as_degree(self.degree))
        orders = self.group.orders
        for key, coef in self.terms.items():
            if not isinstance(coef, int):
                raise ValueError("bar coefficient is not an integer")
            if not isinstance(key, tuple) or len(key) != self.degree:
                raise ValueError("bar key is not a tuple of the degree's length")
            if any(not isinstance(g, tuple) or len(g) != len(orders)
                   or not all(isinstance(e, int) and 0 <= e < o for e, o in zip(g, orders))
                   for g in key):
                raise ValueError("bar tuple entry is not an element of the group")
        super().__post_init__()

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            v = self.terms[key]
            body = "|".join(",".join(str(e) for e in g) for g in key) or "-"
            bits.append(f"{v}*[{body}]")
        return " + ".join(bits)


def _key_boundary(group: GroupSpec, orders: tuple[int, ...], key: BarKey) -> dict[BarKey, int]:
    """Differential of one bar tuple, tensored with the twisted integers:
    the leading face picks up omega of the dropped entry."""
    k = len(key)
    if k == 0:
        return {}
    out = {key[1:]: omega_of(group, key[0])}
    sign = 1
    for i in range(k - 1):
        sign = -sign
        merged = key[:i] + (_mul(orders, key[i], key[i + 1]),) + key[i + 2:]
        out[merged] = out.get(merged, 0) + sign
    out[key[:-1]] = out.get(key[:-1], 0) - sign
    return out


def bar_boundary(chain: BarChain) -> BarChain:
    """The bar differential, extended linearly."""
    orders = chain.group.orders
    total: dict[BarKey, int] = {}
    for key, coeff in chain.terms.items():
        _addmul(total, _key_boundary(chain.group, orders, key), coeff)
    return BarChain(chain.group, chain.degree - 1, total)


def _shuffles(p: int, q: int):
    """(positions, sign) for each (p, q)-shuffle of p+q slots.

    The sign is the parity of the shuffle permutation, which equals the
    number of crossings: sum over the chosen slots of how far each moved.
    """
    base = p * (p - 1) // 2
    for chosen in itertools.combinations(range(p + q), p):
        yield chosen, -1 if (sum(chosen) - base) % 2 else 1


def shuffle_product(a: BarChain, b: BarChain) -> BarChain:
    """Signed sum over all interleavings; the bar-side Pontryagin product."""
    if a.group != b.group:
        raise ValueError("bar chains over different groups")
    group = a.group
    p, q = a.degree, b.degree
    if not a.terms or not b.terms:
        return BarChain(group, p + q, {})
    plan = list(_shuffles(p, q))
    total: dict[BarKey, int] = {}
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            coeff = va * vb
            for chosen, sign in plan:
                merged = [None] * (p + q)
                for i, pos in enumerate(chosen):
                    merged[pos] = ka[i]
                bi = 0
                for pos in range(p + q):
                    if merged[pos] is None:
                        merged[pos] = kb[bi]
                        bi += 1
                key = tuple(merged)
                total[key] = total.get(key, 0) + sign * coeff
    return BarChain(group, p + q, total)


def bar_inversion(chain: BarChain) -> BarChain:
    """Entrywise inversion of every tuple; omega is inversion-invariant,
    so no coefficient twist appears."""
    orders = chain.group.orders
    total: dict[BarKey, int] = {}
    for key, coeff in chain.terms.items():
        new = tuple(_inv(orders, g) for g in key)
        total[new] = total.get(new, 0) + coeff
    return BarChain(chain.group, chain.degree, total)


def _cancel_units(cols, rows):
    """Cancel unit entries until none is left, yielding (row, column,
    unit, rest of its row, rest of its column) after each one.

    Each sweep visits every column once, in dict order, and where the
    column has a unit, cancels the one whose row r is shortest, which
    keeps the Schur fill small: each other column c2 on row r loses its
    entry v2 there and gains -v2 u times the rest of the pivot column (u
    is +-1, so v2 // u = v2 u).  A Schur update can create units in
    columns the sweep has passed, so sweeps repeat until one finds no
    unit.
    """
    found = True
    while found:
        found = False
        for c in list(cols):
            col = cols[c]
            r = None
            for rk, v in col.items():
                if -2 < v < 2 and (r is None or len(rows[rk]) < shortest):
                    r, shortest = rk, len(rows[rk])
            if r is None:
                continue
            found = True
            u = col.pop(r)
            rowvals = {}
            if len(col) == 1:
                # The rest of the pivot column is one entry (rk, val).
                [(rk, val)] = col.items()
                holders, val = rows[rk], val * u
                for c2 in rows[r]:
                    if c2 != c:
                        col2 = cols[c2]
                        v2 = rowvals[c2] = col2.pop(r)
                        old = col2.get(rk)
                        if old is None:
                            holders.add(c2)
                            col2[rk] = -v2 * val
                        elif old != v2 * val:
                            col2[rk] = old - v2 * val
                        else:
                            del col2[rk]
                            holders.discard(c2)
            else:
                for c2 in rows[r]:
                    if c2 != c:
                        col2 = cols[c2]
                        v2 = rowvals[c2] = col2.pop(r)
                        lam = v2 * u
                        for rk, val in col.items():
                            old = col2.get(rk)
                            if old is None:
                                rows[rk].add(c2)
                                col2[rk] = -lam * val
                            elif old != lam * val:
                                col2[rk] = old - lam * val
                            else:
                                del col2[rk]
                                rows[rk].discard(c2)
            for rk in col:
                rows[rk].discard(c)
            del cols[c]
            del rows[r]
            yield r, c, u, rowvals, col


class _Complex:
    """The normalized bar complex of one group, reduced lowest degree first.

    Tuples containing the identity span an acyclic subcomplex, so
    dropping them changes no class and no order.  Incoming cycles are
    projected by discarding degenerate tuples; lifted representatives
    never contain any.  Extending to degree k presents H_{k-1} at once,
    and later reductions only drop columns of d_k whose image is zero,
    so no answer depends on how far the complex was extended before.
    ``push``, the presentations in ``pres`` and ``lift`` all hold vectors
    keyed by code; no other numbering of the basis is kept.
    """

    def __init__(self, group: GroupSpec):
        self.group = group
        identity = (0,) * len(group.orders)
        self.nontrivial = [e for e in elements(group) if e != identity]
        # The coded basis of the module docstring: a k-tuple's position in
        # itertools.product(self.nontrivial, repeat=k) has its first entry's
        # code as the most significant digit.  mul is the Cayley table on
        # codes, -1 where a product is the identity.
        self.code = {x: i for i, x in enumerate(self.nontrivial)}
        self.mul = [[self.code.get(_mul(group.orders, x, y), -1) for y in self.nontrivial]
                    for x in self.nontrivial]
        self.omega = [omega_of(group, x) for x in self.nontrivial]
        self.top = 0
        # log[k]: the pivots of d_k as (row, column, unit, rest of its
        # row, rest of its column).  Lift at degree k replays the row
        # halves of log[k], push the column halves of log[k+1].
        self.log: list[list[tuple]] = [[]]
        self.pres: list = []
        # The columns of d_top left by its reduction, keyed by row.
        self.cols: dict[int, dict[int, int]] = {0: {}}

    def encode(self, key: BarKey) -> int | None:
        """Position of a bar tuple; None if it contains the identity."""
        b, code = len(self.nontrivial), self.code
        j = 0
        for x in key:
            c = code.get(x)
            if c is None:
                return None
            j = j * b + c
        return j

    def decode(self, k: int, j: int) -> BarKey:
        """The nontrivial k-tuple at position j."""
        b, key = len(self.nontrivial), []
        for _ in range(k):
            j, c = divmod(j, b)
            key.append(self.nontrivial[c])
        return tuple(reversed(key))

    def _columns(self, k: int, prev) -> tuple[dict[int, dict[int, int]], dict[int, set[int]]]:
        """Columns of d_k on the rows in ``prev``, and the reverse index
        from each row to the columns holding it.

        Column j's faces come from its digits: the leading face j % b^(k-1)
        with omega of the first entry, face i merging entries i and i+1
        with sign (-1)^(i+1), and the trailing face j // b with sign
        (-1)^k.  They are inserted in this order, the order of
        _key_boundary; faces that cancel or merge to the identity are
        left out.
        """
        b, mul, omega = len(self.nontrivial), self.mul, self.omega
        lead = b ** (k - 1)
        # alive[f] is prev's own key for row f, None where f is not in
        # prev: every entry on a row shares one int object.
        alive = [None] * lead
        for f in prev:
            alive[f] = f
        # (i, sign, b^(k-2-i), b^(k-i)) for each merged face i.
        merges = [(i, -1 if i % 2 == 0 else 1, b ** (k - 2 - i), b ** (k - i))
                  for i in range(k - 1)]
        last = -1 if k % 2 else 1
        cols: dict[int, dict[int, int]] = {}
        rows: dict[int, set[int]] = {}
        for j, digits in enumerate(itertools.product(range(b), repeat=k)):
            col = {}
            f = alive[j % lead]
            if f is not None:
                col[f] = omega[digits[0]]
            for i, sign, low, high in merges:
                m = mul[digits[i]][digits[i + 1]]
                if m >= 0:
                    f = alive[(j // high * b + m) * low + j % low]
                    if f is not None:
                        col[f] = col.get(f, 0) + sign
            f = alive[j // b]
            if f is not None:
                col[f] = col.get(f, 0) + last
            if 0 in col.values():
                col = {f: v for f, v in col.items() if v}
            cols[j] = col
            for f in col:
                row = rows.get(f)
                if row is None:
                    rows[f] = {j}
                else:
                    row.add(j)
        return cols, rows

    def _extend(self):
        """Build and reduce d_k for k = top + 1, then present H_{k-1}."""
        k = self.top + 1
        prev = self.cols
        # The rows that d_{k-1} cancelled as columns are zero in the changed
        # basis (d_{k-1} d_k = 0) and the other entries do not move, so
        # d_k is built on the rows that survived as columns of d_{k-1}.
        cols, rows = self._columns(k, prev)
        log = list(_cancel_units(cols, rows))
        # d_{k-1} on the other basis elements is unchanged; each
        # cancelled row is now a boundary, so its column disappears.
        for r, *_ in log:
            del prev[r]
        self.log.append(log)
        # Present H_{k-1} = ker d_{k-1} / im d_k on the surviving basis,
        # keyed by code.  Columns are built in ascending code order and
        # only ever deleted, so prev and cols are in code order already.
        nrows = len({rk for col in prev.values() for rk in col})
        # Many surviving columns of d_k are zero or repeats after
        # cancellation; only the span matters for the quotient, so keep
        # one per sign class and skip the zeros.
        spans = {}
        for col in cols.values():
            if col:
                items = sorted(col.items())
                sign = -1 if items[0][1] < 0 else 1
                spans.setdefault(tuple((rk, sign * v) for rk, v in items), col)
        self.pres.append(quotient_presentation(prev, nrows, list(spans.values())))
        self.cols = cols
        self.top = k

    def push(self, chain: BarChain) -> dict[int, int]:
        """A cycle as a vector on the reduced basis of its degree, keyed by
        code.

        Tuples containing the identity are dropped first; passing to the
        normalized complex is a chain map, so the class is unmoved.
        """
        n = chain.degree
        vec = {}
        for key, v in chain.terms.items():
            j = self.encode(key)
            if j is not None:
                vec[j] = v
        # A cycle's coordinate on a column d_n cancelled is zero in the
        # changed basis (its image has that unit's row alone), so only
        # the pivots of d_{n+1} move it.  Entries left on those columns
        # meet no coordinate row of the presentation, so they are ignored.
        for r, _, u, _, colvals in self.log[n + 1]:
            vr = vec.pop(r, 0)
            if vr:
                _addmul(vec, colvals, -(vr // u))
        return vec

    def class_coords(self, chain: BarChain) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.pres[chain.degree].class_coords(self.push(chain))

    def order_of(self, chain: BarChain) -> int:
        """Order of the cycle's class; 0 stands for infinite order."""
        free, torsion = self.class_coords(chain)
        return coords_order(free, torsion, self.pres[chain.degree].torsion)

    def lift(self, n: int, free, torsion) -> BarChain:
        """A bar cycle of degree n in the class with these coordinates."""
        vec = self.pres[n].vector_from_coords(free, torsion)
        for _, c, u, rowvals, _ in reversed(self.log[n]):
            s = _dot(rowvals, vec)
            if s:
                vec[c] = -(s // u)
        return BarChain(self.group, n, {self.decode(n, i): v for i, v in vec.items()})


@lru_cache(maxsize=16)
def _reduced(group: GroupSpec) -> _Complex:
    """The group's reduced complex, built empty the first time and
    extended in place by :func:`_complex`; the oracle comparison uses 7
    groups."""
    return _Complex(group)


def _as_cap(cap) -> int:
    """A cap argument as an int, checked before any work: anything but an
    int is refused with ``TypeError``, and a bool is read as its int."""
    if not isinstance(cap, int):
        raise TypeError(f"bar cap must be an integer, got {cap!r}")
    return int(cap)


def _complex(group: GroupSpec, top: int, cap: int) -> _Complex:
    """The group's complex through degree ``top``.  Bar degrees grow
    with k as |G|^k, so checking the cap at ``top`` alone, before any
    work, covers every degree below it."""
    size = group.group_order ** top
    if size > cap:
        raise CapExceededError(f"bar degree {top} needs {size} basis elements, cap is {cap}")
    cx = _reduced(group)
    while cx.top < top:
        cx._extend()
    return cx


def bar_homology(group: GroupSpec, n: int, cap: int = BAR_CAP) -> AbelianType:
    """Isomorphism type of H_n computed from the bar complex alone."""
    n, cap = as_degree(n), _as_cap(cap)
    if not group.is_finite:
        raise InfiniteGroupError("bar computations need a finite group")
    if n < 0:
        return AbelianType.zero()
    pres = _complex(group, n + 1, cap).pres[n]
    return AbelianType.from_divisors(pres.free_rank, pres.torsion)


def chi_profile(source: str, group: GroupSpec, n: int, cap: int = BAR_CAP):
    """Multiset of (order of c, order of c ^ j(c)) over every class in H_n.

    ``source`` picks the computation route: "bar" works entirely over the
    bar complex, "small" entirely over the small complex.  Both routes
    compute the same natural pairing, so the multisets must agree; that
    agreement is what the oracle comparison checks.  Returned as a sorted
    tuple of pairs.  A negative ``n`` is refused on either route, and so
    is a ``cap`` that is not an int, though only the bar route reads it.
    """
    n, cap = as_degree(n), _as_cap(cap)
    if n < 0:
        raise ValueError("homology degree must be nonnegative")
    if source == "bar":
        return _chi_profile_bar(group, n, cap)
    if source == "small":
        return _chi_profile_small(group, n)
    raise ValueError("source must be 'bar' or 'small'")


def _chi_profile_bar(group: GroupSpec, n: int, cap: int):
    cx = _complex(group, 2 * n + 1, cap)
    pres = cx.pres[n]
    if pres.free_rank:
        raise InfiniteGroupError("H_n has free rank; classes are not enumerable")
    divisors = pres.torsion
    profile = []
    for residues in itertools.product(*(range(d) for d in divisors)):
        z = cx.lift(n, (), residues)
        order_c = coords_order((), residues, divisors)
        value = shuffle_product(z, bar_inversion(z))
        profile.append((order_c, cx.order_of(value)))
    return tuple(sorted(profile))


def _chi_profile_small(group: GroupSpec, n: int):
    h = homology(group, n)
    profile = []
    for c in h.classes():
        z = h.representative(c)
        profile.append((c.order(), class_order(chi_chain(z))))
    return tuple(sorted(profile))

