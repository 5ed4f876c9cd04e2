"""Brute-force twisted homology over the unnormalized bar complex.

This is the oracle side of the engine: for a finite group it computes
H_n, the shuffle product, and the inversion map directly on bar tuples,
sharing nothing with the small-complex pipeline except the final exact
linear algebra.  Basis sizes grow like |G|^k, so every entry point takes
a cap and refuses to materialize anything larger.

The workhorse is a three-term window C_{n+1} -> C_n -> C_{n-1} reduced
by repeated cancellation of unit entries (Gaussian reduction of based
complexes).  Each cancellation is logged so cycles can be pushed into
the reduced window and reduced-complex generators lifted back to honest
bar cycles.  Windows are built on the normalized subquotient (tuples
with no identity entries), which has the same homology on a basis of
(|G|-1)^k elements instead of |G|^k.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from .groups import GroupSpec
from .homology import AbelianType, InfiniteGroupError, coords_order
from .snf import quotient_presentation


class CapExceededError(RuntimeError):
    """A bar degree would need more basis elements than the cap allows."""


Element = tuple[int, ...]
BarKey = tuple[Element, ...]


def _orders(group: GroupSpec) -> tuple[int, ...]:
    if not group.is_finite:
        raise InfiniteGroupError("bar computations need a finite group")
    return group.orders


def elements(group: GroupSpec) -> list[Element]:
    """All group elements as exponent vectors, lexicographically."""
    return list(itertools.product(*(range(o) for o in _orders(group))))


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


@dataclass(frozen=True)
class BarChain:
    """Integer combination of bar tuples of one degree."""

    group: GroupSpec
    degree: int
    terms: dict[BarKey, int] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {k: v for k, v in self.terms.items() if v}
        object.__setattr__(self, "terms", cleaned)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _like(self, terms) -> "BarChain":
        return BarChain(self.group, self.degree, terms)

    def __add__(self, other: "BarChain") -> "BarChain":
        if self.group != other.group or self.degree != other.degree:
            raise ValueError("bar chains live in different places")
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return self._like(terms)

    def __neg__(self) -> "BarChain":
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "BarChain") -> "BarChain":
        return self + (-other)

    def __rmul__(self, k: int) -> "BarChain":
        return self._like({key: k * v for key, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, BarChain) and self.group == other.group
                and self.degree == other.degree and self.terms == other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            v = self.terms[key]
            body = "|".join(",".join(str(e) for e in g) for g in key) or "-"
            bits.append(f"{v}*[{body}]")
        return " + ".join(bits)


def bar_chain(group: GroupSpec, degree: int, terms: dict[BarKey, int]) -> BarChain:
    _orders(group)
    for key in terms:
        if len(key) != degree:
            raise ValueError("bar tuple length disagrees with the degree")
    return BarChain(group, degree, dict(terms))


def _key_boundary(group: GroupSpec, orders: tuple[int, ...], key: BarKey) -> dict[BarKey, int]:
    """Differential of one bar tuple, tensored with the twisted integers:
    the leading face picks up omega of the dropped entry."""
    k = len(key)
    out: dict[BarKey, int] = {}

    def put(face: BarKey, coeff: int):
        w = out.get(face, 0) + coeff
        if w:
            out[face] = w
        else:
            out.pop(face, None)

    if k == 0:
        return out
    put(key[1:], omega_of(group, key[0]))
    sign = 1
    for i in range(k - 1):
        sign = -sign
        merged = key[:i] + (_mul(orders, key[i], key[i + 1]),) + key[i + 2:]
        put(merged, sign)
    put(key[:-1], -sign)
    return out


def bar_boundary(chain: BarChain) -> BarChain:
    """The bar differential, extended linearly."""
    orders = _orders(chain.group)
    total: dict[BarKey, int] = {}
    for key, coeff in chain.terms.items():
        for face, v in _key_boundary(chain.group, orders, key).items():
            w = total.get(face, 0) + coeff * v
            if w:
                total[face] = w
            else:
                total.pop(face, None)
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
    _orders(group)
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
                w = total.get(key, 0) + sign * coeff
                if w:
                    total[key] = w
                else:
                    total.pop(key, None)
    return BarChain(group, p + q, total)


def bar_inversion(chain: BarChain) -> BarChain:
    """Entrywise inversion of every tuple; omega is inversion-invariant,
    so no coefficient twist appears."""
    orders = _orders(chain.group)
    total: dict[BarKey, int] = {}
    for key, coeff in chain.terms.items():
        new = tuple(_inv(orders, g) for g in key)
        total[new] = total.get(new, 0) + coeff
    return BarChain(chain.group, chain.degree, total)


def _check_cap(group: GroupSpec, degrees, cap: int):
    size = group.group_order
    for k in degrees:
        if size ** k > cap:
            raise CapExceededError(
                f"bar degree {k} needs {size ** k} basis elements, cap is {cap}"
            )


class _Window:
    """Reduced three-term window of the bar complex around one degree.

    The window lives on the normalized basis: tuples containing the
    identity span an acyclic subcomplex, so dropping them changes no
    class and no order.  Incoming cycles are projected by discarding
    degenerate tuples; lifted representatives never contain any.
    """

    def __init__(self, group: GroupSpec, n: int):
        self.group = group
        self.n = n
        orders = _orders(group)
        self.identity: Element = (0,) * len(orders)
        nontrivial = [e for e in elements(group) if e != self.identity]
        # Tuple keys are interned as integers before any linear algebra;
        # composite keys in dicts, sets, and the replay log cost both the
        # memory and the hashing that the large windows cannot afford.
        self.mid_keys: list[BarKey] = list(itertools.product(nontrivial, repeat=n))
        self.mid_index: dict[BarKey, int] = {k: i for i, k in enumerate(self.mid_keys)}
        prev_index: dict[BarKey, int] = {
            k: i for i, k in enumerate(itertools.product(nontrivial, repeat=n - 1))
        } if n else {}

        def face_col(key: BarKey, index: dict[BarKey, int]) -> dict[int, int]:
            full = _key_boundary(group, orders, key)
            e = self.identity
            return {index[f]: v for f, v in full.items() if e not in f}

        # E: C_n -> C_{n-1}; D: C_{n+1} -> C_n.  Columns are dicts keyed
        # by row index; *_rows are reverse indexes (row -> set of cols).
        self.e_cols: dict[int, dict[int, int]] = {}
        self.e_rows: dict[int, set[int]] = {}
        for key, i in self.mid_index.items():
            col = face_col(key, prev_index) if n else {}
            self.e_cols[i] = col
            for rk in col:
                self.e_rows.setdefault(rk, set()).add(i)
        self.d_cols: dict[int, dict[int, int]] = {}
        self.d_rows: dict[int, set[int]] = {}
        for j, key in enumerate(itertools.product(nontrivial, repeat=n + 1)):
            col = face_col(key, self.mid_index)
            self.d_cols[j] = col
            for rk in col:
                self.d_rows.setdefault(rk, set()).add(j)
        self.log: list[tuple] = []
        self._cancel_units("E", self.e_cols, self.e_rows)
        self._cancel_units("D", self.d_cols, self.d_rows)
        self._present()

    def _cancel_units(self, tag: str, cols, rows):
        # Lazy Markowitz ordering: candidates carry the fill bound
        # (nnz(row)-1)*(nnz(col)-1) from when they were queued, stale
        # bounds are refreshed on pop, and every Schur write that turns
        # an entry into a unit queues it, so no unit is ever missed.
        heap = []
        for c, col in cols.items():
            for r, v in col.items():
                if v in (1, -1):
                    heap.append(((len(rows[r]) - 1) * (len(col) - 1), r, c))
        heapq.heapify(heap)
        while heap:
            score, r, c = heapq.heappop(heap)
            col = cols.get(c)
            if col is None or r not in rows:
                continue
            u = col.get(r, 0)
            if u not in (1, -1):
                continue
            fresh = (len(rows[r]) - 1) * (len(col) - 1)
            if fresh != score:
                heapq.heappush(heap, (fresh, r, c))
                continue
            rowvals = {c2: cols[c2][r] for c2 in rows[r] if c2 != c}
            colvals = {rk: v for rk, v in col.items() if rk != r}
            if tag == "E":
                self.log.append(("E", c, u, rowvals))
            else:
                self.log.append(("D", r, u, colvals))
            for c2, v2 in rowvals.items():
                lam = v2 // u
                col2 = cols[c2]
                for rk, val in colvals.items():
                    w = col2.get(rk, 0) - lam * val
                    if w:
                        if rk not in col2:
                            rows[rk].add(c2)
                        col2[rk] = w
                        if w in (1, -1):
                            heapq.heappush(
                                heap,
                                ((len(rows[rk]) - 1) * (len(col2) - 1), rk, c2),
                            )
                    elif rk in col2:
                        del col2[rk]
                        rows[rk].discard(c2)
                del col2[r]
            for rk in colvals:
                rows[rk].discard(c)
            del cols[c]
            del rows[r]
            if tag == "E":
                # In the changed basis the cancelled column's row of D is
                # exactly zero (the window composes to zero), so drop it.
                for dk in self.d_rows.pop(c, ()):
                    del self.d_cols[dk][c]
            else:
                # E restricted to the surviving basis is unchanged; only
                # the cancelled row's column disappears.
                for rk in self.e_cols.pop(r, {}):
                    self.e_rows[rk].discard(r)

    def _present(self):
        self.survivors = sorted(self.e_cols)
        self.index = {k: i for i, k in enumerate(self.survivors)}
        row_keys = sorted(self.e_rows)
        row_index = {k: i for i, k in enumerate(row_keys)}
        e_columns = [
            {row_index[rk]: v for rk, v in self.e_cols[key].items()}
            for key in self.survivors
        ]
        # Many surviving D columns are zero or repeats after cancellation;
        # only the span matters for the quotient, so keep one per sign
        # class and skip the zeros.
        d_columns = []
        seen = set()
        for key in sorted(self.d_cols):
            col = self.d_cols[key]
            if not col:
                continue
            items = tuple(sorted(col.items()))
            if items[0][1] < 0:
                items = tuple((rk, -v) for rk, v in items)
            if items in seen:
                continue
            seen.add(items)
            d_columns.append({self.index[rk]: v for rk, v in col.items()})
        self.pres = quotient_presentation(e_columns, len(row_keys), d_columns)

    def push(self, chain: BarChain) -> dict[int, int]:
        """Coordinates of a cycle in the reduced window.

        Tuples containing the identity are dropped first; passing to the
        normalized complex is a chain map, so the class is unmoved.
        """
        e = self.identity
        vec = {self.mid_index[k]: v for k, v in chain.terms.items() if e not in k}
        for entry in self.log:
            if entry[0] == "E":
                vec.pop(entry[1], None)
            else:
                _, r, u, colsnap = entry
                vr = vec.pop(r, 0)
                if vr:
                    lam = vr // u
                    for rk, v in colsnap.items():
                        w = vec.get(rk, 0) - lam * v
                        if w:
                            vec[rk] = w
                        else:
                            vec.pop(rk, None)
        return {self.index[k]: v for k, v in vec.items() if v}

    def class_coords(self, chain: BarChain) -> tuple[tuple[int, ...], tuple[int, ...]]:
        free, torsion = self.pres.class_coords(self.push(chain))
        return free, torsion

    def order_of(self, chain: BarChain) -> int:
        """Order of the cycle's class; 0 stands for infinite order."""
        free, torsion = self.class_coords(chain)
        return coords_order(free, torsion, self.pres.torsion)

    def lift(self, free, torsion) -> BarChain:
        """A bar cycle representing the class with the given coordinates."""
        vec_idx = self.pres.vector_from_coords(free, torsion)
        vec = {self.survivors[i]: v for i, v in vec_idx.items() if v}
        for entry in reversed(self.log):
            if entry[0] == "D":
                continue
            _, c, u, rowsnap = entry
            s = 0
            for c2, val in rowsnap.items():
                w = vec.get(c2)
                if w:
                    s += val * w
            if s:
                vec[c] = -(s // u)
        return BarChain(self.group, self.n,
                        {self.mid_keys[i]: v for i, v in vec.items()})

    def abelian_type(self) -> AbelianType:
        return AbelianType.from_divisors(self.pres.free_rank, self.pres.torsion)


# Built windows by (group, degree), oldest first.  Past _MAX_WINDOWS the
# oldest is dropped; the oracle comparison builds 44.
_WINDOWS: dict[tuple[GroupSpec, int], _Window] = {}
_MAX_WINDOWS = 64


def _window(group: GroupSpec, n: int, cap: int) -> _Window:
    _check_cap(group, (n, n + 1), cap)
    key = (group, n)
    win = _WINDOWS.get(key)
    if win is None:
        win = _WINDOWS[key] = _Window(group, n)
        if len(_WINDOWS) > _MAX_WINDOWS:
            del _WINDOWS[next(iter(_WINDOWS))]
    return win


def bar_homology(group: GroupSpec, n: int, cap: int = 20000) -> AbelianType:
    """Isomorphism type of H_n computed from the bar complex alone."""
    if n < 0:
        return AbelianType.zero()
    return _window(group, n, cap).abelian_type()


def chi_profile(source: str, group: GroupSpec, n: int, cap: int = 20000):
    """Multiset of (order of c, order of c ^ j(c)) over every class in H_n.

    ``source`` picks the computation route: "bar" works entirely over the
    bar complex, "small" entirely over the small complex.  Both routes
    compute the same natural pairing, so the multisets must agree; that
    agreement is what the oracle comparison checks.  Returned as a sorted
    tuple of pairs.
    """
    if source == "bar":
        return _chi_profile_bar(group, n, cap)
    if source == "small":
        return _chi_profile_small(group, n)
    raise ValueError("source must be 'bar' or 'small'")


def _chi_profile_bar(group: GroupSpec, n: int, cap: int):
    win = _window(group, n, cap)
    if win.pres.free_rank:
        raise InfiniteGroupError("H_n has free rank; classes are not enumerable")
    _check_cap(group, (2 * n, 2 * n + 1), cap)
    win2 = _window(group, 2 * n, cap)
    divisors = win.pres.torsion
    profile = []
    for residues in itertools.product(*(range(d) for d in divisors)):
        z = win.lift((), residues)
        order_c = coords_order((), residues, divisors)
        value = shuffle_product(z, bar_inversion(z))
        profile.append((order_c, win2.order_of(value)))
    return tuple(sorted(profile))


def _chi_profile_small(group: GroupSpec, n: int):
    from .criterion import chi_chain
    from .homology import class_order, homology

    h = homology(group, n)
    profile = []
    for c in h.classes():
        z = h.representative(c)
        profile.append((c.order(), class_order(chi_chain(z))))
    return tuple(sorted(profile))

