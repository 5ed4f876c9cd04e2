"""Homology groups of the small complex, with exact reduction to coordinates.

Each factor's complex splits into pieces ``Z`` or ``Z --c--> Z`` (c = q on
an untwisted Z_q, c = 2 on a twisted factor, no pairs on an untwisted Z),
so the whole complex is a direct sum of Koszul complexes K(c_1..c_m), one
per block key (see :func:`twisthom.chains.block_key`).
``homology(group, n)`` presents H_n as the direct sum of the blocks'
homology: each block is presented once per shape (signed coefficients and
degree) by ``quotient_presentation`` on its t-subsets.  That takes the
block's cycles from the column-only Smith form of its outgoing
differential, and its generators from the Smith form of the transposed
incoming differential written in cycle coordinates; it hands out one
coordinate row and one cycle vector per generator.  A block whose
coefficients have gcd 1 is exact: its presentation is empty and it drops
out.  A chain is checked as a cycle on each block's Koszul columns, and
reduced, tested for bounding, or given its order block by block, touching
only the blocks its terms lie in.  Presentations are cached per ``(group, n)`` and compare equal when
``(group, n)`` is equal.

>>> from .groups import parse_group_spec
>>> g = parse_group_spec("Z_2 x Z_2")
>>> str(homology(g, 2))
'Z_2'
>>> str(homology(g, 3))
'Z_2^3'
>>> h = homology(parse_group_spec("Z_6"), 1)
>>> str(h), h.torsion_divisors
('Z_2 + Z_3', (6,))
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, gcd, lcm

from .chains import Chain, ChainError, basis, block_key, block_pairing
from .groups import GroupSpec
from .snf import QuotientPresentation, quotient_presentation


class NotACycleError(ChainError):
    """Raised when a chain handed to the reduction has nonzero boundary."""


class InfiniteGroupError(ValueError):
    """Raised when enumeration is asked of a group with free rank."""


def coords_order(free, torsion, divisors) -> int:
    """Order of the class with these coordinates; 0 stands for infinite."""
    if any(free):
        return 0
    return lcm(*(d // gcd(d, c) for c, d in zip(torsion, divisors)))


@dataclass(frozen=True)
class HomologyClass:
    """An element of a homology presentation, in generator coordinates.

    ``free`` lists coefficients on the infinite-order generators and
    ``torsion`` the residues on the finite-order ones, in the order the
    presentation hands generators out (torsion first).
    """

    presentation: "HomologyPresentation"
    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def __post_init__(self):
        divisors = self.presentation.torsion_divisors
        if len(self.free) != self.presentation.free_rank or len(self.torsion) != len(divisors):
            raise ValueError("coordinate arity disagrees with the presentation")
        fixed = tuple(c % d for c, d in zip(self.torsion, divisors))
        object.__setattr__(self, "torsion", fixed)

    @property
    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def order(self) -> int:
        """Order of the class; 0 stands for infinite order."""
        return coords_order(self.free, self.torsion, self.presentation.torsion_divisors)

    def representative(self) -> Chain:
        """A cycle reducing to this class."""
        return self.presentation.representative(self)

    def _check_mate(self, other: "HomologyClass"):
        if self.presentation != other.presentation:
            raise ValueError("classes live in different presentations")

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        self._check_mate(other)
        return HomologyClass(
            self.presentation,
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
        )

    def __sub__(self, other: "HomologyClass") -> "HomologyClass":
        return self + (-other)

    def __neg__(self) -> "HomologyClass":
        return HomologyClass(
            self.presentation,
            tuple(-a for a in self.free),
            tuple(-a for a in self.torsion),
        )

    def __rmul__(self, k: int) -> "HomologyClass":
        return HomologyClass(
            self.presentation,
            tuple(k * a for a in self.free),
            tuple(k * a for a in self.torsion),
        )

    def __str__(self):
        divisors = self.presentation.torsion_divisors
        bits = [f"{c} mod {d}" for c, d in zip(self.torsion, divisors)]
        bits += [str(c) for c in self.free]
        return "(" + ", ".join(bits) + ")" if bits else "()"


def _koszul_columns(coeffs: tuple[int, ...], t: int) -> list[dict[int, int]]:
    """The Koszul differential from t-subsets to (t-1)-subsets of the slots,
    as sparse columns; subsets are indexed in ``itertools.combinations``
    order.  Dropping the r-th element of a subset carries (-1)^r."""
    m = len(coeffs)
    lower = {s: i for i, s in enumerate(itertools.combinations(range(m), t - 1))} if t else {}
    return [{lower[s[:r] + s[r + 1:]]: -coeffs[k] if r & 1 else coeffs[k]
             for r, k in enumerate(s)}
            for s in itertools.combinations(range(m), t)]


@dataclass(frozen=True)
class _Koszul:
    """H_t of one Koszul block shape: the t-subsets, their index, the
    differential's columns on them, and the presentation over them, whose
    ``generators`` are one cycle vector per generator (torsion first).  A
    block whose coefficients have gcd 1 is exact: its presentation is
    empty."""

    subsets: tuple[tuple[int, ...], ...]
    index: dict
    columns: list[dict[int, int]]
    core: QuotientPresentation

    def is_cycle(self, vec: dict[int, int]) -> bool:
        """Whether the block's differential kills a local vector."""
        out: dict = {}
        for i, v in vec.items():
            for r, c in self.columns[i].items():
                out[r] = out.get(r, 0) + v * c
        return not any(out.values())


@lru_cache(maxsize=4096)
def _koszul(coeffs: tuple[int, ...], t: int) -> _Koszul:
    m = len(coeffs)
    subsets = tuple(itertools.combinations(range(m), t))
    index = {s: i for i, s in enumerate(subsets)}
    columns = _koszul_columns(coeffs, t)
    if gcd(*coeffs) == 1:
        core = QuotientPresentation((), 0, (), ())
    else:
        core = quotient_presentation(columns, comb(m, t - 1) if t else 0,
                                     _koszul_columns(coeffs, t + 1))
    return _Koszul(subsets, index, columns, core)


class HomologyPresentation:
    """Degree-``n`` homology of a group's small complex.

    The direct sum of the homology of its Koszul blocks.  Generators are
    ordered torsion first (matching ``torsion_divisors``) then free, each
    block's generators together, blocks in the order their keys first
    appear in the basis.  ``torsion_divisors`` lists each torsion
    generator's order; within a block every entry is the gcd of the
    block's coefficients, so the list is not a divisor chain.  ``str``
    prints the primary decomposition.
    ``reduce`` sends a cycle to coordinates; ``representative`` lifts
    coordinates back to a cycle, and the two are mutually inverse up to
    boundaries.  Presentations are values: equal and hashable on
    ``(group, degree)``.
    """

    def __init__(self, group: GroupSpec, degree: int):
        self.group = group
        self.degree = degree
        self._blocks: dict = {}  # block key -> (slots, _Koszul), blocks with homology

    def __eq__(self, other) -> bool:
        return (isinstance(other, HomologyPresentation)
                and self.group == other.group and self.degree == other.degree)

    def __hash__(self) -> int:
        return hash((self.group, self.degree))

    def _block(self, key):
        """(slots, _Koszul) of the block of ``key``.  Only blocks with
        homology are kept; one without is rebuilt for each cycle check."""
        block = self._blocks.get(key)
        if block is None:
            slots, coeffs = block_pairing(self.group, key)
            block = (slots, _koszul(coeffs, self.degree - sum(key)))
            if block[1].core.generators:
                self._blocks[key] = block
        return block

    @cached_property
    def _layout(self) -> dict:
        """Block key -> index of its first generator, in generator order."""
        group, n = self.group, self.degree
        keys = [k for k in dict.fromkeys(block_key(group, m) for m in basis(group, n))
                if self._block(k)[1].core.generators]
        keys.sort(key=lambda k: not self._block(k)[1].core.torsion)
        out, start = {}, 0
        for k in keys:
            out[k] = start
            start += len(self._block(k)[1].core.generators)
        return out

    @cached_property
    def torsion_divisors(self) -> tuple[int, ...]:
        return tuple(d for k in self._layout for d in self._block(k)[1].core.torsion)

    @cached_property
    def free_rank(self) -> int:
        return sum(self._block(k)[1].core.free_rank for k in self._layout)

    @property
    def num_generators(self) -> int:
        return self.free_rank + len(self.torsion_divisors)

    @property
    def is_trivial(self) -> bool:
        return self.num_generators == 0

    @cached_property
    def _cycles(self) -> tuple[Chain, ...]:
        """One representative cycle per generator, in generator order."""
        out = []
        for key in self._layout:
            slots, kos = self._block(key)
            for vec in kos.core.generators:
                terms = {}
                for i, v in vec.items():
                    mon = list(key)
                    for s in kos.subsets[i]:
                        mon[slots[s]] += 1
                    terms[tuple(mon)] = v
                out.append(Chain(self.group, self.degree, terms))
        return tuple(out)

    def _local(self, key, terms):
        """The block of ``key`` and the local vector of ``terms``, which all
        lie in it; raises ``NotACycleError`` unless the vector is a cycle."""
        slots, kos = self._block(key)
        vec = {kos.index[tuple(s for s, k in enumerate(slots) if mon[k] != key[k])]: coef
               for mon, coef in terms}
        if not kos.is_cycle(vec):
            raise NotACycleError("chain has nonzero boundary")
        return kos, vec

    def _parts(self, chain: Chain):
        """(key, _Koszul, free, torsion) for each block the chain touches
        that has homology: the block's local coordinates of its part of the
        chain.  Each part is checked as a cycle, since the differential
        keeps every block, and ``NotACycleError`` is raised on the first
        part that is not one."""
        split: dict = {}
        for mon, coef in chain.terms.items():
            split.setdefault(block_key(self.group, mon), []).append((mon, coef))
        for key, terms in split.items():
            kos, vec = self._local(key, terms)
            if kos.core.generators:
                yield key, kos, *kos.core.class_coords(vec)

    def _check_home(self, chain: Chain) -> None:
        if chain.group != self.group or chain.degree != self.degree:
            raise ValueError("chain does not live where this presentation does")

    def zero(self) -> HomologyClass:
        return HomologyClass(self, (0,) * self.free_rank, (0,) * len(self.torsion_divisors))

    def generator(self, which: int) -> HomologyClass:
        nt = len(self.torsion_divisors)
        if not 0 <= which < self.num_generators:
            raise IndexError("no such generator")
        free = tuple(1 if which - nt == i else 0 for i in range(self.free_rank))
        torsion = tuple(1 if which == i else 0 for i in range(nt))
        return HomologyClass(self, free, torsion)

    def generators(self) -> list[HomologyClass]:
        return [self.generator(i) for i in range(self.num_generators)]

    def reduce(self, chain: Chain) -> HomologyClass:
        self._check_home(chain)
        coords = [0] * self.num_generators
        for key, _, free, torsion in self._parts(chain):
            local = torsion + free
            start = self._layout[key]
            coords[start:start + len(local)] = local
        nt = len(self.torsion_divisors)
        return HomologyClass(self, tuple(coords[nt:]), tuple(coords[:nt]))

    def representative(self, cls: HomologyClass) -> Chain:
        if cls.presentation != self:
            raise ValueError("class belongs to a different presentation")
        terms: dict = {}
        for c, z in zip(cls.torsion + cls.free, self._cycles):
            if c:
                for mon, v in z.terms.items():
                    terms[mon] = terms.get(mon, 0) + c * v
        return Chain(self.group, self.degree, terms)

    def classes(self):
        """Iterate every class; only sensible when the group is finite."""
        if self.free_rank:
            raise InfiniteGroupError("presentation has free rank; classes are not enumerable")
        for residues in itertools.product(*(range(d) for d in self.torsion_divisors)):
            yield HomologyClass(self, (), residues)

    def abelian_type(self) -> "AbelianType":
        return AbelianType.from_divisors(self.free_rank, self.torsion_divisors)

    def __str__(self):
        return str(self.abelian_type())

    def __repr__(self):
        return f"<HomologyPresentation H_{self.degree}({self.group}) = {self}>"


@lru_cache(maxsize=256)
def homology(group: GroupSpec, n: int) -> HomologyPresentation:
    """Present the degree-``n`` homology of the group's small complex."""
    if n < 0:
        raise ValueError("homology degree must be nonnegative")
    return HomologyPresentation(group, n)


def reduce_cycle(chain: Chain) -> HomologyClass:
    """Coordinates of a cycle in the cached presentation of its degree."""
    return homology(chain.group, chain.degree).reduce(chain)


def class_order(chain: Chain) -> int:
    """Order of the cycle's homology class; 0 stands for infinite.

    Only the blocks the chain touches are reduced."""
    h = homology(chain.group, chain.degree)
    h._check_home(chain)
    return lcm(*(coords_order(free, torsion, kos.core.torsion)
                 for _, kos, free, torsion in h._parts(chain)))


def is_boundary(chain: Chain) -> bool:
    """Whether the chain bounds: it is a cycle and its coordinates vanish in
    every block it touches."""
    if chain.is_zero:
        return True
    h = homology(chain.group, chain.degree)
    try:
        return not any(any(free) or any(torsion) for _, _, free, torsion in h._parts(chain))
    except NotACycleError:
        return False


def generating_cycles(group: GroupSpec, n: int) -> list[Chain]:
    """Cycles whose classes are the generators of ``homology(group, n)``,
    in generator order; each lies in a single Koszul block."""
    return [Chain(z.group, z.degree, dict(z.terms)) for z in homology(group, n)._cycles]


def _prime_power_split(d: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            out.append((p, e))
        p += 1
    if d > 1:
        out.append((d, 1))
    return out


@dataclass(frozen=True)
class AbelianType:
    """Isomorphism type of a finitely generated abelian group.

    Torsion is kept as a sorted multiset of prime powers ``(p, e)``, which
    makes tensor and torsion products one-line pairings.
    """

    rank: int
    primaries: tuple[tuple[int, int], ...]

    @staticmethod
    def from_divisors(rank: int, divisors) -> "AbelianType":
        primaries = []
        for d in divisors:
            primaries.extend(_prime_power_split(d))
        return AbelianType(rank, tuple(sorted(primaries)))

    @staticmethod
    def zero() -> "AbelianType":
        return AbelianType(0, ())

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.primaries

    def __add__(self, other: "AbelianType") -> "AbelianType":
        return AbelianType(self.rank + other.rank,
                           tuple(sorted(self.primaries + other.primaries)))

    def tensor(self, other: "AbelianType") -> "AbelianType":
        primaries = []
        primaries.extend(self.primaries * other.rank)
        primaries.extend(other.primaries * self.rank)
        for p, e in self.primaries:
            for q, f in other.primaries:
                if p == q:
                    primaries.append((p, min(e, f)))
        return AbelianType(self.rank * other.rank, tuple(sorted(primaries)))

    def tor(self, other: "AbelianType") -> "AbelianType":
        primaries = [(p, min(e, f))
                     for p, e in self.primaries
                     for q, f in other.primaries if p == q]
        return AbelianType(0, tuple(sorted(primaries)))

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        for (p, e), run in itertools.groupby(self.primaries):
            k = len(list(run))
            d = p ** e
            parts.append(f"Z_{d}" if k == 1 else f"Z_{d}^{k}")
        return " + ".join(parts) if parts else "0"


@lru_cache(maxsize=4096)
def homology_type(group: GroupSpec, n: int) -> AbelianType:
    """Isomorphism type of H_n from closed forms on one factor plus Kunneth.

    This path never touches the matrix pipeline: single factors use the
    known homology of the four periodic complexes and products recurse
    through ``kunneth_predict``, so it serves as an independent check on
    the presentations.
    """
    if n < 0:
        return AbelianType.zero()
    k = len(group)
    if k == 0:
        return AbelianType(1, ()) if n == 0 else AbelianType.zero()
    if k == 1:
        f = group.factors[0]
        if f.sign > 0:
            if f.order == 0:
                return AbelianType(1, ()) if n <= 1 else AbelianType.zero()
            if n == 0:
                return AbelianType(1, ())
            if n % 2 == 1:
                return AbelianType.from_divisors(0, (f.order,))
            return AbelianType.zero()
        if f.order == 0:
            return AbelianType.from_divisors(0, (2,)) if n == 0 else AbelianType.zero()
        if n % 2 == 0:
            return AbelianType.from_divisors(0, (2,))
        return AbelianType.zero()
    left = GroupSpec(group.factors[:1])
    right = GroupSpec(group.factors[1:])
    return kunneth_predict(left, right, n)


def kunneth_predict(left: GroupSpec, right: GroupSpec, n: int) -> AbelianType:
    """H_n of the product of two groups from the homology of the sides.

    Sum over i of H_i(left) (x) H_{n-i}(right), plus the torsion pairing
    shifted one degree down.
    """
    total = AbelianType.zero()
    for i in range(n + 1):
        total = total + homology_type(left, i).tensor(homology_type(right, n - i))
    for i in range(n):
        total = total + homology_type(left, i).tor(homology_type(right, n - 1 - i))
    return total
