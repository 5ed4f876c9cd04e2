"""Homology groups of the small complex, with exact reduction to coordinates.

Each factor's complex splits into pieces ``Z`` or ``Z --c--> Z`` (c = q on
an untwisted Z_q, c = 2 on a twisted factor, no pairs on an untwisted Z),
so the whole complex is a direct sum of Koszul complexes K(c_1..c_m), one
per block key (see :func:`twisthom.chains.block_key`).
``homology(group, n)`` presents H_n as the direct sum of the blocks'
homology: each block is presented once per shape (signed coefficients and
degree) by ``quotient_presentation``, whose columns are the block's
t-subsets of slots and whose rows are its (t-1)-subsets, each keyed by the
subset itself.  That takes the block's cycles from the column-only Smith
form of its outgoing differential, and its generators from the Smith form
of the transposed incoming differential written in cycle coordinates; it
hands out one coordinate row and one cycle vector per generator, keyed by
subset too, so no index of subsets is kept.  A block whose coefficients
have gcd 1 is exact: its presentation is empty and it holds no
generators (``test_koszul_shapes_are_closed_form``).  ``_layout`` maps
each block with homology to the range of its generators.  It reads no
basis: :func:`twisthom.chains.block_keys` enumerates the block keys of
degree n in closed form, slot by slot, and cuts a branch as soon as the
gcd of its coefficients is 1, so the exact blocks with paired slots are
never listed.  The keys come sorted by their block's lex-least monomial,
which is the order they first appear in the basis.  A presentation keeps
one table of every block it meets, each built once: the listed blocks
when ``_layout`` is read, and any other block, exact ones too, when a
chain first touches it.  A chain is split into its blocks' local
vectors with one lookup per monomial in the presentation's position
table, a ``chains._MonomialTable``, the one class of the
per-monomial tables of :mod:`twisthom.chains`.  It holds each monomial's
block key and the subset of the block's slots the monomial raises, which
is the monomial's key in its local vector, both computed in one pass over
the monomial's slots (:func:`_position`).  A monomial met for the first
time is validated before its position is computed, and the position is
stored under the table's one rule, so an invalid monomial is refused
whatever the table holds.  The positions live as long as their
presentation.  Each local vector is checked as a cycle on its block's
Koszul columns, touching only the blocks the chain's terms lie in.
``reduce`` reads a cycle's coordinates off the coordinate rows into its
blocks' generator ranges; a class's order, and so whether it bounds,
needs no coordinates.  Presentations are cached per ``(group, n)`` and
compare equal when ``(group, n)`` is equal.

The block rule.  Let g = gcd(c) in K(c) (g = 0 when no slot is paired),
and let the cycle z of K(c) have content k, the gcd of its coefficients.
Then the class of z has order g / gcd(g, k), with 0 for infinite:

1. For g > 0, K(c) is K(c/g) with its differential times g, and c/g is
   primitive, so K(c/g) is split exact: the cycles Z of K(c) are a
   direct summand, and its boundaries are gZ.
2. So mz bounds iff mz/g is integral (it is then a cycle), iff g | mk,
   and the least such m > 0 is g / gcd(g, k).
3. For g = 0 the block is Z in degree 0 with zero differential, and a
   nonzero cycle has infinite order.

:func:`block_order` is the rule, and the one place it is computed.
``class_order`` is its lcm over the blocks a chain touches, after the
cycle check, and a chain bounds iff it is zero or a cycle of order 1.
The vanishing pass of :mod:`~twisthom.criterion` applies it to products
it knows to be cycles of one block, with g read off the block's
coefficients, so it needs no presentation of their degree.

>>> from .groups import parse_group_spec
>>> g = parse_group_spec("Z_2 x Z_2")
>>> str(homology(g, 2))
'Z_2'
>>> str(homology(g, 3))
'Z_2^3'
>>> h = homology(parse_group_spec("Z_6"), 1)
>>> str(h), h.torsion_divisors
('Z_2 + Z_3', (6,))

In degree 2 of Z_4 x Z_6, [1 1] spans degree 0 of the block K(4, -6),
where g = 2:

>>> from .chains import parse_chain
>>> g = parse_group_spec("Z_4 x Z_6")
>>> str(homology(g, 2))
'Z_2'
>>> z = parse_chain(g, "[1 1]")
>>> class_order(z), is_boundary(z), is_boundary(2 * z)
(2, False, True)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, gcd, lcm

from .chains import (
    Chain,
    ChainError,
    _atomic_boundary,
    _degree_cache,
    _MonomialTable,
    as_degree,
    block_keys,
    block_pairing,
)
from .groups import GroupSpec
from .snf import QuotientPresentation, _combination, quotient_presentation


class NotACycleError(ChainError):
    """Raised when a chain handed to the reduction has nonzero boundary."""


class InfiniteGroupError(ValueError):
    """Raised when enumeration is asked of a group with free rank."""


def coords_order(free, torsion, divisors) -> int:
    """Order of the class with these coordinates; 0 stands for infinite."""
    if any(free):
        return 0
    return lcm(*(d // gcd(d, c) for c, d in zip(torsion, divisors)))


def format_order(order: int) -> str:
    """An order as printed for a reader; 0 stands for infinite.

    >>> format_order(0), format_order(4)
    ('infinite', '4')
    """
    return "infinite" if order == 0 else str(order)


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
        free = tuple(self.free)
        if len(free) != self.presentation.free_rank or len(self.torsion) != len(divisors):
            raise ValueError("coordinate arity disagrees with the presentation")
        if not all(isinstance(c, int) for c in (*free, *self.torsion)):
            raise TypeError("homology coordinates must be integers")
        # Plain ints, so a bool reads as its int, as the torsion's % makes it.
        object.__setattr__(self, "free", tuple(map(int, free)))
        object.__setattr__(self, "torsion", tuple(c % d for c, d in zip(self.torsion, divisors)))

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
        if not isinstance(k, int):
            return NotImplemented
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


def _koszul_columns(coeffs: tuple[int, ...], t: int) -> dict[tuple, dict[tuple, int]]:
    """The Koszul differential from t-subsets to (t-1)-subsets of the slots,
    as sparse columns keyed by their t-subset, in ``itertools.combinations``
    order, with entries keyed by (t-1)-subset.  Dropping the r-th element
    of a subset carries (-1)^r."""
    return {s: {s[:r] + s[r + 1:]: -coeffs[k] if r & 1 else coeffs[k] for r, k in enumerate(s)}
            for s in itertools.combinations(range(len(coeffs)), t)}


@dataclass(frozen=True)
class _Koszul:
    """H_t of one Koszul block shape.  ``columns`` is the differential on
    the t-subsets of the block's slots, keyed by subset; ``core`` is the
    presentation over the same subsets, whose ``generators`` are one cycle
    vector per generator (torsion first); ``g`` is the gcd of the
    coefficients (0 when no slot is paired).  A local vector is keyed by
    the subsets of raised slots, as the presentation's ``_positions``
    store them.  A block with g = 1 is exact: its presentation is
    empty."""

    columns: dict[tuple, dict[tuple, int]]
    core: QuotientPresentation
    g: int

    def is_cycle(self, vec: dict[int, int]) -> bool:
        """Whether the block's differential kills a local vector."""
        return not _combination(self.columns, vec)


@lru_cache(maxsize=4096)
def _koszul(coeffs: tuple[int, ...], t: int) -> _Koszul:
    columns = _koszul_columns(coeffs, t)
    g = gcd(*coeffs)
    if g == 1:
        core = QuotientPresentation((), 0, (), ())
    else:
        core = quotient_presentation(columns, comb(len(coeffs), t - 1) if t else 0,
                                     list(_koszul_columns(coeffs, t + 1).values()))
    return _Koszul(columns, core, g)


def _position(group: GroupSpec, mon) -> tuple:
    """(block key, raised subset) of one monomial, in one pass over its
    slots: the key of its block (:func:`~twisthom.chains.block_key`) and
    the indices, among the block's paired slots
    (:func:`~twisthom.chains.block_pairing`), of the slots it raises."""
    key, raised = [], []
    paired = 0
    for o, s, i in zip(group.orders, group.signs, mon):
        if i and _atomic_boundary(o, s, i):
            raised.append(paired)
            paired += 1
            i -= 1
        elif _atomic_boundary(o, s, i + 1):
            paired += 1
        key.append(i)
    return tuple(key), tuple(raised)


class HomologyPresentation:
    """Degree-``n`` homology of a group's small complex.

    The direct sum of the homology of its Koszul blocks.  Generators are
    ordered torsion first (matching ``torsion_divisors``) then free, each
    block's generators together, blocks in the order of their lex-least
    monomials, as :func:`~twisthom.chains.block_keys` enumerates their
    keys in closed form, with no block of coefficient gcd 1.
    ``torsion_divisors`` lists each torsion generator's order; within a
    block every entry is the gcd of the block's coefficients, so the list
    is not a divisor chain.  ``str`` prints the primary decomposition.
    Every block the presentation meets is kept once, exact ones too, and
    ``_layout`` maps each block with homology to the range of its
    generators; the exact blocks it never lists are built by ``_block``
    when a chain touches them.  ``_parts`` turns a chain into one local
    vector per block it touches, reading each monomial's (block key,
    raised-slot subset) from ``_positions``, a ``chains._MonomialTable``
    of :func:`_position` kept beside ``_blocks``; ``reduce``,
    ``class_order`` and ``is_boundary`` all start there.  ``reduce``
    sends a cycle to coordinates; ``representative`` lifts coordinates
    back to a cycle, and the two are mutually inverse up to boundaries.
    Presentations are values: equal and hashable on ``(group, degree)``.
    """

    def __init__(self, group: GroupSpec, degree: int):
        self.group = group
        self.degree = degree
        self._blocks: dict = {}  # block key -> (slots, _Koszul), every block met
        self._positions = _MonomialTable(group, degree, _position)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HomologyPresentation)
                and self.group == other.group and self.degree == other.degree)

    def __hash__(self) -> int:
        return hash((self.group, self.degree))

    def _block(self, key):
        """(slots, _Koszul) of the block of ``key``, built once."""
        block = self._blocks.get(key)
        if block is None:
            slots, coeffs = block_pairing(self.group, key)
            block = self._blocks[key] = (slots, _koszul(coeffs, self.degree - sum(key)))
        return block

    @cached_property
    def _layout(self) -> dict:
        """Block key -> range of its generators, for each block with
        homology, in generator order; each block :func:`block_keys` lists
        is stored in ``_blocks``."""
        n, cores = self.degree, []
        for key, slots, coeffs in block_keys(self.group, n):
            kos = _koszul(coeffs, n - sum(key))
            self._blocks[key] = (slots, kos)
            if kos.core.generators:
                cores.append((key, kos.core))
        cores.sort(key=lambda kc: not kc[1].torsion)
        out, start = {}, 0
        for k, core in cores:
            out[k] = range(start, start + len(core.generators))
            start = out[k].stop
        return out

    @cached_property
    def torsion_divisors(self) -> tuple[int, ...]:
        return tuple(d for k in self._layout for d in self._blocks[k][1].core.torsion)

    @cached_property
    def free_rank(self) -> int:
        return sum(self._blocks[k][1].core.free_rank for k in self._layout)

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
            slots, kos = self._blocks[key]
            for vec in kos.core.generators:
                terms = {}
                for raised, v in vec.items():
                    mon = list(key)
                    for s in raised:
                        mon[slots[s]] += 1
                    terms[tuple(mon)] = v
                out.append(Chain(self.group, self.degree, terms))
        return tuple(out)

    def _parts(self, chain: Chain) -> dict:
        """The chain's terms split by block, as block key -> local vector,
        refusing a chain from another group or degree, or with a monomial
        outside this degree's basis.  Each monomial costs one lookup in
        ``_positions``, whose miss validates it before computing its
        block key and the subset of its block's slots it raises.  The
        differential keeps every block, so each part is a cycle when the
        chain is one."""
        if chain.group != self.group or chain.degree != self.degree:
            raise ValueError("chain does not live where this presentation does")
        positions = self._positions
        split: dict = {}
        for mon, coef in chain.terms.items():
            key, raised = positions[mon]
            vec = split.get(key)
            if vec is None:
                split[key] = {raised: coef}
            else:
                vec[raised] = coef
        return split

    def _local(self, key, vec) -> _Koszul:
        """The Koszul block of ``key``; raises ``NotACycleError`` unless the
        local vector ``vec`` is a cycle there."""
        kos = self._block(key)[1]
        if not kos.is_cycle(vec):
            raise NotACycleError("chain has nonzero boundary")
        return kos

    def zero(self) -> HomologyClass:
        return HomologyClass(self, (0,) * self.free_rank, (0,) * len(self.torsion_divisors))

    def generator(self, which: int) -> HomologyClass:
        if not isinstance(which, int):
            raise TypeError("generator index must be an integer")
        nt = len(self.torsion_divisors)
        if not 0 <= which < self.num_generators:
            raise IndexError("no such generator")
        free = tuple(1 if which - nt == i else 0 for i in range(self.free_rank))
        torsion = tuple(1 if which == i else 0 for i in range(nt))
        return HomologyClass(self, free, torsion)

    def generators(self) -> list[HomologyClass]:
        return [self.generator(i) for i in range(self.num_generators)]

    def reduce(self, chain: Chain) -> HomologyClass:
        parts = self._parts(chain)
        coords = [0] * self.num_generators
        for key, vec in parts.items():
            kos = self._local(key, vec)
            span = self._layout.get(key)
            if span:
                free, torsion = kos.core.class_coords(vec)
                coords[span.start:span.stop] = torsion + free
        nt = len(self.torsion_divisors)
        return HomologyClass(self, tuple(coords[nt:]), tuple(coords[:nt]))

    def representative(self, cls: HomologyClass) -> Chain:
        if cls.presentation != self:
            raise ValueError("class belongs to a different presentation")
        terms = _combination([z.terms for z in self._cycles],
                             dict(enumerate(cls.torsion + cls.free)))
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


@_degree_cache(maxsize=256)
def homology(group: GroupSpec, n: int) -> HomologyPresentation:
    """Present the degree-``n`` homology of the group's small complex."""
    if n < 0:
        raise ValueError("homology degree must be nonnegative")
    return HomologyPresentation(group, n)


def reduce_cycle(chain: Chain) -> HomologyClass:
    """Coordinates of a cycle in the cached presentation of its degree."""
    return homology(chain.group, chain.degree).reduce(chain)


def block_order(g: int, vec: dict) -> int:
    """The block rule: the order of a cycle of a Koszul block whose
    coefficients have gcd ``g``, given by its coefficients ``vec`` (any
    mapping), g / gcd(g, content); 1 for the zero vector, 0 for infinite.

    >>> block_order(6, {0: 4, 1: -2}), block_order(0, {0: 3}), block_order(0, {})
    (3, 0, 1)
    """
    return g // gcd(g, *vec.values()) if vec else 1


def class_order(chain: Chain) -> int:
    """Order of the cycle's homology class; 0 stands for infinite.

    The lcm of :func:`block_order` over the blocks the chain touches.
    Raises ``NotACycleError`` unless the chain is a cycle."""
    h = homology(chain.group, chain.degree)
    parts = h._parts(chain).items()
    return lcm(*(block_order(h._local(key, vec).g, vec) for key, vec in parts))


def is_boundary(chain: Chain) -> bool:
    """Whether the chain bounds: it is zero, or a cycle of order 1."""
    try:
        return chain.is_zero or class_order(chain) == 1
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


@_degree_cache(maxsize=4096)
def homology_type(group: GroupSpec, n: int) -> AbelianType:
    """Isomorphism type of H_n from closed forms on one factor plus Kunneth.

    This path never touches the matrix pipeline: single factors use the
    known homology of the four periodic complexes and products recurse
    through ``kunneth_predict``, so it serves as an independent check on
    the presentations.  A degree that is not an int raises ``TypeError``
    before the cache is read, so 1.0 is refused even after 1 is cached; a
    negative degree gives zero.
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
    shifted one degree down.  A degree that is not an int raises
    ``TypeError``.
    """
    n = as_degree(n)
    total = AbelianType.zero()
    for i in range(n + 1):
        total = total + homology_type(left, i).tensor(homology_type(right, n - i))
    for i in range(n):
        total = total + homology_type(left, i).tor(homology_type(right, n - 1 - i))
    return total
