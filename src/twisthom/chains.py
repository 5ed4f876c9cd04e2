"""Chains on the standard small resolution of an abelian group.

For each cyclic factor we take the minimal free resolution and tensor it
with the sign action; the resulting complex has one generator [i] per
degree i >= 0 (degree capped at 1 on infinite factors).  Per factor the
differential is periodic:

    infinite, sign +1:   d[1] = 0
    infinite, sign -1:   d[1] = 2[0]
    order q,  sign +1:   d[2k] = q[2k-1],  d[2k-1] = 0
    order q,  sign -1:   d[2k-1] = 2[2k-2],  d[2k] = 0      (q even)

A basis element of the product group in degree n is a monomial: the tuple
of its per-factor degrees, summing to n.  The tensor differential applies
each factor's differential in place with the usual sign, (-1) to the sum
of the degrees strictly before that slot.

Per-monomial tables.  The law checks meet the same monomials again and
again, so each monomial's data is computed once per (group, degree) and
kept in a table of that pair, owned by the module that reads it: its
faces under the differential with their signed coefficients in
:func:`_faces_table` (read by :func:`boundary`), its record of slot
masks and j's sign in ``pontryagin._record_table`` (read by ``wedge``
and ``inversion_chain``), and its block key and the subset of its
block's slots it raises in the presentation's ``_positions`` (read by
``reduce``, ``class_order`` and ``is_boundary``).  All three are one
class, :class:`_MonomialTable`, with one rule on a miss: the monomial is
validated against the group and the table's degree
(:func:`_validate_monomial`), its entry is computed, and the entry is
stored only when every entry of the monomial is a plain ``int``.  So a
monomial outside the basis is refused with ``InvalidMonomialError`` or
``DegreeMismatchError`` whatever the table holds, and an equal tuple of
other types, such as ``(True, 2)``, gets the answer of ``(1, 2)`` and
leaves no entry behind.  The faces and record tables are each an
``lru_cache`` of 32 (group, degree) pairs; the positions live as long as
their cached presentation.  No answer depends on their state: an entry
is stored only after the same computation and validation a cold call
makes, and is a function of the monomial's values alone, so a cold, a
warm and an evicted table give equal answers.

Chain literals are written as ``k*[i1 i2 ... il]`` terms joined by ``+``
or ``-``, one integer per factor, with ``k`` optional:

>>> from twisthom.groups import parse_group_spec
>>> g = parse_group_spec("Z^3 x Z_3")
>>> c = parse_chain(g, "[1 1 1 0] + [0 0 0 3]")
>>> boundary(c).is_zero
True
>>> format_chain(parse_chain(g, "-2*[0 0 0 2]"))
'-2*[0 0 0 2]'
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from math import gcd

from .groups import GroupSpec
from .snf import _addmul

Monomial = tuple


class ChainError(ValueError):
    pass


class ChainSyntaxError(ChainError):
    """Malformed chain literal."""


class DegreeMismatchError(ChainError):
    """Terms of different total degrees mixed into one chain."""


class InvalidMonomialError(ChainError):
    """A degree vector outside the basis (negative, or >1 on an infinite slot)."""


class GroupMismatchError(ChainError):
    """Operands live over different groups."""


class _Combination:
    """Arithmetic shared by :class:`Chain` and the bar oracle's ``BarChain``:
    finitely supported integer combinations of basis keys in one degree
    over one group, held as ``group``, ``degree`` and a ``terms`` dict.

    This base owns the zero-free invariant: ``__post_init__`` is the one
    place that drops zero coefficients, so producers may leave the
    coefficients that cancel in ``terms``, and every value holds only
    nonzero ones.  ``+`` and ``-`` go through the sparse kernel of
    :mod:`twisthom.snf`.  Values compare by group, degree and terms and
    do not hash; operands of different types neither combine nor compare
    equal.
    """

    def __post_init__(self):
        # Most producers leave no zero, so rebuild only when one is present.
        if not all(self.terms.values()):
            object.__setattr__(self, "terms", {m: c for m, c in self.terms.items() if c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _combine(self, other, q: int):
        """self + q * other, or NotImplemented for an operand of another type."""
        if type(other) is not type(self):
            return NotImplemented
        if self.group != other.group:
            raise GroupMismatchError("chains over different groups")
        if self.degree != other.degree:
            raise DegreeMismatchError(f"degree {self.degree} vs {other.degree}")
        out = dict(self.terms)
        _addmul(out, other.terms, q)
        return type(self)(self.group, self.degree, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return type(self)(self.group, self.degree, {m: k * c for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.group == other.group
                and self.degree == other.degree and self.terms == other.terms)


@dataclass(eq=False)
class Chain(_Combination):
    """A finitely supported integer combination of monomials of one degree.

    Its arithmetic and the zero-free invariant come from the base
    :class:`_Combination`: every chain holds only nonzero coefficients.
    """

    group: GroupSpec
    degree: int
    terms: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return format_chain(self)


def zero_chain(group: GroupSpec, degree: int) -> Chain:
    return Chain(group, degree, {})


def monomial_chain(group: GroupSpec, monomial, coefficient: int = 1) -> Chain:
    mon = tuple(monomial)
    _validate_monomial(group, mon)
    return Chain(group, sum(mon), {mon: coefficient})


def _validate_monomial(group: GroupSpec, mon: Monomial, degree: int | None = None) -> None:
    """Refuse a monomial outside the basis, or, when ``degree`` is given,
    of another total degree."""
    orders = group.orders
    if len(mon) != len(orders):
        raise InvalidMonomialError(f"expected {len(orders)} slots, got {len(mon)}")
    for k, i in enumerate(mon):
        if not isinstance(i, int):
            raise InvalidMonomialError(f"degree {i!r} in slot {k + 1} is not an integer")
        if i < 0:
            raise InvalidMonomialError(f"negative degree {i} in slot {k + 1}")
        if orders[k] == 0 and i > 1:
            raise InvalidMonomialError(f"slot {k + 1} is infinite cyclic, degree must be 0 or 1")
    if degree is not None and sum(mon) != degree:
        raise DegreeMismatchError(f"term of degree {sum(mon)} in a degree-{degree} chain")


class _MonomialTable(dict):
    """Monomial -> ``compute(group, monomial)``, for the monomials of one
    (group, degree) that its reader has met.  A miss validates the
    monomial before it computes the entry, and stores the entry only for
    a monomial of plain ints."""

    def __init__(self, group: GroupSpec, degree: int, compute):
        self.group, self.degree, self.compute = group, degree, compute

    def __missing__(self, mon):
        _validate_monomial(self.group, mon, self.degree)
        entry = self.compute(self.group, mon)
        if all(type(i) is int for i in mon):
            self[mon] = entry
        return entry


@lru_cache(maxsize=32)
def _faces_table(group: GroupSpec, degree: int) -> _MonomialTable:
    """The faces table of (group, degree), read by :func:`boundary`; made
    empty the first time."""
    return _MonomialTable(group, degree, _faces)


def as_degree(n) -> int:
    """A degree argument as an int, checked before any work: anything but
    an int is refused with ``TypeError``, and a bool is read as its int."""
    if not isinstance(n, int):
        raise TypeError("homology degree must be an integer")
    return int(n)


def _degree_cache(maxsize: int):
    """An ``lru_cache`` on ``(group, n)`` behind :func:`as_degree`: a degree
    that is not an int is refused before the cache is read, and True and
    1 share one entry."""
    def wrap(fn):
        cached = lru_cache(maxsize=maxsize)(fn)

        @wraps(fn)
        def call(group: GroupSpec, n):
            return cached(group, as_degree(n))

        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        return call
    return wrap


@_degree_cache(maxsize=4096)
def basis(group: GroupSpec, n: int):
    """Monomials of total degree n, in lexicographic order on degree vectors;
    a degree that is not an int raises ``TypeError`` before the cache is
    read."""
    if n < 0:
        return ()
    orders = group.orders
    l = len(orders)
    # Infinite slots cap at 1; one finite slot among the rest absorbs anything.
    finite_behind = [False] * (l + 1)
    free_behind = [0] * (l + 1)
    for k in range(l - 1, -1, -1):
        finite_behind[k] = finite_behind[k + 1] or orders[k] != 0
        free_behind[k] = free_behind[k + 1] + (1 if orders[k] == 0 else 0)
    out = []
    mon = [0] * l

    def rec(k: int, remaining: int) -> None:
        if k == l:
            if remaining == 0:
                out.append(tuple(mon))
            return
        if not finite_behind[k] and remaining > free_behind[k]:
            return
        cap = 1 if orders[k] == 0 else remaining
        for i in range(min(cap, remaining) + 1):
            mon[k] = i
            rec(k + 1, remaining - i)
        mon[k] = 0

    rec(0, n)
    return tuple(out)


def _atomic_boundary(order: int, sign: int, i: int) -> tuple[int, int] | None:
    """(lower index, coefficient) for one slot, or None when that slot's
    differential vanishes in degree i."""
    if i <= 0:
        return None
    if order == 0:
        return (0, 2) if (sign == -1 and i == 1) else None
    if sign == 1:
        return (i - 1, order) if i % 2 == 0 else None
    return (i - 1, 2) if i % 2 == 1 else None


def _faces(group: GroupSpec, mon: Monomial) -> tuple:
    """The terms of the differential of one monomial, as (face, signed
    coefficient) pairs in slot order."""
    orders, signs = group.orders, group.signs
    out = []
    parity = 0  # degree sum strictly before the current slot, mod 2
    for k, i in enumerate(mon):
        if i:
            hit = _atomic_boundary(orders[k], signs[k], i)
            if hit is not None:
                j, mult = hit
                out.append((mon[:k] + (j,) + mon[k + 1:], -mult if parity else mult))
            parity ^= i & 1
    return tuple(out)


def boundary(chain: Chain) -> Chain:
    """The differential.  Degree-0 chains map to the zero chain in degree -1."""
    faces = _faces_table(chain.group, chain.degree)
    out: dict = {}
    for mon, coef in chain.terms.items():
        for face, mult in faces[mon]:
            out[face] = out.get(face, 0) + coef * mult
    return Chain(chain.group, chain.degree - 1, out)


def is_cycle(chain: Chain) -> bool:
    return boundary(chain).is_zero


def block_key(group: GroupSpec, mon: Monomial) -> Monomial:
    """The lowest monomial of the Koszul block that holds ``mon``.

    Every slot splits into pieces ``[i]`` alone or ``[i+1] --c--> [i]``, so
    the complex is a direct sum of Koszul complexes, one per vector of
    lower ends.  Each slot whose differential is nonzero in its degree
    drops to the lower end of its pair; the others stay.
    """
    orders, signs = group.orders, group.signs
    return tuple(i - 1 if i and _atomic_boundary(o, s, i) else i
                 for o, s, i in zip(orders, signs, mon))


def key_masks(group: GroupSpec, key: Monomial) -> tuple[int, int]:
    """The two slot masks of a block key that its products read, bit k
    for slot k: the untwisted Z slots where the key is 1, and the
    untwisted finite slots where it is above 0.

    For keys a and b, every product of their blocks is zero when the
    first masks meet, and otherwise its target key is a+b raised by one
    on each slot where the second masks meet (:func:`product_block_key`),
    so the target's total degree is |a| + |b| plus the number of those
    slots.
    """
    ones = above = 0
    for k, (o, s, i) in enumerate(zip(group.orders, group.signs, key)):
        if i and s == 1:
            if o:
                above |= 1 << k
            else:
                ones |= 1 << k
    return ones, above


def product_block_key(group: GroupSpec, a: Monomial, b: Monomial) -> Monomial | None:
    """The block key of every monomial of a product x ^ y with x in the
    block of ``a`` and y in the block of ``b``, or None when every such
    product is zero.

    Slot by slot the target is a+b, except on an untwisted slot where both
    keys are nonzero (their :func:`key_masks` meet): on Z the product dies
    by the exterior rule ([1] ^ [1] = 0), and on Z_q odd ^ odd dies, so
    one side is raised and the target is a+b+1.  A twisted Z slot's key
    is always 0, so its target is 0.
    """
    ones_a, above_a = key_masks(group, a)
    ones_b, above_b = key_masks(group, b)
    if ones_a & ones_b:
        return None
    raised = above_a & above_b
    return tuple(i + j + (raised >> k & 1) for k, (i, j) in enumerate(zip(a, b)))


def block_pairing(group: GroupSpec, key: Monomial) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(slots, coefficients) of the slots paired in the block of ``key``.

    A monomial of the block raises a subset of these slots by one; the
    differential lowers them one at a time with coefficient c and the
    sign of the degrees before the slot.  The key's own degrees are folded
    into the coefficient here, so the block is the Koszul complex on the
    signed coefficients with its standard exterior signs.
    """
    orders, signs = group.orders, group.signs
    slots, coeffs = [], []
    parity = 0  # key degree sum strictly before the current slot, mod 2
    for k, i in enumerate(key):
        hit = _atomic_boundary(orders[k], signs[k], i + 1)
        if hit is not None:
            slots.append(k)
            coeffs.append(-hit[1] if parity else hit[1])
        parity ^= i & 1
    return tuple(slots), tuple(coeffs)


def block_keys(group: GroupSpec, n: int) -> list[tuple[Monomial, tuple[int, ...], tuple[int, ...]]]:
    """(key, slots, coefficients) of each degree-``n`` block that can carry
    homology, slots and coefficients as :func:`block_pairing` gives them,
    in the order the keys first appear in :func:`basis`; no basis is
    enumerated.

    The walk goes slot by slot with the remaining degree.  A slot's key
    value is 0 or a degree where its differential vanishes, at most 1 on
    an infinite slot, and the slot is paired when its differential is
    nonzero one degree up (both read off :func:`_atomic_boundary`).  A
    block of degree n raises t = n - |key| of its m paired slots, so
    0 <= t <= m.  A branch is cut as soon as the gcd of its coefficients
    is 1: the gcd only falls as slots are added, and a block of gcd 1 is
    exact, so every key left out has no homology.  A block's lex-least
    monomial is its key raised on its last t paired slots; the keys are
    sorted by it, which is the order of first appearance in the basis.
    """
    if n < 0:
        return []
    l = len(group.orders)
    # Per slot, (key value, pair coefficient or 0) in increasing value; a
    # value that tops a pair is no key value.
    values = [[(v, hit[1] if (hit := _atomic_boundary(o, s, v + 1)) else 0)
               for v in range((1 if o == 0 else n) + 1) if not (v and _atomic_boundary(o, s, v))]
              for o, s in zip(group.orders, group.signs)]
    found = []
    key = [0] * l
    slots, coeffs = [], []

    def rec(k: int, remaining: int, g: int, parity: int) -> None:
        if k == l:
            if remaining > len(slots):
                return
            least = key.copy()
            for j in slots[len(slots) - remaining:]:
                least[j] += 1
            found.append((least, (tuple(key), tuple(slots), tuple(coeffs))))
            return
        for v, c in values[k]:
            if v > remaining:
                break
            key[k] = v
            if not c:
                rec(k + 1, remaining - v, g, parity ^ (v & 1))
            elif (h := gcd(g, c)) != 1:
                slots.append(k)
                coeffs.append(-c if parity else c)
                rec(k + 1, remaining - v, h, parity ^ (v & 1))
                slots.pop()
                coeffs.pop()

    rec(0, n, 0, 0)
    found.sort(key=lambda f: f[0])
    return [block for _, block in found]


_TERM_RE = re.compile(r"\s*([+-])?\s*(?:(\d+)\s*\*\s*)?\[([^\[\]]*)\]")


def parse_chain(group: GroupSpec, text: str) -> Chain:
    """Parse ``k*[i1 i2 ... il]`` terms joined by + or -.

    All terms must share one total degree; monomials must fit the group's
    slots.  The empty-group monomial is written ``[]``.
    """
    pos = 0
    terms: dict = {}
    degree = None
    first = True
    if not text.strip():
        raise ChainSyntaxError("empty chain literal")
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None:
            break
        sign_tok, coef_tok, body = m.groups()
        if sign_tok is None and not first:
            raise ChainSyntaxError("terms must be joined by + or -")
        coef = int(coef_tok) if coef_tok is not None else 1
        if sign_tok == "-":
            coef = -coef
        try:
            mon = tuple(int(tok) for tok in body.split())
        except ValueError:
            raise ChainSyntaxError(f"bad degree vector [{body.strip()}]") from None
        if degree is None:
            degree = sum(mon)
        _validate_monomial(group, mon, degree)
        terms[mon] = terms.get(mon, 0) + coef
        pos = m.end(0)
        first = False
    tail = text[pos:].strip()
    if tail:
        raise ChainSyntaxError(f"bad chain syntax near {tail[:24]!r}")
    return Chain(group, degree if degree is not None else 0, terms)


def format_chain(chain: Chain) -> str:
    """Inverse of :func:`parse_chain`, terms in lexicographic monomial order."""
    if chain.is_zero:
        return "0"
    parts = []
    for mon in sorted(chain.terms):
        c = chain.terms[mon]
        body = "[" + " ".join(str(i) for i in mon) + "]"
        mag = abs(c)
        word = body if mag == 1 else f"{mag}*{body}"
        if not parts:
            parts.append(word if c > 0 else "-" + word)
        else:
            parts.append((" + " if c > 0 else " - ") + word)
    return "".join(parts)
