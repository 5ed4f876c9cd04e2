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
from functools import lru_cache

from .groups import GroupSpec

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


@dataclass
class Chain:
    """A finitely supported integer combination of monomials of one degree."""

    group: GroupSpec
    degree: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {m: c for m, c in self.terms.items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Chain") -> "Chain":
        _check_pair(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Chain(self.group, self.degree, out)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-1) * other

    def __neg__(self) -> "Chain":
        return (-1) * self

    def __rmul__(self, k: int) -> "Chain":
        if k == 0:
            return Chain(self.group, self.degree, {})
        return Chain(self.group, self.degree, {m: k * c for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Chain) and self.group == other.group
                and self.degree == other.degree and self.terms == other.terms)

    def __str__(self) -> str:
        return format_chain(self)


def _check_pair(a: Chain, b: Chain) -> None:
    if a.group != b.group:
        raise GroupMismatchError("chains over different groups")
    if a.degree != b.degree:
        raise DegreeMismatchError(f"degree {a.degree} vs {b.degree}")


def zero_chain(group: GroupSpec, degree: int) -> Chain:
    return Chain(group, degree, {})


def monomial_chain(group: GroupSpec, monomial, coefficient: int = 1) -> Chain:
    mon = tuple(monomial)
    _validate_monomial(group, mon)
    return Chain(group, sum(mon), {mon: coefficient} if coefficient else {})


def _validate_monomial(group: GroupSpec, mon: Monomial) -> None:
    orders = group.orders
    if len(mon) != len(orders):
        raise InvalidMonomialError(f"expected {len(orders)} slots, got {len(mon)}")
    for k, i in enumerate(mon):
        if i < 0:
            raise InvalidMonomialError(f"negative degree {i} in slot {k + 1}")
        if orders[k] == 0 and i > 1:
            raise InvalidMonomialError(f"slot {k + 1} is infinite cyclic, degree must be 0 or 1")


@lru_cache(maxsize=4096)
def basis(group: GroupSpec, n: int):
    """Monomials of total degree n, in lexicographic order on degree vectors."""
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


def boundary(chain: Chain) -> Chain:
    """The differential.  Degree-0 chains map to the zero chain in degree -1."""
    group = chain.group
    orders, signs = group.orders, group.signs
    out: dict = {}
    for mon, coef in chain.terms.items():
        parity = 0  # degree sum strictly before the current slot, mod 2
        for k, i in enumerate(mon):
            if i:
                hit = _atomic_boundary(orders[k], signs[k], i)
                if hit is not None:
                    j, mult = hit
                    target = mon[:k] + (j,) + mon[k + 1:]
                    v = out.get(target, 0) + (coef * mult if parity == 0 else -coef * mult)
                    if v:
                        out[target] = v
                    else:
                        out.pop(target, None)
                parity ^= i & 1
    return Chain(group, chain.degree - 1, out)


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


def product_block_key(group: GroupSpec, a: Monomial, b: Monomial) -> Monomial | None:
    """The block key of every monomial of a product x ^ y with x in the
    block of ``a`` and y in the block of ``b``, or None when every such
    product is zero.

    Slot by slot the target is a+b, except on an untwisted slot where both
    keys are nonzero: on Z the product dies by the exterior rule
    ([1] ^ [1] = 0), and on Z_q odd ^ odd dies, so one side is raised and
    the target is a+b+1.  A twisted Z slot's key is always 0, so its
    target is 0.
    """
    orders, signs = group.orders, group.signs
    out = []
    for o, s, i, j in zip(orders, signs, a, b):
        if i and j and s == 1:
            if not o:
                return None
            out.append(i + j + 1)
        else:
            out.append(i + j)
    return tuple(out)


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
        _validate_monomial(group, mon)
        d = sum(mon)
        if degree is None:
            degree = d
        elif d != degree:
            raise DegreeMismatchError(f"term of degree {d} in a degree-{degree} chain")
        v = terms.get(mon, 0) + coef
        if v:
            terms[mon] = v
        else:
            terms.pop(mon, None)
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
