"""Finitely generated abelian groups with an orientation character.

A group is an ordered list of cyclic factors, each infinite (Z) or finite
cyclic of order q >= 2, and each factor carries a sign: +1 if a generator
of that factor acts trivially on the integer coefficients, -1 if it acts
by negation.  A sign of -1 is only consistent on factors of infinite or
even order: an element of odd order cannot act by -1.

The text form used everywhere (CLI, tests, demos) is factors joined by
``x``, whitespace insignificant:

    Z           infinite cyclic, trivial action
    Z~          infinite cyclic, generator negates coefficients
    Z^3         shorthand for Z x Z x Z
    Z_4         cyclic of order 4
    Z_4~        cyclic of order 4, generator negates coefficients
    1           the trivial group (no factors)

``Z^3~`` expands to three twisted infinite factors.  Factor order is
significant and is never normalized: ``Z_2 x Z`` and ``Z x Z_2`` are kept
distinct so that degree vectors line up with the factor list as written.

>>> g = parse_group_spec("Z^2 x Z_3~x Z")
Traceback (most recent call last):
    ...
twisthom.groups.InvalidSignError: factor 'Z_3~': sign -1 needs infinite or even order
>>> format_group_spec(parse_group_spec("Z^2xZ_3 x Z_3"))
'Z x Z x Z_3 x Z_3'
>>> format_group_spec(parse_group_spec("1"))
'1'
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class GroupSpecError(ValueError):
    """Base class for malformed group descriptions."""


class GroupSyntaxError(GroupSpecError):
    """A factor token does not match the grammar."""


class InvalidOrderError(GroupSpecError):
    """A finite order outside q >= 2 (or a repeat count r < 1)."""


class InvalidSignError(GroupSpecError):
    """Sign -1 on a factor of odd finite order."""


@dataclass(frozen=True)
class CyclicFactor:
    """One cyclic factor.  ``order`` is 0 for an infinite factor, else q >= 2.

    ``sign`` is +1 or -1 and records how a generator acts on coefficients.
    Both must be ints (a bool counts as its int): ``CyclicFactor(2.0)``
    would equal and hash like Z_2 while reaching code that needs an int.
    """

    order: int
    sign: int = 1

    def __post_init__(self):
        if not isinstance(self.order, int):
            raise InvalidOrderError(f"cyclic factor order must be an integer, got {self.order!r}")
        if not isinstance(self.sign, int):
            raise InvalidSignError(f"factor sign must be +1 or -1, got {self.sign!r}")
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "sign", int(self.sign))
        if self.order < 0 or self.order == 1:
            raise InvalidOrderError(f"cyclic factor order must be 0 (infinite) or >= 2, got {self.order}")
        if self.sign not in (1, -1):
            raise InvalidSignError(f"factor sign must be +1 or -1, got {self.sign}")
        if self.sign == -1 and self.order % 2 == 1 and self.order != 0:
            raise InvalidSignError(f"sign -1 needs infinite or even order, got order {self.order}")

    @property
    def is_finite(self) -> bool:
        return self.order != 0

    @property
    def twisted(self) -> bool:
        return self.sign == -1


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """An ordered tuple of cyclic factors with their action signs.

    Equality and hashing use the ``(order, sign)`` pairs, and the hash is
    computed once here: every cache in the package is keyed on groups.
    ``orders`` and ``signs`` are the per-slot tuples the chain and product
    loops read.  ``factors`` may be any iterable of :class:`CyclicFactor`;
    anything else in it raises ``GroupSpecError`` naming its position.
    """

    factors: tuple[CyclicFactor, ...] = ()

    def __post_init__(self):
        factors = tuple(self.factors)
        for i, f in enumerate(factors):
            if not isinstance(f, CyclicFactor):
                raise GroupSpecError(f"factor {i} is not a CyclicFactor: {f!r}")
        key = tuple((f.order, f.sign) for f in factors)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "orders", tuple(f.order for f in factors))
        object.__setattr__(self, "signs", tuple(f.sign for f in factors))

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, GroupSpec) and self._key == other._key)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return GroupSpec, (self.factors,)

    def __len__(self) -> int:
        return len(self.factors)

    @property
    def is_finite(self) -> bool:
        return all(f.is_finite for f in self.factors)

    @property
    def group_order(self) -> int:
        """|G| for finite G, else 0."""
        n = 1
        for f in self.factors:
            if not f.is_finite:
                return 0
            n *= f.order
        return n

    @property
    def twisted(self) -> bool:
        """True if the orientation character is nontrivial."""
        return any(f.twisted for f in self.factors)

    def __str__(self) -> str:
        return format_group_spec(self)


_FACTOR_RE = re.compile(r"^Z(?:\^(\d+)|_(\d+))?(~)?$")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the ``Z^r x Z_q~`` grammar.  Inverse of :func:`format_group_spec`."""
    compact = "".join(text.split())
    if compact == "1":
        return GroupSpec(())
    if not compact:
        raise GroupSyntaxError("empty group description")
    factors: list[CyclicFactor] = []
    for token in compact.split("x"):
        m = _FACTOR_RE.match(token)
        if m is None:
            raise GroupSyntaxError(f"bad factor {token!r} (expected Z, Z^r, or Z_q, optionally followed by ~)")
        power, order, tilde = m.groups()
        sign = -1 if tilde else 1
        try:
            if order is not None:
                q = int(order)
                if q < 2:
                    raise InvalidOrderError(f"factor {token!r}: finite order must be >= 2")
                factors.append(CyclicFactor(q, sign))
            else:
                r = int(power) if power is not None else 1
                if r < 1:
                    raise InvalidOrderError(f"factor {token!r}: repeat count must be >= 1")
                factors.extend(CyclicFactor(0, sign) for _ in range(r))
        except InvalidSignError:
            raise InvalidSignError(f"factor {token!r}: sign -1 needs infinite or even order") from None
    return GroupSpec(tuple(factors))


def format_group_spec(group: GroupSpec) -> str:
    """One factor per ``x``-separated token; no ``^`` contraction; ``1`` if trivial."""
    if not group.factors:
        return "1"
    parts = []
    for f in group.factors:
        base = "Z" if not f.is_finite else f"Z_{f.order}"
        parts.append(base + ("~" if f.twisted else ""))
    return " x ".join(parts)
