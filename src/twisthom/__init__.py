"""Twisted homology of finitely generated abelian groups, exactly.

Given a group written as a product of cyclic factors and an orientation
character (a sign per factor), this package computes H_*(G) with the
twisted integer coefficients, the wedge product on homology induced by
the group multiplication, and the endomorphism induced by inversion.
On top of that sit the two deciders: ``vanishes_for_all`` settles
whether c ^ j(c) dies for every degree-n class, and ``theorem_cover``
recognizes group shapes where vanishing is guaranteed syntactically.
A bar-resolution oracle recomputes everything by brute force for small
finite groups so the two pipelines can be compared.

All arithmetic is exact; there is no floating point anywhere.
"""

from .bar import (
    CapExceededError,
    bar_homology,
    chi_profile,
    shuffle_product,
)
from .chains import (
    Chain,
    ChainError,
    ChainSyntaxError,
    DegreeMismatchError,
    GroupMismatchError,
    InvalidMonomialError,
    basis,
    boundary,
    format_chain,
    is_cycle,
    monomial_chain,
    parse_chain,
    zero_chain,
)
from .criterion import (
    DegreeTooSmallError,
    Verdict,
    chi_chain,
    chi_square,
    interpret,
    j_star,
    scan,
    theorem_cover,
    vanishes_for_all,
)
from .golden import GOLDEN, example_ids, run_all
from .groups import (
    CyclicFactor,
    GroupSpec,
    GroupSpecError,
    GroupSyntaxError,
    InvalidOrderError,
    InvalidSignError,
    format_group_spec,
    parse_group_spec,
)
from .homology import (
    AbelianType,
    HomologyClass,
    InfiniteGroupError,
    NotACycleError,
    class_order,
    homology,
    homology_type,
    kunneth_predict,
    reduce_cycle,
)
from .pontryagin import inversion_chain, wedge

__version__ = "0.1.0"

__all__ = [
    "AbelianType",
    "CapExceededError",
    "Chain",
    "ChainError",
    "ChainSyntaxError",
    "CyclicFactor",
    "DegreeMismatchError",
    "DegreeTooSmallError",
    "GOLDEN",
    "GroupMismatchError",
    "GroupSpec",
    "GroupSpecError",
    "GroupSyntaxError",
    "HomologyClass",
    "InfiniteGroupError",
    "InvalidMonomialError",
    "InvalidOrderError",
    "InvalidSignError",
    "NotACycleError",
    "Verdict",
    "bar_homology",
    "basis",
    "boundary",
    "chi_chain",
    "chi_profile",
    "chi_square",
    "class_order",
    "example_ids",
    "format_chain",
    "format_group_spec",
    "homology",
    "homology_type",
    "interpret",
    "inversion_chain",
    "is_cycle",
    "j_star",
    "kunneth_predict",
    "monomial_chain",
    "parse_chain",
    "parse_group_spec",
    "reduce_cycle",
    "run_all",
    "scan",
    "shuffle_product",
    "theorem_cover",
    "vanishes_for_all",
    "wedge",
    "zero_chain",
]
