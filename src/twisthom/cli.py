"""Command-line front end.

Five subcommands: ``homology`` (present H_n), ``chi`` (evaluate c ^ j(c)
for one cycle), ``scan`` (syntactic coverage plus the exhaustive
vanishing decision), ``verify-paper`` (run the named reference examples),
and ``oracle-compare`` (three-way agreement between the small complex,
the bar complex, and the Kunneth recursion).

Exit codes are the scripting channel and never depend on the output
format:

    0  success / zero / vanishes / all agree
    2  malformed group, chain, or argument
    3  nonzero class / witness found
    4  the given chain is not a cycle
    5  degree below 2 where the topological reading needs it
    6  a bar-side computation would exceed the basis cap

With ``--format json`` each invocation prints one object with the fixed
key set {command, group, degree, presentation, verdict, witness,
examples}; unused keys are null.  Every integer is rendered as a decimal
string, with "0" standing for infinite where an order is reported.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bar import BAR_CAP, CapExceededError, bar_homology, chi_profile
from .chains import ChainError, boundary, format_chain, parse_chain
from .criterion import (
    NONZERO_WITNESS,
    VANISHES,
    DegreeTooSmallError,
    Verdict,
    chi_chain,
    interpret,
    scan,
)
from .golden import example_ids, run_all
from .groups import GroupSpecError, parse_group_spec
from .homology import InfiniteGroupError, NotACycleError, format_order, homology, homology_type

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONZERO = 3
EXIT_NOT_A_CYCLE = 4
EXIT_DEGREE = 5
EXIT_CAP = 6


class UsageError(ValueError):
    """Bad arguments beyond what argparse can see."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twisthom",
        description="Twisted homology of abelian groups, products, and the vanishing criterion.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    parser.add_argument("--max-degree", type=int, default=16, metavar="N",
                        help="refuse degrees above N (default 16)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="present H_n(G) with twisted coefficients")
    p.add_argument("group")
    p.add_argument("degree", type=int)
    p.add_argument("--generators", action="store_true",
                   help="also print one representative cycle per generator")

    p = sub.add_parser("chi", help="evaluate the class of c ^ j(c) for one cycle")
    p.add_argument("group")
    p.add_argument("degree", type=int)
    p.add_argument("cycle", help="chain literal, e.g. \"[1 1 0 0]+[0 0 1 1]\"")

    p = sub.add_parser("scan", help="coverage check plus the full vanishing decision")
    p.add_argument("group")
    p.add_argument("degree", type=int)

    p = sub.add_parser("verify-paper", help="run the named reference examples")
    p.add_argument("--list", action="store_true", dest="list_ids",
                   help="print example ids without running them")
    p.add_argument("--only", metavar="ID", help="run a single example")

    p = sub.add_parser("oracle-compare",
                       help="bar complex vs small complex vs Kunneth, degrees 0..N")
    p.add_argument("group")
    p.add_argument("through_degree", type=int, metavar="max_degree")
    p.add_argument("--cap", type=int, default=BAR_CAP, metavar="SIZE",
                   help="bar basis size limit per degree (default %(default)s)")
    return parser


def _payload(command: str, **overrides) -> dict:
    base = {
        "command": command,
        "group": None,
        "degree": None,
        "presentation": None,
        "verdict": None,
        "witness": None,
        "examples": None,
    }
    base.update(overrides)
    return base


def _check_degree(n: int, limit: int):
    if n < 0:
        raise UsageError("degree must be nonnegative")
    if n > limit:
        raise UsageError(f"degree {n} exceeds --max-degree {limit}")


def _coefficients(group) -> str:
    return "Z~" if group.twisted else "Z"


def cmd_homology(args) -> tuple[int, dict, list[str]]:
    group = parse_group_spec(args.group)
    _check_degree(args.degree, args.max_degree)
    h = homology(group, args.degree)
    head = f"H_{args.degree}({group}; {_coefficients(group)}) = {h}"
    lines = [head]
    witness = None
    if args.generators:
        witness = []
        for i, g in enumerate(h.generators()):
            order = g.order()
            rep = format_chain(h.representative(g))
            witness.append({"order": str(order), "cycle": rep})
            lines.append(f"  generator {i + 1} (order {format_order(order)}): {rep}")
    payload = _payload("homology", group=str(group), degree=str(args.degree),
                       presentation=str(h), witness=witness)
    return EXIT_OK, payload, lines


def cmd_chi(args) -> tuple[int, dict, list[str]]:
    group = parse_group_spec(args.group)
    _check_degree(args.degree, args.max_degree)
    z = parse_chain(group, args.cycle)
    if z.degree != args.degree:
        raise UsageError(f"cycle has degree {z.degree}, command line says {args.degree}")
    if not boundary(z).is_zero:
        raise NotACycleError("the given chain has nonzero boundary")
    n = args.degree
    value = chi_chain(z)
    h2n = homology(group, 2 * n)
    cls = h2n.reduce(value)
    order = cls.order()
    zero = cls.is_zero
    rep = format_chain(h2n.representative(cls))
    lines = [
        f"chi class in H_{2 * n}({group}; {_coefficients(group)}) = {h2n}:",
        f"  class {cls}  (representative {rep})",
        "  order: " + ("1 (zero class)" if zero else format_order(order)),
    ]
    if n >= 2:
        kind = VANISHES if zero else NONZERO_WITNESS
        verdict = Verdict(kind, group, n, witness=None if zero else z,
                          chi_chain=None if zero else value,
                          chi_order=None if zero else order)
        lines.append("  " + interpret(verdict))
    else:
        lines.append("  (no topological reading below degree 2)")
    payload = _payload(
        "chi", group=str(group), degree=str(n), presentation=str(h2n),
        verdict="zero" if zero else "nonzero",
        witness={"class": str(cls), "representative": rep, "order": str(order)},
    )
    return (EXIT_OK if zero else EXIT_NONZERO), payload, lines


def cmd_scan(args) -> tuple[int, dict, list[str]]:
    group = parse_group_spec(args.group)
    _check_degree(args.degree, args.max_degree)
    cover, vanish = scan(group, args.degree)
    lines = [f"theorem cover: {cover}", f"vanishing decision: {vanish}", _pairs_line(vanish)]
    witness = None
    if not vanish.vanishes:
        witness = {
            "cycle": format_chain(vanish.witness),
            "chi": format_chain(vanish.chi_chain),
            "chi_order": str(vanish.chi_order),
        }
        shown = format_order(vanish.chi_order)
        lines.append(f"  witness cycle: {witness['cycle']}")
        lines.append(f"  chi chain: {witness['chi']} (class order {shown})")
    lines.append(interpret(vanish))
    payload = _payload(
        "scan", group=str(group), degree=str(args.degree),
        verdict={"theorem": str(cover), "vanishing": str(vanish)},
        witness=witness,
    )
    return (EXIT_OK if vanish.vanishes else EXIT_NONZERO), payload, lines


def _pairs_line(verdict: Verdict) -> str:
    """Provenance of ``vanishes_for_all``: what it formed, skipped, and where it failed."""
    line = (f"  pairs: {verdict.generators} generators; {verdict.pairs_formed} formed, "
            f"{verdict.skipped_free} skipped (free overlap), "
            f"{verdict.skipped_degree} skipped (degree), "
            f"{verdict.skipped_orbit} skipped (orbit)")
    if verdict.failing_pair is not None:
        block = "[" + " ".join(str(i) for i in verdict.failing_block) + "]"
        line += f"; failed at pair {verdict.failing_pair} in block {block}"
    return line


def cmd_verify_paper(args) -> tuple[int, dict, list[str]]:
    if args.list_ids:
        ids = example_ids()
        payload = _payload("verify-paper", examples=[{"id": i} for i in ids])
        return EXIT_OK, payload, list(ids)
    try:
        results = run_all(args.only)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from None
    lines = []
    rows = []
    for res in results:
        ex = res.example
        lines.append(f"{res.status}  {ex.ident}: {ex.group_text}, degree {ex.degree}")
        if not res.ok:
            lines.append(f"      {res.detail}")
        rows.append({
            "id": ex.ident,
            "status": res.status,
            "computed": res.computed,
            "order": str(res.computed_order),
            "detail": res.detail,
        })
    passed = sum(1 for r in results if r.ok)
    summary = f"{passed}/{len(results)} PASS"
    lines.append(summary)
    payload = _payload("verify-paper", verdict=summary, examples=rows)
    return (EXIT_OK if passed == len(results) else 1), payload, lines


def cmd_oracle_compare(args) -> tuple[int, dict, list[str]]:
    group = parse_group_spec(args.group)
    if not group.is_finite:
        raise UsageError("oracle comparison needs a finite group")
    _check_degree(args.through_degree, args.max_degree)
    if args.cap < 1:
        raise UsageError("--cap must be at least 1")
    rows = []
    lines = []
    all_ok = True
    for n in range(args.through_degree + 1):
        small = homology(group, n).abelian_type()
        predicted = homology_type(group, n)
        from_bar = bar_homology(group, n, args.cap)
        agree = small == predicted == from_bar
        row = {
            "degree": str(n),
            "small": str(small),
            "kunneth": str(predicted),
            "bar": str(from_bar),
            "homology_agree": agree,
        }
        profile_note = "skipped (H_n has free rank)"
        if homology(group, n).free_rank == 0:
            try:
                pb = chi_profile("bar", group, n, args.cap)
            except CapExceededError:
                profile_note = "skipped (cap)"
            else:
                ps = chi_profile("small", group, n)
                prof_ok = pb == ps
                profile_note = "agree" if prof_ok else f"DISAGREE: bar {pb} vs small {ps}"
                agree = agree and prof_ok
        row["profile"] = profile_note
        rows.append(row)
        all_ok = all_ok and agree
        mark = "ok " if agree else "FAIL"
        lines.append(
            f"{mark} n={n}: small {small} | kunneth {predicted} | bar {from_bar}"
            f" | profile {profile_note}"
        )
    verdict = "agree" if all_ok else "disagree"
    lines.append(verdict)
    payload = _payload("oracle-compare", group=str(group),
                       degree=str(args.through_degree), verdict=verdict, examples=rows)
    return (EXIT_OK if all_ok else 1), payload, lines


_DISPATCH = {
    "homology": cmd_homology,
    "chi": cmd_chi,
    "scan": cmd_scan,
    "verify-paper": cmd_verify_paper,
    "oracle-compare": cmd_oracle_compare,
}


# Exit code of each refused input; the first matching type wins, and
# NotACycleError comes first because it is a ChainError.
_EXIT_CODES = {
    NotACycleError: EXIT_NOT_A_CYCLE,
    GroupSpecError: EXIT_USAGE,
    ChainError: EXIT_USAGE,
    UsageError: EXIT_USAGE,
    InfiniteGroupError: EXIT_USAGE,
    DegreeTooSmallError: EXIT_DEGREE,
    CapExceededError: EXIT_CAP,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = _DISPATCH[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
