"""Acceptance gate: one pass line per shipped guarantee.

Each test prints exactly one summary line, visible under ``pytest -v``,
so a full run doubles as a release report.  The criteria, in order:

1. the ten recorded examples recompute with the stored class and order,
2. the vanishing decision is affirmative across the covered-family grid,
3. the sharpness cells outside the grid produce verified nonzero witnesses,
4. eight chain-level laws hold on randomized chains over every grid group,
5. small-resolution, Kunneth, and bar-resolution answers agree cell by cell,
6. closed-form Kunneth predictions match every factor split,
7. theorem coverage implies an affirmative vanishing decision,
8. every sweep verdict, witness and count matches a pinned digest.
"""

import hashlib
import random
import time

import pytest

from support import (
    G,
    ORACLE_GROUPS,
    SHARPNESS_CELLS,
    criterion_grid,
    grid_groups,
    random_chain,
    random_cycle,
)
from twisthom import (
    Chain,
    GroupSpec,
    bar_homology,
    boundary,
    chi_chain,
    chi_profile,
    class_order,
    homology_type,
    inversion_chain,
    is_cycle,
    kunneth_predict,
    reduce_cycle,
    run_all,
    vanishes_for_all,
    theorem_cover,
    wedge,
)
from twisthom.chains import format_chain
from twisthom.homology import homology, is_boundary

ORACLE_CAP = 60000


def report(capsys, ok, number, detail):
    with capsys.disabled():
        print(f"\n[acceptance {number}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def grid_sweep():
    """Cover and vanishing verdicts for every cell of the covered grid."""
    started = time.time()
    cells = []
    for group, n in criterion_grid():
        cells.append((group, n, theorem_cover(group, n), vanishes_for_all(group, n)))
    return cells, time.time() - started


def test_1_recorded_examples(capsys):
    started = time.time()
    results = run_all()
    elapsed = time.time() - started
    passed = sum(1 for r in results if r.ok)
    ok = passed == len(results) == 10 and elapsed < 10.0
    report(
        capsys, ok, 1,
        f"recorded examples {passed}/{len(results)} in {elapsed:.1f}s (budget 10s)",
    )


def test_2_vanishing_on_the_covered_grid(capsys, grid_sweep):
    cells, elapsed = grid_sweep
    failures = [(g, n) for g, n, _, vanish in cells if not vanish.vanishes]
    ok = not failures and len(cells) > 1000
    report(
        capsys, ok, 2,
        f"vanishing confirmed on {len(cells) - len(failures)}/{len(cells)} "
        f"grid cells, degrees 2..6 ({elapsed:.1f}s)",
    )


def test_3_sharpness_witnesses(capsys):
    verified = 0
    problems = []
    for text, n in SHARPNESS_CELLS:
        group = G(text)
        verdict = vanishes_for_all(group, n)
        witness = verdict.witness
        chi = chi_chain(witness) if witness is not None else None
        good = (
            verdict.kind == "NonzeroWitness"
            and not verdict.vanishes
            and witness is not None
            and is_cycle(witness)
            and verdict.chi_order != 1
            and class_order(chi) == verdict.chi_order
        )
        if good:
            verified += 1
        else:
            problems.append(f"{text} n={n}")
    ok = verified == len(SHARPNESS_CELLS)
    detail = f"nonzero witnesses verified on {verified}/{len(SHARPNESS_CELLS)} sharpness cells"
    if problems:
        detail += "; failed: " + ", ".join(problems)
    report(capsys, ok, 3, detail)


def _law_failures(group, rng, count):
    """Count violations of the eight chain-level laws on random draws."""
    fails = 0
    for _ in range(count):
        c = random_chain(rng, group, rng.choice((1, 2, 3, 4)))
        if not boundary(boundary(c)).is_zero:
            fails += 1
    for _ in range(count):
        a = random_chain(rng, group, rng.choice((1, 2, 3)))
        b = random_chain(rng, group, rng.choice((1, 2, 3)))
        sign = -1 if a.degree % 2 else 1
        if boundary(wedge(a, b)) != wedge(boundary(a), b) + sign * wedge(a, boundary(b)):
            fails += 1
    for _ in range(count):
        a = random_chain(rng, group, rng.choice((1, 2, 3)))
        b = random_chain(rng, group, rng.choice((1, 2, 3)))
        sign = -1 if (a.degree * b.degree) % 2 else 1
        if wedge(a, b) != sign * wedge(b, a):
            fails += 1
    for _ in range(count):
        c = random_chain(rng, group, rng.choice((1, 3)))
        if not wedge(c, c).is_zero:
            fails += 1
    for _ in range(count):
        c = random_chain(rng, group, rng.choice((2, 4)))
        if any(v % 2 for v in wedge(c, c).terms.values()):
            fails += 1
    for _ in range(count):
        c = random_chain(rng, group, rng.choice((1, 3)))
        square = wedge(boundary(c), boundary(c))
        if any(v % 2 for v in square.terms.values()):
            fails += 1
            continue
        half = Chain(square.group, square.degree,
                     {m: v // 2 for m, v in square.terms.items()})
        if not is_boundary(half):
            fails += 1
    for _ in range(count):
        c = random_chain(rng, group, rng.choice((1, 2, 3, 4)))
        if boundary(inversion_chain(c)) != inversion_chain(boundary(c)):
            fails += 1
    for _ in range(count):
        z = random_cycle(rng, group, rng.choice((1, 2, 3)))
        if reduce_cycle(inversion_chain(inversion_chain(z))) != reduce_cycle(z):
            fails += 1
    return fails


def test_4_randomized_chain_laws(capsys):
    started = time.time()
    groups = grid_groups()
    draws_per_law = 200
    failures = 0
    for i, group in enumerate(groups):
        rng = random.Random(0xACC4 + i)
        failures += _law_failures(group, rng, draws_per_law)
    elapsed = time.time() - started
    ok = failures == 0
    report(
        capsys, ok, 4,
        f"8 laws x {draws_per_law} draws x {len(groups)} groups: "
        f"{failures} failures ({elapsed:.1f}s)",
    )


def test_5_oracle_agreement(capsys):
    started = time.time()
    compared = skipped = cells = 0
    problems = []
    for text in ORACLE_GROUPS:
        group = G(text)
        size = group.group_order
        for n in range(5):
            cells += 1
            small = homology(group, n)
            answers = (small.abelian_type(), homology_type(group, n),
                       bar_homology(group, n, cap=ORACLE_CAP))
            if len(set(answers)) != 1:
                problems.append(f"{text} n={n}: {answers}")
                continue
            fits = (size ** (2 * n) <= ORACLE_CAP
                    and size ** (2 * n + 1) <= ORACLE_CAP)
            if small.free_rank == 0 and fits:
                compared += 1
                if chi_profile("small", group, n) != chi_profile(
                    "bar", group, n, cap=ORACLE_CAP
                ):
                    problems.append(f"{text} n={n}: profiles differ")
            else:
                skipped += 1
    elapsed = time.time() - started
    ok = not problems and elapsed < 300.0
    detail = (
        f"three oracles agree on {cells} cells; chi profiles equal on "
        f"{compared}, capped or infinite on {skipped} ({elapsed:.1f}s, budget 300s)"
    )
    if problems:
        detail += "; " + "; ".join(problems[:3])
    report(capsys, ok, 5, detail)


def test_6_kunneth_splits(capsys):
    checks = 0
    problems = []
    for text in ("Z^2 x Z_3", "Z x Z_2 x Z_4", "Z^2 x Z_3 x Z_3"):
        group = G(text)
        for cut in range(len(group.factors) + 1):
            left = GroupSpec(group.factors[:cut])
            right = GroupSpec(group.factors[cut:])
            for n in range(9):
                checks += 1
                if homology(group, n).abelian_type() != kunneth_predict(left, right, n):
                    problems.append(f"{text} cut={cut} n={n}")
    ok = not problems
    detail = f"Kunneth prediction matches on {checks - len(problems)}/{checks} splits through degree 8"
    report(capsys, ok, 6, detail)


def test_7_coverage_implies_vanishing(capsys, grid_sweep):
    cells, _ = grid_sweep
    violations = [
        (g, n) for g, n, cover, vanish in cells
        if cover.covered and not vanish.vanishes
    ]
    covered = sum(1 for _, _, cover, _ in cells if cover.covered)
    ok = not violations
    report(
        capsys, ok, 7,
        f"coverage implies vanishing on {covered} covered cells, "
        f"{len(violations)} counterexamples",
    )


# sha256 of the records below over the covered grid, then the sharpness
# cells; any change to a verdict, witness, chi value or count moves it.
SWEEP_DIGEST = "7e7015b9788965c9021bde9e54c5b074f801351f23f3bf35b601baaf01e4d432"


def _verdict_record(v) -> str:
    chains = ("" if c is None else format_chain(c) for c in (v.witness, v.chi_chain))
    return repr((v.kind, *chains, v.chi_order, v.failing_pair, v.failing_block,
                 v.pairs_formed, v.skipped_free, v.skipped_degree, v.skipped_orbit))


def test_8_sweep_verdicts_are_pinned(capsys, grid_sweep):
    cells, _ = grid_sweep
    verdicts = [vanish for _, _, _, vanish in cells]
    verdicts += [vanishes_for_all(G(text), n) for text, n in SHARPNESS_CELLS]
    digest = hashlib.sha256("\n".join(map(_verdict_record, verdicts)).encode()).hexdigest()
    report(capsys, digest == SWEEP_DIGEST, 8,
           f"sweep digest {digest[:12]} over {len(verdicts)} verdicts")
