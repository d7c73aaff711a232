"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary.  Expected values live in gapsieve.refvalues; derived oracles are
recomputed inline.
"""

import random
import time
from fractions import Fraction as F

import pytest

from gapsieve import refvalues
from gapsieve.census import Constellation, census_for
from gapsieve.cycle import (
    build_primorial_cycle,
    cycle_for_factors,
    oracle_cycle,
    render_compact,
    verify_cycle,
)
from gapsieve.dynsys import (
    PopulationVector,
    asymptotic_ratio,
    crossover,
    eigenvalue_products,
    iterate,
)
from gapsieve.polignac import repetition_feasible_by_divisibility, singular_ratio
from gapsieve.primal import primes_in, primes_upto
from gapsieve.cli import main
from gapsieve.survival import actual_gap_counts, attrition, error_report, fold_confirmed_front


def report(n: int, text: str) -> None:
    print(f"acceptance {n}: {text} PASS")


def test_criterion_1_cycle_construction():
    t0 = time.perf_counter()
    assert render_compact(build_primorial_cycle(3)) == "42"
    assert render_compact(build_primorial_cycle(5)) == "64242462"
    g7 = build_primorial_cycle(7)
    assert g7.gaps.tolist() == refvalues.CYCLE_7_GAPS
    assert g7.gap_count == 48 and g7.modulus == 210

    for p in (2, 3, 5, 7, 11, 13):
        cyc = build_primorial_cycle(p)
        assert cyc == oracle_cycle(cyc.modulus)

    rng = random.Random(20260810)
    pool = primes_upto(97)
    seen = 0
    while seen < 50:
        factors = sorted(rng.sample(pool, rng.randint(2, 4)))
        value = 1
        for f in factors:
            value *= f
        if value > 10**6:
            continue
        assert cycle_for_factors(factors) == oracle_cycle(value)
        seen += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"cycle construction took {elapsed:.2f}s"
    report(1, f"cycle construction and oracle equivalence ({elapsed:.2f}s)")


def test_criterion_2_census_table(g13):
    t0 = time.perf_counter()
    cycle = build_primorial_cycle(13)
    assert cycle.gap_count == 5760
    for g, expected in sorted(refvalues.GAP_CENSUS_13.items()):
        census = census_for(cycle, g)
        assert census.vector() == expected, f"gap {g}"  # nothing beyond the table's length
        assert singular_ratio((0, g)) == refvalues.GAP_W_INFINITY[g]
        assert asymptotic_ratio(PopulationVector.from_census(census)) == refvalues.GAP_W_INFINITY[g]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"census took {elapsed:.2f}s"
    report(2, f"stage-13 census table, all {len(refvalues.GAP_CENSUS_13)} rows exact ({elapsed:.2f}s)")


def test_criterion_3_model_vs_census(g5, g7, g11, g13):
    cycles = {5: g5, 7: g7, 11: g11, 13: g13}
    for g in (2, 4, 6, 8, 10, 12):
        v = PopulationVector.from_census(census_for(g5, g))
        for p0, pk in ((5, 7), (7, 11), (11, 13)):
            v = iterate(v, p0, pk)
            assert [int(e) for e in v.entries] == census_for(cycles[pk], g).vector(v.max_length)
    # spot values
    assert census_for(g11, 6).vector()[0] == 142
    assert census_for(g11, 8).vector() == [28, 86, 21]
    # the eigenbasis of step is checked exactly in test_dynsys.test_exact_eigen_identities
    report(3, "population model equals census 5..13")


def test_criterion_4_asymptotics(g13):
    for g, expected in refvalues.GAP_W_INFINITY.items():
        assert singular_ratio((0, g)) == expected
    for g, text in refvalues.ASYMPTOTIC_74_132.items():
        assert f"{float(singular_ratio((0, g))):.4f}" == text
    cycles = {}
    for text, _span, j1, top, p0, counts, w_inf in refvalues.CONSTELLATION_CASES:
        s = Constellation.parse(text)
        cycle = cycles.setdefault(p0, build_primorial_cycle(p0))
        census = census_for(cycle, s)
        assert census.vector() == counts, text
        assert census.max_length == top
        v = PopulationVector.from_census(census)
        assert asymptotic_ratio(v) == w_inf, text
    report(4, "closed-form and censused asymptotic ratios, gaps and constellations")


def test_criterion_5_eigenvalue_products():
    prods = eigenvalue_products(13, 10**7, 9)
    for j in range(2, 9):
        assert prods[j] > prods[j + 1]
    for j in range(3, 10):
        assert prods[j] < prods[2] ** (j - 1)

    pk = 10**6
    ps = [p for p in primes_upto(pk) if p > 13]
    small = eigenvalue_products(13, pk, 3)

    def tree_product(xs):
        while len(xs) > 1:
            xs = [xs[i] * xs[i + 1] for i in range(0, len(xs) - 1, 2)] + (
                [xs[-1]] if len(xs) % 2 else []
            )
        return xs[0]

    den = tree_product([p - 2 for p in ps])
    for j in (2, 3):
        exact = F(tree_product([p - j - 1 for p in ps]), den)
        rel = abs(F(small[j]) - exact) / exact
        assert rel < 1e-15, f"a_{j} drifted {float(rel)}"
    report(5, "eigenvalue products monotone, bounded, and exact to 1e-15 at 1e6")


def test_criterion_6_crossover(g13):
    t0 = time.perf_counter()
    va = PopulationVector.from_census(census_for(g13, 30))
    vb = PopulationVector.from_census(census_for(g13, 6))
    root = crossover(va, vb)
    assert root is not None
    assert abs(root - 0.06275) <= 0.0005
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(6, f"population crossover of gaps 30 and 6 at {root:.5f} ({elapsed:.2f}s)")


def test_criterion_7_attrition(g7, g13):
    t0 = time.perf_counter()
    trace7 = attrition(g7)
    assert fold_confirmed_front(trace7).tolist() == refvalues.ATTRITION_7_FOLDED
    assert trace7.final_gaps[-5:].tolist() == [10, 2, 4, 2, 12]

    trace = attrition(g13)
    for step in trace.steps:
        assert sum(g * c for g, c in step.histogram.items()) == 30030
    assert max(trace.initial_histogram) == refvalues.ATTRITION_13_INITIAL_MAX_GAP
    assert trace.max_surviving_gap == refvalues.ATTRITION_13_MAX_GAP
    assert trace.first_stage_with_gap(52) == refvalues.ATTRITION_13_MAX_GAP_FIRST_STAGE
    assert trace.final_gap_count == refvalues.ATTRITION_13_FINAL_COUNT

    # the published figure's 3245 corresponds to the sieve list without 167
    # (the reconstructed convention; see the notes in refvalues)
    figure = attrition(
        g13,
        sieve_primes=[q for q in trace.sieve_primes if q != refvalues.ATTRITION_13_OMITTED_PRIME],
    )
    assert figure.final_gap_count == refvalues.ATTRITION_13_FIGURE_COUNT
    assert figure.max_surviving_gap == refvalues.ATTRITION_13_MAX_GAP
    assert figure.first_stage_with_gap(52) == refvalues.ATTRITION_13_MAX_GAP_FIRST_STAGE
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        7,
        f"attrition: stage-7 sequence, conservation, max gap 52 at 73, "
        f"{trace.final_gap_count}/{figure.final_gap_count} gap counts ({elapsed:.2f}s)",
    )


def test_criterion_8_survival_ground_truth(g13, tmp_path, monkeypatch, capsys):
    assert actual_gap_counts(11, 121, [2]) == [8]
    ps = primes_in(11, 121)
    diffs = [b - a for a, b in zip(ps, ps[1:])]
    for g in (2, 4, 6, 8, 10, 12):
        assert actual_gap_counts(11, 121, [g]) == [diffs.count(g)]

    cycles = [g13]
    cyc = g13
    from gapsieve.cycle import extend_cycle

    for q in (17, 19, 23):
        cyc = extend_cycle(cyc, q)
        cycles.append(cyc)
    rows = error_report(cycles, [2, 4, 6])
    # the first run streams stages 13..23 into the cache dir, the second maps them
    monkeypatch.setenv("GAPSIEVE_CACHE_DIR", str(tmp_path / "cache"))
    for name in ("a.csv", "b.csv"):
        argv = ["naive-error", "--pmin", "13", "--pmax", "23", "--gaps", "2", "4", "6"]
        assert main([*argv, "--csv", str(tmp_path / name)]) == 0
    text_a, text_b = (tmp_path / "a.csv").read_text(), (tmp_path / "b.csv").read_text()
    assert text_a == text_b  # deterministic
    worst = max(abs(r.rel_error) for r in rows if r.rel_error is not None)
    # band recorded from the oracle run: observed max |rel| is ~0.16
    assert worst <= 0.25, f"naive estimate drifted {worst:.3f}"
    report(8, f"true-prime ground truth; naive estimates within {worst:.1%} <= 25%")


def test_criterion_9_property_suite(g5, g7, g11, g13):
    for cyc in (g5, g7, g11, g13):
        rep = verify_cycle(cyc)
        assert rep.ok, rep.lines()

    rng = random.Random(9)
    pool = [2, 4, 6, 8, 10, 12]
    for cyc in (g7, g11):
        for _ in range(20):
            s = Constellation(tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
            pop = census_for(cyc, s).population
            assert pop == census_for(cyc, s.reversed_()).population
            gaps = cyc.gaps.tolist()
            k, m = s.length, len(gaps)
            assert pop == sum((gaps + gaps[: k - 1])[i : i + k] == list(s.gaps) for i in range(m))

    from gapsieve.cycle import extend_cycle

    for cyc, q in ((g5, 7), (g7, 11)):
        bigger = extend_cycle(cyc, q)
        for g in (6, 8, 10, 12, 16):
            assert census_for(bigger, g).total == (q - 2) * census_for(cyc, g).total

    for g in range(2, 10_001, 2):
        for j1 in range(1, 21):
            feasible = singular_ratio(range(0, (j1 + 1) * g, g)) != 0
            assert feasible == repetition_feasible_by_divisibility(g, j1)
    report(9, "cycle, census symmetry, ratio-sum, and feasibility properties")
