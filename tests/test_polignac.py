from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsieve import census
from gapsieve.census import Constellation, census_for
from gapsieve.cycle import build_primorial_cycle
from gapsieve.dynsys import PopulationVector, asymptotic_ratio
from gapsieve.primal import factorize, radical_of_even
from gapsieve.polignac import crt_total, repetition_feasible_by_divisibility, singular_ratio
from gapsieve.refvalues import (
    ASYMPTOTIC_74_132,
    CONSTELLATION_CASES,
    GAP_W_INFINITY,
    PARTIAL_RATIO_31,
)


def points(gaps):
    return (0, *accumulate(gaps))


def repetition(g, n):
    """The points of the gap g repeated n times."""
    return range(0, (n + 1) * g, g)


def test_hl_ratio_examples():
    assert singular_ratio((0, 6)) == F(2)
    assert singular_ratio((0, 30)) == F(8, 3)
    assert singular_ratio((0, 2)) == F(1)
    # an odd gap covers both residues mod 2
    assert singular_ratio((0, 7)) == 0


def test_hl_ratio_matches_census_table(g13):
    for g, expected in GAP_W_INFINITY.items():
        assert singular_ratio((0, g)) == expected


def test_hl_ratio_matches_display_column():
    for g, text in ASYMPTOTIC_74_132.items():
        assert f"{float(singular_ratio((0, g))):.4f}" == text


def test_partial_ratio_examples():
    for g, expected in PARTIAL_RATIO_31.items():
        assert singular_ratio((0, g), 31) == expected
    assert singular_ratio((0, 74), 37) == singular_ratio((0, 74))
    for p in (-2, 0, 1):  # no prime is <= p
        assert singular_ratio((0, 30), p) == 1


def test_partial_ratio_reaches_limit_at_largest_factor():
    import random

    gs = list(range(2, 20_001, 2))
    rng = random.Random(1)
    gs += [rng.randrange(2, 10**6, 2) for _ in range(500)]
    for g in gs:
        qbar = max(q for q, _ in factorize(g))
        limit = singular_ratio((0, g))
        assert singular_ratio((0, g), qbar) == limit
        if qbar > 2:
            # one stage earlier the largest factor has not contributed yet
            assert singular_ratio((0, g), qbar - 1) == limit / F(qbar - 1, qbar - 2)


def test_seeded_total_examples():
    assert crt_total((0, 6), 3) == 2
    assert crt_total((0, 10), 5) == 4
    assert crt_total((0, 14), 7) == 18


def test_seeded_total_matches_census():
    # the census of the stage-qbar cycle finds exactly the seeded driving terms
    for g in (6, 10, 14, 22, 26):
        qbar = max(q for q, _ in factorize(g))
        cycle = build_primorial_cycle(qbar)
        assert census_for(cycle, g).total == crt_total((0, g), qbar)


def test_constellation_cases_closed_form():
    for text, _span, _j1, _top, p0, counts, w_inf in CONSTELLATION_CASES:
        s = points(Constellation.parse(text).gaps)
        assert singular_ratio(s) == w_inf, text
        assert crt_total(s, p0) == sum(counts), text


@pytest.mark.parametrize("g", [7, 0, -4, 1])
def test_gap_checks_share_one_message(g):
    message = f"^gap must be a positive even integer: {g}$"
    for check in (radical_of_even, lambda g: Constellation((g,)),
                  lambda g: Constellation((2, g, 2))):
        with pytest.raises(ValueError, match=message):
            check(g)


def test_repetition_weight_examples():
    assert singular_ratio(repetition(6, 2)) == F(2)
    assert singular_ratio(repetition(12, 2)) == F(2)
    assert singular_ratio(repetition(6, 3)) == F(2)
    assert singular_ratio(repetition(30, 4)) == F(8)


def test_repetition_weight_length_one_is_hl_ratio():
    for g in range(2, 200, 2):
        assert singular_ratio(repetition(g, 1)) == singular_ratio((0, g)) != 0


def test_repetition_feasibility_gap_2():
    assert singular_ratio(repetition(2, 1))
    for j1 in range(2, 8):
        assert singular_ratio(repetition(2, j1)) == 0


def test_repetition_range_matches_its_tuple():
    # a range's residues are read from its first q terms; a tuple's from all of them
    for g in range(2, 200, 2):
        for n in range(1, 8):
            assert singular_ratio(repetition(g, n)) == singular_ratio(tuple(repetition(g, n)))


def test_long_repetition_ends_at_the_first_covered_prime():
    # 7 does not divide 30, so seven points cover every residue mod 7
    assert singular_ratio(repetition(30, 10**8)) == 0
    assert crt_total(repetition(30, 10**8), 10**8) == 0


def test_feasibility_definitions_agree():
    for g in range(2, 10_001, 2):
        for j1 in range(1, 21):
            feasible = singular_ratio(repetition(g, j1)) != 0
            assert feasible == repetition_feasible_by_divisibility(g, j1)


def test_census_crosscheck(g7, g13):
    # the censused ratio sum on a cycle equals the closed form at its stage
    for g, cycle, expected in ((6, g7, F(2)), (30, g13, F(8, 3)), (2, g7, F(1))):
        ratio = asymptotic_ratio(PopulationVector.from_census(census_for(cycle, g)))
        assert ratio == expected == singular_ratio((0, g), cycle.prime)


@pytest.fixture(scope="module")
def cycles(g7, g11, g13):
    return {7: g7, 11: g11, 13: g13, 17: build_primorial_cycle(17),
            19: build_primorial_cycle(19)}


gap_lists = st.lists(st.integers(1, 19).map(lambda h: 2 * h), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gaps=gap_lists, p=st.sampled_from([7, 11, 13]))
@example(gaps=[4, 4], p=7)
@example(gaps=[2, 2, 2], p=13)
@example(gaps=[38, 38, 38, 38], p=13)
def test_crt_total_is_the_census_total(cycles, gaps, p):
    # the census counts every driving term, whether or not the model is exact there
    assert crt_total(points(gaps), p) == census_for(cycles[p], Constellation(tuple(gaps))).total


@pytest.mark.parametrize("p", [17, 19])
def test_crt_total_is_the_census_total_at_later_stages(cycles, p):
    for gaps in ((2,), (38,), (2, 4), (4, 4), (6, 6), (2, 10, 2), (30, 30), (2, 4, 2, 4),
                 (6, 12, 18, 24), (34, 2, 38), (22, 26)):
        assert crt_total(points(gaps), p) == census_for(cycles[p], Constellation(gaps)).total


def test_crt_total_on_both_census_kernels(cycles):
    # the census walks windows of up to WALK_STEPS gaps and tables wider ones
    walked = [(30,), (90,), (2, 10, 2)]
    tabled = [(150,), (42, 60, 42)]
    for gaps in walked + tabled:
        assert (sum(gaps) // 2 <= census.WALK_STEPS) == (gaps in walked)
        s = Constellation(gaps)
        assert census_for(cycles[19], s).total == crt_total(points(gaps), 19), gaps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gaps=gap_lists, p=st.sampled_from([7, 11, 13, 17]))
@example(gaps=[2, 10, 2, 10, 2], p=13)
@example(gaps=[4, 4], p=7)
def test_singular_ratio_is_the_census_ratio(cycles, gaps, p):
    # the census ratio is the product truncated at the stage; it is the limit once the
    # stage passes k + 1 and every prime factor of an interval sum
    s = points(gaps)
    ratio = asymptotic_ratio(census_for(cycles[p], Constellation(tuple(gaps))))
    assert singular_ratio(s, p) == ratio
    factors = {q for i, a in enumerate(s) for b in s[i + 1:] for q, _ in factorize(b - a)}
    if len(s) <= p and max(factors) <= p:
        assert singular_ratio(s) == ratio
