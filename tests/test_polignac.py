from fractions import Fraction as F

import pytest

from gapsieve.census import census_for
from gapsieve.cycle import build_primorial_cycle
from gapsieve.dynsys import PopulationVector, asymptotic_ratio
from gapsieve.primal import factorize, radical_of_even
from gapsieve.polignac import (
    hl_ratio,
    partial_ratio,
    repetition_feasible_by_divisibility,
    repetition_weight,
    seeded_total,
)
from gapsieve.refvalues import ASYMPTOTIC_74_132, GAP_W_INFINITY, PARTIAL_RATIO_31


def test_hl_ratio_examples():
    assert hl_ratio(6) == F(2)
    assert hl_ratio(30) == F(8, 3)
    assert hl_ratio(2) == F(1)
    with pytest.raises(ValueError):
        hl_ratio(7)


def test_hl_ratio_matches_census_table(g13):
    for g, expected in GAP_W_INFINITY.items():
        assert hl_ratio(g) == expected


def test_hl_ratio_matches_display_column():
    for g, text in ASYMPTOTIC_74_132.items():
        assert f"{float(hl_ratio(g)):.4f}" == text


def test_partial_ratio_examples():
    for g, expected in PARTIAL_RATIO_31.items():
        assert partial_ratio(g, 31) == expected
    assert partial_ratio(74, 37) == hl_ratio(74)


def test_partial_ratio_reaches_limit_at_largest_factor():
    import random

    gs = list(range(2, 20_001, 2))
    rng = random.Random(1)
    gs += [rng.randrange(2, 10**6, 2) for _ in range(500)]
    for g in gs:
        qbar = max(q for q, _ in factorize(g))
        assert partial_ratio(g, qbar) == hl_ratio(g)
        if qbar > 2:
            # one stage earlier the largest factor has not contributed yet
            assert partial_ratio(g, qbar - 1) == hl_ratio(g) / F(qbar - 1, qbar - 2)


def test_seeded_total_examples():
    assert seeded_total(6) == 2
    assert seeded_total(10) == 4
    assert seeded_total(14) == 18


def test_seeded_total_matches_census():
    # the census of the stage-qbar cycle finds exactly the seeded driving terms
    for g in (6, 10, 14, 22, 26):
        qbar = max(q for q, _ in factorize(g))
        cycle = build_primorial_cycle(qbar)
        assert census_for(cycle, g).total == seeded_total(g)


@pytest.mark.parametrize("g", [7, 0, -4, 1])
def test_gap_checks_share_one_message(g):
    # a bad gap is reported before a bad repetition length
    message = f"^gap must be a positive even integer: {g}$"
    for check in (radical_of_even, hl_ratio, lambda g: partial_ratio(g, 31),
                  lambda g: repetition_weight(g, 0), seeded_total):
        with pytest.raises(ValueError, match=message):
            check(g)


def test_repetition_weight_examples():
    assert repetition_weight(6, 2).w_infinity == F(2)
    assert repetition_weight(12, 2).w_infinity == F(2)
    assert repetition_weight(6, 3).w_infinity == F(2)
    assert repetition_weight(30, 4).w_infinity == F(8)


def test_repetition_weight_length_one_is_hl_ratio():
    for g in range(2, 200, 2):
        spec = repetition_weight(g, 1)
        assert spec.feasible
        assert spec.w_infinity == hl_ratio(g)


def test_repetition_feasibility_gap_2():
    assert repetition_weight(2, 1).feasible
    for j1 in range(2, 8):
        assert not repetition_weight(2, j1).feasible


def test_feasibility_definitions_agree():
    for g in range(2, 10_001, 2):
        for j1 in range(1, 21):
            assert repetition_weight(g, j1).feasible == repetition_feasible_by_divisibility(g, j1)


def test_census_crosscheck(g7, g13):
    # the censused ratio sum on a cycle equals the closed form at its stage
    for g, cycle, expected in ((6, g7, F(2)), (30, g13, F(8, 3)), (2, g7, F(1))):
        ratio = asymptotic_ratio(PopulationVector.from_census(census_for(cycle, g)))
        assert ratio == expected == partial_ratio(g, cycle.prime)
