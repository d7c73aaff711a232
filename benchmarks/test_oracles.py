"""Each workload's oracle accepts a correct output and rejects a corrupted one.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles


def test_stage23_rejects_census_off_by_one():
    good = list(oracles.STAGE23_CENSUS)
    args = (oracles.STAGE23_GAP_COUNT, True, True)
    assert oracles.check_stage23(good, good, *args) == []
    bad = good.copy()
    bad[3] += 1
    assert oracles.check_stage23(bad, good, *args)
    assert oracles.check_stage23(bad, bad, *args)  # model and census wrong alike


@pytest.mark.parametrize(
    "gap_count, verify_ok, identical",
    [(oracles.STAGE23_GAP_COUNT - 1, True, True), (oracles.STAGE23_GAP_COUNT, False, True),
     (oracles.STAGE23_GAP_COUNT, True, False)],
)
def test_stage23_rejects_bad_cycle(gap_count, verify_ok, identical):
    good = list(oracles.STAGE23_CENSUS)
    assert oracles.check_stage23(good, good, gap_count, verify_ok, identical)


@pytest.mark.parametrize("window", sorted(oracles.AJK_PINNED))
def test_ajk_rejects_one_perturbed_product(window):
    count, pinned = oracles.AJK_PINNED[window]
    assert oracles.check_ajk(window, count, dict(pinned)) == []
    for j in pinned:
        for sign in (1, -1):
            bad = dict(pinned)
            bad[j] *= 1 + sign * 1e-12
            assert oracles.check_ajk(window, count, bad), (j, sign)
    assert oracles.check_ajk(window, count + 1, dict(pinned))


def test_ajk_pinned_table_matches_reference():
    assert oracles.reference_window(0) == oracles.AJK_PINNED[0]


def _stage19_survivors() -> np.ndarray:
    n = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve)
    return np.concatenate(([1], primes[primes >= 20], [n + 1])).astype(np.int64)


def test_attrition_rejects_missing_survivor():
    expected = _stage19_survivors()
    assert oracles.check_attrition(expected.copy(), expected) == []
    assert oracles.check_attrition(np.delete(expected, 1000), expected)
    shifted = expected.copy()
    shifted[1000] += 2
    assert oracles.check_attrition(shifted, expected)


def test_reproduce_rejects_fail_line_and_exit_code():
    good = "gap 2: counts PASS, w_inf PASS\ntable2: PASS\n"
    assert oracles.check_reproduce("table2", 0, good) == []
    assert oracles.check_reproduce("table2", 1, good)
    assert oracles.check_reproduce("table2", 0, good + "table2: FAIL\n")
    assert oracles.check_reproduce("table2", 0, "gap 2: counts FAIL [1484]\n")
    assert oracles.check_reproduce("table2", 0, "")
