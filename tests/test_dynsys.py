import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsieve import dynsys, primal
from gapsieve.census import Constellation, census_for
from gapsieve.dynsys import (
    PopulationVector,
    _exact_sum,
    asymptotic_ratio,
    crossover,
    eigenvalue_products,
    evaluate_polynomial,
    iterate,
    polynomial_approx,
    step,
)
from gapsieve.primal import SIEVE_BLOCK, phi_i, primes_upto


def vec(entries, j1=1, ref=1):
    return PopulationVector(j1, tuple(entries), ref)


@pytest.mark.parametrize("p", [7, 11, 13, 31, 59, 97, 101])
@pytest.mark.parametrize("dims", [range(1, 3), range(3, 6), range(6, 13)], ids=["2", "5", "12"])
def test_exact_eigen_identities(p, dims):
    # L M = Lambda L on ratios, checked on the model that runs: for every unit
    # vector, coefficient m of polynomial_approx (row m of the Pascal matrix L)
    # scales by (p - j1 - 1 - m) / (p - j1 - 1) under step.  With L invertible
    # this fixes step's matrix as L^-1 Lambda L, the R Lambda L of the docstring.
    for j1 in (1, 2, 3):
        for dim in dims:
            if p <= j1 + dim:
                continue
            for k in range(dim):
                e_k = vec([int(i == k) for i in range(dim)], j1=j1)
                before = polynomial_approx(e_k)
                after = polynomial_approx(step(e_k, p))
                assert [c * (p - j1 - 1) for c in after] == [
                    c * (p - j1 - 1 - m) for m, c in enumerate(before)
                ]


def test_step_examples():
    assert step(vec([2, 4]), 7).entries == (F(14), F(16))
    assert step(vec([0, 2, 1]), 7).entries == (F(2), F(10), F(3))
    assert step(vec([0, 0, 0]), 7).entries == (F(0), F(0), F(0))


def test_entries_are_int_counts(g7):
    v = PopulationVector.from_census(census_for(g7, 6))
    for w in (v, step(v, 11), PopulationVector.from_census(v, v.max_length + 2)):
        assert all(type(e) is int for e in w.entries)
    assert v.ratios == tuple(F(e, v.ref) for e in v.entries)
    assert asymptotic_ratio(v) == F(sum(v.entries), v.ref)


def test_step_rejects_small_prime():
    with pytest.raises(ValueError):
        step(vec([1, 1, 1, 1, 1, 1]), 7)  # max length 6 needs p > 7


def test_iterate_matches_census(g5, g7, g11, g13):
    cycles = {7: g7, 11: g11, 13: g13}
    for g in (2, 4, 6, 8, 10, 12):
        v = PopulationVector.from_census(census_for(g5, g))
        for pk in (7, 11, 13):
            v = iterate(v, 5 if pk == 7 else (7 if pk == 11 else 11), pk)
            expected = census_for(cycles[pk], g).vector(v.max_length)
            assert [int(e) for e in v.entries] == expected


@pytest.mark.parametrize(
    ("target", "pk"),
    [(6, 13), (Constellation((2, 10, 2)), 13), (Constellation((4, 2, 4, 2, 4)), 11)],
    ids=["j1=1", "j1=3", "j1=5"],
)
def test_iterated_ratios_match_later_census(g7, g11, g13, target, pk):
    # j1 = 1, 3 and 5: the reference count grows by p - j1 - 1 per stage
    v = iterate(PopulationVector.from_census(census_for(g7, target)), 7, pk)
    later = {11: g11, 13: g13}[pk]
    expected = PopulationVector.from_census(census_for(later, target), v.max_length)
    assert v.ratios == expected.ratios
    assert v.ref == expected.ref


def test_iterate_single_step_equals_step():
    v = vec([2, 4])
    assert iterate(v, 5, 7).entries == step(v, 7).entries


def test_normalized_step_keeps_entry_sum():
    # the all-ones left functional is invariant on the ratios
    v = vec([1690, 1280, 0, 0, 0, 0, 0, 0], ref=phi_i(2, tuple(primes_upto(13))))
    total = sum(v.ratios)
    w = step(v, 17)
    assert sum(w.ratios) == total


def test_asymptotic_ratios_from_stage_5(g5):
    cases = {4: F(1), 6: F(2), 8: F(1), 10: F(4, 3), 12: F(2)}
    for g, expected in cases.items():
        v = PopulationVector.from_census(census_for(g5, g))
        assert asymptotic_ratio(v) == expected


def test_asymptotic_ratio_constellation(g13):
    v = PopulationVector.from_census(census_for(g13, Constellation((2, 10, 2, 10, 2))))
    assert asymptotic_ratio(v) == F(144, 35)


def test_asymptotic_ratio_stable_under_stage_refinement(g5, g7, g11):
    # recomputing the initial conditions at a later valid stage gives the same limit
    values = []
    for cyc in (g5, g7, g11):
        v = PopulationVector.from_census(census_for(cyc, 6))
        values.append(asymptotic_ratio(v))
    assert values[0] == values[1] == values[2] == F(2)


def test_polynomial_approx(g5):
    # a gap with no driving terms keeps ratio 1: constant polynomial
    v4 = PopulationVector.from_census(census_for(g5, 4), 4)
    coeffs = polynomial_approx(v4)
    assert coeffs == (F(1), F(0), F(0), F(0))
    assert evaluate_polynomial(coeffs, F(1, 2)) == F(1)
    v6 = PopulationVector.from_census(census_for(g5, 6))
    c6 = polynomial_approx(v6)
    assert c6[0] == F(2)
    # x = 1 telescopes back to the stage-5 value; x = 0 is the limit
    assert evaluate_polynomial(c6, F(1)) == v6.ratios[0]
    assert evaluate_polynomial(c6, F(0)) == F(2)


def test_eigenvalue_products_single_factor():
    prods = eigenvalue_products(13, 17, 2)
    assert abs(prods[2] - 14 / 15) < 1e-15


def test_eigenvalue_products_match_exact_oracle():
    # exact rational product via big integers, compared at 1e-15 relative,
    # a few ulps; the acceptance suite runs the same oracle at 1e6
    pk = 10**5
    ps = [p for p in primes_upto(pk) if p > 13]
    prods = eigenvalue_products(13, pk, 3)

    def tree_product(xs):
        if not xs:
            return 1
        while len(xs) > 1:
            xs = [xs[i] * xs[i + 1] for i in range(0, len(xs) - 1, 2)] + (
                [xs[-1]] if len(xs) % 2 else []
            )
        return xs[0]

    den = tree_product([p - 2 for p in ps])
    for j in (2, 3):
        num = tree_product([p - j - 1 for p in ps])
        exact = F(num, den)
        rel = abs(F(prods[j]) - exact) / exact
        assert rel < 1e-15


# a_j over stage primes in (13, 2e7], which span 5 sieve blocks, as float.hex,
# from log1p_reference below.  The block partition fixes the rounding, so
# these hold bit for bit.
A_J_13_2E7_HEX = {
    2: "0x1.57908be975b49p-3",
    3: "0x1.c370d01346179p-6",
    4: "0x1.21c9634ccb6d2p-8",
    5: "0x1.6a958e4c0eadep-11",
    6: "0x1.b8c8785ce4023p-14",
    7: "0x1.03507cd761223p-16",
    8: "0x1.25db7b1eb24b6p-19",
    9: "0x1.3ea47af597c99p-22",
}


def test_eigenvalue_products_bit_identical_across_blocks():
    prods = eigenvalue_products(13, 2 * 10**7, 9)
    assert {j: a.hex() for j, a in prods.items()} == A_J_13_2E7_HEX


@pytest.mark.parametrize("batch", [2**16, 1 << 22])
def test_eigenvalue_products_pinned_at_any_batch(monkeypatch, batch):
    # the batches split each block's exact level sums; the block still rounds once
    monkeypatch.setattr(dynsys, "_BATCH", batch)
    prods = eigenvalue_products(13, 2 * 10**7, 9)
    assert {j: a.hex() for j, a in prods.items()} == A_J_13_2E7_HEX


def test_eigenvalue_products_batch_of_7(monkeypatch):
    # a batch of 7 primes over the 2e7 pin takes about 40 s, so the tiny batch
    # is checked against the default one on 3 small blocks, whose short last
    # batches and block ends it crosses
    monkeypatch.setattr(primal, "SIEVE_BLOCK", 40_001)
    expected = eigenvalue_products(13, 120_000, 9)
    monkeypatch.setattr(dynsys, "_BATCH", 7)
    prods = eigenvalue_products(13, 120_000, 9)
    assert {j: a.hex() for j, a in prods.items()} == {j: a.hex() for j, a in expected.items()}


def test_eigenvalue_products_hold_one_block(traced_peak):
    # two blocks near 1e9: the sieve of one block takes 3.5 MB; whole-block
    # float64 logs, four arrays of them, peaked at 9.75 MB
    pk = 10**9 + 2 * SIEVE_BLOCK - 1
    prods, peak_mb = traced_peak(lambda: eigenvalue_products(10**9 - 1, pk, 9))
    assert f"{prods[2]:.14f}" == "0.99959701208219"
    assert peak_mb < 5


def log1p_reference(p0, pk, jmax):
    """a_j from math.log1p per prime, each prime block's sum rounded once by math.fsum."""
    sums = {j: [] for j in range(2, jmax + 1)}
    for ps in primal.prime_blocks(p0 + 1, pk):
        for j, parts in sums.items():
            parts.append(math.fsum(math.log1p(-(j - 1) / (p - 2)) for p in ps.tolist()))
    return {j: math.exp(math.fsum(parts)) for j, parts in sums.items()}


def assert_within_one_ulp(got, want):
    assert got.keys() == want.keys()
    for j, a in want.items():
        assert abs(got[j] - a) <= math.ulp(a), (j, got[j].hex(), a.hex())


@pytest.mark.parametrize("jmax", [2, 3, 9, 12])
def test_eigenvalue_products_across_the_series_cut(monkeypatch, jmax):
    # primes from 2 + (jmax - 1) 2^15 up take the power series, those below
    # one log1p each; small blocks put primes of both sides in one block
    cut = 2 + (jmax - 1) * 2**15
    monkeypatch.setattr(primal, "SIEVE_BLOCK", 4001)
    p0, pk = cut - 3000, cut + 3000
    assert any(ps[0] < cut <= ps[-1] for ps in primal.prime_blocks(p0 + 1, pk))
    assert_within_one_ulp(eigenvalue_products(p0, pk, jmax), log1p_reference(p0, pk, jmax))


@pytest.mark.parametrize(
    "jmax, lo", [(k, 2 + (k - 1) * 2**15 - 3000) for k in (2, 3, 9, 12)] + [(9, 10**11)]
)
def test_block_log_sums_match_log1p(jmax, lo):
    # around each series cut, and near 1e11: the block sums themselves, whose
    # low bits a_j near 1 does not show, within one rounding of math.fsum's
    ps = primal.sieve_segment(lo, lo + 6000)
    got = dynsys._block_log_sums(ps, jmax, np.empty((4, dynsys._BATCH)))
    for j, s in got.items():
        want = math.fsum(math.log1p(-(j - 1) / (p - 2)) for p in ps.tolist())
        assert abs(s - want) <= math.ulp(want), (j, s.hex(), want.hex())


@pytest.mark.parametrize("jmax", [2, 3, 9, 12])
def test_eigenvalue_products_from_the_least_prime(jmax):
    # from p0 = jmax + 1 the log sums pass -4, where one ulp of a sum is
    # several ulps of a_j; below the series cut the terms are math.log1p's,
    # so a_j does not depend on how the installed numpy's SIMD log1p rounds
    cut = 2 + (jmax - 1) * 2**15
    got = eigenvalue_products(jmax + 1, 2 * cut, jmax)
    assert got == log1p_reference(jmax + 1, 2 * cut, jmax)


def test_eigenvalue_products_block_near_1e11():
    p0, pk = 10**11 - 1, 10**11 + SIEVE_BLOCK - 1
    assert_within_one_ulp(eigenvalue_products(p0, pk, 3), log1p_reference(p0, pk, 3))


# block logs are finite with |x| <= 1; these draw magnitudes 1e-30..1, zeros too
block_logs = st.one_of(
    st.floats(-1.0, 1.0),
    st.builds(lambda x, e: x * 10.0**-e, st.floats(-1.0, 1.0), st.integers(0, 30)),
    st.sampled_from([0.0, -0.0]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(block_logs, max_size=200), st.integers(1, 40))
@example([], 1)
@example([0.25], 1)
@example([-0.0], 3)
@example([0.0, -0.0, 0.5], 1)
@example([1.0, 2.0**-53], 1)  # halfway: rounds to even, down to 1.0
@example([1.0, 2.0**-53, 2.0**-106], 1)  # just past halfway: rounds up
@example([1.0, 2.0**-53, -(2.0**-106)], 1)  # just short of halfway: rounds down
@example([1.0, -(2.0**-54), 1e-30], 1)
@example([1.0, -1.0, 2.0**-1074], 1)  # the sum is the smallest subnormal
@example([2.0**-53], 5000)  # many equal terms: a larger extraction unit 2^M
def test_exact_sum_equals_fsum(xs, copies):
    xs = xs * copies
    r = np.array(xs, dtype=np.float64)
    assert _exact_sum(r, np.empty_like(r)).hex() == math.fsum(xs).hex()


def test_eigenvalue_products_monotone_and_bounded():
    for pk in (10**4, 10**5, 10**7):
        prods = eigenvalue_products(13, pk, 9)
        for j in range(2, 9):
            assert prods[j] > prods[j + 1]
        for j in range(3, 10):
            assert prods[j] < prods[2] ** (j - 1)


def test_crossover_30_vs_6(g13):
    va = PopulationVector.from_census(census_for(g13, 30))
    vb = PopulationVector.from_census(census_for(g13, 6))
    root = crossover(va, vb)
    assert root is not None
    assert abs(root - 0.06275) <= 0.0005


def test_approximate_prime_for_decay(monkeypatch):
    from gapsieve import dynsys
    from gapsieve.dynsys import approximate_prime_for_decay

    monkeypatch.setattr(dynsys, "DECAY_ANCHOR", 10**4)
    a2_at_1e4 = eigenvalue_products(13, 10**4, 2)[2]
    # a target below the anchor extrapolates to a larger prime
    far = approximate_prime_for_decay(a2_at_1e4 / 2, 13)
    assert far > 10**4
    # a target above the anchor value is found by direct walking
    near = approximate_prime_for_decay(min(2 * a2_at_1e4, 0.9), 13)
    assert 13 < near < 10**4


def test_crossover_identical_vectors_is_none(g13):
    v = PopulationVector.from_census(census_for(g13, 6))
    assert crossover(v, v) is None


def test_crossover_6_vs_2_exact_root(g5):
    # the difference polynomial is 1 - (4/3) x: the gap 6 overtakes the
    # gap 2 exactly when the second eigenvalue product drops below 3/4
    va = PopulationVector.from_census(census_for(g5, 6))
    vb = PopulationVector.from_census(census_for(g5, 2), 2)
    root = crossover(va, vb)
    assert root is not None
    assert abs(root - 0.75) <= 1e-6
