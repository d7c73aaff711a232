import functools
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsieve import build_primorial_cycle, census, primal, survival
from gapsieve import cycle as cycle_mod
from gapsieve.census import Constellation, census_for
from gapsieve.cli import main
from gapsieve.cycle import cycle_for_factors, write_cache
from gapsieve.primal import SIEVE_BUDGET, CapacityError, is_prime, primes_in
from gapsieve.refvalues import ATTRITION_7_FOLDED, ATTRITION_13_OMITTED_PRIME
from gapsieve.survival import (
    AttritionStep,
    _pass_changes,
    _strike_keys,
    actual_gap_counts,
    attrition,
    error_report,
    fold_confirmed_front,
    naive_estimates,
)


def test_naive_estimate_examples(g5, g7, g13):
    assert naive_estimates(g5, [2]) == [pytest.approx(4.2)]
    assert naive_estimates(g7, [2]) == [pytest.approx(110 / 210 * 15)]
    assert naive_estimates(g13, [6]) == [pytest.approx((289 - 17) / 30030 * 1690)]


def test_naive_estimate_2_equals_4(g5, g7, g11, g13):
    for cyc in (g5, g7, g11, g13):
        assert naive_estimates(cyc, [2]) == naive_estimates(cyc, [4])


@pytest.mark.parametrize("side", ["table", "walk"])
def test_naive_estimate_reads_the_census_population(kernel, g13, side):
    # targets of a few gaps, and one of more than WALK_STEPS gaps (a window of g13)
    long = Constellation(tuple(g13.gaps[100 : 106 + census.WALK_STEPS].tolist()))
    scale = Fraction(17 * 17 - 17, g13.modulus)
    with kernel(side):
        assert census_for(g13, long).population  # the window itself, at least
        for t in (2, 30, 150, Constellation((2, 4)), Constellation((6, 6, 6)), long):
            assert naive_estimates(g13, [t]) == [float(scale * census_for(g13, t).population)], t


def test_naive_estimate_in_slices_shorter_than_the_target(g13, monkeypatch):
    # 7-start slices hold fewer starts than a target of more than 7 gaps takes
    # steps, so they go to the table with only the target's length of gaps
    # after their starts, which need not pass its span
    targets = (2, Constellation((6, 6, 6)), Constellation(tuple(g13.gaps[100:112].tolist())))
    expected = [naive_estimates(g13, [t]) for t in targets]
    monkeypatch.setattr(cycle_mod, "CHUNK_GAPS", 7)
    assert [naive_estimates(g13, [t]) for t in targets] == expected


def test_a_cycle_is_checked_once(monkeypatch):
    # GapCycle.least is the one pass that checks the gaps; two censuses, an
    # estimate and an attrition of one cycle make it once between them
    checked = []
    check = cycle_mod.GapCycle.least.func

    def counted(cycle):
        checked.append(cycle)
        return check(cycle)

    least = functools.cached_property(counted)
    least.__set_name__(cycle_mod.GapCycle, "least")
    monkeypatch.setattr(cycle_mod.GapCycle, "least", least)
    cyc = build_primorial_cycle(11)
    census_for(cyc, 2)
    census_for(cyc, Constellation((2, 10, 2)))
    naive_estimates(cyc, [4])
    attrition(cyc)
    assert len(checked) == 1 and checked[0] is cyc


def test_actual_gap_count_twins():
    assert actual_gap_counts(11, 121, [2]) == [8]


def test_actual_gap_count_matches_scan_oracle():
    ps = primes_in(2, 121)
    window = [p for p in ps if 11 <= p <= 121]
    diffs = [b - a for a, b in zip(window, window[1:])]
    for g in (2, 4, 6, 8, 10, 12):
        assert actual_gap_counts(11, 121, [g]) == [diffs.count(g)]


def test_actual_gap_count_constellation():
    ps = primes_in(11, 121)
    diffs = [b - a for a, b in zip(ps, ps[1:])]
    pairs = sum(1 for a, b in zip(diffs, diffs[1:]) if (a, b) == (2, 4))
    assert actual_gap_counts(11, 121, [Constellation((2, 4))]) == [pairs]


def test_actual_gap_count_rejects_odd_gaps():
    # the gap 1 from 2 to 3 too: every target is a Constellation of even gaps
    for gap in (1, 3):
        with pytest.raises(ValueError, match="positive even"):
            actual_gap_counts(2, 10, [gap])


def test_actual_gap_count_budget():
    with pytest.raises(CapacityError):
        actual_gap_counts(2, SIEVE_BUDGET + 1, [2])


def test_actual_gap_count_checks_the_window_before_sieving(monkeypatch):
    # primes_in's errors and messages, raised before any block is sieved
    def no_sieve(*args):
        raise AssertionError("sieved before checking the window")

    monkeypatch.setattr(primal, "sieve_segment", no_sieve)
    with pytest.raises(ValueError, match=r"^inverted range \[10, 5\]$"):
        actual_gap_counts(10, 5, [2])
    with pytest.raises(CapacityError, match=f"^upper bound {SIEVE_BUDGET + 1} exceeds sieve budget"):
        actual_gap_counts(2, SIEVE_BUDGET + 1, [2])


def brute_force_gap_count(a: int, b: int, pattern: list[int]) -> int:
    """Reference count: trial-divide [a, b], then match the pattern at each position."""
    ps = [n for n in range(a, b + 1) if is_prime(n)]
    diffs = [q - p for p, q in zip(ps, ps[1:])]
    k = len(pattern)
    return sum(1 for i in range(len(diffs) - k + 1) if diffs[i : i + k] == pattern)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-5, 5000),
    st.integers(0, 5005),
    st.lists(st.sampled_from([2, 4, 6, 8, 10, 12, 14]), min_size=1, max_size=3),
)
@example(-5, 4, [2])  # [-5, -1]: no prime
@example(2, 0, [2])  # [2, 2]: one prime, no gap
@example(3, 2, [2])  # [3, 5]: two primes, one gap
@example(3, 4, [2, 2])  # [3, 7]: k + 1 primes, the fewest that can match
@example(5, 6, [2, 4, 2])  # [5, 11]: k primes, one too few
def test_actual_gap_count_matches_brute_force(kernel, a, width, pattern):
    b = min(a + width, 5000)
    expected = brute_force_gap_count(a, b, pattern)
    for side in ("table", "walk"):
        with kernel(side):
            assert actual_gap_counts(a, b, [Constellation(tuple(pattern))]) == [expected], side


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-5, 1500),
    st.integers(0, 1500),
    st.lists(st.sampled_from([2, 4, 6, 8, 10, 12, 14]), min_size=1, max_size=3),
    st.sampled_from([3, 7, 31, 101]),
)
@example(2, 20, [2, 2], 3)  # 3, 5, 7: the one 2,2 run, its primes in two blocks
@example(11, 40, [2, 4, 2], 7)  # windows that cross several block ends
def test_actual_gap_count_across_small_blocks(kernel, a, width, pattern, block):
    # with a small odd block, windows cross block ends and some blocks hold no prime
    b = min(a + width, 1500)
    expected = brute_force_gap_count(a, b, pattern)
    for side in ("table", "walk"):
        with kernel(side), pytest.MonkeyPatch.context() as mp:
            mp.setattr(primal, "SIEVE_BLOCK", block)
            assert actual_gap_counts(a, b, [Constellation(tuple(pattern))]) == [expected], side


def test_actual_gap_count_reads_straight_through(kernel):
    # the primes 5, 7, 11, 13, 17, 19 have the gaps 2, 4, 2, 4, 2
    counts = actual_gap_counts
    for side in ("table", "walk"):
        with kernel(side):
            assert counts(5, 19, [2]) == [3]
            assert counts(5, 19, [Constellation((2, 4))]) == [2]
            assert counts(5, 19, [Constellation((4, 2, 4, 2))]) == [1]
            # no wrap: the last gap does not run on into the first
            assert counts(5, 19, [Constellation((2, 2))]) == [0]
            # a target as long as the window starts once; a longer one reads
            # past 19 only into gaps that match nothing
            assert counts(5, 19, [Constellation((2, 4, 2, 4, 2))]) == [1]
            for extra in ((4,), (4, 2), (4, 2, 4, 2), (2,), (6,)):
                assert counts(5, 19, [Constellation((2, 4, 2, 4, 2) + extra)]) == [0]
                assert counts(5, 19, [Constellation(extra + (2, 4, 2, 4, 2))]) == [0]
            assert counts(5, 5, [2]) == [0]  # one prime, no gap
            # a span past u16 reads past 19 in int64 gaps
            for target in ((70_000,), (2, 4, 70_000), (70_000, 2)):
                assert counts(5, 19, [Constellation(target)]) == [0]


def test_actual_gap_count_needs_the_last_prime_in_the_window(kernel):
    # 3, 5, 7 is the one 2, 2 run; it ends at 7, just inside [3, 7] and past 6
    for side in ("table", "walk"):
        with kernel(side):
            assert actual_gap_counts(3, 6, [Constellation((2, 2))]) == [0]
            assert actual_gap_counts(3, 7, [Constellation((2, 2))]) == [1]


@pytest.mark.parametrize("block", [2, 5, 16])
def test_actual_gap_count_carries_blocks_with_no_start(kernel, block):
    # a span of 60 or more needs more lookahead gaps than any block of at
    # most 16 integers holds primes, so whole blocks carry with no start
    targets = ([2, 4, 2, 4], [4, 2, 4, 2, 4, 2, 4, 6, 2, 6], [30, 32], [6] * 10)
    for side in ("table", "walk"):
        with kernel(side), pytest.MonkeyPatch.context() as mp:
            mp.setattr(primal, "SIEVE_BLOCK", block)
            for a, b in ((2, 400), (2, 1500), (97, 1213), (1100, 1500)):
                for target in targets:
                    got = actual_gap_counts(a, b, [Constellation(tuple(target))])
                    assert got == [brute_force_gap_count(a, b, target)], (side, a, b, target)


def test_actual_gap_count_to_1e8_in_bounded_memory(traced_peak):
    # twin primes below 10^8; a list of the 5.76M primes peaked at 311 MB
    counts, peak_mb = traced_peak(lambda: actual_gap_counts(2, 10**8, [2]))
    assert counts == [440_312]
    assert peak_mb < 16


ERROR_HEADER = "p_k,p_next,target,estimate,actual,rel_error"


def naive_error_csv(tmp_path, monkeypatch, pmin, pmax, *gaps):
    """The lines of the CSV that ``gapsieve naive-error`` writes, its cycles built in memory."""
    monkeypatch.delenv("GAPSIEVE_CACHE_DIR", raising=False)
    out = tmp_path / "err.csv"
    assert main(["naive-error", "--pmin", str(pmin), "--pmax", str(pmax),
                 "--gaps", *map(str, gaps), "--csv", str(out)]) == 0
    return out.read_text().strip().splitlines()


def test_error_report_rows_and_csv(g13, tmp_path, monkeypatch):
    rows = error_report([g13], [2, 4])
    assert len(rows) == 2
    assert rows[0].estimate == rows[1].estimate  # same populations at stage 13
    lines = naive_error_csv(tmp_path, monkeypatch, 13, 13, 2, 4)
    assert lines[0].startswith("#")
    assert lines[1] == ERROR_HEADER
    assert len(lines) == 4


def test_error_report_takes_one_pass_per_stage(g11, g13, monkeypatch):
    # each stage censuses all its targets in one cycle pass and counts them in
    # one pass over the primes; the rows are the one-target counts
    targets = [2, 4, Constellation((2, 4)), 30]
    expected = [(p, t, *naive_estimates(c, [t]), *actual_gap_counts(q, q * q, [t]))
                for c, p, q in ((g11, 11, 13), (g13, 13, 17)) for t in targets]
    passes = []
    kernel = survival.window_counts

    def counted(slices, ts, steps):
        passes.append(len(ts))
        return kernel(slices, ts, steps)

    monkeypatch.setattr(survival, "window_counts", counted)
    rows = error_report([g11, g13], targets)
    assert passes == [4, 4, 4, 4]
    assert [(r.p_k, r.target, r.estimate, r.actual) for r in rows] == [
        (p, str(survival.as_constellation(t)), est, act) for p, t, est, act in expected]


def test_error_report_empty_targets(g13, tmp_path, monkeypatch):
    assert error_report([g13], []) == []
    # the command refuses an empty target list; an empty stage range gives the empty report
    assert naive_error_csv(tmp_path, monkeypatch, 14, 16, 2)[-1] == ERROR_HEADER


def test_attrition_g7_matches_worked_sequence(g7):
    trace = attrition(g7)
    assert trace.sieve_primes == [11, 13]
    # survivors are 1 plus the primes up to the modulus (with the wrap point)
    expected = [1] + primes_in(11, 211)
    assert trace.final_values.tolist() == expected
    assert trace.final_gaps[-5:].tolist() == [10, 2, 4, 2, 12]
    folded = fold_confirmed_front(trace).tolist()
    assert folded == ATTRITION_7_FOLDED


def test_attrition_conservation_and_counts(g13):
    trace = attrition(g13)
    assert trace.sieve_primes[0] == 17 and trace.sieve_primes[-1] == 173
    for step in trace.steps:
        assert sum(g * c for g, c in step.histogram.items()) == 30030
    assert sum(trace.initial_histogram.values()) == 5760
    # closures strictly decrease the gap count down to the survivor count
    assert trace.final_gap_count == 5760 - sum(s.closures for s in trace.steps)


def test_attrition_survivors_are_primes(g5, g7, g11, g13):
    # independent sieve oracle: survivors are 1, the primes, and the wrap
    for cyc in (g5, g7, g11, g13):
        trace = attrition(cyc)
        n = cyc.modulus
        p = cyc.prime
        expected = [1] + primes_in(p + 1, n + 1)
        if n + 1 not in expected:  # composite wrap value still survives
            expected.append(n + 1)
        assert trace.final_values.tolist() == expected


def test_attrition_leading_run_survives(g13):
    # gaps below the square of the next stage prime are untouched
    trace = attrition(g13)
    orig = g13.values()
    kept = trace.final_values
    assert np.array_equal(orig[orig < 17**2], kept[kept < 17**2])


def test_attrition_histogram_csv(g13, tmp_path, capsys):
    trace = attrition(g13)
    path, out = tmp_path / "g13.gapc", tmp_path / "attr.csv"
    write_cache(str(path), g13)
    assert main(["attrition", "--cycle", str(path), "--csv", str(out)]) == 0
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[1] == "prime,gap,count,ratio_to_gap2"
    assert "initial,2,1485,1.000000" in text
    # final stage rows sum to the final gap count
    final_rows = [l for l in lines if l.startswith("173,")]
    total = sum(int(l.split(",")[2]) for l in final_rows)
    assert total == trace.final_gap_count


def _histogram(gaps):
    counts = np.bincount(gaps)
    sizes = np.flatnonzero(counts)
    return dict(zip(sizes.tolist(), counts[sizes].tolist()))


def _primes_above(cycle):
    """The default sieve list: the primes q above the stage with q^2 < N."""
    top = isqrt(cycle.modulus)
    ps = primes_in(cycle.prime + 1, top) if top > cycle.prime else []
    return [q for q in ps if q * q < cycle.modulus]


def full_pass_attrition(cycle, sieve_primes=None):
    """Oracle: rescan, mask and copy every survivor on each pass (stage <= 17).

    Returns (initial histogram, steps, final values, final gaps).
    """
    n = cycle.modulus
    if sieve_primes is None:
        sieve_primes = _primes_above(cycle)
    vals = cycle.values()
    initial = _histogram(np.diff(vals))
    steps = []
    for q in sieve_primes:
        struck = (vals % q == 0) & (vals != q)
        struck[0] = False
        struck[-1] = False
        vals = vals[~struck]
        gaps = np.diff(vals)
        assert int(gaps.sum()) == n
        steps.append(AttritionStep(q, int(struck.sum()), _histogram(gaps)))
    return initial, steps, vals, np.diff(vals)


def _assert_matches_oracle(cycle, sieve_primes=None):
    """attrition equals the oracle in the default slices and in 7-gap ones, whose
    struck neighbours and runs cross many slice ends."""
    initial, steps, final_values, final_gaps = full_pass_attrition(cycle, sieve_primes)
    for chunk in (cycle_mod.CHUNK_GAPS, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycle_mod, "CHUNK_GAPS", chunk)
            trace = attrition(cycle, sieve_primes)
        assert trace.initial_histogram == initial
        assert trace.steps == steps, chunk
        assert trace.final_gaps.dtype == np.uint16
        assert np.array_equal(trace.final_gaps, final_gaps)
        assert trace.final_values.dtype == np.int64
        assert np.array_equal(trace.final_values, final_values)


@pytest.fixture(scope="module")
def stage_cycles():
    return {p: build_primorial_cycle(p) for p in (5, 7, 11, 13, 17)}


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_attrition_matches_full_pass_oracle(stage_cycles, p):
    _assert_matches_oracle(stage_cycles[p])


@pytest.mark.parametrize("p", [7, 11, 13, 17])
def test_attrition_matches_oracle_with_a_prime_dropped(stage_cycles, p):
    cycle = stage_cycles[p]
    full = _primes_above(cycle)
    # the first, second, a middle and the last prime, and fig5's omitted prime
    dropped = {full[0], full[1], full[len(full) // 2], full[-1]}
    if ATTRITION_13_OMITTED_PRIME in full:
        dropped.add(ATTRITION_13_OMITTED_PRIME)
    for d in sorted(dropped):
        _assert_matches_oracle(cycle, [q for q in full if q != d])


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_attrition_matches_oracle_on_unordered_list(stage_cycles, p):
    full = _primes_above(stage_cycles[p])
    mixed = full[1::2][::-1] + [2, 3] + full[::2]
    if full:
        mixed.append(full[len(full) // 2])  # a repeated prime strikes nothing new
    _assert_matches_oracle(stage_cycles[p], mixed)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.sampled_from([7, 11]),
       primes=st.lists(st.sampled_from(primes_in(2, 60)), max_size=12))
def test_attrition_matches_oracle_on_any_list(p, primes):
    _assert_matches_oracle(build_primorial_cycle(p), primes)


def test_attrition_stage17_final_gaps_are_prime_gaps(stage_cycles):
    cycle = stage_cycles[17]
    trace = attrition(cycle)
    n = cycle.modulus
    # 1, the primes past the stage, and the wrap value N+1 (composite at 17)
    expected = np.diff([1] + primes_in(18, n) + [n + 1])
    assert np.array_equal(trace.final_gaps, expected)
    assert trace.max_surviving_gap == int(expected.max())


def trial_division_keys(vals, sieve_primes):
    """Each candidate's list index of the first listed divisor other than itself; N+1 gets the list's length."""
    last = len(sieve_primes)
    keys = [next((i for i, q in enumerate(sieve_primes) if x % q == 0 and x != q), last)
            for x in vals.tolist()]
    keys[-1] = last
    return keys


def window_keys(vals, sieve_primes, top, size):
    """_strike_keys over windows of ``size`` positions, each as int32 offsets from its own first value."""
    windows = (vals[lo : lo + size] for lo in range(0, len(vals), size))
    return np.concatenate([_strike_keys((w - w[0]).astype(np.int32), int(w[0]), sieve_primes, top)
                           for w in windows])


@pytest.mark.parametrize("factors", [(3, 5, 7), (3, 5, 7, 11), (5, 7, 11), (3, 7, 13), (2, 3, 5, 7)])
@pytest.mark.parametrize("block", [16, 1 << 20])
def test_strike_keys_match_trial_division(factors, block):
    # in windows of 16 positions the blocks start at values past 1, as attrition's do
    cycle = cycle_for_factors(factors)
    n = cycle.modulus
    small = [q for q in primes_in(2, 60) if n % q]
    past_half = primes_in(n // 2 + 1, n + 1)[:3]  # none strikes; at N = 105, 2 * 53 is N + 1
    lists = [
        small,
        small[::-1] + small[:3],  # repeated primes: the first listing keys
        [2, 3] + past_half + small[4:] + [4294967311] + small[:4],  # primes past N/2 and 2^32
        [past_half[0], 4294967311, small[0], small[0]],
    ]
    for sieve_primes in lists:
        keys = window_keys(cycle.values(np.int32), sieve_primes, n + 1, block)
        assert keys.dtype == np.uint16
        assert keys.tolist() == trial_division_keys(cycle.values(), sieve_primes), sieve_primes
    if block > n:  # from 0xFFFF entries the keys are u32; the repeats key nothing new
        many = small + [small[0]] * (0xFFFF - len(small))
        keys = window_keys(cycle.values(np.int32), many, n + 1, block)
        assert keys.dtype == np.uint32
        expected = trial_division_keys(cycle.values(), small)
        assert keys.tolist() == [0xFFFF if k == len(small) else k for k in expected]


def test_strike_keys_on_offsets_from_past_2_40():
    # int32 offsets from a first value far past int32: the keys are trial division's
    a = 2**40 + 5  # 3 * 7 * 1109 * 47211629; 2^40 + 15 is prime
    vals = np.arange(0, 3000, 2, dtype=np.int32)
    sieve_primes = [7, 3, 11, 5, 13, 1109, 7, 47211629, 2**40 + 15]
    keys = _strike_keys(vals, a, sieve_primes, a + 2998)
    assert keys.tolist() == trial_division_keys(a + vals.astype(np.int64), sieve_primes)
    # a by 7, the first listed of its factors; 2^40 + 9 by 5; 2^40 + 15 stays
    assert keys[[0, 2, 5]].tolist() == [0, 3, len(sieve_primes)]


def test_strike_pass_rows_count_the_closures(g13):
    primes = _primes_above(g13)
    width = attrition(g13).max_surviving_gap + 1
    vals = g13.values(np.int32) - 1  # offsets from 1
    keys = _strike_keys(vals, 1, primes, g13.modulus + 1)
    assert keys.tolist() == trial_division_keys(g13.values(), primes)
    rows = _pass_changes(vals, keys, len(primes), width)
    assert rows.any()
    # each pass's closures, its keys' count, take one gap each from the count
    assert (-rows.sum(axis=1)[1:]).tolist() == np.bincount(keys)[: len(primes)].tolist()


def test_attrition_skips_a_prime_past_the_modulus(g7):
    # 4294967311 fits no int32 value; past N it strikes nothing
    trace = attrition(g7, [11, 4294967311])
    assert [s.q for s in trace.steps] == [11, 4294967311]
    assert trace.steps[-1].closures == 0
    assert trace.steps[-1].histogram == trace.steps[0].histogram
    assert trace.final_values.dtype == np.int64


def _assert_windows_match(cycle, sieve_primes=None):
    """attrition in windows of 64 integers, with 7-gap slices, equals its one-window run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(survival, "KEY_BLOCK", cycle.modulus + 1)  # one window
        whole = attrition(cycle, sieve_primes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(survival, "KEY_BLOCK", 64)
        mp.setattr(cycle_mod, "CHUNK_GAPS", 7)
        windowed = attrition(cycle, sieve_primes)
    assert windowed.initial_histogram == whole.initial_histogram
    assert windowed.steps == whole.steps
    assert windowed.final_values.dtype == np.int64
    assert np.array_equal(windowed.final_values, whole.final_values)


@pytest.mark.parametrize("factors", [(2, 3, 5, 7, 11, 13), (2, 3, 5, 7, 11, 13, 17),
                                     (3, 5, 7, 11), (5, 7, 11)],
                         ids=["13#", "17#", "3*5*7*11", "5*7*11"])
def test_attrition_in_small_windows_matches_one_window(factors):
    cycle = cycle_for_factors(factors)
    for sieve_primes in (None, [17, 19, 23, 29, 31], [101, 17, 59]):
        _assert_windows_match(cycle, sieve_primes)


def test_attrition_never_strikes_the_wrap_value(g13):
    # 13# + 1 = 30031 = 59 * 509 stays, as 1 does
    trace = attrition(g13, [59])
    assert trace.final_values[-1] == 30031
    assert trace.steps[0].closures == sum(1 for v in g13.values().tolist()[1:-1]
                                          if v % 59 == 0 and v != 59)
    _assert_matches_oracle(g13, [59])
    _assert_windows_match(g13, [59])


def test_attrition_refuses_a_surviving_gap_past_the_limit(g13, tmp_path, monkeypatch):
    # the widest surviving gap of 13# is 52; its cycle's widest gap, 22, fits
    path = tmp_path / "g13.gapc"
    write_cache(str(path), g13)
    monkeypatch.setattr(cycle_mod, "GAP_LIMIT", 40)
    with pytest.raises(CapacityError, match="^surviving gap 52 exceeds u16 storage$"):
        attrition(g13)
    assert main(["attrition", "--cycle", str(path)]) == 2


def test_attrition_stage19_in_bounded_memory(traced_peak):
    # whole-cycle values, keys, final values and gaps peaked at 22.9 MB, and
    # int32 survivors joined into int64 final values at 9.3 MB
    g19 = build_primorial_cycle(19)
    trace, peak_mb = traced_peak(lambda: attrition(g19))
    assert trace.final_gap_count == 646_022 and trace.max_surviving_gap == 154
    assert trace.final_gaps.dtype == np.uint16
    assert peak_mb < 8
