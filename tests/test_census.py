import random
from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate
from math import prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gapsieve import census as census_mod
from gapsieve import cycle as cycle_mod
from gapsieve.census import Constellation, census_all, census_for, parse_gap
from gapsieve.cycle import (
    build_primorial_cycle,
    cycle_for_factors,
    extend_cycle,
    oracle_cycle,
)
from gapsieve.dynsys import PopulationVector, iterate
from gapsieve.primal import next_prime, primes_upto
from gapsieve.refvalues import GAP_CENSUS_13


def brute_force_census(gaps: list[int], s: Constellation) -> dict[int, int]:
    """Reference census: walk each start's window gap by gap, with wrap."""
    boundaries = list(accumulate(s.gaps))
    m = len(gaps)
    counts: dict[int, int] = {}
    for i in range(m):
        b = 0
        acc = 0
        k = 0
        while b < len(boundaries):
            acc += gaps[(i + k) % m]
            k += 1
            if acc == boundaries[b]:
                b += 1
            elif acc > boundaries[b]:
                break
        if b == len(boundaries):
            counts[k] = counts.get(k, 0) + 1
    return counts


def dense(counts: dict[int, int], j1: int) -> list[int]:
    """A brute-force census as counts for lengths j1..its longest driving term."""
    return [counts.get(j, 0) for j in range(j1, max(counts, default=j1) + 1)]


def test_constellation_parse():
    assert Constellation.parse("2,10,2").gaps == (2, 10, 2)
    assert Constellation.parse("2,10,2").span == 14
    with pytest.raises(ValueError):
        Constellation.parse("2,x")
    with pytest.raises(ValueError):
        Constellation.parse("3,4")
    # every comma-separated field is a gap: an empty one is not skipped
    for text in ("2,,10", "2,4,", ",2", ""):
        with pytest.raises(ValueError, match="malformed constellation"):
            Constellation.parse(text)


@pytest.mark.parametrize(
    "text", ["1_0,+2", "+2", "2,-2", " 2", "2 ,4", "2,4\n", "0x2", "1e1", "\u0662", "2,\u00b2"]
)
def test_constellation_parse_takes_ascii_digits_only(text):
    # int() would read underscores, signs, blanks and other scripts' digits
    with pytest.raises(ValueError, match="malformed constellation"):
        Constellation.parse(text)


def test_parse_gap():
    assert parse_gap("30") == 30
    assert parse_gap("06") == 6
    for text in ("0_6", "+6", "-6", " 6", "6 ", "", "\u0666", "\u00b2", "6.0"):
        with pytest.raises(ValueError, match="malformed gap"):
            parse_gap(text)


def test_count_gap(g5, g7, g11):
    for cyc, gap, expected in ((g5, 2, 3), (g5, 4, 3), (g7, 6, 14), (g11, 2, 135)):
        assert census_for(cyc, gap).population == expected
        assert brute_force_population(cyc.gaps.tolist(), Constellation((gap,))) == expected


def test_driving_terms_for_gap_examples(g5, g13):
    assert census_for(g5, 8).vector() == [0, 2, 1]
    assert census_for(g13, 30).vector() == [0, 0, 10, 194, 1066, 1784, 816, 90]
    assert census_for(g5, 10).total == 4


def test_wrapping_window_counts():
    g3 = build_primorial_cycle(3)
    # the only windows of sum 6 in the two-gap cycle both exist cyclically
    assert census_for(g3, 6).vector() == [0, 2]
    # windows longer than the cycle wrap around it more than once
    assert census_for(g3, 12).vector() == [0, 0, 0, 2]


def test_count_constellation_examples(g5):
    for gaps, expected in (((4, 2, 4), 2), ((2, 4), 2), ((6, 6), 0)):
        s = Constellation(gaps)
        assert census_for(g5, s).population == expected
        assert brute_force_population(g5.gaps.tolist(), s) == expected


def test_driving_terms_for_constellation_examples(g7, g11, g13):
    assert census_for(g7, Constellation((2, 10, 2))).vector() == [2, 6]
    c = census_for(g11, Constellation((12, 12)))
    assert c.vector(6) == [0, 2, 20, 48, 58]
    assert census_for(g13, Constellation((2, 10, 2, 10, 2))).vector() == [52, 44, 48]


def test_census_vector_dense(g13):
    c = census_for(g13, 20)
    assert c.vector() == [0, 24, 348, 960, 600, 48]
    assert c.j1 == 1
    assert c.max_length == 6
    assert c.population == 0


def test_census_of_a_target_with_no_driving_terms(g5):
    # no window of the stage-5 cycle closes to 2, 2: the census is one zero at j1
    c = census_for(g5, Constellation((2, 2)))
    assert c.vector() == [0]
    assert c.max_length == 2
    assert c.population == c.total == 0
    assert c.ref == 2  # phi_3 of 2 * 3 * 5


def test_census_table_matches_reference(g13):
    for gap, expected in sorted(GAP_CENSUS_13.items()):
        c = census_for(g13, gap)
        assert c.vector(9)[: len(expected)] == expected, f"gap {gap}"
        assert all(n == 0 for n in c.vector(9)[len(expected) :]), f"gap {gap}"
        assert c.max_length <= 9, f"gap {gap}"


def test_reversal_symmetry(g7, g11):
    rng = random.Random(7)
    pool = [2, 4, 6, 8, 10, 12]
    for cyc in (g7, g11):
        for _ in range(25):
            s = Constellation(tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
            assert census_for(cyc, s).population == census_for(cyc, s.reversed_()).population


def test_ratio_sum_preserved_under_extension(g5, g7, g11):
    # extending by q not dividing g scales the driving-term total by (q - 2)
    for cyc, q in ((g5, 7), (g7, 11), (g11, 13)):
        bigger = extend_cycle(cyc, q)
        for g in (6, 8, 10, 12, 16, 20, 30):
            assert g % q != 0
            before = census_for(cyc, g).total
            after = census_for(bigger, g).total
            assert after == (q - 2) * before


def test_conservation_recursion(g5, g7, g11, g13):
    # census counts advance by the population recursion between stages
    stages = [(g5, g7, 7), (g7, g11, 11), (g11, g13, 13)]
    for small, big, p in stages:
        for g in (2, 4, 6, 8, 10, 12):
            if g >= 2 * p:
                continue
            a = census_for(small, g)
            b = census_for(big, g)
            top = max(a.max_length, b.max_length, 1)
            av = a.vector(top)
            bv = b.vector(top)
            for i, j in enumerate(range(1, top + 1)):
                feed = av[i + 1] if i + 1 < len(av) else 0
                assert bv[i] == (p - j - 1) * av[i] + j * feed


@lru_cache(maxsize=None)
def _cycle(factors: tuple[int, ...]):
    return cycle_for_factors(factors)


# the two sides of census.WALK_STEPS, for the kernel fixture
KERNEL_SIDES = ("table", "walk")


@contextmanager
def small_slices():
    """Read every cycle in slices of 7 gaps, so slices wrap mid-copy and inside windows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycle_mod, "CHUNK_GAPS", 7)
        yield


@st.composite
def squarefree_factors(draw, even=False):
    """Ascending distinct primes whose product is at most 1e5 (with 2 among them if even)."""
    fs = sorted(draw(st.sets(st.sampled_from(primes_upto(47)), min_size=1, max_size=5)))
    if even and fs[0] != 2:
        fs.insert(0, 2)
    while len(fs) > 1 and prod(fs) > 10**5:
        fs.pop()
    return tuple(fs)


@settings(max_examples=60, deadline=None)
@given(
    squarefree_factors(),
    st.lists(st.integers(1, 20).map(lambda h: 2 * h), min_size=1, max_size=5),
)
@example((2,), [4, 2, 6])  # span 12 wraps the one-gap cycle six times
@example((3,), [2, 2, 2, 2, 2])  # odd gaps 1, 2; span 10 over modulus 3
@example((2, 3), [4, 2, 4, 2, 4])  # the target is the two-gap cycle run 2.5 times
@example((3, 5), [10, 2, 30, 4])  # span 46 over modulus 15
@example((2, 3, 5), [40])
@example((2, 3, 5, 7), [210])  # span = the modulus: each start's window is the whole cycle
def test_kernel_matches_brute_force(kernel, factors, target):
    cyc = _cycle(factors)
    s = Constellation(tuple(target))
    expected = dense(brute_force_census(cyc.gaps.tolist(), s), s.length)
    population = brute_force_population(cyc.gaps.tolist(), s)
    for name in KERNEL_SIDES:
        with kernel(name):
            got = census_for(cyc, s)
            assert got.vector() == expected, name
            assert all(type(e) is int for e in got.entries)
            assert got.entries[-1] or got.entries == (0,)
            assert got.population == population
            with small_slices():
                assert census_for(cyc, s).vector() == expected, name


@pytest.mark.parametrize("name", KERNEL_SIDES)
def test_walk_sums_past_u16(kernel, name):
    # gaps of 2000-8000, so the walk's sums pass 0xFFFF within its at most 33
    # steps: 7536 and eleven 8000s sum to 30,000 mod 2^16, and the spans of
    # 66,000 pass it themselves.  They are no cycle of any modulus, so the
    # kernel reads their cyclic slices directly
    rng = random.Random(22)
    gaps = [rng.choice((2000, 3000, 4000)) for _ in range(300)]
    gaps[100:112] = [7536] + [8000] * 11
    array = np.array(gaps, np.uint16)

    def census(ts):
        steps = [s.span // 2000 for s in ts]
        slices = cycle_mod.cyclic_slices(array, len(array), max(steps))
        counts = census_mod.window_counts(slices, ts, steps)
        return [np.trim_zeros(c[s.length :], "b").tolist() for s, c in zip(ts, counts)]

    targets = [Constellation((30_000,)), Constellation((10_000, 20_000)),
               Constellation((66_000,)), Constellation((30_000, 36_000))]
    expected = [dense(brute_force_census(gaps, s), s.length) for s in targets]
    assert all(s.span // 2000 <= census_mod.WALK_STEPS for s in targets)
    assert all(sum(e) > 0 for e in expected)
    with kernel(name):
        for s, e in zip(targets, expected):
            assert census([s]) == [e], s
        assert census(targets) == expected
        with small_slices():
            for s, e in zip(targets, expected):
                assert census([s]) == [e], s
            assert census(targets) == expected


@settings(max_examples=40, deadline=None)
@given(
    squarefree_factors(),
    st.lists(st.lists(st.integers(1, 40).map(lambda h: 2 * h), min_size=1, max_size=4),
             min_size=1, max_size=6),
    st.integers(0, 80),
)
@example((2, 3, 5, 7, 11), [[2], [150], [2, 10, 2], [180], [30]], 64)  # walked and tabled
@example((3, 5), [[2, 2, 2], [80], [2]], 5)  # least gap 1: steps past the span
def test_census_all_matches_census_for(factors, targets, walk_steps):
    # one pass for every target, each walked or tabled by its own steps,
    # counts what a pass per target counts; a gap is passed as an int
    cyc = _cycle(factors)
    ts = [t[0] if len(t) == 1 else Constellation(tuple(t)) for t in targets]
    expected = [census_for(cyc, t) for t in ts]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_mod, "WALK_STEPS", walk_steps)
        assert census_all(cyc, ts) == expected
        with small_slices():
            assert census_all(cyc, ts) == expected


@settings(max_examples=40, deadline=None)
@given(squarefree_factors())
@example((41, 43, 47))  # the largest modulus the strategy draws, 82,861
def test_cycle_for_factors_matches_oracle(factors):
    expected = oracle_cycle(prod(factors))
    assert cycle_for_factors(factors) == expected
    with small_slices():
        assert cycle_for_factors(factors) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.sampled_from(primes_upto(47)), max_size=5).map(prod).filter(lambda n: n <= 10**4),
    st.sampled_from(primes_upto(47)),
)
@example(n=15, q=2)  # 2 and 4 drop in a row, and so do 14 and the copy-0 end value 16;
# for even q the centre lies in copy q/2, so a walk of q/2 copies misses it
@example(3, 2)  # 2 and 4 drop in a row: the run ends at the copy-0 end
@example(105, 2)  # 2, 4 and 8 drop in a row, and so do 104 and the copy-0 end value 106
def test_extend_cycle_matches_oracle(n, q):
    # q may be smaller than n's factors, so runs of dropped candidates and
    # carries across slice and copy ends occur
    assume(n % q)
    expected = oracle_cycle(n * q)
    assert extend_cycle(oracle_cycle(n), q) == expected
    with small_slices():
        assert extend_cycle(oracle_cycle(n), q) == expected


@pytest.mark.parametrize(
    "n, q",
    [
        (15, 2),  # q = 2 on odd N: the walk covers both copies
        (105, 2),
        (35, 3),
        (5 * 7 * 11, 3),  # q below N's largest factor
        (2 * 3 * 5 * 7 * 11, 13),  # a primorial step
    ],
)
def test_merge_walk_pieces_tile_the_cycle(n, q):
    # the walked copies and their reflection write each position once, and
    # together they are the coprime scan of qN
    expected = oracle_cycle(n * q).gaps
    written = np.zeros(len(expected), dtype=np.int64)
    got = np.zeros(len(expected), dtype=np.uint16)
    with small_slices():
        for offset, chunk in cycle_mod._merged_chunks(oracle_cycle(n), q):
            written[offset : offset + len(chunk)] += 1
            got[offset : offset + len(chunk)] = chunk
    assert written.tolist() == [1] * len(expected)
    assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("n, q", [(2 * 3 * 5 * 11 * 13, 7), (2 * 3 * 5 * 7 * 11, 13)])
def test_sliced_walk_merges_half_the_copies(n, q):
    # every copy drops gaps in every 256-gap slice, so the walk merges runs
    # once per walked copy per slice: q // 2 + 1 copies, the rest reflected
    calls = []
    real_absorb = cycle_mod._absorb_drops

    def counted(*args):
        calls.append(args)
        return real_absorb(*args)

    cyc = oracle_cycle(n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycle_mod, "CHUNK_GAPS", 256)
        mp.setattr(cycle_mod, "_absorb_drops", counted)
        assert extend_cycle(cyc, q) == oracle_cycle(n * q)
    slices = -(-cyc.gap_count // 256)
    assert len(calls) == slices * (q // 2 + 1)


def brute_force_population(gaps: list[int], s: Constellation) -> int:
    m = len(gaps)
    return sum(all(gaps[(i + t) % m] == g for t, g in enumerate(s.gaps)) for i in range(m))


@settings(max_examples=60, deadline=None)
@given(squarefree_factors(even=True), st.integers(0, 10**6), st.integers(1, 40), st.booleans())
@example((2,), 0, 7, False)  # seven times round the one-gap cycle
@example((2, 3), 1, 5, False)  # 2,4,2,4,2 over the two-gap cycle
@example((2, 3, 5), 3, 9, True)
def test_population_matches_brute_force(kernel, factors, start, length, perturb):
    # the target is a cyclic window of the cycle, possibly longer than it
    cyc = _cycle(factors)
    gaps = cyc.gaps.tolist()
    window = [gaps[(start + t) % len(gaps)] for t in range(length)]
    if perturb:
        window[-1] += 2
    s = Constellation(tuple(window))
    expected = brute_force_population(gaps, s)
    assert expected or perturb
    for name in KERNEL_SIDES:
        with kernel(name):
            assert census_for(cyc, s).population == expected, name
    with small_slices():
        assert census_for(cyc, s).population == expected


@settings(max_examples=25, deadline=None)
@given(
    squarefree_factors(),
    st.lists(st.integers(1, 10).map(lambda h: 2 * h), min_size=2, max_size=4),
)
def test_census_reversal_symmetry(factors, target):
    # x -> N - x maps the cycle onto itself read backwards
    cyc = _cycle(factors)
    s = Constellation(tuple(target))
    with small_slices():
        assert census_for(cyc, s).vector() == census_for(cyc, s.reversed_()).vector()


@settings(max_examples=25, deadline=None)
@given(squarefree_factors(), st.sampled_from(primes_upto(47)[1:]), st.integers(1, 46))
def test_extension_scales_census_total(factors, q, h):
    # a gap of span below 2q: of the q copies of each window, the two with an
    # endpoint divisible by q drop out
    assume(q not in factors and prod(factors) * q <= 10**5)
    g = 2 * (1 + h % (q - 1))
    cyc = _cycle(factors)
    with small_slices():
        assert census_for(extend_cycle(cyc, q), g).total == (q - 2) * census_for(cyc, g).total


def test_census_population_matches_brute_force(g7, g13):
    for cyc in (g7, g13):
        for s in (Constellation((2,)), Constellation((30,)), Constellation((2, 10, 2)),
                  Constellation((6, 6)), Constellation((2, 10, 2, 10, 2, 4, 2, 10, 2, 10, 2))):
            assert census_for(cyc, s).population == brute_force_population(cyc.gaps.tolist(), s)


def test_stage19_census_matches_model(g13):
    seed = PopulationVector.from_census(census_for(g13, 30))
    expected = [int(e) for e in iterate(seed, 13, 19).entries]
    assert census_for(build_primorial_cycle(19), 30).vector() == expected


# every gap and every 2-gap constellation of span <= 32, below 2 * next_prime(13) = 34
MODEL_TARGETS = [Constellation((g,)) for g in range(2, 33, 2)] + [
    Constellation((a, b)) for a in range(2, 31, 2) for b in range(2, 33 - a, 2)
]


def test_kernel_matches_population_model(kernel, g13):
    assert len(MODEL_TARGETS) == 136
    g17 = build_primorial_cycle(17)
    for s in MODEL_TARGETS:
        assert s.span < 2 * next_prime(13)
        model = iterate(PopulationVector.from_census(census_for(g13, s)), 13, 17)
        for name in KERNEL_SIDES:
            with kernel(name):
                assert census_for(g17, s).vector(model.max_length) == list(model.entries), (s, name)
