from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsieve import primal
from gapsieve.primal import (
    CapacityError,
    factorize,
    is_prime,
    next_prime,
    phi_i,
    prime_gap_slices,
    primes_in,
    primes_upto,
    radical_of_even,
    sieve_segment,
)


def test_primes_in_first_primes():
    assert primes_in(2, 13) == [2, 3, 5, 7, 11, 13]
    assert primes_in(14, 30) == [17, 19, 23, 29]


def test_primes_in_window_matches_trial_division():
    lo, hi = 10**6, 10**6 + 100
    expected = [n for n in range(lo, hi + 1) if is_prime(n)]
    assert primes_in(lo, hi) == expected


def test_primes_in_window_consistency():
    a, m, b = 100, 5000, 10000
    assert primes_in(a, m) + primes_in(m + 1, b) == primes_in(a, b)


def test_primes_in_small_blocks_equal_one_shot(monkeypatch):
    # blocks of 97, not a multiple of 6, on both sides of the table's top
    hi = 2**16 + 10_000
    one_shot = primes_in(2, hi)
    monkeypatch.setattr(primal, "SIEVE_BLOCK", 97)
    assert primes_in(2, hi) == one_shot


def test_prime_blocks_count_to_1e8():
    # pi(10^8), from the 24 blocks of one pass
    assert sum(len(b) for b in primal.prime_blocks(2, 10**8)) == 5_761_455


# windows [a, a + width]: small ones, answered from the table below 2^16;
# ones across the table's top, where the mask's layout takes over; and ones
# near 1e9 whose base primes reach past 2^14, where sieve_segment strikes by
# fancy indexing
windows = st.one_of(
    st.tuples(st.integers(-3, 5000), st.integers(-1, 300)),
    st.tuples(st.integers(2**16 - 400, 2**16 + 100), st.integers(0, 600)),
    st.tuples(st.integers(10**9 - 10**5, 10**9 + 10**5), st.integers(0, 300)),
)


@settings(max_examples=150, deadline=None)
@given(windows)
@example((0, 2))  # [0, 2] holds the one even prime alone
@example((2, 0))
@example((2, 1))  # 2 and 3
@example((3, 0))
@example((2, 2**16 - 2))  # 2 and 3 added back to a mask from 1 to 2^16
@example((3, 2**16))
@example((4, 0))  # an even a = b
@example((9, 0))  # an odd a = b, a prime square
@example((5, 20))  # b = 25, the first square the wheel must strike
@example((5, 19))  # b = 24
@example((5, 44))  # b = 7^2
@example((5, 43))  # b = 7^2 - 1
@example((10**9 - 4, 31))  # a = 0 (mod 6) and b = 1, then each residue one up
@example((10**9 - 3, 31))
@example((10**9 - 2, 31))
@example((10**9 - 1, 31))
@example((10**9, 31))
@example((10**9 + 1, 31))
@example((2**16 - 1, 1))  # a < 2^16 <= b
@example((2**16 - 300, 600))
@example((16411**2 - 200, 200))  # b = p^2 for the first prime past 2^14
@example((16411**2 - 201, 200))  # b = p^2 - 1
@example((31607**2 - 300, 300))  # 31607^2 is the last prime square below 1e9
@example((31607**2 - 301, 300))
@example((31531 * 31543 - 150, 300))  # a product of two primes past 2^14
def test_sieve_segment_matches_trial_division(window):
    a, width = window
    b = a + width
    expected = [n for n in range(a, b + 1) if is_prime(n)]
    assert sieve_segment(a, b).tolist() == expected
    # a base past isqrt(b), as prime_blocks passes to all but its last block
    base = np.array(primes_upto(isqrt(max(b, 0)) + 100), dtype=np.int64)
    assert sieve_segment(a, b, base).tolist() == expected


def test_sieve_segment_block_holds_a_third_of_its_integers(traced_peak):
    # the mask holds 6k + 1 and 6k + 5 only, 1.4 MB for a 2^22 block; the
    # odd-number mask took 2.1 MB and peaked at 3.57 MB here
    ps, peak_mb = traced_peak(lambda: sieve_segment(10**9, 10**9 + 2**22 - 1))
    assert len(ps) == 202_182
    assert peak_mb < 3.2


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-5, 2000),
    st.integers(0, 800),
    st.integers(0, 40),
    st.sampled_from([3, 8, 101, 1 << 22]),
)
@example(3, 3, 4, 1 << 22)  # 3, 5, 7: two gaps, padded past 7
@example(2, 0, 0, 1 << 22)  # one prime, no gap: nothing yielded
@example(2, 500, 30, 3)  # many blocks carry before a slice has a start
def test_prime_gap_slices_tile_the_gaps(a, width, extra, block):
    # the starts of all slices are the window's gaps, once each and in order;
    # each start's lookahead is the next gaps, then past b a gap of extra + 1
    # and gaps of 1
    b = a + width
    gaps = np.diff(sieve_segment(a, b)).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primal, "SIEVE_BLOCK", block)
        slices = [(n, part.tolist()) for n, part in prime_gap_slices(a, b, extra)]
    padded = gaps + [extra + 1, *[1] * (extra - 1)][:extra]
    seen = 0
    for n, part in slices:
        assert n > 0
        assert part == padded[seen : seen + n + extra]
        seen += n
    assert seen == len(gaps)


def test_primes_in_errors(monkeypatch):
    with pytest.raises(ValueError):
        primes_in(10, 5)
    monkeypatch.setattr(primal, "SIEVE_BUDGET", 50)
    with pytest.raises(CapacityError):
        primes_in(2, 100)


def test_phi_i_examples():
    assert phi_i(1, (2, 3, 5)) == 8
    assert phi_i(2, tuple(primes_upto(13))) == 1485
    assert phi_i(4, (2, 3)) == 1


def coprime_count(n: int) -> int:
    """Brute-force count of integers in [1, n] coprime to n."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_phi_1_matches_brute_force_coprime_count():
    for p in (2, 3, 5, 7, 11, 13):
        factors = tuple(primes_upto(p))
        assert phi_i(1, factors) == coprime_count(prod(factors))


def test_phi_i_ignores_small_factors():
    # removing a factor q <= i leaves the value unchanged
    assert phi_i(3, (2, 3, 5, 7)) == phi_i(3, (5, 7))
    assert phi_i(5, (2, 3, 5, 11)) == phi_i(5, (11,))


def test_radical_of_even():
    assert radical_of_even(30) == (2, 3, 5)
    assert radical_of_even(12) == (2, 3)
    assert radical_of_even(74) == (2, 37)
    with pytest.raises(ValueError):
        radical_of_even(9)


def test_factorize():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]


def test_next_prime():
    assert next_prime(13) == 17
    assert next_prime(2) == 3


def test_primes_upto_against_trial_division():
    ps = set(primes_upto(500))
    for n in range(2, 501):
        composite = any(n % d == 0 for d in range(2, n) if d * d <= n)
        assert (n in ps) == (not composite)
