from math import gcd, prod

import pytest

from gapsieve import primal
from gapsieve.primal import (
    CapacityError,
    factorize,
    is_prime,
    next_prime,
    phi_i,
    primes_in,
    primes_upto,
    radical_of_even,
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
    one_shot = primes_in(2, 10_000)
    monkeypatch.setattr(primal, "SIEVE_BLOCK", 97)
    assert primes_in(2, 10_000) == one_shot


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
