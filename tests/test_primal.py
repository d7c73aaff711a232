from math import gcd

import pytest

from gapsieve import primal
from gapsieve.primal import (
    CapacityError,
    SquarefreeModulus,
    factorize,
    is_prime,
    next_prime,
    phi_i,
    primes_in,
    primes_upto,
    primorial,
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


def test_primorial_values():
    assert primorial(5).value == 30
    assert primorial(5).factors == (2, 3, 5)
    assert primorial(7).value == 210
    assert primorial(2).value == 2


def test_primorial_rejects_nonprime_and_large():
    with pytest.raises(ValueError):
        primorial(9)
    with pytest.raises(CapacityError):
        primorial(103)


def test_phi_i_examples():
    assert phi_i(1, 30) == 8
    assert phi_i(2, primorial(13)) == 1485
    assert phi_i(4, 6) == 1


def coprime_count(n: int) -> int:
    """Brute-force count of integers in [1, n] coprime to n."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_phi_1_matches_brute_force_coprime_count():
    for p in (2, 3, 5, 7, 11, 13):
        n = primorial(p)
        assert phi_i(1, n) == coprime_count(n.value)


def test_phi_i_ignores_small_factors():
    # removing a factor q <= i leaves the value unchanged
    assert phi_i(3, SquarefreeModulus((2, 3, 5, 7))) == phi_i(3, SquarefreeModulus((5, 7)))
    assert phi_i(5, SquarefreeModulus((2, 3, 5, 11))) == phi_i(5, SquarefreeModulus((11,)))


def test_radical_of_even():
    assert radical_of_even(30).value == 30
    assert radical_of_even(30).largest_factor == 5
    assert radical_of_even(12).value == 6
    assert radical_of_even(12).largest_factor == 3
    assert radical_of_even(74).value == 74
    assert radical_of_even(74).largest_factor == 37
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
