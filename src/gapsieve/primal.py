"""Prime generation, squarefree moduli, and generalized totients.

Everything downstream (cycle construction, censuses, the population model)
consumes primes and factorizations from this module.  The sieve is segmented
so that enumerating a window [a, b] costs O(sqrt(b) + (b - a)) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

import numpy as np

# Cycle construction is unreachable at desk scale beyond this factor bound.
PRIME_FACTOR_CAP = 101

DEFAULT_BLOCK_SIZE = 1 << 20
DEFAULT_SIEVE_BUDGET = 10**10


class CapacityError(RuntimeError):
    """A computation exceeds the configured memory or sieve budget."""


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending."""
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def sieve_segment(a: int, b: int, base: np.ndarray | None = None) -> np.ndarray:
    """Primes in [a, b] as an int64 array, by striking base-prime multiples."""
    if a > b:
        return np.empty(0, dtype=np.int64)
    a = max(a, 2)
    if base is None:
        base = np.array(primes_upto(isqrt(b)), dtype=np.int64)
    mask = np.ones(b - a + 1, dtype=bool)
    for p in base.tolist():
        if p * p > b:
            break
        # strike from p*p so base primes inside [a, b] survive
        start = max(p * p, ((a + p - 1) // p) * p)
        mask[start - a :: p] = False
    return np.flatnonzero(mask) + a


def primes_in(
    a: int,
    b: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    budget: int = DEFAULT_SIEVE_BUDGET,
) -> list[int]:
    """Ascending list of the primes in [a, b], sieved in blocks.

    Raises ValueError on an inverted range and CapacityError when b exceeds
    the configured budget.
    """
    if a > b:
        raise ValueError(f"inverted range [{a}, {b}]")
    if b > budget:
        raise CapacityError(f"upper bound {b} exceeds sieve budget {budget}")
    a = max(a, 2)
    base = np.array(primes_upto(isqrt(b)), dtype=np.int64)
    out: list[int] = []
    lo = a
    while lo <= b:
        hi = min(lo + block_size - 1, b)
        out.extend(int(x) for x in sieve_segment(lo, hi, base))
        lo = hi + 1
    return out


def iter_primes(start: int = 2, block_size: int = DEFAULT_BLOCK_SIZE) -> Iterator[int]:
    """Unbounded ascending stream of primes >= start."""
    lo = max(start, 2)
    while True:
        hi = lo + block_size - 1
        base = np.array(primes_upto(isqrt(hi)), dtype=np.int64)
        for x in sieve_segment(lo, hi, base):
            yield int(x)
        lo = hi + 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    m = n + 1
    while not is_prime(m):
        m += 1
    return m


def prev_prime(n: int) -> int:
    """Largest prime strictly less than n."""
    m = n - 1
    while m >= 2 and not is_prime(m):
        m -= 1
    if m < 2:
        raise ValueError(f"no prime below {n}")
    return m


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class SquarefreeModulus:
    """A product of distinct primes, with its factor list kept explicit.

    The factor cap applies to cycle construction (see primorial), not here:
    closed-form asymptotics handle radicals with arbitrarily large factors.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("modulus needs at least one prime factor")
        if list(self.factors) != sorted(set(self.factors)):
            raise ValueError(f"factors must be distinct and ascending: {self.factors}")
        for q in self.factors:
            if not is_prime(q):
                raise ValueError(f"{q} is not prime")

    @property
    def value(self) -> int:
        v = 1
        for q in self.factors:
            v *= q
        return v

    @property
    def largest_factor(self) -> int:
        return self.factors[-1]

    def totient(self) -> int:
        return phi_i(1, self)

    def __int__(self) -> int:
        return self.value


def primorial(p: int) -> SquarefreeModulus:
    """The product of all primes up to and including p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > PRIME_FACTOR_CAP:
        raise CapacityError(f"primorial factor {p} exceeds cap {PRIME_FACTOR_CAP}")
    return SquarefreeModulus(tuple(primes_upto(p)))


def radical_of_even(g: int) -> SquarefreeModulus:
    """The product of the distinct primes dividing an even g (2 included)."""
    if g < 2 or g % 2 != 0:
        raise ValueError(f"{g} is not a positive even integer")
    return SquarefreeModulus(tuple(p for p, _ in factorize(g)))


def phi_i(i: int, modulus: SquarefreeModulus | int) -> int:
    """Generalized totient: product of (q - i) over prime factors q > i.

    An empty product is 1.  phi_i(1, .) is the Euler totient on squarefree
    arguments.
    """
    if i < 1:
        raise ValueError(f"offset must be >= 1, got {i}")
    if isinstance(modulus, SquarefreeModulus):
        factors = modulus.factors
    else:
        factors = tuple(p for p, _ in factorize(int(modulus)))
    v = 1
    for q in factors:
        if q > i:
            v *= q - i
    return v
