"""Prime generation and generalized totients.

A squarefree modulus, such as the primorial p# of a sieve stage, is written
everywhere in the package as the ascending tuple of its distinct primes, and
``phi_i`` over that tuple is the one totient.  Every prime list and block
comes from one segmented sieve, ``sieve_segment``, so sieving a window
[a, b] holds O(sqrt(b) + SIEVE_BLOCK) working memory at a time.  The bound
holds for the consumers of ``prime_blocks`` too: ``eigenvalue_products``
keeps one block and fixed-size buffers, and ``prime_gap_slices`` one block of
gaps and its carry, never a list of the window's primes; only ``primes_in``
returns one.  The trial division in ``is_prime`` and ``factorize`` serves
single numbers: input checks and the tests' independent reference.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

import numpy as np

# Cycle construction is unreachable at desk scale beyond this factor bound.
PRIME_FACTOR_CAP = 101

SIEVE_BUDGET = 10**10

# A base prime from here up hits the odd half of a SIEVE_BLOCK at most 128
# times, so sieve_segment strikes all of them together by fancy indexing
# rather than one strided slice apiece.
_SCATTER_FROM = 1 << 14

# Integers per sieve block.  eigenvalue_products rounds each block's log sum
# once, to the math.fsum value, so this partition fixes the rounding of a_j:
# changing it changes a_j's low bits.
SIEVE_BLOCK = 1 << 22


class CapacityError(RuntimeError):
    """A computation exceeds the configured memory or sieve budget."""


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending."""
    return sieve_segment(2, n).tolist()


def sieve_segment(a: int, b: int, base: np.ndarray | None = None) -> np.ndarray:
    """Primes in [a, b] as int64, striking multiples of ``base`` (all primes <= isqrt(b)).

    ``base`` is ascending from 2 and may run past isqrt(b).  The mask holds
    the odd numbers of [a, b] only, and 2 is added back when a <= 2.  Each
    odd base prime p strikes from its first odd multiple at least
    max(p*p, a), so base primes inside [a, b] survive: those below
    _SCATTER_FROM one strided slice each, the rest all together, one
    fancy-index assignment per round until each leaves the mask.
    """
    a = max(a, 2)
    if a > b:
        return np.empty(0, dtype=np.int64)
    if base is None:
        base = sieve_segment(2, isqrt(b))
    lo = 1 if a == 2 else a | 1  # mask[i] stands for lo + 2i, but mask[0] for 2 when a = 2
    mask = np.ones((b - lo) // 2 + 1, dtype=bool)
    root = isqrt(b)
    if root >= _SCATTER_FROM:
        split = np.searchsorted(base, _SCATTER_FROM)
        big = base[split : np.searchsorted(base, root, "right")]
        base = base[:split]
        hit = ((-(-np.maximum(big * big, lo) // big) | 1) * big - lo) >> 1
        while len(hit):
            live = hit < len(mask)
            hit, big = hit[live], big[live]
            mask[hit] = False
            hit += big
    for p in base.tolist()[1:]:  # 2 strikes nothing odd
        if p * p > b:
            break
        mask[((-(-max(p * p, lo) // p) | 1) * p - lo) >> 1 :: p] = False
    out = np.flatnonzero(mask)
    out *= 2
    out += lo
    if a == 2:
        out[0] = 2
    return out


def prime_blocks(a: int, b: int) -> Iterator[np.ndarray]:
    """The primes in [a, b] as int64 arrays, one per SIEVE_BLOCK integers from a.

    The base primes up to isqrt(b) are sieved once for all blocks.
    """
    base = sieve_segment(2, isqrt(max(b, 0)))
    for lo in range(a, b + 1, SIEVE_BLOCK):
        yield sieve_segment(lo, min(lo + SIEVE_BLOCK - 1, b), base)


def prime_gap_slices(a: int, b: int, extra: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, part) over the gaps between consecutive primes in [a, b], block by block.

    ``part`` holds n starts, each the gap after a prime, then the ``extra``
    gaps after them, so the last extra + 1 primes of a block carry into the
    next.  Past b the last slice reads a gap of extra + 1, so no window of
    span at most extra reaches past b, then gaps of 1, which keep a census
    position table over the slice's sum small.  Gaps below SIEVE_BUDGET fit u16.
    """
    dtype = np.uint16 if extra < 0xFFFF else np.int64
    run = np.empty(0, dtype=np.int64)
    for ps in prime_blocks(a, b):
        run = np.concatenate((run, ps))
        del ps  # free the block before the next one is sieved
        n = len(run) - 1 - extra
        if n > 0:
            yield n, np.subtract(run[1:], run[:-1], dtype=dtype, casting="unsafe")
            run = run[n:].copy()
    if len(run) > 1:  # past b, a gap of extra + 1, then gaps of 1
        run = np.concatenate((run, run[-1] + extra + np.arange(1, extra + 1)))
        yield len(run) - 1 - extra, np.subtract(run[1:], run[:-1], dtype=dtype, casting="unsafe")


def check_window(a: int, b: int) -> None:
    """Raise ValueError on an inverted range and CapacityError when b exceeds SIEVE_BUDGET."""
    if a > b:
        raise ValueError(f"inverted range [{a}, {b}]")
    if b > SIEVE_BUDGET:
        raise CapacityError(f"upper bound {b} exceeds sieve budget {SIEVE_BUDGET}")


def primes_in(a: int, b: int) -> list[int]:
    """Ascending list of the primes in [a, b], after check_window(a, b)."""
    check_window(a, b)
    return [p for ps in prime_blocks(a, b) for p in ps.tolist()]


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


def radical_of_even(g: int) -> tuple[int, ...]:
    """The distinct primes dividing an even g (2 included), ascending."""
    if g < 2 or g % 2 != 0:
        raise ValueError(f"gap must be a positive even integer: {g}")
    return tuple(p for p, _ in factorize(g))


def phi_i(i: int, factors: tuple[int, ...]) -> int:
    """Generalized totient of a squarefree modulus: prod (q - i) over its primes q > i.

    ``factors`` are the modulus's distinct primes.  An empty product is 1,
    and phi_i(1, .) is the Euler totient.
    """
    if i < 1:
        raise ValueError(f"offset must be >= 1, got {i}")
    v = 1
    for q in factors:
        if q > i:
            v *= q - i
    return v
