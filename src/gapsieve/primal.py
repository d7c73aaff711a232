"""Prime generation and generalized totients.

A squarefree modulus, such as the primorial p# of a sieve stage, is written
everywhere in the package as the ascending tuple of its distinct primes, and
``phi_i`` over that tuple is the one totient.  Every prime list and block
comes from one segmented sieve, ``sieve_segment``, whose mask holds only the
numbers 6k + 1 and 6k + 5, a third of the integers.  The primes below 2^16
are one table, sieved once by the same kernel: a window below 2^16 is a copy
of a slice of it, and every base of sieving primes up to isqrt(2^32) is a
slice.  Sieving a window [a, b] holds O(sqrt(b) + SIEVE_BLOCK) working memory
at a time.  The bound holds for the consumers of ``prime_blocks`` too:
``eigenvalue_products`` keeps one block and fixed-size buffers, and
``prime_gap_slices`` one block of gaps and its carry, never a list of the
window's primes; only ``primes_in`` returns one.  The trial division in
``is_prime`` and ``factorize`` serves single numbers: input checks and the
tests' independent reference.
"""

from __future__ import annotations

from functools import cache
from math import isqrt
from typing import Iterator

import numpy as np

# Cycle construction is unreachable at desk scale beyond this factor bound.
PRIME_FACTOR_CAP = 101

SIEVE_BUDGET = 10**10

# A base prime p from here up hits a column of a SIEVE_BLOCK's mask at most
# 2^22 / (6 * 2^14) < 43 times, so sieve_segment strikes all of them together
# by fancy indexing, in 43 rounds a block, rather than by one strided slice
# per column apiece.  Four blocks near 1e11 took 40.4-42.0, 40.5-42.4 and
# 44.8-46.2 ms with the split at 2^13, 2^14 and 2^15 (medians of three runs
# on a 2-vCPU Xeon).
_SCATTER_FROM = 1 << 14

# Integers per sieve block.  eigenvalue_products rounds each block's log sum
# once, to the math.fsum value, so this partition fixes the rounding of a_j:
# changing it changes a_j's low bits.
SIEVE_BLOCK = 1 << 22

# The primes below this are one table, _table().
_TABLE_TOP = 1 << 16


class CapacityError(RuntimeError):
    """A computation exceeds the configured memory or sieve budget."""


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending."""
    return sieve_segment(2, n).tolist()


@cache
def _table() -> np.ndarray:
    """The primes below _TABLE_TOP, read-only: the kernel's base grows from the
    primes to 13 to those to 288, since 17^2 > 288 and 283^2 > 2^16."""
    seed = np.array((2, 3, 5, 7, 11, 13), dtype=np.int64)
    table = _strike(2, _TABLE_TOP - 1, _strike(2, 288, seed))
    table.flags.writeable = False
    return table


def sieve_segment(a: int, b: int, base: np.ndarray | None = None) -> np.ndarray:
    """Primes in [a, b] as int64, striking multiples of ``base`` (all primes <= isqrt(b)).

    ``base`` is int64, ascending from 2, and may run past isqrt(b).  A b
    below 2^16 is answered by a copy of a slice of the table of primes below
    2^16, whatever the base, and the default base is a slice of it up to
    b = 2^32 - 1, sieved by this function from there.

    The mask is a (rows, 2) bool array: row i stands for 6(a // 6 + i) + 1
    and 6(a // 6 + i) + 5, so flat index k is 3k + 6(a // 6) + 1 + (k & 1),
    and 2 and 3 are added back when a <= 3.  A base prime p >= 5 strikes
    each column from its first multiple at least max(p*p, a) in that
    residue class, every p rows on, so base primes inside [a, b] survive:
    those below _SCATTER_FROM one strided slice per column, the rest all
    together, one fancy-index assignment over flat indices per round until
    each leaves the mask.  Values outside [a, b] are cut from the ascending
    result.
    """
    a = max(a, 2)
    if a > b:
        return np.empty(0, dtype=np.int64)
    table = _table()
    if b < _TABLE_TOP:
        return table[np.searchsorted(table, a) : np.searchsorted(table, b, "right")].copy()
    if base is None:
        root = isqrt(b)
        base = table if root < _TABLE_TOP else sieve_segment(2, root)
    return _strike(a, b, base)


def _strike(a: int, b: int, base: np.ndarray) -> np.ndarray:
    """sieve_segment's kernel, for 2 <= a <= b, over the mask of 6k + 1 and 6k + 5."""
    row0 = a // 6
    # the mask first, so it takes the last block's mask's place in the heap,
    # and every temporary freed before flatnonzero, whose result takes the
    # last block's result's place
    mask = np.ones((b // 6 - row0 + 1, 2), dtype=bool)
    flat = mask.reshape(-1)
    ps = base[2 : np.searchsorted(base, isqrt(b), "right")]
    r = np.array([[1], [5]])
    # p's multiples in the column of residue r are kp with k = rp + 6t: the
    # first at least max(p*p, a) has t = ceil((k0 - rp) / 6), k0 the least k
    # with kp >= max(p*p, a), and row tp + r(p*p - 1)/6 - row0
    hit = (np.maximum(ps * ps, a) - 1) // ps + 6 - r * ps  # k0 + 5 - rp
    hit //= 6
    hit *= ps
    hit += r * ((ps * ps - 1) // 6)
    hit -= row0
    hit *= 2
    hit[1] += 1  # (2, len(ps)): each prime's first flat index per column
    split = np.searchsorted(ps, _SCATTER_FROM)
    for p, h1, h5 in zip(ps[:split], *hit[:, :split]):  # no list of them: a smaller peak
        flat[h1 :: 2 * p] = False
        flat[h5 :: 2 * p] = False
    step = np.tile(2 * ps[split:], 2)
    hit = hit[:, split:].reshape(-1)
    while len(hit):
        live = hit < len(flat)
        hit, step = hit[live], step[live]
        flat[hit] = False
        hit += step
    out = np.flatnonzero(flat)
    del mask, flat
    odd = np.remainder(out, 2, out=np.empty(len(out), np.uint8), casting="unsafe")  # k & 1
    out *= 3
    out += 6 * row0 + 1
    out += odd
    out = out[np.searchsorted(out, a) : np.searchsorted(out, b, "right")]
    if a <= 3:
        out = np.concatenate((np.array([q for q in (2, 3) if a <= q], dtype=np.int64), out))
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
