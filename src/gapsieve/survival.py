"""How cycle gaps survive continued sieving.

Two models: the naive uniform-density estimate for how many copies of a gap
land in the fully-sieved window [P, P^2] (compared against true consecutive
prime gaps), and exact attrition of one fixed cycle under the closures of
all primes q with q^2 below the modulus.

Attrition convention: a sieving prime q strikes the candidates it divides,
except q itself, which is a confirmed prime and stays; the endpoints 1 and
N+1 (the wrap image of 1) are never struck.  The survivors of a primorial
cycle are then exactly 1 and the primes up to the modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

import numpy as np

from .census import Constellation, as_constellation, census_for, window_counts
from .cycle import CHUNK_GAPS, GapCycle
from .primal import check_window, next_prime, prime_gap_slices, primes_in


def naive_estimate(cycle: GapCycle, target: Constellation | int) -> float:
    """Uniform-density estimate of the target's count in [P, P^2], P the next stage.

    (P^2 - P) / N times the target's population in the cycle, computed as an
    exact rational and returned as a float.
    """
    p_next = next_prime(cycle.prime)
    n = census_for(cycle, target).population
    return float(Fraction(p_next * p_next - p_next, cycle.modulus) * n)


def actual_gap_count(a: int, b: int, target: Constellation | int) -> int:
    """Occurrences of the target among consecutive prime gaps inside [a, b].

    The whole constellation must lie inside the interval: its first and last
    primes are both in [a, b].  The interval is checked as primes_in checks it.
    The count is the census kernel's k-gap entry over ``prime_gap_slices``,
    walked k steps, one block of primes at a time.
    """
    t = as_constellation(target)
    check_window(a, b)
    return int(window_counts(prime_gap_slices(a, b, t.span), t, t.length)[t.length])


@dataclass
class NaiveEstimateRow:
    p_k: int
    p_next: int
    target: str
    estimate: float
    actual: int
    rel_error: float | None  # None when the actual count is zero


def error_report(
    cycles: Sequence[GapCycle], targets: Sequence[Constellation | int]
) -> list[NaiveEstimateRow]:
    """Estimate-vs-actual rows for each (stage cycle, target) pair."""
    rows: list[NaiveEstimateRow] = []
    for cycle in cycles:
        p_next = next_prime(cycle.prime)
        for target in targets:
            est = naive_estimate(cycle, target)
            act = actual_gap_count(p_next, p_next * p_next, target)
            rel = (est - act) / act if act else None
            rows.append(
                NaiveEstimateRow(
                    cycle.prime, p_next, str(as_constellation(target)), est, act, rel
                )
            )
    return rows


@dataclass
class AttritionStep:
    q: int
    closures: int
    histogram: dict[int, int]


@dataclass
class AttritionTrace:
    base_prime: int
    modulus: int
    sieve_primes: list[int]
    initial_histogram: dict[int, int]
    steps: list[AttritionStep]
    final_values: np.ndarray
    final_gaps: np.ndarray

    @property
    def final_gap_count(self) -> int:
        return len(self.final_gaps)

    @property
    def max_surviving_gap(self) -> int:
        return int(self.final_gaps.max())

    def first_stage_with_gap(self, g: int) -> int | None:
        """The first sieving prime whose closures create a gap of size g."""
        if self.initial_histogram.get(g):
            return None
        for s in self.steps:
            if s.histogram.get(g):
                return s.q
        return None


def _histogram(counts: np.ndarray) -> dict[int, int]:
    """Gap size -> count for the nonzero entries of a bincount array."""
    sizes = np.flatnonzero(counts)
    return dict(zip(sizes.tolist(), counts[sizes].tolist()))


# the set bits of each byte value, and 2^b for each position b of a 16-bit word.
# The bit arithmetic below uses % and + where & and | would give the same
# values: numpy's integer bitwise loops map extra code pages, which a short
# run such as `reproduce` saw as 0.13-0.25 MB more peak RSS.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_POW2 = np.array([1 << b for b in range(16)], dtype=np.uint16)


def _popcount16(words: np.ndarray) -> np.ndarray:
    return _POPCOUNT8[words % 256] + _POPCOUNT8[words >> 8]


def _rank_table(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobson's bitvector rank over the sorted, distinct candidate values ``vals``.

    ``bits`` holds one bit per integer in [0, vals[-1]], in 16-bit words, set
    for each candidate; ``rank[w]`` counts the candidates below word w.  The
    bits are packed slice by slice, so the temporaries stay O(slice); slices
    that share a word set different bits of it, so their words add.
    """
    words = int(vals[-1]) // 16 + 1
    bits = np.zeros(words, dtype=np.uint16)
    for lo in range(0, len(vals), CHUNK_GAPS):
        part = vals[lo : lo + CHUNK_GAPS]
        a, b = int(part[0]) // 16, int(part[-1]) // 16 + 1
        mark = np.zeros(16 * (b - a), dtype=bool)
        mark[part - 16 * a] = True
        bits[a:b] += np.packbits(mark, bitorder="little").view("<u2")
    rank = np.zeros(words + 1, dtype=np.int32)
    rank[1:] = _popcount16(bits)
    return bits, np.cumsum(rank, dtype=np.int32, out=rank)


def _locate(bits: np.ndarray, rank: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The count of candidates below each x in [0, vals[-1]], and whether x is one.

    A candidate's count is its index in the values.
    """
    w, b = x >> 4, x % 16
    word = bits[w]
    return rank[w] + _popcount16(word % _POW2[b]), (word >> b) % 2 == 1


def _strike_passes(
    vals: np.ndarray, counts: np.ndarray, sieve_primes: list[int], n: int
) -> tuple[np.ndarray, list[AttritionStep], np.ndarray]:
    """Run the sieve passes over the candidates ``vals`` with gap counts ``counts``.

    Survivors form a doubly linked list over the fixed index space of
    ``vals``.  A pass strikes exactly the surviving q*k for surviving k in
    [2, N/q]: a survivor divisible by q has no earlier-struck factor, so its
    cofactor survives too (each composite is struck once, by the first
    listed prime dividing it).  That holds for any sieve list, in any order,
    with omissions or repeats.  The struck candidates form runs along the
    list; each run's gaps give way to one merged gap and the run is
    unlinked, so a pass costs O(candidates <= N/q + struck).  A product's
    index and whether it is a candidate at all are read from a rank table
    in O(1), with no binary search.

    Returns the survivor mask, one step per pass and the final gap counts.
    """
    m = len(vals)
    last = int(vals[-1]) - 1  # largest strikable value: N on a well-formed cycle
    bits, rank = _rank_table(vals)
    alive = np.ones(m, dtype=bool)
    prev = np.arange(-1, m - 1, dtype=np.int32)
    nxt = np.arange(1, m + 1, dtype=np.int32)
    steps: list[AttritionStep] = []
    for q in sieve_primes:
        # the candidates k in [2, last // q]: there are none unless q <= N, so
        # q * k is formed only where it fits the values' dtype.  The key has
        # the values' dtype, or searchsorted would convert them all.
        k_end = int(np.searchsorted(vals, vals.dtype.type(last // q), side="right"))
        ks = vals[1 + np.flatnonzero(alive[1:k_end])]
        products = q * ks if len(ks) else ks
        idx, hit = _locate(bits, rank, products)
        hit &= alive[idx]
        struck, at = idx[hit], products[hit]
        if len(struck):
            alive[struck] = False
            left, right = prev[struck], nxt[struck]
            # a run of struck candidates starts where its left neighbour
            # survives and ends where its right neighbour does
            starts, ends = alive[left], alive[right]
            before, after = left[starts], right[ends]
            at_left, at_after = vals[left], vals[after]
            # every gap touching a struck candidate: its left gap, plus the
            # right gap of each run's last candidate
            removed = np.bincount(np.concatenate((at - at_left, at_after - at[ends])))
            merged = np.bincount(at_after - at_left[starts])
            if len(merged) > len(counts):
                counts = np.pad(counts, (0, len(merged) - len(counts)))
            counts[: len(removed)] -= removed
            counts[: len(merged)] += merged
            nxt[before] = after
            prev[after] = before
        if int(np.arange(len(counts)) @ counts) != n:
            raise AssertionError(f"gap total broke conservation at q={q}")
        steps.append(AttritionStep(q, len(struck), _histogram(counts)))
    return alive, steps, counts


def attrition(
    cycle: GapCycle, sieve_primes: Sequence[int] | None = None
) -> AttritionTrace:
    """Sieve a fixed cycle by every prime q with q^2 < N and trace the gaps.

    Each pass strikes the surviving composite candidates divisible by q (q
    itself stays; it is the prime being confirmed) and merges the gaps
    around them.  The gap total is conserved at N after every pass, and the
    final gaps are checked against the counts tracked through the passes.
    The candidates are int32 while N + 1 fits (every stage through 23),
    int64 past that; the final values and gaps are int64.
    """
    n = cycle.modulus
    pk = cycle.prime
    if sieve_primes is None:
        top = isqrt(n)
        sieve_primes = (
            [q for q in primes_in(pk + 1, top) if q * q < n] if top > pk else []
        )
    else:
        sieve_primes = list(sieve_primes)
    counts = np.bincount(cycle.gaps).astype(np.int64, copy=False)
    if counts[0]:  # the passes conserve the gap total, so check it before the first
        raise ValueError("the cycle holds a zero gap")
    cycle.require_total()
    vals = cycle.values(np.int32 if n + 1 < 2**31 else np.int64)
    initial = _histogram(counts)
    alive, steps, counts = _strike_passes(vals, counts, sieve_primes, n)
    final_values = vals[alive].astype(np.int64)
    final_gaps = np.diff(final_values)
    if not np.array_equal(np.bincount(final_gaps, minlength=len(counts)), counts):
        raise AssertionError("surviving gaps disagree with the tracked histogram")
    return AttritionTrace(
        pk, n, sieve_primes, initial, steps, final_values, final_gaps
    )


def fold_confirmed_front(trace: AttritionTrace) -> np.ndarray:
    """Final gaps with the confirmed primes absorbed into the leading gap.

    Presentation form: candidates up to the last sieving prime are merged
    into one accumulated first gap, so the cycle starts at the first
    candidate past the sieved range.
    """
    if not trace.sieve_primes:
        return trace.final_gaps
    bound = trace.sieve_primes[-1]
    vals = trace.final_values
    idx = int(np.searchsorted(vals, bound, side="right"))
    folded = np.concatenate(([1], vals[idx:]))
    return np.diff(folded)
