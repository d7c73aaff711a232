"""How cycle gaps survive continued sieving.

Two models: the naive uniform-density estimate for how many copies of a gap
land in the fully-sieved window [P, P^2] (compared against true consecutive
prime gaps), and exact attrition of one fixed cycle under the closures of
all primes q with q^2 below the modulus.

Attrition convention: a sieving prime q strikes the candidates it divides,
except q itself, which is a confirmed prime and stays; the endpoints 1 and
N+1 (the wrap image of 1) are never struck.  The survivors of a primorial
cycle are then exactly 1 and the primes up to the modulus.  Each composite
is struck once, by the first listed prime dividing it, so one key per
candidate (that prime's list index, from a least-factor sieve) fixes the
pass that strikes it, and every pass's gap histogram follows from the keys.
No strike reaches past the survivors on either side of it, so the cycle is
walked in windows of one key block each, cut at the window's last
survivor, and no whole-cycle array is held but the survivors' u16 gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

import numpy as np

from . import cycle as cycle_mod
from .census import Constellation, as_constellation, window_counts
from .cycle import GapCycle
from .primal import CapacityError, check_window, next_prime, prime_gap_slices, primes_in


def naive_estimates(cycle: GapCycle, targets: Sequence[Constellation | int]) -> list[float]:
    """Uniform-density estimates of the targets' counts in [P, P^2], P the next stage.

    (P^2 - P) / N times a target's population in the cycle, computed as an
    exact rational and returned as a float.  The population is the census
    kernel's k-gap entry, walked k steps, as ``actual_gap_counts`` reads it;
    one pass over the cycle serves every target.
    """
    ts = [as_constellation(t) for t in targets]
    cycle.least  # the check every census of the cycle makes first
    lengths = [t.length for t in ts]
    slices = cycle_mod.cyclic_slices(cycle.gaps, cycle.gap_count, max(lengths, default=0))
    p_next = next_prime(cycle.prime)
    scale = Fraction(p_next * p_next - p_next, cycle.modulus)
    return [float(scale * int(c[k])) for k, c in zip(lengths, window_counts(slices, ts, lengths))]


def actual_gap_counts(a: int, b: int, targets: Sequence[Constellation | int]) -> list[int]:
    """Occurrences of each target among consecutive prime gaps inside [a, b].

    The whole constellation must lie inside the interval: its first and last
    primes are both in [a, b].  The interval is checked as primes_in checks it.
    A count is the census kernel's k-gap entry, walked k steps, over one
    ``prime_gap_slices`` pass for every target, one block of primes at a time.
    """
    ts = [as_constellation(t) for t in targets]
    check_window(a, b)
    lengths = [t.length for t in ts]
    slices = prime_gap_slices(a, b, max((t.span for t in ts), default=0))
    return [int(c[k]) for k, c in zip(lengths, window_counts(slices, ts, lengths))]


@dataclass
class NaiveEstimateRow:
    p_k: int
    p_next: int
    target: str
    estimate: float
    actual: int
    rel_error: float | None  # None when the actual count is zero


def error_report(
    cycles: Iterable[GapCycle], targets: Sequence[Constellation | int]
) -> list[NaiveEstimateRow]:
    """Estimate-vs-actual rows for each (stage cycle, target) pair, one cycle held at a time.

    Each stage takes one census pass over its cycle and one pass over the
    primes for all the targets.
    """
    rows: list[NaiveEstimateRow] = []
    for cycle in cycles:
        p_next = next_prime(cycle.prime)
        ests = naive_estimates(cycle, targets)
        acts = actual_gap_counts(p_next, p_next * p_next, targets)
        for target, est, act in zip(targets, ests, acts):
            rel = (est - act) / act if act else None
            rows.append(
                NaiveEstimateRow(
                    cycle.prime, p_next, str(as_constellation(target)), est, act, rel
                )
            )
        del cycle  # before a generator builds the next stage
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
    final_gaps: np.ndarray  # u16, as a cycle's gaps

    @property
    def final_values(self) -> np.ndarray:  # the survivors 1, ..., N+1 as int64
        v = np.empty(len(self.final_gaps) + 1, dtype=np.int64)
        v[0] = 1
        v[1:] = self.final_gaps
        return np.cumsum(v, out=v)

    @property
    def final_gap_count(self) -> int:
        return len(self.final_gaps)

    @property
    def max_surviving_gap(self) -> int:
        return max(self.steps[-1].histogram if self.steps else self.initial_histogram)

    def first_stage_with_gap(self, g: int) -> int | None:
        """The first sieving prime whose closures create a gap of size g."""
        if self.initial_histogram.get(g):
            return None
        for s in self.steps:
            if s.histogram.get(g):
                return s.q
        return None


def _histograms(rows: np.ndarray) -> list[dict[int, int]]:
    """Gap size -> count for the nonzero entries of each row of bincount rows, from one nonzero.

    Each row converts only its own slice to Python ints: lists of every
    count at once stayed in the heap under stage 23's peak, 2.5 MB higher.
    """
    r, g = np.nonzero(rows)
    ends = np.searchsorted(r, np.arange(len(rows) + 1)).tolist()
    return [dict(zip(g[lo:hi].tolist(), row[g[lo:hi]].tolist()))
            for row, lo, hi in zip(rows, ends, ends[1:])]


def _accumulate(total: np.ndarray, part: np.ndarray) -> np.ndarray:
    """total + part, the gap axis (the last) as long as the longer one's.

    Both are counts that nothing else holds: the sum is made in the longer.
    """
    if part.shape[-1] > total.shape[-1]:
        total, part = part, total
    total[..., : part.shape[-1]] += part
    return total


# integers per window of attrition, and so per least-factor sieve block: 2^19 u16 keys
# (1 MB) stay in cache under the strided writes.  Each window is cut at its last
# survivor.  The stage-23 key sieve took 1.4-1.5 s at 2^20, 1.6-2.0 s at 2^21 and 2^22,
# and 1.5-2.8 s at 2^18, where its Python-level writes count; at 2^20 a stage-19
# window's 6 MB of temporaries left the malloc heap 5 MB larger in some source layouts.
KEY_BLOCK = 1 << 19


def _strike_keys(vals: np.ndarray, a: int, sieve_primes: list[int], top: int) -> np.ndarray:
    """Each candidate's pass: the list index of the first listed prime dividing it other than itself.

    The candidates are a + vals, offsets from 0 up; 1, top (N+1) and every
    survivor get len(sieve_primes).  Over one block from a to the last, each
    prime writes its index on its multiples from 2q up, the last listed
    first, so the first listed divisor's index is the one left.
    """
    passes = len(sieve_primes)
    hi = a + int(vals[-1])
    block = np.full(hi + 1 - a, passes, dtype=np.uint16 if passes < 0xFFFF else np.uint32)
    for i, q in [(i, q) for i, q in enumerate(sieve_primes) if 2 * q <= hi][::-1]:
        block[max(2 * q, -(-a // q) * q) - a :: q] = i
    keys = block[vals]
    if hi == top:
        keys[-1] = passes
    return keys


def _nearest(keys: np.ndarray, at: np.ndarray, r: np.ndarray, step: int, skip) -> np.ndarray:
    """From each of ``at``, the nearest position ``step`` at a time where ``skip(key, r)`` fails.

    The first and last keys are the largest, so no scan leaves the values.
    """
    idx = at + step
    open_ = np.flatnonzero(skip(keys[idx], r))
    while len(open_):
        idx[open_] += step
        open_ = open_[skip(keys[idx[open_]], r[open_])]
    return idx


def _pass_changes(vals: np.ndarray, keys: np.ndarray, passes: int, width: int) -> np.ndarray:
    """Row r + 1: pass r's change to the gap counts (row 0 is zero).

    Before pass r the list holds the candidates with key >= r, and the pass
    strikes those with key r.  A struck candidate's neighbours are the
    nearest positions with key >= r on each side; a run of struck
    candidates starts at a larger left key, ends at a larger right key, and
    merges from its start's left neighbour to the first larger key past it.
    Each struck candidate's left gap and each run end's right gap is removed
    and each merged gap added, as (pass, gap) codes gathered slice by slice
    and counted once.  The first and last values are survivors.
    """
    size = (passes + 1) * width
    code_type = np.int32 if size < 2**31 else np.int64
    minus, plus = [], []
    for lo in range(0, len(keys), cycle_mod.CHUNK_GAPS):
        at = lo + np.flatnonzero(keys[lo : lo + cycle_mod.CHUNK_GAPS] < passes)
        r = keys[at]
        left = _nearest(keys, at, r, -1, np.less)
        right = _nearest(keys, at, r, 1, np.less)
        starts, ends = keys[left] > r, keys[right] > r
        after = _nearest(keys, at[starts], r[starts], 1, np.less_equal)
        code = (r.astype(code_type) + 1) * width
        v, v_left = vals[at], vals[left]
        minus += [code + (v - v_left), code[ends] + (vals[right[ends]] - v[ends])]
        plus.append(code[starts] + (vals[after] - v_left[starts]))
    rows = np.bincount(np.concatenate(plus), minlength=size)
    rows -= np.bincount(np.concatenate(minus), minlength=size)
    return rows.reshape(passes + 1, width)


def _window(
    rows: np.ndarray, tail: np.ndarray, gaps: np.ndarray, a: int, sieve_primes: list[int], top: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The passes over the candidates a + ``tail`` and ``gaps`` past it, up to the last survivor.

    ``tail`` is int32 offsets from a, a survivor.  Returns ``rows`` plus the
    window's rows (added here, so that none outlive it): its initial gap
    counts in row 0 and each pass's change, the survivors' u16 gaps and their
    counts, and the candidates from the last survivor on, as offsets from it:
    the next window's ``tail``.  Every gap of every pass lies within one final
    gap, so the rows are as wide as the widest final gap.
    """
    passes = len(sieve_primes)
    vals = np.concatenate((tail, gaps), dtype=np.int32)
    np.cumsum(vals[len(tail) - 1 :], out=vals[len(tail) - 1 :])
    keys = _strike_keys(vals, a, sieve_primes, top)
    alive = np.flatnonzero(keys == passes)
    kept = np.diff(vals[alive])
    kept_counts = np.bincount(kept)
    if len(kept_counts) > cycle_mod.GAP_LIMIT + 1:
        raise CapacityError(f"surviving gap {len(kept_counts) - 1} exceeds u16 storage")
    last = int(alive[-1])
    changes = _pass_changes(vals[: last + 1], keys[: last + 1], passes, len(kept_counts))
    changes[0] = np.bincount(np.diff(vals[: last + 1]), minlength=len(kept_counts))
    return _accumulate(rows, changes), kept.astype(np.uint16), kept_counts, vals[last:] - vals[last]


def attrition(
    cycle: GapCycle, sieve_primes: Sequence[int] | None = None
) -> AttritionTrace:
    """Sieve a fixed cycle by every prime q with q^2 < N and trace the gaps.

    Each pass strikes the surviving composite candidates divisible by q (q
    itself stays; it is the prime being confirmed) and merges the gaps
    around them.  The gap total is conserved at N after every pass, and the
    final gaps are checked against the counts tracked through the passes.

    The cycle is walked in windows of about KEY_BLOCK integers, each cut at
    its last survivor: every strike's neighbours lie between the survivors
    around it, so the passes over the window up to the cut are exact, and
    the candidates from that survivor on carry into the next window.  Each
    window's candidates are int32 offsets from its first value; survivors
    are kept as u16 gaps, as a cycle's are, up to GAP_LIMIT.
    """
    n, pk = cycle.modulus, cycle.prime
    if sieve_primes is None:  # every q <= isqrt(N) has q^2 < N, N squarefree
        sieve_primes = primes_in(pk + 1, isqrt(n)) if isqrt(n) > pk else []
    sieve_primes = list(sieve_primes)
    passes = len(sieve_primes)
    cycle.least  # the passes conserve the gap total, so check it before the first
    size = max(cycle_mod.CHUNK_GAPS, KEY_BLOCK * cycle.gap_count // n)
    tail, a = np.zeros(1, dtype=np.int32), 1  # 1 is never struck
    pieces = []  # the survivors' gaps, window by window
    rows = np.zeros((passes + 1, 1), dtype=np.int64)
    final_counts = np.zeros(1, dtype=np.int64)
    for lo in range(0, cycle.gap_count, size):
        gaps = cycle.gaps[lo : lo + size]
        rows, kept, kept_counts, tail = _window(rows, tail, gaps, a, sieve_primes, n + 1)
        final_counts = _accumulate(final_counts, kept_counts)
        pieces.append(kept)
        a += int(kept.sum())
    np.cumsum(rows, axis=0, out=rows)
    totals = rows @ np.arange(rows.shape[1])
    for q, total in zip(sieve_primes, totals[1:].tolist()):
        if total != n:
            raise AssertionError(f"gap total broke conservation at q={q}")
    if not np.array_equal(final_counts, rows[-1]):
        raise AssertionError("surviving gaps disagree with the tracked histogram")
    closures = -np.diff(rows.sum(axis=1))  # each closure joins two gaps into one
    initial, *hists = _histograms(rows)
    steps = [AttritionStep(q, c, h) for q, c, h in zip(sieve_primes, closures.tolist(), hists)]
    final_gaps = np.concatenate(pieces)
    return AttritionTrace(pk, n, sieve_primes, initial, steps, final_gaps)


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
