"""The discrete population model for a target and its driving terms.

State is census_for's PopulationVector: driving-term counts by length j1..J.
One sieve stage at prime p multiplies by an upper-bidiagonal matrix whose
diagonal is (p - j - 1) and whose superdiagonal feeds j from j+1 with weight
(j + 1 - j1).  The matrix factors exactly as R * Lambda * L with
Pascal-triangular R and L independent of p, so products across stages stay
diagonal; asymptotics drop out of the first left eigenvector, which is all
ones.  No matrix is built: step applies the stage, and polynomial_approx
applies L to the ratios, so the tests check L * M = Lambda * L through the
two, coefficient m scaling by (p - j1 - 1 - m) / (p - j1 - 1) per stage.

Counts are exact integers and ratios exact rationals; only the long
eigenvalue products accumulate in log space, as log1p(-(j - 1)/(p - 2)) per
prime.  From the prime 2 + (jmax - 1) 2^15 up, every j comes from the same
two to four power sums of 1/(p - 2), the series cut where its tail falls
2^-60 below each term; below that prime the series converges too slowly,
so each j keeps its own math.log1p.  The products hold one prime block of
primal.prime_blocks at a time, plus four float64 buffers of _BATCH primes,
whatever the range; each SIEVE_BLOCK's log sum is rounded once, from the
exact sum of its terms, so the SIEVE_BLOCK partition, not the batch size,
fixes a_j's low bits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import numpy as np

from .census import PopulationVector
from .primal import is_prime, prime_blocks, primes_in


def step(v: PopulationVector, p: int) -> PopulationVector:
    """Apply one sieve stage at prime p in exact arithmetic."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p <= v.max_length + 1:
        raise ValueError(
            f"stage prime {p} gives a nonpositive eigenvalue for length {v.max_length}"
        )
    j1 = v.j1
    out = []
    for i, j in enumerate(range(j1, v.max_length + 1)):
        x = (p - j - 1) * v.entries[i]
        if i + 1 < len(v.entries):
            x += (j + 1 - j1) * v.entries[i + 1]
        out.append(x)
    return PopulationVector(j1, tuple(out), v.ref * (p - j1 - 1))


def iterate(v: PopulationVector, p0: int, pk: int) -> PopulationVector:
    """Apply every stage prime in (p0, pk], ascending."""
    if p0 >= pk:
        raise ValueError(f"need p0 < pk, got {p0} >= {pk}")
    for p in primes_in(p0 + 1, pk):
        v = step(v, p)
    return v


def asymptotic_ratio(v: PopulationVector) -> Fraction:
    """Limit of the population ratio: the sum of the initial ratios.

    The first left eigenvector is all ones and its eigenvalue is 1 on
    ratios; every other mode decays, so the limit is just the ratio sum.
    """
    return Fraction(v.total, v.ref)


def polynomial_approx(v: PopulationVector) -> tuple[Fraction, ...]:
    """Coefficients c_m = (row m of L) . v.ratios for the decay polynomial.

    The base-length ratio is approximately
    sum_m (-1)^(m+1) c_m x^(m-1) evaluated at x = the second eigenvalue
    product; at x = 0 it is the asymptotic ratio, at x = 1 the initial ratio.
    """
    r = v.ratios
    return tuple(
        sum((comb(j, m) * r[j] for j in range(m, len(r))), Fraction(0))
        for m in range(len(r))
    )


def evaluate_polynomial(coeffs: tuple[Fraction, ...], x: Fraction) -> Fraction:
    """sum_m (-1)^(m+1) c_m x^(m-1) with c_m = coeffs[m-1]."""
    acc = Fraction(0)
    for m in reversed(range(len(coeffs))):
        acc = acc * x + (-1) ** m * coeffs[m]
    return acc


# primes per batch in eigenvalue_products; any size gives the same a_j
_BATCH = 1 << 14


def eigenvalue_products(p0: int, pk: int, jmax: int) -> dict[int, float]:
    """Products of (p - j - 1)/(p - 2) over stage primes in (p0, pk], j = 2..jmax.

    Each product is exp of a sum of logs, log1p(-(j - 1)/(p - 2)).  The
    primes come one block of prime_blocks at a time, _block_log_sums rounds
    each block's sum once, and math.fsum adds the block sums, so the
    SIEVE_BLOCK partition fixes a_j's low bits.  The working memory is one
    block plus four float64 buffers of _BATCH primes, allocated once per
    call, whatever the range.
    """
    if jmax < 2:
        raise ValueError(f"jmax {jmax} must be at least 2")
    if p0 < jmax + 1:
        raise ValueError(f"p0 {p0} must be at least jmax + 1 = {jmax + 1}")
    if pk <= p0:
        raise ValueError(f"need pk > p0, got {pk} <= {p0}")
    sums = {j: [] for j in range(2, jmax + 1)}
    buffers = np.empty((4, _BATCH))
    for ps in prime_blocks(p0 + 1, pk):
        for j, s in _block_log_sums(ps, jmax, buffers).items():
            sums[j].append(s)
        del ps  # the loop variable would keep the block alive while the next one is sieved
    return {j: math.exp(math.fsum(parts)) for j, parts in sums.items()}


def _block_log_sums(ps: np.ndarray, jmax: int, buffers: np.ndarray) -> dict[int, float]:
    """Sums of log1p(-(j - 1) x), x = 1/(p - 2), over the primes ps, each rounded once.

    Primes from cut = 2 + (jmax - 1) 2^15 up share their terms: there
    log1p(-(j - 1) x) = -sum_m (j - 1)^m x^m / m, so the block takes M power
    sums S_m = sum x^m for all j at once.  M is the least m with
    t^m/(m + 1) <= 2^-60, t = (jmax - 1)/(p - 2) at the least such prime of
    the block.  Each dropped tail is then below 2^-60 of its term, and all
    tails have one sign, so the truncated series is within 2^-60, relatively,
    of the primes' exact sum.  M <= 4 by the cut, and M = 2 near 1e11.
    Below the cut t can be near 1 and the series needs too many terms, so
    those primes keep one math.log1p per j, of -(j - 1)/(p - 2) rounded
    once: numpy's SIMD log1p rounds apart from it by build, and from a small
    p0 the sums pass -4, where that moved a_j by up to 10 ulps.

    The work goes _BATCH primes at a time through the four rows of buffers,
    whose exact level sums (_exact_levels) make the batch size irrelevant.
    Per j, the block's log1p levels and -(j - 1)^m/m S_m combine exactly as
    fractions, so each sum is rounded once, whatever the number of batches.
    """
    split = int(np.searchsorted(ps, 2 + (jmax - 1) * 2**15))
    levels = {j: [] for j in range(2, jmax + 1)}
    for lo in range(0, split, _BATCH):
        # the last batch is short; no name keeps a view of the block
        den, logs, scratch, _ = buffers[:, : split - lo]
        np.copyto(den, ps[lo : lo + len(den)])
        den -= 2.0
        for j, parts in levels.items():
            np.divide(1 - j, den, out=logs)
            logs[:] = list(map(math.log1p, logs.tolist()))
            _exact_levels(logs, scratch, parts)
    power_levels: list[list[float]] = []
    if split < len(ps):
        power_levels = [[] for _ in range(_series_terms(jmax - 1, int(ps[split]) - 2))]
    for lo in range(split, len(ps), _BATCH):
        x, power, r, q = buffers[:, : len(ps) - lo]
        np.copyto(x, ps[lo : lo + len(x)])
        x -= 2.0
        np.reciprocal(x, out=x)
        np.copyto(power, x)
        for m, parts in enumerate(power_levels):
            if m:
                power *= x
            np.copyto(r, power)
            _exact_levels(r, q, parts)
    powers = [sum(map(Fraction, parts)) for parts in power_levels]
    return {
        j: float(
            sum(map(Fraction, parts))
            - sum(Fraction((j - 1) ** m, m) * s for m, s in enumerate(powers, 1))
        )
        for j, parts in levels.items()
    }


def _series_terms(k: int, d: int) -> int:
    """Least m with (k/d)^m/(m + 1) <= 2^-60, in exact integers."""
    m = 1
    while k**m << 60 > (m + 1) * d**m:
        m += 1
    return m


def _exact_sum(r: np.ndarray, q: np.ndarray) -> float:
    """math.fsum(r), as the math.fsum of _exact_levels' level sums."""
    levels: list[float] = []
    _exact_levels(r, q, levels)
    return math.fsum(levels)


def _exact_levels(r: np.ndarray, q: np.ndarray, levels: list[float]) -> None:
    """Append floats whose exact sum is that of r, by error-free extraction.

    r is overwritten and q is scratch.  The entries must be finite and far
    from overflow, as a block's logs and powers of 1/(p - 2) are.  Each
    level takes sigma = 2^(M + e) with 2^M >= len(r) + 2 and max|r| < 2^e,
    and splits r into q = (r + sigma) - sigma and r - q.  Both parts are
    exact, and every q is a multiple of 2^-53 sigma no larger than
    2^-M sigma, so q.sum() is exact in any order (Rump, Ogita and Oishi,
    SIAM J. Sci. Comput. 31 (2008), Lemma 3.3).  The remainder shrinks by
    2^(53 - M) per level, so a few level sums hold r's sum exactly, and
    math.fsum over them, alone or with other arrays' levels, rounds that
    sum once.
    """
    m = (len(r) + 1).bit_length()  # 2^m >= len(r) + 2
    while True:
        top = float(np.abs(r, out=q).max(initial=0.0))
        if top == 0.0:
            return
        sigma = math.ldexp(1.0, m + math.frexp(top)[1])
        np.add(r, sigma, out=q)
        q -= sigma
        r -= q
        levels.append(float(q.sum()))


# crossover looks for a sign change on a grid over (0, 1], then bisects to a tolerance
CROSSOVER_GRID = 1024
CROSSOVER_TOL = 1e-6
# approximate_prime_for_decay computes a2 up to this stage prime, then extrapolates
DECAY_ANCHOR = 10**6


def crossover(va: PopulationVector, vb: PopulationVector) -> float | None:
    """Smallest root in (0, 1] of the difference of decay polynomials.

    The root is the second-eigenvalue-product value where the two targets
    tie.  Returns None when the difference polynomial never changes sign on
    the grid (no crossover).  Sign evaluation is exact rational; only the
    final bracket's midpoint is reported as a float.
    """
    if va.j1 != vb.j1:
        raise ValueError("crossover needs a common base length")
    top = max(va.max_length, vb.max_length)
    ca = polynomial_approx(PopulationVector.from_census(va, top))
    cb = polynomial_approx(PopulationVector.from_census(vb, top))
    diff = tuple(x - y for x, y in zip(ca, cb))
    if all(c == 0 for c in diff):
        return None

    def d(x: Fraction) -> Fraction:
        return evaluate_polynomial(diff, x)

    prev_x = Fraction(0)
    prev = d(prev_x)
    for k in range(1, CROSSOVER_GRID + 1):
        x = Fraction(k, CROSSOVER_GRID)
        cur = d(x)
        if cur == 0:
            lo = hi = x
            break
        if prev != 0 and (prev < 0) != (cur < 0):
            lo, hi = prev_x, x
            break
        prev_x, prev = x, cur
    else:
        return None
    lo_negative = prev < 0  # d keeps this sign at every lo the bisection moves to
    while float(hi - lo) > CROSSOVER_TOL:
        mid = (lo + hi) / 2
        at_mid = d(mid)
        if at_mid == 0:
            lo = hi = mid
            break
        if lo_negative != (at_mid < 0):
            hi = mid
        else:
            lo = mid
    return float((lo + hi) / 2)


def approximate_prime_for_decay(a2_target: float, p0: int) -> float:
    """Rough stage prime at which the second eigenvalue product reaches a2.

    First-order, the product decays like log(p0)/log(p), so its value at the
    stage A = DECAY_ANCHOR extrapolates:  log(p) ~ log(A) * a2(A)/a2.
    """
    if not 0 < a2_target < 1:
        raise ValueError("target must be in (0, 1)")
    a2_anchor = eigenvalue_products(p0, DECAY_ANCHOR, 2)[2]
    if a2_target >= a2_anchor:
        # the target is reached by the anchor: walk directly; if the walk's
        # rounding falls short of it, the extrapolation below still answers
        prod = 1.0
        for p in primes_in(p0 + 1, DECAY_ANCHOR):
            prod *= (p - 3) / (p - 2)
            if prod <= a2_target:
                return float(p)
    return math.exp(math.log(DECAY_ANCHOR) * a2_anchor / a2_target)
