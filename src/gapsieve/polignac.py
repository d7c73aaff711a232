"""Closed-form asymptotics: one Hardy–Littlewood product for every weight.

Let a constellation have points 0 = t_0 < ... < t_k and let nu(q) be the
number of distinct t_i mod q.  A window of the stage-p cycle is a driving
term exactly when its k + 1 boundary values are coprime to p#, so by the
Chinese remainder theorem the census total is crt_total = prod_{q <= p}
(q - nu(q)).  Divided by the count of the generic (k+1)-tuple, the product
converges once p passes every prime factor of an interval sum t_j - t_i:
singular_ratio is the ratio of the constellation's singular series to the
generic one (Hardy and Littlewood, "Some problems of 'Partitio numerorum'
III", Acta Math. 44 (1923)).  A gap g is the points (0, g), and a
repetition of g, consecutive candidates in arithmetic progression, is
range(0, (n + 1) * g, g); a weight of 0 means the pattern is infeasible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .primal import factorize, is_prime, next_prime


def _classes(points: Sequence[int], q: int) -> int:
    """nu(q): the residues mod q among the points, counted until all q appear.

    A range is an arithmetic progression, whose first q terms show all its residues.
    """
    seen: set[int] = set()
    for t in points[:q] if isinstance(points, range) else points:
        seen.add(t % q)
        if len(seen) == q:
            break
    return len(seen)


def crt_total(points: Sequence[int], p: int) -> int:
    """prod (q - nu(q)) over primes q <= p: the driving terms in the stage-p cycle."""
    total, q = 1, 2
    while total and q <= p:
        total *= q - _classes(points, q)
        q = next_prime(q)
    return total


def singular_ratio(points: Sequence[int], upto: int | None = None) -> Fraction:
    """The asymptotic weight of the points, or the ratio attained by stage ``upto``.

    The primes up to k + 1 contribute q - nu(q), and 0 ends the product.  A
    larger q changes the ratio only if it divides an interval sum, where it
    contributes (q - nu(q)) / (q - k - 1).
    """
    k1 = len(points)
    num = crt_total(points, k1 if upto is None else min(k1, upto))
    den = 1
    if num:
        sums = {b - a for i, a in enumerate(points) for b in points[i + 1:]}
        for q in {q for d in sums for q, _ in factorize(d)}:
            if k1 < q and (upto is None or q <= upto):
                num *= q - _classes(points, q)
                den *= q - k1
    return Fraction(num, den)


def repetition_feasible_by_divisibility(g: int, j1: int) -> bool:
    """Equivalent feasibility test: every prime up to j1+1 must divide g."""
    return all(g % p == 0 for p in range(2, j1 + 2) if is_prime(p))
