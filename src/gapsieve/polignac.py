"""Closed-form asymptotics for gap and repetition populations.

Every even gap eventually appears in the sieve, and its population relative
to the gap 2 converges to a product over the odd primes dividing it; the
same machinery gives the count of seed driving terms at the stage of the
gap's largest prime factor, partial products at intermediate stages, and the
asymptotic weights of repeated-gap constellations (consecutive candidates in
arithmetic progression).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .primal import (
    PRIME_FACTOR_CAP,
    CapacityError,
    next_prime,
    phi_i,
    primes_upto,
    radical_of_even,
)


def hl_ratio(g: int) -> Fraction:
    """Asymptotic ratio of the gap g to the gap 2: prod (q-1)/(q-2) over odd q | g."""
    return partial_ratio(g, g)


def partial_ratio(g: int, p: int) -> Fraction:
    """The ratio attained by stage p: only odd factors of g up to p contribute."""
    r = Fraction(1)
    for q in radical_of_even(g)[1:]:
        if q <= p:
            r *= Fraction(q - 1, q - 2)
    return r


def seeded_total(g: int) -> int:
    """Total driving terms for g at the stage of its largest prime factor.

    With Q the radical of g and qbar its largest prime, the count is
    phi(Q) times prod (p - 2) over primes p < qbar not dividing Q.
    """
    rad = radical_of_even(g)
    qbar = rad[-1]
    if qbar > PRIME_FACTOR_CAP:
        raise CapacityError(
            f"largest factor {qbar} of {g} exceeds the stage cap {PRIME_FACTOR_CAP}"
        )
    total = phi_i(1, rad)
    for p in primes_upto(qbar - 1):
        if p not in rad:
            total *= p - 2
    return total


@dataclass(frozen=True)
class RepetitionSpec:
    """Feasibility and asymptotic weight of the constellation g,g,...,g."""

    g: int
    j1: int
    feasible: bool
    w_infinity: Fraction | None
    radical: tuple[int, ...]


def repetition_weight(g: int, j1: int) -> RepetitionSpec:
    """Weight of a length-j1 repetition of g among constellations of that length.

    Feasible iff j1 < P - 1, where P is the next prime after the largest p
    whose primorial divides g; the weight is then phi_1(Q)/phi_(j1+1)(Q) for
    Q the radical of g.  A feasible repetition of length j1 corresponds to
    j1+1 consecutive candidates in arithmetic progression.
    """
    rad = radical_of_even(g)
    if j1 < 1:
        raise ValueError(f"repetition length must be >= 1, got {j1}")
    largest = 2
    acc = 2
    p = 2
    while True:
        p = next_prime(p)
        acc *= p
        if g % acc != 0:
            break
        largest = p
    feasible = j1 < next_prime(largest) - 1
    w = Fraction(phi_i(1, rad), phi_i(j1 + 1, rad)) if feasible else None
    return RepetitionSpec(g, j1, feasible, w, rad)


def repetition_feasible_by_divisibility(g: int, j1: int) -> bool:
    """Equivalent feasibility test: every prime up to j1+1 must divide g."""
    return all(g % p == 0 for p in primes_upto(j1 + 1))
