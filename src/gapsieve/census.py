"""Exact enumeration of gaps, constellations, and their driving terms.

One kernel, ``window_counts``, counts windows of consecutive gaps over a
stream of slices, walked or table-driven by width.  Gaps are positive, so at
most one window of a start sums to the target, and a k-gap window that hits
all k boundaries is the target itself.  It reads each slice once for a
list of targets.  ``census_all`` feeds it a cycle's ``cyclic_slices`` once
``GapCycle.least`` has checked the cycle, so windows wrap (more than once
when the target sum exceeds the modulus); each target's counts by length are
a PopulationVector, the state the model in dynsys steps, and a gap is a
length-1 constellation.  Among the primes, ``survival.actual_gap_counts``
feeds it ``primal.prime_gap_slices``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .cycle import GapCycle, cyclic_slices
from .primal import phi_i

# most steps, in gaps, that window_counts walks; more use the position table
WALK_STEPS = 64

# (n, part) pairs: n window starts, then the gaps their windows may read
Slices = Iterable[tuple[int, np.ndarray]]


@dataclass(frozen=True)
class Constellation:
    """A sequence of consecutive gaps; the length-1 case is a single gap."""

    gaps: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.gaps:
            raise ValueError("empty constellation")
        for g in self.gaps:
            if g <= 0 or g % 2 != 0:
                raise ValueError(f"gap must be a positive even integer: {g}")

    @classmethod
    def parse(cls, text: str) -> "Constellation":
        """Comma-separated gaps, each field read by parse_gap."""
        try:
            gaps = tuple(parse_gap(t) for t in text.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed constellation {text!r}") from exc
        return cls(gaps)

    @property
    def length(self) -> int:
        return len(self.gaps)

    @property
    def span(self) -> int:
        return sum(self.gaps)

    def reversed_(self) -> "Constellation":
        return Constellation(self.gaps[::-1])

    def __str__(self) -> str:
        return ",".join(str(g) for g in self.gaps)


def parse_gap(text: str) -> int:
    """A gap written in ASCII digits only.

    int() would also read signs, underscores, blanks and other scripts'
    digits, so "0_6" and "+6" would pass as 6.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"malformed gap {text!r}: ASCII digits only")
    return int(text)


def as_constellation(target: Constellation | int) -> Constellation:
    return target if isinstance(target, Constellation) else Constellation((int(target),))


@dataclass(frozen=True)
class PopulationVector:
    """Raw counts of driving terms by length j1..J, with their reference count.

    entries[j - j1] is the number of windows of j consecutive gaps that
    collapse to the target, so entries[0] is the target's own population.
    ref is phi_{j1+1} of the modulus the counts belong to: the population of
    the gap 2 when j1 = 1.  A stage at prime p multiplies it by p - j1 - 1,
    so entries / ref are the ratios the population model is stated in.
    """

    j1: int
    entries: tuple[int, ...]
    ref: int

    def __post_init__(self) -> None:
        if self.j1 < 1 or self.ref < 1 or not self.entries:
            raise ValueError("need j1 >= 1, ref >= 1 and at least one entry")
        if any(e < 0 for e in self.entries):
            raise ValueError("negative population")

    @property
    def max_length(self) -> int:
        return self.j1 + len(self.entries) - 1

    @property
    def population(self) -> int:
        return self.entries[0]

    @property
    def total(self) -> int:
        return sum(self.entries)

    @property
    def ratios(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(e, self.ref) for e in self.entries)

    def vector(self, top: int | None = None) -> list[int]:
        """Counts for lengths j1..top (default max_length), cut or zero-padded."""
        n = len(self.entries) if top is None else max(top - self.j1 + 1, 0)
        return list(self.entries[:n]) + [0] * (n - len(self.entries))

    @classmethod
    def from_census(cls, census: "PopulationVector", top: int | None = None) -> "PopulationVector":
        """The census itself, or a copy cut or padded to lengths j1..top."""
        return census if top is None else cls(census.j1, tuple(census.vector(top)), census.ref)


def window_counts(
    slices: Slices, targets: Sequence[Constellation], steps: Sequence[int]
) -> list[np.ndarray]:
    """Each target's counts by length (index 0 unused) of the windows that hit all its boundaries.

    A target's boundaries are its prefix sums, and its windows hold at most
    its ``steps`` gaps.  Each slice holds n starts and, after them, at least
    max(steps) gaps, and is read once for all targets.  A target of up to
    WALK_STEPS steps is walked, at one pass per step until the slice's least
    sum passes its span; more steps use a position table, at a fixed dozen
    passes per slice.  Stage 23, seconds walked / tabled: gap 30 0.16 /
    0.60, gap 180 (90 steps) 0.61 / 0.64, gap 240 0.73 / 0.59, so the walk
    wins to about 90 steps.  A slice with fewer starts than a target's steps
    is tabled for it either way: a span-48 census over 7-start slices of a
    cycle whose least gap is 1 took 5.3 s walked and 0.20 s tabled.  The
    tabled targets share each slice's table.

    The walked targets share each step's running sums: step j adds each
    start's j-th gap to its sum, in u16 unless that could wrap.  Sums rise
    strictly, so a start counts at length j for a target when its sum is the
    target's last boundary and it has hit each interior one, once.  A target
    drops out once the least sum passes its span or j its steps, and the
    walk of a slice ends when every target has.  Its buffers last from slice
    to slice.
    """
    counts = [np.zeros(s + 1, dtype=np.int64) for s in steps]
    if not targets:
        return counts
    # a target's job is (last boundary, steps, interior boundaries, counts, row): a
    # target with interior boundaries counts their hits in its own row of ``hits``
    rows = list(accumulate((t.length > 1 for t in targets), initial=0))
    jobs = [(t.span, s, list(accumulate(t.gaps))[:-1], c, row)
            for t, s, c, row in zip(targets, steps, counts, rows)]
    hit_type = np.min_scalar_type(max(t.length for t in targets) - 1)
    sums32 = eq_buf = all_buf = np.empty(0)
    cut = None
    for n, part in slices:
        if min(n, WALK_STEPS) != cut:  # the split, made anew when a slice's length moves it
            cut = min(n, WALK_STEPS)
            walked = [job for job in jobs if job[1] <= cut]
            tabled = [job for job in jobs if job[1] > cut]
            if walked:
                most = max(job[1] for job in walked)
                widest = max(job[0] for job in walked)
                first = (walked, min(job[0] for job in walked), min(job[1] for job in walked))
        if tabled:
            _table_counts(n, part, tabled)
        if not walked:
            continue
        if n > len(sums32):
            sums32 = np.empty(n, np.uint32)
            hits = np.empty((rows[-1], n), hit_type)
            eq_buf, all_buf = np.empty((2, n), bool)
        narrow = max((most + 1) * int(part.max()), widest) <= 0xFFFF
        sums = sums32.view(np.uint16)[:n] if narrow else sums32[:n]
        eq, all_hit = eq_buf[:n], all_buf[:n]
        sums[...] = 0
        hits[:, :n] = 0
        live, span, stop = first  # the least span and steps of the live targets
        for j in range(1, most + 1):
            np.add(sums, part[j - 1 : j - 1 + n], out=sums, casting="unsafe")
            low = int(sums.min())
            if low > span or j > stop:
                live = [job for job in live if job[0] >= low and job[1] >= j]
                if not live:
                    break
                span, stop = min(job[0] for job in live), min(job[1] for job in live)
            for last, _, inner, c, row in live:
                np.equal(sums, last, out=eq)
                if inner:
                    h = hits[row, :n]
                    for b in inner:
                        if b >= low:
                            np.add(h, np.equal(sums, b, out=all_hit), out=h)
                    eq &= np.equal(h, len(inner), out=all_hit)
                c[j] += np.count_nonzero(eq)
    return counts


def _table_counts(n: int, part: np.ndarray, jobs: list[tuple]) -> None:
    """Look each start's boundaries up in the slice's position table, for every target.

    Gaps are positive, so a slice's prefix sums are distinct, and a table
    ``pos`` over their range maps each to its index and all else to -1.
    Each boundary is then one gather per start: the interior ones AND into
    a hit mask, and the last gives the window's end index.  The table runs
    the widest span past the slice's last value, so no lookup passes its
    end; a window the slice ends inside is longer than the counts reach,
    and is cut with the others.
    """
    values = np.empty(len(part) + 1, dtype=np.int64)
    values[0] = 0
    values[1:] = part
    np.cumsum(values, out=values)
    index = np.arange(len(values), dtype=np.int32)
    pos = np.full(int(values[-1]) + max(job[0] for job in jobs) + 1, -1, dtype=np.int32)
    pos[values] = index
    start = values[:n]
    for last, _, inner, c, _ in jobs:
        # pos[b:][start] is pos[start + b]
        end = pos[last:][start]
        hit = end >= 0
        for b in inner:
            hit &= pos[b:][start] >= 0
        # a window holds at least one gap, so length 0 marks a miss
        c += np.bincount((end - index[:n]) * hit, minlength=len(c))[: len(c)]


def census_all(cycle: GapCycle, targets: Sequence[Constellation | int]) -> list[PopulationVector]:
    """Driving-term censuses of gaps and constellations, as the model's states, in one pass.

    A window of j gaps is a driving term of s when its prefix sums pass
    through g1, g1+g2, ..., |s| without overshooting any boundary; interior
    closures then collapse it to s, and the j1-gap ones are s itself.  A gap
    g is the constellation (g,).  Each target's entries run from j1 to its
    longest driving term, or are (0,) when it has none.  Windows wrap, read
    through ``cyclic_slices`` once for every target, and hold at most
    |s| // ``cycle.least`` gaps.
    """
    ts = [as_constellation(t) for t in targets]
    steps = [t.span // cycle.least for t in ts]
    slices = cyclic_slices(cycle.gaps, cycle.gap_count, max(steps, default=0))
    return [
        PopulationVector(t.length, tuple(np.trim_zeros(c[t.length :], "b").tolist()) or (0,),
                         phi_i(t.length + 1, cycle.factors))
        for t, c in zip(ts, window_counts(slices, ts, steps))
    ]


def census_for(cycle: GapCycle, target: Constellation | int) -> PopulationVector:
    """The one target's ``census_all``."""
    return census_all(cycle, [target])[0]
