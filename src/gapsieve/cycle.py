"""Cycles of gaps among the generators of Z mod N, for squarefree N.

N is held as the ascending tuple of its distinct primes.  A cycle is the
circular sequence of differences between consecutive integers coprime to N,
starting from 1; the first gap reaches the next generator and the last one
wraps from N-1 to N+1.  Cycles for larger moduli are built by a one-pass
merge over q concatenated copies of the smaller cycle: any candidate
divisible by the new prime q is dropped and its two neighboring gaps
coalesce.  The candidate ending gap i of copy k is kN + v_i, a multiple of q
in exactly one copy, which the walk reads off the running value mod q.  It
reads a cycle longer than half a slice once, slice by slice: one stable
sort groups the slice's gap ends by the copy that drops them, and each
copy's piece drops its gaps and adds each run of dropped gaps into the next
kept one, in u16; a shorter cycle is walked in blocks of whole copies.
Copy k's pieces follow one another from its offset, Legendre's count of the
kept gaps before it, in either a preallocated array or a cache file, so the
walk holds O(CHUNK_GAPS) memory at every stage.  The sliced walk merges only
copies 0..q//2, past the centre of the cycle: x -> qN - x makes every cycle
a palindrome before its last gap, so each merged piece is written again,
reversed, at its mirror image, where that lies beyond the merged copies.

Every pass over a cycle (the merge walk, ``GapCycle.least``'s check, the
census and verification) reads it through ``cyclic_slices``, so a
memory-mapped cycle costs O(CHUNK_GAPS) extra memory.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import struct
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import IO, Iterable, Iterator

import numpy as np

from .primal import (
    PRIME_FACTOR_CAP,
    CapacityError,
    factorize,
    is_prime,
    next_prime,
    phi_i,
    prev_prime,
    primes_upto,
)

GAP_LIMIT = 0xFFFF  # gaps are stored as u16
CHUNK_GAPS = 1 << 16  # positions per slice of a pass over a cycle; its int64 temporaries stay in cache

CACHE_MAGIC = b"GAPC"
CACHE_VERSION = 1


class CacheFormatError(ValueError):
    """A cycle cache file is malformed."""


@dataclass(frozen=True, eq=False)
class GapCycle:
    """The cycle of gaps for a squarefree modulus, as a u16 array plus its primes."""

    factors: tuple[int, ...]
    gaps: np.ndarray = field(repr=False)

    @property
    def modulus(self) -> int:
        return math.prod(self.factors)

    @property
    def gap_count(self) -> int:
        return len(self.gaps)

    @property
    def is_primorial(self) -> bool:
        return list(self.factors) == primes_upto(self.prime)

    @property
    def prime(self) -> int:
        """Largest prime factor (the sieve stage for primorial cycles)."""
        return max(self.factors)

    @functools.cached_property
    def least(self) -> int:
        """The least gap, from one pass that refuses a zero gap or a total other than N.

        Every kernel over the cycle relies on both: window sums rise strictly,
        and prefix sums end at N + 1, which sets their width.  Each kernel
        reads this first, so a cycle is checked once, however it was made;
        ``verify_cycle`` reports both instead.
        """
        total, least = 0, GAP_LIMIT
        for _, part in cyclic_slices(self.gaps, self.gap_count):
            total += int(part.sum(dtype=np.int64))
            least = min(least, int(part.min()))
        if not least:
            raise ValueError("the cycle holds a zero gap")
        if total != self.modulus:
            raise ValueError(f"the cycle's gaps sum to {total}, not its modulus {self.modulus}")
        return least

    def values(self, dtype=np.int64) -> np.ndarray:
        """Candidate values 1, g1+1, ..., N+1 (prefix sums, one array of ``dtype``)."""
        v = np.empty(len(self.gaps) + 1, dtype=dtype)
        v[0] = 1
        v[1:] = self.gaps
        return np.cumsum(v, dtype=dtype, out=v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GapCycle):
            return NotImplemented
        return self.factors == other.factors and np.array_equal(self.gaps, other.gaps)


def _as_cycle(factors: tuple[int, ...], gaps: np.ndarray) -> GapCycle:
    mx = int(gaps.max()) if len(gaps) else 0
    if mx > GAP_LIMIT:
        raise CapacityError(f"gap {mx} exceeds u16 storage")
    return GapCycle(factors, np.ascontiguousarray(gaps, dtype=np.uint16))


# modulus 1: the single gap from 1 to 2, which every cycle is merged out of
_UNIT_CYCLE = GapCycle((), np.ones(1, dtype=np.uint16))


def cyclic_slices(
    gaps: np.ndarray, length: int, extra: int = 0
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, part) for each CHUNK_GAPS slice of the positions [0, length).

    ``part`` holds the n gaps at those positions and the ``extra`` gaps after
    them, read cyclically (length and extra may exceed the cycle).  It is a
    view where the slice does not wrap and an O(slice) copy where it does.
    """
    gaps = np.asarray(gaps)  # a memmap's slices would wrap every ufunc result
    m = len(gaps)
    for lo in range(0, length, CHUNK_GAPS):
        n = min(CHUNK_GAPS, length - lo)
        start = lo % m
        if start + n + extra <= m:
            yield n, gaps[start : start + n + extra]
        else:
            yield n, np.take(gaps, np.arange(start, start + n + extra), mode="wrap")


def _copy_offsets(factors: tuple[int, ...], q: int) -> list[int]:
    """Where each of the q copies starts in the extended cycle, then its length.

    The kept gaps before copy k end at the integers in [2, kN + 1] coprime to
    qN, so copy k starts at Phi(kN + 1) - 1, where Legendre's
    Phi(x) = sum over d | qN of mu(d) floor(x/d) counts those in [1, x].
    """
    divisors = [(1, 1)]  # (d, mu(d)) for the squarefree d dividing qN
    for p in factors + (q,):
        divisors += [(d * p, -mu) for d, mu in divisors]
    n = math.prod(factors)
    return [
        sum(mu * ((k * n + 1) // d) for d, mu in divisors) - 1 for k in range(q + 1)
    ]


def _end_run(gaps: np.ndarray, x: int, q: int) -> int:
    """Sum of the run of dropped gaps that ends at the value x (0 if q does not divide x).

    Gap i ends at x - gaps[i+1] - ... - gaps[-1]; the run ends within m gaps,
    since m + 1 consecutive candidates span N, which q does not divide.
    """
    run, i = 0, len(gaps)
    while x % q == 0:
        i -= 1
        run += int(gaps[i])
        x -= int(gaps[i])
    return run


def _absorb_drops(part: np.ndarray, drop: np.ndarray, out: np.ndarray, carry: int) -> int:
    """Add each run of the dropped gaps into the kept gap after it; return what runs off the end.

    ``out`` holds the gaps of ``part`` not at the ascending positions
    ``drop``, and ``carry`` the run that ran off the end of the previous
    piece, which adds into out[0].  The j-th dropped gap, at position d,
    adds into out[d - j], which is constant along a run of consecutive
    drops, so one reduceat sums each run.
    """
    at = drop - np.arange(len(drop))  # the output gap each dropped gap adds into
    new_run = at[1:] != at[:-1]
    if new_run.all():  # no two drops in a row
        sums = part[drop].astype(np.int64)
    else:
        starts = np.concatenate(([True], new_run)).nonzero()[0]
        sums = np.add.reduceat(part[drop], starts, dtype=np.int64)
        at = at[starts]
    if carry:
        if len(at) and at[0] == 0:
            sums[0] += carry
        else:
            at, sums = np.insert(at, 0, 0), np.insert(sums, 0, carry)
    carry = 0
    if len(at) and at[-1] == len(out):  # the last run reaches the end of the piece
        carry = int(sums[-1])
        at, sums = at[:-1], sums[:-1]
    if len(at):
        merged = out[at] + sums
        mx = int(merged.max())
        if mx > GAP_LIMIT:
            raise CapacityError(f"gap {mx} exceeds u16 storage")
        out[at] = merged
    return carry


def _merged_chunks(cycle: GapCycle, q: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (offset, u16 gaps) pieces that together fill the cycle for qN.

    The candidate ending gap i of copy k is kN + v_i, so it is dropped in
    the one copy k = -v_i/N mod q, read off the running value mod q.  A
    cycle longer than half a slice is read slice by slice, each slice once
    for the first q//2 + 1 copies, whose pieces also fill the rest of the
    cycle as their reflection (``_sliced_chunks``).  A shorter one is walked
    a block of whole copies at a time, in order, with one carry across
    blocks; the end value qN+1 is 1 mod q, so nothing carries past the last
    copy.
    """
    gaps = cycle.gaps
    m = len(gaps)
    n_inv = pow(cycle.modulus % q, -1, q)
    # copy_for[v mod q]: the copy in which the candidate ending at v is dropped;
    # q <= PRIME_FACTOR_CAP < 256, so a copy index fits in a byte
    copy_for = np.array([-r * n_inv % q for r in range(q)], dtype=np.uint8)
    if 2 * m > CHUNK_GAPS:
        yield from _sliced_chunks(cycle, q, copy_for)
        return
    copy_of = copy_for[(1 + np.cumsum(gaps, dtype=np.int64)) % q]
    per = min(CHUNK_GAPS // m, q)  # whole copies per block
    # copy k0 + t drops where copy_of - t equals k0; per <= q, so that fits in an int8
    tile_gaps = np.concatenate([gaps] * per)
    tile_copy = (copy_of.astype(np.int8) - np.arange(per, dtype=np.int8)[:, None]).ravel()
    filled = 0
    carry = 0
    for k0 in range(0, q, per):
        size = min(per, q - k0) * m
        part = tile_gaps[:size]
        dropped = tile_copy[:size] == k0
        drop = dropped.nonzero()[0]
        if len(drop) or carry:
            out = part[~dropped]
            carry = _absorb_drops(part, drop, out, carry)
        else:
            out = part
        yield filled, out
        filled += len(out)
    if carry:
        raise AssertionError(f"dropped gaps summing to {carry} ran past the last copy")


def _sliced_chunks(
    cycle: GapCycle, q: int, copy_for: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """The walk that reads each slice once and yields its piece of every copy.

    One stable sort of the slice's copy indices lists each copy's drops in
    order.  Copy k starts at its Legendre offset (``_copy_offsets``) with
    the run of drops that ends copy k - 1 (``_end_run``), and keeps its own
    place and carry from slice to slice.  Each walked copy must end at the
    next one's offset with the run that starts the next copy.

    Only copies 0..h-1, h = q // 2 + 1, are walked: they reach past the
    centre of the cycle, which lies in copy q // 2 (for q = 2 they are every
    copy).  The rest is their reflection.  x -> qN - x maps the generators
    of qN onto themselves, so of the M result gaps, gap i equals gap
    M - 2 - i, and the last, from qN - 1 to qN + 1, is the input's last gap
    (neither end is dropped, and N > 1 for a cycle longer than half a
    slice).  So the gaps of each walked piece below M - 1 - offsets[h], the
    positions whose mirror image is not walked, are yielded again, reversed,
    at that image.
    """
    gaps, n = cycle.gaps, cycle.modulus
    h = q // 2 + 1  # the copies walked
    offsets = _copy_offsets(cycle.factors, q)
    mirror = offsets[q] - 1  # position i mirrors to mirror - 1 - i
    below = mirror - offsets[h]  # the positions whose mirror image is not walked
    runs = [_end_run(gaps, k * n + 1, q) for k in range(h + 1)]
    place, carry = offsets[:h], runs[:h]
    copies = np.arange(h + 1, dtype=np.uint8)
    value = 1  # the value at the start of the pending slice
    for size, part in cyclic_slices(gaps, len(gaps)):
        end = value + np.cumsum(part, dtype=np.int64)
        value = int(end[-1])
        copy_of = copy_for[end % q]
        del end  # before the sort's two index arrays
        order = np.argsort(copy_of, kind="stable")
        bounds = np.searchsorted(copy_of[order], copies).tolist()
        kept = np.ones(size, dtype=bool)
        for k in range(h):
            drop = order[bounds[k] : bounds[k + 1]]
            if len(drop) or carry[k]:
                kept[drop] = False
                out = part[kept]
                kept[drop] = True
                carry[k] = _absorb_drops(part, drop, out, carry[k])
            else:
                out = part
            yield place[k], out
            if place[k] < below:
                low = out[: below - place[k]]
                yield mirror - place[k] - len(low), low[::-1]
            place[k] += len(out)
        del order, drop  # so the next slice's sort does not hold two
    if place != offsets[1 : h + 1] or carry != runs[1:]:
        raise AssertionError(
            f"copies ended at {place} carrying {carry}, expected {offsets[1 : h + 1]} and {runs[1:]}"
        )
    if h < q:
        yield mirror, gaps[-1:]


def extend_cycle(cycle: GapCycle, q: int) -> GapCycle:
    """Cycle for q*N from the cycle for N, for a prime q not dividing N.

    One merge pass removes the multiples of q, performing exactly phi(N) merges.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q in cycle.factors:
        raise ValueError(f"repeated factor {q}")
    factors = tuple(sorted(cycle.factors + (q,)))
    out = np.empty((q - 1) * cycle.gap_count, np.uint16)
    for offset, chunk in _merged_chunks(cycle, q):
        out[offset : offset + len(chunk)] = chunk
    return GapCycle(factors, out)


def stage_gap_count(p: int) -> int:
    """phi(p#), the gap count of the stage-p cycle, for a stage that can be built."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > PRIME_FACTOR_CAP:
        raise CapacityError(f"stage {p} exceeds the construction cap {PRIME_FACTOR_CAP}")
    return phi_i(1, tuple(primes_upto(p)))


def primorial_cycles(p: int) -> Iterator[GapCycle]:
    """The cycles of the stages 2, 3, 5, ..., p, each merged from the one before.

    A stage that cannot be built is refused before the first is yielded.
    """
    stage_gap_count(p)
    return _merge_chain(primes_upto(p))


def build_primorial_cycle(p: int) -> GapCycle:
    """The cycle of gaps at sieve stage p, built one stage prime at a time."""
    stage_gap_count(p)  # refuses a stage that cannot be built
    return cycle_for_factors(primes_upto(p))


def cycle_for_factors(factors: Iterable[int]) -> GapCycle:
    """Cycle for an arbitrary squarefree modulus, one prime at a time."""
    fs = sorted(factors)
    if not fs:
        raise ValueError("need at least one prime factor")
    return deque(_merge_chain(fs), maxlen=1).pop()


def _merge_chain(factors: list[int]) -> Iterator[GapCycle]:
    """The cycles for the products of the first 1, 2, ... factors, each merged from the one before."""
    return islice(accumulate(factors, extend_cycle, initial=_UNIT_CYCLE), 1, None)


def build_primorial_cycle_streaming(p: int, out_path: str) -> GapCycle:
    """Build stage p straight into the cache file ``out_path``.

    Stage prev_prime(p) is built in memory and its merge walk by p goes to
    the cache writer, each piece written at its offset, so neither the
    stage-p cycle nor any table the length of stage prev_prime(p) is held
    in RAM.  The file is byte-identical to write_cache of
    build_primorial_cycle(p); the result is read back memory-mapped, so a
    path that exists but is no regular file is refused before the build.
    """
    if os.path.exists(out_path) and not os.path.isfile(out_path):
        raise ValueError(f"{out_path} is not a regular file: a cache is read back once written")
    count = stage_gap_count(p)
    prev = _UNIT_CYCLE if p == 2 else build_primorial_cycle(prev_prime(p))
    factors = prev.factors + (p,)
    _write_gapc(out_path, factors, count, _merged_chunks(prev, p))
    return read_cache(out_path, mmap=True)


def oracle_cycle(n: int) -> GapCycle:
    """Independent construction by direct scan of [1, N+1] for coprimality.

    Used to cross-check the recursive builder, so it factors N itself; N must
    be squarefree and is capped at 1e8.
    """
    if n > 10**8:
        raise CapacityError(f"oracle scan of {n} exceeds the 1e8 cap")
    fs = tuple(q for q, _ in factorize(n))
    if math.prod(fs) != n:
        raise ValueError(f"{n} is not squarefree")
    coprime = np.ones(n + 2, dtype=bool)
    coprime[0] = False
    for q in fs:
        coprime[q::q] = False
    vals = np.flatnonzero(coprime)  # 1 .. N+1, both endpoints coprime
    return _as_cycle(fs, np.diff(vals))


def render_compact(cycle: GapCycle) -> str:
    """Digit-string form: single-digit gaps concatenate, larger ones get commas."""
    parts: list[str] = []
    prev_wide = False
    for g in cycle.gaps.tolist():
        wide = g >= 10
        if parts and (wide or prev_wide):
            parts.append(",")
        parts.append(str(g))
        prev_wide = wide
    return "".join(parts)


@dataclass
class CycleReport:
    """Outcome of verify_cycle, one entry per structural check."""

    checks: dict[str, bool]
    details: dict[str, str]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def lines(self) -> list[str]:
        out = []
        for name, passed in self.checks.items():
            msg = self.details.get(name, "")
            out.append(f"{name}: {'ok' if passed else 'FAIL'}{' (' + msg + ')' if msg else ''}")
        return out


def expected_central_run(p: int) -> list[int]:
    """The palindromic power-of-two run at the middle of a primorial cycle.

    With P the next prime after p and j minimal with 2^(j+1) > P, the middle
    of the cycle reads 2^j, ..., 8, 4, 2, 4, 2, 4, 8, ..., 2^j.
    """
    nxt = next_prime(p)
    j = 2
    while 2 ** (j + 1) <= nxt:
        j += 1
    return [2**i for i in range(j, 2, -1)] + [4, 2, 4, 2, 4] + [2**i for i in range(3, j + 1)]


def verify_cycle(cycle: GapCycle, oracle: bool = False) -> CycleReport:
    """Structural validation: totient count, sum, symmetry, middle run.

    The primorial-only checks use the two generators nearest N/2 to anchor
    the central run; they are exercised for stages 5 and up.  A cycle built
    by the sliced merge walk is a palindrome by construction, since that walk
    writes its second half as the reflection of its first; the independent
    checks of such a cycle are ``oracle`` (N up to 1e8) and the census
    against the population model.
    """
    checks: dict[str, bool] = {}
    details: dict[str, str] = {}
    gaps = cycle.gaps
    n = cycle.modulus
    m = cycle.gap_count
    phi = phi_i(1, cycle.factors)
    p = cycle.prime
    primorial = cycle.is_primorial and p >= 3
    twice_prev = 2 * prev_prime(p) if primorial and p >= 5 else 0

    total = ored = wide = 0
    low = 0xFFFF

    def tally(part: np.ndarray, times: int) -> None:
        nonlocal total, ored, wide, low
        total += times * int(part.sum(dtype=np.int64))
        ored |= int(np.bitwise_or.reduce(part))
        low = int(part.min(initial=low))
        if twice_prev:
            wide += times * int(np.count_nonzero(part == twice_prev))

    # one pass, slice by slice, so a mapped cycle is read without a cycle-long
    # temporary: each slice of the first half of the gaps before the last with
    # its mirror image (a matching pair tallies twice), then the middle gap, if
    # any, and the last one
    body = gaps[:-1]
    half = len(body) // 2
    palindrome = True
    for (_, head), (_, tail) in zip(cyclic_slices(body, half), cyclic_slices(body[::-1], half)):
        if np.array_equal(head, tail):
            tally(head, 2)
        else:
            palindrome = False
            tally(head, 1)
            tally(tail, 1)
    tally(gaps[half : len(body) - half], 1)
    tally(gaps[-1:], 1)

    checks["count"] = m == phi
    if not checks["count"]:
        details["count"] = f"{m} gaps, totient {phi}"
    checks["sum"] = total == n
    if not checks["sum"]:
        details["sum"] = f"gaps sum to {total}, modulus {n}"
    if n > 2:
        checks["last_gap"] = int(gaps[-1]) == 2
    if n % 2 == 0:
        # an odd gap sets bit 0 of the OR over all gaps
        checks["even_gaps"] = not ored & 1
    checks["positive_gaps"] = low > 0
    checks["palindrome"] = palindrome

    if primorial:
        checks["first_gap"] = int(gaps[0]) + 1 == next_prime(p)
        if p >= 5:
            checks["two_widest_pairs"] = wide >= 2
            if not checks["two_widest_pairs"]:
                details["two_widest_pairs"] = f"{wide} gaps of {twice_prev}"
            run = expected_central_run(p)
            # the central gap straddles N/2; by symmetry it is gap m/2
            c = m // 2
            lo = (c - 1) - (len(run) - 1) // 2
            got = gaps[lo : lo + len(run)].tolist()
            checks["central_run"] = got == run
            if not checks["central_run"]:
                details["central_run"] = f"got {got}, expected {run}"

    if oracle:
        checks["oracle"] = cycle == oracle_cycle(cycle.modulus)
    return CycleReport(checks, details)


def _cache_header(factors: tuple[int, ...], gap_count: int) -> bytes:
    if len(factors) > 0xFF:
        raise CacheFormatError(f"{len(factors)} factors exceed the u8 header field")
    head = bytearray()
    head += CACHE_MAGIC
    head += struct.pack("<BB", CACHE_VERSION, len(factors))
    for q in factors:
        head += struct.pack("<Q", q)
    head += struct.pack("<Q", gap_count)
    return bytes(head)


@contextlib.contextmanager
def atomic_open(path: str, mode: str) -> Iterator[IO]:
    """Open a temporary file beside ``path``, moved into place when the block ends.

    An exception in the block removes it, so ``path`` keeps what it held before.
    A symlink's target is replaced, not the link; a replaced file's mode is kept.
    """
    if os.path.exists(path) and not os.path.isfile(path):  # a device or FIFO: no rename over it
        with open(path, mode) as fh:
            yield fh
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, os.stat(path).st_mode & 0o7777)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_gapc(
    path: str, factors: tuple[int, ...], gap_count: int, chunks: Iterable[tuple[int, np.ndarray]]
) -> None:
    """Write a cache file from (offset, u16 gaps) chunks, atomically (``atomic_open``).

    Each chunk goes to its offset in the payload; the merge walk checks that
    its chunks tile the payload.
    """
    head = _cache_header(factors, gap_count)
    with atomic_open(path, "wb") as fh:
        fh.write(head)
        for offset, chunk in chunks:
            fh.seek(len(head) + 2 * offset)
            fh.write(np.ascontiguousarray(chunk, dtype="<u2"))


def write_cache(path: str, cycle: GapCycle) -> None:
    """Write the binary cache: GAPC, version, factors, count, u16 gaps."""
    _write_gapc(path, cycle.factors, cycle.gap_count, [(0, cycle.gaps)])


def read_cache(path: str, mmap: bool = False) -> GapCycle:
    """Read and validate a cycle cache file (bit-exact round trip)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CACHE_MAGIC:
            raise CacheFormatError(f"bad magic {magic!r}")
        vb = fh.read(2)
        if len(vb) != 2:
            raise CacheFormatError("truncated header")
        version, nfac = struct.unpack("<BB", vb)
        if version != CACHE_VERSION:
            raise CacheFormatError(f"unsupported version {version}")
        raw = fh.read(8 * nfac + 8)
        if len(raw) != 8 * nfac + 8:
            raise CacheFormatError("truncated header")
        factors = struct.unpack(f"<{nfac}Q", raw[: 8 * nfac])
        if not factors:
            raise CacheFormatError("header lists no prime factors")
        if list(factors) != sorted(set(factors)):
            raise CacheFormatError(f"factors not strictly ascending: {factors}")
        (gap_count,) = struct.unpack("<Q", raw[8 * nfac :])
        offset = fh.tell()
        payload = os.fstat(fh.fileno()).st_size - offset
        if payload != 2 * gap_count:
            raise CacheFormatError(f"payload holds {payload} bytes, header says {gap_count} gaps")
        if mmap:
            gaps = np.memmap(path, dtype="<u2", mode="r", offset=offset, shape=(gap_count,))
        else:
            gaps = np.frombuffer(fh.read(), dtype="<u2")
    # '<u2' is uint16 on little-endian hosts, so a mapped payload stays mapped
    cyc = GapCycle(tuple(int(f) for f in factors), gaps.astype(np.uint16, copy=False))
    if phi_i(1, cyc.factors) != gap_count:
        raise CacheFormatError("gap count inconsistent with factor list")
    return cyc
