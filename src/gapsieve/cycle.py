"""Cycles of gaps among the generators of Z mod N, for squarefree N.

N is held as the ascending tuple of its distinct primes.  A cycle is the
circular sequence of differences between consecutive integers coprime to N,
starting from 1; the first gap reaches the next generator and the last one
wraps from N-1 to N+1.  Cycles for larger moduli are built by a one-pass
merge over q concatenated copies of the smaller cycle: any candidate
divisible by the new prime q is dropped and its two neighboring gaps
coalesce.  The candidate ending gap i of copy k is kN + v_i, a multiple of q
in exactly one copy, so one pass fills a one-byte table of that copy per
gap; the walk then drops, copy by copy, the gaps the table marks and adds
each run of dropped gaps into the next kept one, in u16.  Its output goes
chunk by chunk to either a preallocated array or a cache file.

Every pass over a cycle (the merge walk, the census kernel, population
counts and verification) reads it through ``cyclic_slices``, so a
memory-mapped cycle costs O(CHUNK_GAPS) extra memory.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass, field
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

    @property
    def total(self) -> int:
        """The sum of the gaps, accumulated in int64 (numpy reduces in buffered blocks)."""
        return int(self.gaps.sum(dtype=np.int64))

    def require_total(self) -> None:
        """Refuse gaps that do not sum to the modulus, before any narrow prefix sum wraps."""
        total = self.total
        if total != self.modulus:
            raise ValueError(f"the cycle's gaps sum to {total}, not its modulus {self.modulus}")

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
    m = len(gaps)
    for lo in range(0, length, CHUNK_GAPS):
        n = min(CHUNK_GAPS, length - lo)
        start = lo % m
        if start + n + extra <= m:
            yield n, gaps[start : start + n + extra]
        else:
            yield n, np.take(gaps, np.arange(start, start + n + extra), mode="wrap")


def _copy_table(gaps: np.ndarray, q: int) -> np.ndarray:
    """copy_of[i]: the copy k < q of the cycle in which q divides the end of gap i.

    Gap i ends at v = 1 + gaps[0] + ... + gaps[i], and kN + v is a multiple of
    q exactly when k = -v/N mod q.  One slice-by-slice pass fills the table;
    q <= PRIME_FACTOR_CAP < 256, so a copy index fits in a byte.
    """
    n_inv = pow(int(gaps.sum(dtype=np.int64)) % q, -1, q)
    copy_for = np.array([-r * n_inv % q for r in range(q)], dtype=np.uint8)
    copy_of = np.empty(len(gaps), dtype=np.uint8)
    value = 1  # the value at the start of the pending slice
    for lo, (n, part) in zip(range(0, len(gaps), CHUNK_GAPS), cyclic_slices(gaps, len(gaps))):
        ends = value + np.cumsum(part, dtype=np.int64)
        copy_of[lo : lo + n] = copy_for[ends % q]
        value = int(ends[-1])
    return copy_of


def _merged_chunks(gaps: np.ndarray, q: int) -> Iterator[np.ndarray]:
    """Yield the gaps of the extended cycle in u16 chunks.

    Walks q copies of ``gaps``; copy k drops the gaps i with copy_of[i] = k
    (``_copy_table``), and each dropped gap adds into the next kept one.  In
    a block, the j-th dropped gap, at position d, adds into output gap d - j,
    which is constant along a run of consecutive drops, so one reduceat sums
    each run.  A run that reaches the end of a block carries into the next
    block, across copy ends too; the end value qN+1 is 1 mod q, so nothing
    carries past the last copy.  A cycle shorter than a slice is walked a
    block of whole copies at a time.
    """
    m = len(gaps)
    copy_of = _copy_table(gaps, q)
    per = min(CHUNK_GAPS // m, q)  # whole copies per block
    if per > 1:
        # copy k0 + t drops where copy_of - t equals k0; per <= q, so that fits in an int8
        tile_gaps = np.concatenate([gaps] * per)
        tile_copy = (copy_of.astype(np.int8) - np.arange(per, dtype=np.int8)[:, None]).ravel()
        blocks = (
            (k0, tile_gaps[: min(per, q - k0) * m], tile_copy[: min(per, q - k0) * m])
            for k0 in range(0, q, per)
        )
    else:
        blocks = (
            (k, part, copy_of[lo : lo + n])
            for k in range(q)
            for lo, (n, part) in zip(range(0, m, CHUNK_GAPS), cyclic_slices(gaps, m))
        )
    carry = 0  # the dropped gaps that ran to the end of the last block
    for k, part, table in blocks:
        dropped = table == k
        drop = dropped.nonzero()[0]
        if not len(drop) and not carry:
            yield part
            continue
        out = part[~dropped]
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
        if len(at) and at[-1] == len(out):  # the last run reaches the block end
            carry = int(sums[-1])
            at, sums = at[:-1], sums[:-1]
        if len(at):
            merged = out[at] + sums
            mx = int(merged.max())
            if mx > GAP_LIMIT:
                raise CapacityError(f"gap {mx} exceeds u16 storage")
            out[at] = merged
        yield out
    if carry:
        raise AssertionError(f"dropped gaps summing to {carry} ran past the last copy")


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
    filled = 0
    for chunk in _merged_chunks(cycle.gaps, q):
        out[filled : filled + len(chunk)] = chunk
        filled += len(chunk)
    if filled != len(out):
        raise AssertionError(f"merged {filled} gaps, expected {len(out)}")
    return GapCycle(factors, out)


def stage_gap_count(p: int) -> int:
    """phi(p#), the gap count of the stage-p cycle, for a stage that can be built."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > PRIME_FACTOR_CAP:
        raise CapacityError(f"stage {p} exceeds the construction cap {PRIME_FACTOR_CAP}")
    return phi_i(1, tuple(primes_upto(p)))


def build_primorial_cycle(p: int) -> GapCycle:
    """The cycle of gaps at sieve stage p, built one stage prime at a time."""
    stage_gap_count(p)  # refuses a stage that cannot be built
    return cycle_for_factors(primes_upto(p))


def cycle_for_factors(factors: Iterable[int]) -> GapCycle:
    """Cycle for an arbitrary squarefree modulus, one prime at a time."""
    fs = sorted(factors)
    if not fs:
        raise ValueError("need at least one prime factor")
    cycle = _UNIT_CYCLE
    for q in fs:
        cycle = extend_cycle(cycle, q)
    return cycle


def build_primorial_cycle_streaming(p: int, out_path: str) -> GapCycle:
    """Build stage p straight into the cache file ``out_path``.

    Stage prev_prime(p) is built in memory and its merge walk by p goes to
    the cache writer, so the stage-p cycle is never held in RAM.  The file
    is byte-identical to write_cache of build_primorial_cycle(p); the result
    is read back memory-mapped.
    """
    count = stage_gap_count(p)
    prev = _UNIT_CYCLE if p == 2 else build_primorial_cycle(prev_prime(p))
    factors = prev.factors + (p,)
    _write_gapc(out_path, factors, count, _merged_chunks(prev.gaps, p))
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
    the central run; they are exercised for stages 5 and up.
    """
    checks: dict[str, bool] = {}
    details: dict[str, str] = {}
    n = cycle.modulus
    m = cycle.gap_count
    phi = phi_i(1, cycle.factors)

    checks["count"] = m == phi
    if not checks["count"]:
        details["count"] = f"{m} gaps, totient {phi}"
    total = cycle.total
    checks["sum"] = total == n
    if not checks["sum"]:
        details["sum"] = f"gaps sum to {total}, modulus {n}"
    if n > 2:
        checks["last_gap"] = int(cycle.gaps[-1]) == 2
    if n % 2 == 0:
        # an odd gap sets bit 0 of the OR over all gaps
        checks["even_gaps"] = not int(np.bitwise_or.reduce(cycle.gaps)) & 1
    checks["positive_gaps"] = int(cycle.gaps.min(initial=1)) > 0
    # slice by slice, so a mapped cycle is compared without a cycle-long temporary
    body = cycle.gaps[:-1]
    half = len(body) // 2
    checks["palindrome"] = all(
        np.array_equal(head, tail)
        for (_, head), (_, tail) in zip(cyclic_slices(body, half), cyclic_slices(body[::-1], half))
    )

    if cycle.is_primorial and cycle.prime >= 3:
        p = cycle.prime
        checks["first_gap"] = int(cycle.gaps[0]) + 1 == next_prime(p)
        if p >= 5:
            twice_prev = 2 * prev_prime(p)
            cnt = sum(
                int(np.count_nonzero(part == twice_prev))
                for _, part in cyclic_slices(cycle.gaps, m)
            )
            checks["two_widest_pairs"] = cnt >= 2
            if not checks["two_widest_pairs"]:
                details["two_widest_pairs"] = f"{cnt} gaps of {twice_prev}"
            run = expected_central_run(p)
            # the central gap straddles N/2; by symmetry it is gap m/2
            c = m // 2
            lo = (c - 1) - (len(run) - 1) // 2
            got = cycle.gaps[lo : lo + len(run)].tolist()
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
    path: str, factors: tuple[int, ...], gap_count: int, chunks: Iterable[np.ndarray]
) -> None:
    """Write a cache file from u16 gap chunks, atomically (``atomic_open``)."""
    head = _cache_header(factors, gap_count)
    with atomic_open(path, "wb") as fh:
        fh.write(head)
        written = 0
        for chunk in chunks:
            fh.write(np.ascontiguousarray(chunk, dtype="<u2"))
            written += len(chunk)
        if written != gap_count:
            raise AssertionError(f"wrote {written} gaps, expected {gap_count}")


def write_cache(path: str, cycle: GapCycle) -> None:
    """Write the binary cache: GAPC, version, factors, count, u16 gaps."""
    _write_gapc(path, cycle.factors, cycle.gap_count, [cycle.gaps])


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
