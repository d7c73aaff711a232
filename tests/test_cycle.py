import random
import struct

import numpy as np
import pytest

import gapsieve.cycle as cycle_mod
from gapsieve.cycle import (
    CacheFormatError,
    GapCycle,
    build_primorial_cycle,
    build_primorial_cycle_streaming,
    cycle_for_factors,
    expected_central_run,
    extend_cycle,
    oracle_cycle,
    read_cache,
    render_compact,
    verify_cycle,
    write_cache,
)
from gapsieve.primal import CapacityError, primes_upto
from gapsieve.refvalues import (
    CYCLE_3_COMPACT,
    CYCLE_5_COMPACT,
    CYCLE_7_COMPACT,
    CYCLE_7_GAPS,
)


def test_first_stages():
    assert build_primorial_cycle(2).gaps.tolist() == [2]
    assert build_primorial_cycle(3).gaps.tolist() == [4, 2]
    assert build_primorial_cycle(5).gaps.tolist() == [6, 4, 2, 4, 2, 4, 6, 2]
    assert build_primorial_cycle(7).gaps.tolist() == CYCLE_7_GAPS


def test_compact_rendering():
    assert render_compact(build_primorial_cycle(3)) == CYCLE_3_COMPACT
    assert render_compact(build_primorial_cycle(5)) == CYCLE_5_COMPACT
    assert render_compact(build_primorial_cycle(7)) == CYCLE_7_COMPACT


def test_extend_by_new_prime(g5):
    g3 = build_primorial_cycle(3)
    assert extend_cycle(g3, 5) == g5


def test_extend_by_dividing_prime_rejected():
    with pytest.raises(ValueError, match="repeated factor 2"):
        extend_cycle(build_primorial_cycle(3), 2)


def test_extend_nonprime_rejected(g5):
    with pytest.raises(ValueError):
        extend_cycle(g5, 9)


def test_extension_of_oracle_cycle_matches_oracle():
    c10 = oracle_cycle(10)
    assert c10.gaps.tolist() == [2, 4, 2, 2]
    assert extend_cycle(c10, 3) == oracle_cycle(30)


def test_oracle_cycle_factoring():
    # a primorial, and a factor above sqrt(N)
    assert oracle_cycle(210) == build_primorial_cycle(7)
    assert oracle_cycle(194) == cycle_for_factors([2, 97])


def test_oracle_cycle_rejects_non_squarefree():
    with pytest.raises(ValueError, match="not squarefree"):
        oracle_cycle(12)


def test_primorial_cycle_rejects_nonprime_and_large(tmp_path):
    out = tmp_path / "g.gapc"
    for build in (build_primorial_cycle,
                  lambda p: build_primorial_cycle_streaming(p, str(out))):
        with pytest.raises(ValueError):
            build(9)
        with pytest.raises(CapacityError):
            build(103)
    assert list(tmp_path.iterdir()) == []


def test_oracle_equivalence_primorials(g13):
    for p in (2, 3, 5, 7, 11, 13):
        built = build_primorial_cycle(p)
        assert built == oracle_cycle(built.modulus)
    assert g13 == oracle_cycle(30030)


def test_oracle_equivalence_squarefree_products_of_small_primes():
    # every squarefree modulus formed from primes up to 13
    small = [2, 3, 5, 7, 11, 13]
    for mask in range(1, 1 << len(small)):
        factors = [p for i, p in enumerate(small) if mask >> i & 1]
        assert cycle_for_factors(factors) == oracle_cycle(int(np.prod(factors)))


def test_oracle_equivalence_random_squarefree():
    rng = random.Random(20260810)
    pool = primes_upto(97)
    seen = 0
    while seen < 50:
        k = rng.randint(2, 4)
        factors = sorted(rng.sample(pool, k))
        value = int(np.prod(factors))
        if value > 10**6:
            continue
        assert cycle_for_factors(factors) == oracle_cycle(value)
        seen += 1


def test_generator_correspondence(g7, g13):
    # prefix sums enumerate exactly the integers in (1, N+1] coprime to N
    for cyc in (g7, g13):
        n = cyc.modulus
        expected = [v for v in range(1, n + 2) if np.gcd(v, n) == 1]
        assert cyc.values().tolist() == expected


def test_merge_walk_refuses_a_gap_beyond_u16_storage(tmp_path, monkeypatch):
    # extending g3 = [4, 2] by 5 drops the candidate 5, merging 1 -> 7 into a gap of 6
    monkeypatch.setattr(cycle_mod, "GAP_LIMIT", 4)
    with pytest.raises(CapacityError, match="gap 6 exceeds u16 storage"):
        extend_cycle(build_primorial_cycle(3), 5)
    with pytest.raises(CapacityError, match="gap 6 exceeds u16 storage"):
        build_primorial_cycle_streaming(5, str(tmp_path / "g5.gapc"))
    assert list(tmp_path.iterdir()) == []


def test_closure_count_under_extension(g5):
    # extending by q coprime to N merges exactly phi(N) candidates
    g7 = extend_cycle(g5, 7)
    assert g7.gap_count == 7 * g5.gap_count - g5.gap_count


def test_verify_cycle_passes(g5, g7, g11, g13):
    for cyc in (g5, g7, g11, g13):
        report = verify_cycle(cyc)
        assert report.ok, report.lines()


def test_verify_cycle_central_runs(g5, g7, g11, g13):
    assert expected_central_run(5) == [4, 2, 4, 2, 4]
    assert expected_central_run(7) == [8, 4, 2, 4, 2, 4, 8]
    assert expected_central_run(11) == [8, 4, 2, 4, 2, 4, 8]
    assert expected_central_run(13) == [16, 8, 4, 2, 4, 2, 4, 8, 16]


def test_verify_cycle_detects_perturbation(g5):
    bad = GapCycle(g5.factors, np.array([6, 4, 2, 4, 2, 4, 8, 2], dtype=np.uint16))
    report = verify_cycle(bad)
    assert not report.checks["sum"]
    assert not report.ok


def test_verify_cycle_palindrome_checked_in_chunks(g13, monkeypatch):
    monkeypatch.setattr(cycle_mod, "CHUNK_GAPS", 3)
    assert verify_cycle(g13).ok
    # swap two unequal adjacent gaps past the first chunk: the sum still holds
    gaps = g13.gaps.copy()
    i = next(i for i in range(3, len(gaps) // 2) if gaps[i] != gaps[i + 1])
    gaps[i], gaps[i + 1] = gaps[i + 1], gaps[i]
    report = verify_cycle(GapCycle(g13.factors, gaps))
    assert report.checks["sum"]
    assert not report.checks["palindrome"]
    assert "palindrome: FAIL" in report.lines()


def test_least_checks_the_gaps(g13):
    assert g13.least == 2
    assert cycle_for_factors((3, 5, 7)).least == 1
    with pytest.raises(ValueError, match="^the cycle holds a zero gap$"):
        GapCycle((2, 3, 5), np.array([6, 4, 2, 0, 6, 4, 6, 2], np.uint16)).least
    with pytest.raises(ValueError, match="^the cycle's gaps sum to 104, not its modulus 210$"):
        GapCycle((2, 3, 5, 7), np.array([10] + [2] * 47, np.uint16)).least


def test_cache_round_trip(tmp_path, g13):
    path = tmp_path / "g13.gapc"
    write_cache(str(path), g13)
    back = read_cache(str(path))
    assert back == g13
    assert back.gap_count == 5760
    assert not back.gaps.flags.writeable


def test_cache_mmap_read_stays_mapped(tmp_path, g13):
    path = tmp_path / "g13.gapc"
    write_cache(str(path), g13)
    mapped = read_cache(str(path), mmap=True)
    assert isinstance(mapped.gaps, np.memmap)
    assert not mapped.gaps.flags.owndata
    assert mapped == read_cache(str(path))


def test_cache_layout(tmp_path):
    g3 = build_primorial_cycle(3)
    path = tmp_path / "g3.gapc"
    write_cache(str(path), g3)
    raw = path.read_bytes()
    # magic + version/count + two u64 factors + u64 gap count + two u16 gaps
    assert len(raw) == 4 + 1 + 1 + 2 * 8 + 8 + 2 * 2
    assert raw[:4] == b"GAPC"
    assert raw[4] == 1
    assert raw[5] == 2


def test_cache_bad_magic(tmp_path, g5):
    path = tmp_path / "bad.gapc"
    write_cache(str(path), g5)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"GAPX"
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError):
        read_cache(str(path))


def test_cache_trailing_bytes(tmp_path, g5):
    path = tmp_path / "trail.gapc"
    write_cache(str(path), g5)
    with open(path, "ab") as fh:
        fh.write(b"\x00\x00")
    with pytest.raises(CacheFormatError):
        read_cache(str(path))


def test_cache_truncated(tmp_path, g5):
    path = tmp_path / "trunc.gapc"
    write_cache(str(path), g5)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(CacheFormatError):
        read_cache(str(path))


def test_cache_rejects_repeated_factor(tmp_path):
    # the modulus 12 as factors (2, 2, 3): a consistent totient, 4 gaps
    path = tmp_path / "g12.gapc"
    path.write_bytes(
        b"GAPC" + struct.pack("<BB3QQ", 1, 3, 2, 2, 3, 4) + struct.pack("<4H", 4, 2, 4, 2)
    )
    with pytest.raises(CacheFormatError, match="strictly ascending"):
        read_cache(str(path))


@pytest.mark.parametrize("claim", [None, 2**62], ids=["truncated", "huge-count"])
def test_cache_payload_length_checked_before_reading(tmp_path, g5, claim):
    path = tmp_path / "bad.gapc"
    write_cache(str(path), g5)
    raw = bytearray(path.read_bytes())
    if claim is None:
        del raw[-3:]
    else:  # the gap-count field follows magic, version, factor count and factors
        struct.pack_into("<Q", raw, 6 + 8 * len(g5.factors), claim)
    path.write_bytes(bytes(raw))
    messages = set()
    for mmap in (False, True):
        with pytest.raises(CacheFormatError) as exc:
            read_cache(str(path), mmap=mmap)
        messages.add(str(exc.value))
    assert len(messages) == 1


def test_streaming_build_matches_in_memory(tmp_path, g13, monkeypatch):
    monkeypatch.setattr(cycle_mod, "CHUNK_GAPS", 1000)
    path = tmp_path / "g13s.gapc"
    build_primorial_cycle_streaming(13, str(path))
    streamed = read_cache(str(path))
    assert streamed == g13
    # byte-identical to the in-memory writer
    mem_path = tmp_path / "g13m.gapc"
    write_cache(str(mem_path), g13)
    assert path.read_bytes() == mem_path.read_bytes()


def test_chunked_and_unchunked_extends_agree(g5, monkeypatch):
    whole = extend_cycle(g5, 7)
    monkeypatch.setattr(cycle_mod, "CHUNK_GAPS", 3)
    assert extend_cycle(g5, 7) == whole


def test_interrupted_cache_writes_leave_target_intact(tmp_path, g5, g7):
    path = tmp_path / "g.gapc"
    write_cache(str(path), g5)
    before = path.read_bytes()
    real_walk = cycle_mod._merged_chunks

    def failing_walk(gaps, q, *rest):
        # the earlier stages build normally; the walk by 7 stops after one chunk
        chunks = real_walk(gaps, q, *rest)
        if q == 7:
            yield next(chunks)
            raise KeyboardInterrupt
        yield from chunks

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycle_mod, "_merged_chunks", failing_walk)
        with pytest.raises(KeyboardInterrupt):
            build_primorial_cycle_streaming(7, str(path))
        fresh = tmp_path / "fresh.gapc"
        with pytest.raises(KeyboardInterrupt):
            build_primorial_cycle_streaming(7, str(fresh))
    assert path.read_bytes() == before
    assert not fresh.exists()
    # a header that cannot be written must not truncate the existing file
    too_many = GapCycle(tuple(range(256)), g7.gaps)
    with pytest.raises(CacheFormatError):
        write_cache(str(path), too_many)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.gapc"]


def test_merge_walk_memory_does_not_grow_with_the_cycle(traced_peak):
    # 17 -> 19 reads 92,160 gaps, 19 -> 23 reads 1,658,880: both walks hold
    # a few slices' worth, whatever the length of the cycle they read
    g17 = build_primorial_cycle(17)
    g19 = extend_cycle(g17, 19)

    def consume(cyc, q):
        return sum(len(chunk) for _, chunk in cycle_mod._merged_chunks(cyc, q))

    small, small_mb = traced_peak(lambda: consume(g17, 19))
    large, large_mb = traced_peak(lambda: consume(g19, 23))
    assert (small, large) == (18 * g17.gap_count, 22 * g19.gap_count)
    assert large_mb <= small_mb + 0.5, (small_mb, large_mb)


def test_streamed_stage_19_is_byte_identical(tmp_path):
    # 17 -> 19 reads 92,160 gaps in two slices, so both builds take the sliced walk;
    # the in-memory one is checked against the coprime scan, the file against it
    built = build_primorial_cycle(19)
    assert built == oracle_cycle(built.modulus)
    streamed, written = tmp_path / "g19s.gapc", tmp_path / "g19m.gapc"
    build_primorial_cycle_streaming(19, str(streamed))
    write_cache(str(written), built)
    assert streamed.read_bytes() == written.read_bytes()


def test_streamed_stage_13_in_small_slices_is_byte_identical(tmp_path, g13, monkeypatch):
    # at 256 gaps a slice, 11 -> 13 (480 gaps) takes the sliced walk too
    monkeypatch.setattr(cycle_mod, "CHUNK_GAPS", 256)
    streamed, written = tmp_path / "g13s.gapc", tmp_path / "g13m.gapc"
    build_primorial_cycle_streaming(13, str(streamed))
    write_cache(str(written), g13)
    assert streamed.read_bytes() == written.read_bytes()


def test_copy_offsets_count_the_kept_gaps():
    # copy k starts after the gaps kept by copies 0..k-1: one per gap end
    # kN + v that q does not divide, counted here from a per-gap copy table
    rng = random.Random(24)
    pool = primes_upto(47)
    for _ in range(40):
        factors = tuple(sorted(rng.sample(pool, rng.randint(1, 4))))
        n = int(np.prod(factors))
        if n > 10**4:
            continue
        for q in [2] + rng.sample(pool, 3):
            if n % q == 0:
                continue
            ends = oracle_cycle(n).values().tolist()[1:]
            copy_of = [next(k for k in range(q) if (k * n + v) % q == 0) for v in ends]
            offsets = [0]
            for k in range(q):
                offsets.append(offsets[-1] + len(ends) - copy_of.count(k))
            assert cycle_mod._copy_offsets(factors, q) == offsets, (factors, q)


def test_verify_cycle_tallies_both_halves_of_a_broken_pair(g13, monkeypatch):
    # a zero, an odd gap and the second of the two 22s changed in the second
    # half, past the first slice pair: every tally must still see them
    monkeypatch.setattr(cycle_mod, "CHUNK_GAPS", 5)
    gaps = g13.gaps.copy()
    gaps[-20] = 0
    gaps[-30] = 3
    (wide,) = np.flatnonzero(gaps[len(gaps) // 2 :] == 22)
    gaps[len(gaps) // 2 + wide] = 2
    report = verify_cycle(GapCycle(g13.factors, gaps))
    assert not report.checks["palindrome"]
    assert not report.checks["positive_gaps"]
    assert not report.checks["even_gaps"]
    total = int(gaps.sum(dtype=np.int64))
    assert report.details["sum"] == f"gaps sum to {total}, modulus 30030"
    assert report.details["two_widest_pairs"] == "1 gaps of 22"
