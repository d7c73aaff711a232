"""Output checks for the benchmark workloads, independent of gapsieve.

Each ``check_*`` function takes a job's outputs and returns a list of
failure messages, empty when the output is correct.  Nothing here imports
gapsieve: the expected values are pinned constants, or are computed by the
caller from a different gapsieve function than the one under test.

Run ``python3 benchmarks/oracles.py`` to recompute the pinned ``ajk1e11``
table from first principles (an odd-only sieve written here, and
``math.log1p`` summed with ``math.fsum``).  That takes about ten seconds.
"""

from __future__ import annotations

import math

import numpy as np

# stage23: gap-30 census of the stage-23 cycle by driving-term length 1..8.
# It equals the stage-13 census iterated through the population model, which
# is exact for spans below 2 * next_prime(13).
STAGE23_GAP = 30
STAGE23_CENSUS = [2164, 95792, 1103280, 4676008, 8098706, 5687340, 1441710, 100800]
STAGE23_GAP_COUNT = 36_495_360  # phi(23#)

# attrition19: survivors are 1, the primes in [20, 19#], and 19# + 1.
ATTRITION19_GAP_COUNT = 646_022

# ajk1e11: window k covers the primes in [lo, lo + 4 * 2^22 - 1] with
# lo = 10^11 + 4k * 2^22.  Reference a_j = prod (p - j - 1)/(p - 2) over
# those primes, from log1p(-(j - 1)/(p - 2)) and fsum, so each value is
# accurate to a few units in the last place.
AJK_START = 10**11
AJK_BLOCK = 1 << 22
AJK_WINDOW_BLOCKS = 4
AJK_JMAX = 9
# The log-of-ratio form in dynsys.eigenvalue_products is 1.3e-13 to 2.1e-13
# (relative) off these values on 4-block windows near 1e11, so 1e-13 would
# fail it; 5e-13 still rejects a 1e-12 perturbation.
AJK_RTOL = 5e-13
AJK_PINNED: dict[int, tuple[int, dict[int, float]]] = {
    0: (661884, {
        2: 0.9999933817370501,
        3: 0.9999867635179015,
        4: 0.999980145342554,
        5: 0.9999735272110072,
        6: 0.9999669091232609,
        7: 0.9999602910793147,
        8: 0.9999536730791685,
        9: 0.9999470551228219,
    }),
    1: (662643, {
        2: 0.9999933752585088,
        3: 0.9999867505609048,
        4: 0.9999801259071877,
        5: 0.999973501297357,
        6: 0.9999668767314126,
        7: 0.9999602522093543,
        8: 0.9999536277311816,
        9: 0.9999470032968942,
    }),
    2: (662546, {
        2: 0.99999337733968,
        3: 0.9999867547232196,
        4: 0.9999801321506184,
        5: 0.9999735096218763,
        6: 0.9999668871369928,
        7: 0.9999602646959678,
        8: 0.9999536422988008,
        9: 0.9999470199454916,
    }),
    3: (662971, {
        2: 0.9999933742024067,
        3: 0.9999867484487146,
        4: 0.9999801227389233,
        5: 0.9999734970730325,
        6: 0.9999668714510421,
        7: 0.9999602458729515,
        8: 0.9999536203387607,
        9: 0.9999469948484692,
    }),
    4: (662489, {
        2: 0.999993380129726,
        3: 0.9999867603032747,
        4: 0.9999801405206458,
        5: 0.9999735207818388,
        6: 0.9999669010868536,
        7: 0.9999602814356898,
        8: 0.9999536618283472,
        9: 0.9999470422648254,
    }),
    5: (661956, {
        2: 0.9999933865644695,
        3: 0.9999867731726763,
        4: 0.9999801598246203,
        5: 0.9999735465203012,
        6: 0.9999669332597189,
        7: 0.9999603200428726,
        8: 0.9999537068697625,
        9: 0.9999470937403881,
    }),
    6: (662725, {
        2: 0.9999933799910992,
        3: 0.9999867600260228,
        4: 0.9999801401047707,
        5: 0.9999735202273423,
        6: 0.9999669003937376,
        7: 0.9999602806039561,
        8: 0.9999536608579978,
        9: 0.999947041155862,
    }),
    7: (661941, {
        2: 0.999993388930143,
        3: 0.9999867779039922,
        4: 0.9999801669215472,
        5: 0.999973555982808,
        6: 0.999966945087774,
        7: 0.9999603342364449,
        8: 0.9999537234288207,
        9: 0.9999471126649009,
    }),
}


def ajk_window(seed: int) -> tuple[int, int, int]:
    """(window index, first integer, last integer) of the seed's window."""
    k = seed % len(AJK_PINNED)
    lo = AJK_START + k * AJK_WINDOW_BLOCKS * AJK_BLOCK
    return k, lo, lo + AJK_WINDOW_BLOCKS * AJK_BLOCK - 1


def check_stage23(
    census: list[int],
    expected: list[int],
    gap_count: int,
    verify_ok: bool,
    files_identical: bool,
) -> list[str]:
    errors = []
    if expected != STAGE23_CENSUS:
        errors.append(f"iterated stage-13 census {expected} != pinned {STAGE23_CENSUS}")
    if census != expected:
        errors.append(f"stage-23 census {census} != model {expected}")
    if gap_count != STAGE23_GAP_COUNT:
        errors.append(f"{gap_count} gaps, expected {STAGE23_GAP_COUNT}")
    if not verify_ok:
        errors.append("verify_cycle reported a failed check")
    if not files_identical:
        errors.append("streamed and in-memory cache files differ")
    return errors


def check_ajk(window: int, prime_count: int, products: dict[int, float]) -> list[str]:
    count, pinned = AJK_PINNED[window]
    errors = []
    if prime_count != count:
        errors.append(f"window {window}: {prime_count} primes, expected {count}")
    if sorted(products) != sorted(pinned):
        errors.append(f"window {window}: products for j={sorted(products)}")
        return errors
    for j, want in pinned.items():
        got = products[j]
        if not abs(got - want) <= AJK_RTOL * abs(want):
            errors.append(f"window {window}: a_{j} = {got!r}, expected {want!r}")
    return errors


def check_attrition(final_values: np.ndarray, expected_values: np.ndarray) -> list[str]:
    errors = []
    if len(final_values) - 1 != ATTRITION19_GAP_COUNT:
        errors.append(f"{len(final_values) - 1} gaps, expected {ATTRITION19_GAP_COUNT}")
    if not np.array_equal(final_values, expected_values):
        errors.append("surviving values are not 1, the primes in [20, 19#], 19# + 1")
    return errors


def check_reproduce(target: str, exit_code: int, output: str) -> list[str]:
    errors = []
    if exit_code != 0:
        errors.append(f"reproduce {target}: exit code {exit_code}")
    lines = output.splitlines()
    bad = [ln for ln in lines if "PASS" not in ln or "FAIL" in ln]
    if not lines or bad:
        errors.append(f"reproduce {target}: {bad[:3] if bad else 'no output'}")
    return errors


def _odd_primes_in(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi] for odd lo > sqrt(hi), by an odd-only segmented sieve."""
    root = math.isqrt(hi)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for i in range(2, math.isqrt(root) + 1):
        if small[i]:
            small[i * i :: i] = False
    odd = np.ones((hi - lo) // 2 + 1, dtype=bool)  # odd[i] stands for lo + 2i
    for p in np.flatnonzero(small)[1:].tolist():
        first = -(-lo // p) * p
        if first % 2 == 0:
            first += p
        odd[(first - lo) // 2 :: p] = False
    return lo + 2 * np.flatnonzero(odd)


def reference_window(k: int) -> tuple[int, dict[int, float]]:
    lo = AJK_START + k * AJK_WINDOW_BLOCKS * AJK_BLOCK
    primes = _odd_primes_in(lo + 1, lo + AJK_WINDOW_BLOCKS * AJK_BLOCK - 1).tolist()
    products = {
        j: math.exp(math.fsum(math.log1p(-(j - 1) / (p - 2)) for p in primes))
        for j in range(2, AJK_JMAX + 1)
    }
    return len(primes), products


if __name__ == "__main__":
    print("AJK_PINNED: dict[int, tuple[int, dict[int, float]]] = {")
    for k in range(8):
        count, products = reference_window(k)
        print(f"    {k}: ({count}, {{")
        for j, v in products.items():
            print(f"        {j}: {v!r},")
        print("    }),")
    print("}")
