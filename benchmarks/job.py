"""One job of one benchmark workload, in a fresh process.

    python3 benchmarks/job.py WORKLOAD SEED MODE WORKDIR

MODE is ``plain`` (set up, run the timed job, check it), ``traced`` (the
same, with spans around every call into gapsieve plus the probes) or
``setup`` (set up only).  The last line of standard output is one JSON
object with the timings, the check failures and, when traced, the spans.

A fresh process per job makes ``peak_rss_mb`` the high-water mark of that
job alone.  Checks run after the timed section and after the peak is read.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # setup_s counts from here: imports, then inputs

import contextlib  # noqa: E402
import filecmp  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from math import isqrt  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gapsieve  # noqa: E402
from gapsieve import census, cli, cycle, dynsys, primal, refvalues, survival  # noqa: E402

import oracles  # noqa: E402

REPRODUCE_TARGETS = ("table2", "table5", "fig5", "g7-attrition")
REPRODUCE_ROUNDS = 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans (name, start, end, parent) kept in memory; inert when off.

    ``span`` yields a dict for the caller to fill with counts after the
    call returns, so counting stays outside the span.
    """

    def __init__(self, on: bool) -> None:
        self.on = on
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False, **attrs):
        items: dict = {}
        if not self.on:
            yield items
            return
        parent = self._open[-1] if self._open else None
        rec = {
            "name": name,
            "parent": parent,
            "phase": name if parent is None else self.spans[parent]["phase"],
            "probe": probe,
            "attrs": attrs,
            "items": items,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rss0 = peak_rss_mb()
        rec["start"] = time.perf_counter() - T0
        try:
            yield items
        finally:
            rec["end"] = time.perf_counter() - T0
            rec["rss_rise_mb"] = peak_rss_mb() - rss0
            self._open.pop()


# Each workload is (setup, job, check).  setup returns the inputs; job makes
# the calls being timed and returns their outputs; check returns failures.


def setup_stage23(seed: int, work: Path, tr: Tracer) -> dict:
    with tr.span("cycle.build_primorial_cycle"):
        c13 = cycle.build_primorial_cycle(13)
    with tr.span("census.census_for"):
        seed_census = census.census_for(c13, oracles.STAGE23_GAP)
    with tr.span("dynsys.iterate"):
        model = dynsys.iterate(dynsys.PopulationVector.from_census(seed_census), 13, 23)
    return {
        "expected": [int(e) for e in model.entries],
        "mem": work / "mem.gapc",
        "stream": work / "stream.gapc",
    }


def job_stage23(st: dict, tr: Tracer) -> dict:
    # streamed build first, so its own peak shows before the in-memory one
    with tr.span("cycle.build_primorial_cycle_streaming"):
        streamed = cycle.build_primorial_cycle_streaming(23, str(st["stream"]))
    del streamed
    with tr.span("cycle.build_primorial_cycle"):
        built = cycle.build_primorial_cycle(23)
    with tr.span("cycle.write_cache"):
        cycle.write_cache(str(st["mem"]), built)
    del built
    with tr.span("cycle.read_cache") as it:
        mapped = cycle.read_cache(str(st["mem"]), mmap=True)
    gaps = mapped.gaps
    it["owned_mb"] = gaps.nbytes / 2**20 if gaps.flags.owndata else 0.0
    with tr.span("cycle.verify_cycle"):
        report = cycle.verify_cycle(mapped)
    with tr.span("census.census_for") as it:
        result = census.census_for(mapped, oracles.STAGE23_GAP)
    it["positions"] = mapped.gap_count
    it["hits"] = result.total
    return {"census": result.vector(), "gap_count": mapped.gap_count, "verify_ok": report.ok}


def check_stage23(st: dict, out: dict) -> list[str]:
    same = filecmp.cmp(st["mem"], st["stream"], shallow=False)
    return oracles.check_stage23(
        out["census"], st["expected"], out["gap_count"], out["verify_ok"], same
    )


def _sieve_window(lo: int, hi: int) -> int:
    """Primes in [lo, hi] counted block by block with primal.sieve_segment."""
    base = np.array(primal.primes_upto(isqrt(hi)), dtype=np.int64)
    return sum(
        len(primal.sieve_segment(a, a + oracles.AJK_BLOCK - 1, base))
        for a in range(lo, hi, oracles.AJK_BLOCK)
    )


def setup_ajk(seed: int, work: Path, tr: Tracer) -> dict:
    k, lo, hi = oracles.ajk_window(seed)
    return {"window": k, "lo": lo, "hi": hi}


def job_ajk(st: dict, tr: Tracer) -> dict:
    lo, hi = st["lo"], st["hi"]
    with tr.span("dynsys.eigenvalue_products") as it:
        products = dynsys.eigenvalue_products(lo - 1, hi, oracles.AJK_JMAX)
    it["blocks"] = oracles.AJK_WINDOW_BLOCKS
    # blocks that `reproduce table3 --long` sieves: stage primes in (13, PK]
    it["table3_blocks"] = -(-(refvalues.EIGENVALUE_PRODUCTS_PK - 13) // oracles.AJK_BLOCK)
    out = {"products": products}
    if tr.on:
        # eigenvalue_products sieves internally; this probe times the same sieve
        with tr.span("primal.sieve_segment", probe=True) as it:
            out["prime_count"] = _sieve_window(lo, hi)
        it["primes"] = out["prime_count"]
        it["ints"] = hi - lo + 1
    return out


def check_ajk(st: dict, out: dict) -> list[str]:
    count = out.get("prime_count")
    if count is None:
        count = _sieve_window(st["lo"], st["hi"])
    return oracles.check_ajk(st["window"], count, out["products"])


def setup_attrition(seed: int, work: Path, tr: Tracer) -> dict:
    with tr.span("cycle.build_primorial_cycle"):
        return {"cycle": cycle.build_primorial_cycle(19)}


def job_attrition(st: dict, tr: Tracer) -> dict:
    c19 = st["cycle"]
    with tr.span("survival.attrition") as it:
        trace = survival.attrition(c19)
    closures = [s.closures for s in trace.steps]
    alive = c19.gap_count + 1
    scanned = 0
    for c in closures:
        scanned += alive
        alive -= c
    it.update(passes=len(closures), closures=sum(closures), scanned=scanned)
    return {"final_values": trace.final_values}


def check_attrition(st: dict, out: dict) -> list[str]:
    n = st["cycle"].modulus
    expected = np.array([1] + primal.primes_in(20, n) + [n + 1], dtype=np.int64)
    return oracles.check_attrition(out["final_values"], expected)


def setup_reproduce(seed: int, work: Path, tr: Tracer) -> dict:
    rng = random.Random(seed)
    orders = []
    for _ in range(REPRODUCE_ROUNDS):
        order = list(REPRODUCE_TARGETS)
        rng.shuffle(order)
        orders.append(order)
    return {"orders": orders}


def job_reproduce(st: dict, tr: Tracer) -> dict:
    runs = []
    for order in st["orders"]:
        for target in order:
            buf = io.StringIO()
            with tr.span("cli.main", target=target), contextlib.redirect_stdout(buf):
                code = cli.main(["reproduce", target])
            runs.append((target, code, buf.getvalue()))
    if tr.on:
        # main builds its parser internally; this probe times the same set-up
        # once per call, after the loop so it does not disturb the calls
        for target, _, _ in runs:
            with tr.span("cli.build_parser", probe=True):
                cli.build_parser().parse_args(["reproduce", target])
    return {"runs": runs}


def check_reproduce(st: dict, out: dict) -> list[str]:
    errors = []
    for target, code, text in out["runs"]:
        errors += oracles.check_reproduce(target, code, text)
    return errors


WORKLOADS = {
    "stage23": (setup_stage23, job_stage23, check_stage23),
    "ajk1e11": (setup_ajk, job_ajk, check_ajk),
    "attrition19": (setup_attrition, job_attrition, check_attrition),
    "reproduce": (setup_reproduce, job_reproduce, check_reproduce),
}


def main(argv: list[str]) -> int:
    workload, seed, mode, work = argv[0], int(argv[1]), argv[2], Path(argv[3])
    setup, job, check = WORKLOADS[workload]
    tr = Tracer(mode == "traced")
    with tr.span("setup"):
        state = setup(seed, work, tr)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "gapsieve": gapsieve.__file__,
              "python": sys.version.split()[0], "numpy": np.__version__}
    if mode != "setup":
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with tr.span("job"):
            out = job(state, tr)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
        result["peak_rss_mb"] = peak_rss_mb()
        result["errors"] = check(state, out)
    result["spans"] = tr.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
