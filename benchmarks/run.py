"""gapsieve benchmark: four batch workloads, timed end to end and per layer.

    python3 benchmarks/run.py --workload stage23 --seed 1 --seconds 28 --trace 0

Run from a source checkout: the package is imported from ``src/``.  Each job
runs in a fresh process (``job.py``), one after another, until ``--seconds``
would be exceeded.  With ``--trace 0`` the result holds the end-to-end
metrics, medians over the run's jobs; with ``--trace 1`` plain and traced
jobs alternate and the result holds the per-layer metrics, medians over the
traced jobs.  The spans go to ``.bench_out/`` as JSON.  The last line of
standard output is the result object; the line before it gives the machine,
the source line counts and every job's timings.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "gapsieve"
WORKLOADS = ("stage23", "ajk1e11", "attrition19", "reproduce")
MIN_SETUPS = 5  # set-ups per untraced run, for a steadier setup_s median
DEADLINE_S = 170.0  # the whole run, children included

# per-layer time and RSS metrics: the sum over a job's spans of that name
SPAN_TIMES = {
    "cycle.build_s": "cycle.build_primorial_cycle",
    "cycle.stream_s": "cycle.build_primorial_cycle_streaming",
    "cycle.write_s": "cycle.write_cache",
    "cycle.read_s": "cycle.read_cache",
    "cycle.verify_s": "cycle.verify_cycle",
    "census.gap_s": "census.census_for",
    "dynsys.eigen_s": "dynsys.eigenvalue_products",
    "primal.sieve_s": "primal.sieve_segment",
    "survival.attrition_s": "survival.attrition",
    "cli.parse_s": "cli.build_parser",
}
SPAN_RSS = {
    "cycle.build_rss_mb": "cycle.build_primorial_cycle",
    "cycle.stream_rss_mb": "cycle.build_primorial_cycle_streaming",
    "cycle.verify_rss_mb": "cycle.verify_cycle",
    "census.rss_mb": "census.census_for",
}
CLI_TARGETS = {
    "cli.table2_s": "table2",
    "cli.table5_s": "table5",
    "cli.fig5_s": "fig5",
    "cli.g7_s": "g7-attrition",
}


def run_child(workload: str, seed: int, mode: str, work: Path, timeout: float) -> dict | None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("GAPSIEVE_CACHE_DIR", None)
    cmd = [sys.executable, str(HERE / "job.py"), workload, str(seed), mode, str(work)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"{workload} {mode} job timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} {mode} job exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if Path(result["gapsieve"]).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"imported gapsieve from {result['gapsieve']}, not {PACKAGE}")
    result["mode"] = mode
    return result


def spans_of(job: dict, phase: str = "job", probe: bool | None = None) -> list[dict]:
    return [
        s for s in job["spans"]
        if s["phase"] == phase and s["parent"] is not None
        and (probe is None or s["probe"] == probe)
    ]


def span_total(job: dict, name: str, key: str = "dur", phase: str = "job", **attrs) -> float:
    total = 0.0
    for s in spans_of(job, phase):
        if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items()):
            total += s["end"] - s["start"] if key == "dur" else s[key]
    return total


def item_total(job: dict, name: str, item: str) -> float:
    return sum(s["items"].get(item, 0) for s in spans_of(job) if s["name"] == name)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(job: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job, from its spans."""
    m = {name: span_total(job, span) for name, span in SPAN_TIMES.items()}
    m.update({name: span_total(job, span, "rss_rise_mb") for name, span in SPAN_RSS.items()})
    m.update({name: span_total(job, "cli.main", target=t) for name, t in CLI_TARGETS.items()})
    m["cycle.read_owned_mb"] = item_total(job, "cycle.read_cache", "owned_mb")
    m["census.windows_per_s"] = ratio(item_total(job, "census.census_for", "positions"),
                                      m["census.gap_s"])
    m["census.hit_ratio"] = ratio(item_total(job, "census.census_for", "hits"),
                                  item_total(job, "census.census_for", "positions"))
    m["primal.primes"] = item_total(job, "primal.sieve_segment", "primes")
    m["primal.ints_per_s"] = ratio(item_total(job, "primal.sieve_segment", "ints"),
                                   m["primal.sieve_s"])
    m["dynsys.eigen_self_s"] = m["dynsys.eigen_s"] - m["primal.sieve_s"]
    per_block_s = ratio(m["dynsys.eigen_s"], item_total(job, "dynsys.eigenvalue_products", "blocks"))
    m["dynsys.table3_eta_h"] = (
        per_block_s * item_total(job, "dynsys.eigenvalue_products", "table3_blocks") / 3600
    )
    m["dynsys.iterate_s"] = span_total(job, "dynsys.iterate", phase="setup")
    for item in ("passes", "closures"):
        m[f"survival.{item}"] = item_total(job, "survival.attrition", item)
    scanned = item_total(job, "survival.attrition", "scanned")
    m["survival.scanned_per_s"] = ratio(scanned, m["survival.attrition_s"])
    m["survival.strike_ratio"] = ratio(m["survival.closures"], scanned)
    probe_s = sum(s["end"] - s["start"] for s in spans_of(job, probe=True))
    direct = [s for s in spans_of(job, probe=False) if job["spans"][s["parent"]]["parent"] is None]
    covered = sum(s["end"] - s["start"] for s in direct)
    job["traced_wall_s"] = job["wall_s"] - probe_s
    m["trace.coverage_frac"] = ratio(covered, job["traced_wall_s"])
    m["proc.cpu_s"] = job["cpu_s"]
    return m


def with_self_times(spans: list[dict]) -> list[dict]:
    """Spans with self_s: duration minus the part covered by child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [dict(s, self_s=s["end"] - s["start"] - c) for s, c in zip(spans, child)]


def line_counts() -> dict[str, int]:
    """``wc -l`` of each src/gapsieve module, and the total."""
    counts = {p.stem: p.read_bytes().count(b"\n") for p in sorted(PACKAGE.glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no gapsieve source at {PACKAGE}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.perf_counter()
    modes = ("plain", "traced") if args.trace else ("plain",)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir()
    jobs: list[dict] = []
    attempted = failed = 0
    try:
        last = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if attempted >= len(modes) and elapsed + last > args.seconds:
                break
            if elapsed + last > DEADLINE_S:
                break
            mode = modes[attempted % len(modes)]
            t = time.perf_counter()
            job = run_child(args.workload, args.seed, mode, work, DEADLINE_S - elapsed)
            last = time.perf_counter() - t
            attempted += 1
            if job is None or job["errors"]:
                failed += 1
                for err in job["errors"] if job else []:
                    print(f"check failed: {err}", file=sys.stderr)
            if job is not None:
                jobs.append(job)
        setups = [j["setup_s"] for j in jobs if j["mode"] == "plain"]
        while not args.trace and setups and len(setups) < MIN_SETUPS:
            elapsed = time.perf_counter() - start
            child = run_child(args.workload, args.seed, "setup", work, DEADLINE_S - elapsed)
            if child is None:
                break
            setups.append(child["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [j for j in jobs if j["mode"] == "plain"]
    traced = [j for j in jobs if j["mode"] == "traced"]
    if not plain or (args.trace and not traced):
        print("no job completed; no result", file=sys.stderr)
        return 1
    if args.trace:
        per_job = [layer_metrics(j) for j in traced]
        values = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
        values["trace.overhead_frac"] = (
            statistics.median(j["traced_wall_s"] for j in traced)
            / statistics.median(j["wall_s"] for j in plain) - 1.0
        )
        loc = line_counts()
        for d in declared:
            if d["name"].startswith("loc."):
                values[d["name"]] = loc.get(d["name"][len("loc."):], 0)
    else:
        values = {
            "wall_s": statistics.median(j["wall_s"] for j in plain),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in plain),
            "setup_s": statistics.median(setups),
        }
    names = {d["name"] for d in declared}
    if set(values) != names:
        raise SystemExit(f"metrics {sorted(set(values) ^ names)} do not match BENCHMARK.json")

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "samples": {"wall_s": [j["wall_s"] for j in plain], "setup_s": setups},
        "machine": dict(machine(), python=jobs[0]["python"], numpy=jobs[0]["numpy"]),
        "loc": line_counts(),
    }
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace_{args.workload}_seed{args.seed}.json"
        trace_file.write_text(json.dumps(dict(context, jobs=[
            {"mode": j["mode"], "wall_s": j["wall_s"], "spans": with_self_times(j["spans"])}
            for j in jobs
        ]), indent=1))
        context["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(context))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
