"""Command-line interface: one subcommand per library operation.

Exit codes: 0 success, 1 validation error, 2 capacity error.  CSV
output is deterministic for fixed inputs; metadata lines are prefixed '#'.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterable, Iterator

from . import census as census_mod
from . import cycle as cycle_mod
from . import dynsys, polignac, refvalues, survival
from .census import Constellation
from .primal import CapacityError, next_prime, primes_in, primes_upto, radical_of_even

CACHE_ENV = "GAPSIEVE_CACHE_DIR"
PRINT_LIMIT = 100_000  # refuse to dump larger cycles to stdout


def load_or_build_cycles(stages: list[int]) -> Iterator[cycle_mod.GapCycle]:
    """The ascending stages' cycles, one held at a time, from one chain of merges.

    With a cache dir set, each is read from it instead, or streamed into it when missing.
    """
    d = os.environ.get(CACHE_ENV)
    if not d:
        if stages:
            yield from (c for c in cycle_mod.primorial_cycles(stages[-1]) if c.prime in stages)
        return
    for p in stages:
        path = Path(d) / f"g{p}.gapc"
        if path.exists():
            cycle = cycle_mod.read_cache(str(path), mmap=True)
            if list(cycle.factors) != primes_upto(p):
                raise cycle_mod.CacheFormatError(
                    f"{path} holds modulus {cycle.modulus}, not stage {p}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            cycle = cycle_mod.build_primorial_cycle_streaming(p, str(path))
        yield cycle
        del cycle  # before the next stage is read or built


def _write_csv(path: str | None, lines: Iterable[str | tuple]) -> None:
    """Write a table: a str item as a '# ' line, a tuple as one CSV row.

    None or '-' is stdout; a file streams through ``cycle.atomic_open``.
    """
    with (contextlib.nullcontext(sys.stdout) if path in (None, "-")
          else cycle_mod.atomic_open(path, "w")) as fh:
        for item in lines:
            if isinstance(item, str):
                fh.write(f"# {item}\n")
            else:  # a str field holding a comma (a constellation) is quoted, as csv would
                fh.write(",".join(f'"{x}"' if isinstance(x, str) and "," in x else str(x)
                                  for x in item) + "\n")


def _model_vector(cycle: cycle_mod.GapCycle, gap: int) -> census_mod.PopulationVector:
    """The gap's population vector, refused where the model is not exact."""
    s, nxt = Constellation((gap,)), next_prime(cycle.prime)
    if s.span >= 2 * nxt:
        raise ValueError(
            f"gap {gap} at stage {cycle.prime} is not below 2 * {nxt} = {2 * nxt}; the model is "
            "exact only for spans below twice the next stage prime"
        )
    return census_mod.census_for(cycle, s)


def cmd_build(args) -> int:
    if args.out:
        cycle = cycle_mod.build_primorial_cycle_streaming(args.prime, args.out)
        print(f"wrote {cycle.gap_count} gaps (modulus {cycle.modulus}) to {args.out}")
    else:
        count = cycle_mod.stage_gap_count(args.prime)
        if count > PRINT_LIMIT:
            raise ValueError(f"{count} gaps is too large to print; use --out FILE")
        print(cycle_mod.render_compact(cycle_mod.build_primorial_cycle(args.prime)))
    return 0


def cmd_verify(args) -> int:
    cycle = cycle_mod.read_cache(args.cycle, mmap=True)
    report = cycle_mod.verify_cycle(cycle, oracle=args.oracle)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _gap(text: str) -> int:
    """The type of every gap option: census.parse_gap, refusals reported by argparse."""
    try:
        return census_mod.parse_gap(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _targets(args) -> list[Constellation]:
    """Every gap and --constellation target, in command-line order; a gap is (g,)."""
    if not args.targets:
        raise ValueError("no target: pass gaps and/or --constellation LIST (each repeatable)")
    return [Constellation.parse(t) if isinstance(t, str) else Constellation((t,))
            for t in args.targets]


def cmd_census(args) -> int:
    """One row per target, lengths j1..min(--max-len, max_length); --csv adds the long table."""
    if args.normalize and not args.csv:
        raise ValueError("--normalize adds a ratio column to the --csv table")
    targets = _targets(args)
    longest = max(t.length for t in targets)
    if args.max_len is not None and args.max_len < longest:
        raise ValueError(f"--max-len {args.max_len} is below the target length {longest}")
    cycle = cycle_mod.read_cache(args.cycle, mmap=True)
    cap = "" if args.max_len is None else f" max_len={args.max_len}"
    header = ("target", "j", "count", "normalized_ratio")
    table = [f"census modulus={cycle.modulus}{cap}", header if args.normalize else header[:3]]
    for t, c in zip(targets, census_mod.census_all(cycle, targets)):
        top = min(args.max_len or c.max_length, c.max_length)
        cols = [c.vector(top)]
        if args.normalize:
            cols.append(census_mod.PopulationVector.from_census(c, top).ratios)
        cut = top < c.max_length
        print(f"{t}," + ",".join(map(str, cols[0])) + (" (truncated)" if cut else ""))
        table += ((str(t), j, *row) for j, row in enumerate(zip(*cols), c.j1))
        if cut:
            table.append(f"{t} truncated at max_len={top}; census max_length={c.max_length}")
    if args.csv:
        _write_csv(args.csv, table)
    return 0


def cmd_model(args) -> int:
    cycle = cycle_mod.read_cache(args.cycle, mmap=True)
    p0 = cycle.prime
    pk = args.to_prime
    if pk <= p0:
        raise ValueError(f"--to-prime {pk} must exceed the cycle stage {p0}")
    primes = primes_in(p0 + 1, pk)
    # the vector at p0, then after each stage; stepped as the rows are written
    vectors = accumulate(primes, dynsys.step, initial=_model_vector(cycle, args.gap))
    rows = ((p, j, *row) for p, v in zip((p0, *primes), vectors)
            for j, row in enumerate(zip(v.entries, v.ratios), v.j1))
    _write_csv(args.csv, chain(["population model: raw counts and ratios to the gap 2",
                                ("prime", "j", "raw_count", "ratio")], rows))
    return 0


def cmd_asymptotic(args) -> int:
    if args.constellation:
        if args.gap is not None or args.at_prime is not None:
            raise ValueError("--gap and --at-prime do not apply to --constellation")
        s = Constellation.parse(args.constellation)
    elif args.gap is None:
        raise ValueError("pass --gap G or --constellation LIST")
    else:
        s = Constellation((args.gap,))
    print(polignac.singular_ratio((0, *accumulate(s.gaps)), args.at_prime))
    return 0


def cmd_repetition(args) -> int:
    g = args.gap
    qbar = radical_of_even(g)[-1]
    if args.length < 1:
        raise ValueError(f"repetition length must be >= 1, got {args.length}")
    # lengths from 2 * qbar on are all infeasible: a prime in (qbar, 2 * qbar) does not divide g
    w_inf = polignac.singular_ratio(range(0, (min(args.length, 2 * qbar) + 1) * g, g))
    _write_csv(None, [("g", "qbar", "w_partial", "w_infinity", "feasible"),
                      (g, qbar, polignac.singular_ratio((0, g), qbar), w_inf or "",
                       "true" if w_inf else "false")])
    return 0


def cmd_ajk(args) -> int:
    products = dynsys.eigenvalue_products(args.p0, args.pk, args.jmax)
    _write_csv(None, [("j", "a_j"), *((j, f"{a:.14f}") for j, a in sorted(products.items()))])
    return 0


def cmd_crossover(args) -> int:
    cycle = cycle_mod.read_cache(args.cycle, mmap=True)
    root = dynsys.crossover(_model_vector(cycle, args.gap_a), _model_vector(cycle, args.gap_b))
    if root is None:
        print("no crossover")
        return 0
    print(f"a2* = {root:.6f}")
    if args.map_prime:
        approx = dynsys.approximate_prime_for_decay(root, cycle.prime)
        print(f"approximate stage prime ~ {approx:.3e}")
    return 0


def cmd_attrition(args) -> int:
    cycle = cycle_mod.read_cache(args.cycle, mmap=True)
    trace = survival.attrition(cycle)
    ps = trace.sieve_primes
    stages = f"stages {ps[0]}..{ps[-1]}" if ps else "no sieving primes"
    print(
        f"{stages}: {len(trace.initial_histogram)} gap sizes, "
        f"{sum(trace.initial_histogram.values())} gaps -> {trace.final_gap_count} gaps, "
        f"max surviving gap {trace.max_surviving_gap}"
    )
    if args.csv:  # each stage's gap histogram, with each count's ratio to the gap 2's
        hists = [("initial", trace.initial_histogram), *((s.q, s.histogram) for s in trace.steps)]
        rows = ((q, g, n, f"{n / h[2]:.6f}" if h.get(2) else "")  # written as they are made
                for q, h in hists for g, n in sorted(h.items()))
        _write_csv(args.csv, chain([
            f"attrition of the stage-{trace.base_prime} cycle, modulus {trace.modulus}",
            ("prime", "gap", "count", "ratio_to_gap2"),
        ], rows))
    return 0


def cmd_naive_error(args) -> int:
    targets = _targets(args)
    cycles = load_or_build_cycles(primes_in(args.pmin, args.pmax))
    rows = survival.error_report(cycles, targets)
    _write_csv(args.csv, [
        "naive estimate vs true prime gaps over [p_next, p_next^2]",
        ("p_k", "p_next", "target", "estimate", "actual", "rel_error"),
        *((r.p_k, r.p_next, r.target, f"{r.estimate:.6f}", r.actual,
           "" if r.rel_error is None else f"{r.rel_error:.6f}") for r in rows),
    ])
    return 0


def _verdicts(checks: list[tuple[str, bool]]) -> list[str]:
    return [f"{name}: {'PASS' if ok else 'FAIL'}" for name, ok in checks]


def _reproduce_table2() -> list[str]:
    gaps = refvalues.GAP_CENSUS_13
    (cycle,) = load_or_build_cycles([13])
    censuses = census_mod.census_all(cycle, list(gaps))
    lines = []
    for (g, expected), census in zip(gaps.items(), censuses):
        got = census.vector()
        got = got + [0] * (len(expected) - len(got))
        ok = got == expected
        w = polignac.singular_ratio((0, g))
        ok_w = w == refvalues.GAP_W_INFINITY[g]
        lines.append(f"gap {g}: counts {'PASS' if ok else 'FAIL ' + str(got)}, "
                     f"w_inf {'PASS' if ok_w else 'FAIL ' + str(w)}")
    return lines


def _reproduce_table5() -> list[str]:
    cases = refvalues.CONSTELLATION_CASES
    targets = [Constellation.parse(case[0]) for case in cases]
    stages = sorted({case[4] for case in cases})
    results = {}  # case index -> its census, one pass per stage
    for cyc in load_or_build_cycles(stages):
        at = [i for i, case in enumerate(cases) if case[4] == cyc.prime]
        results.update(zip(at, census_mod.census_all(cyc, [targets[i] for i in at])))
    lines = []
    for i, (text, span, j1, top, p0, counts, w_inf) in enumerate(cases):
        s, result = targets[i], results[i]
        got = result.vector()
        w = dynsys.asymptotic_ratio(result)
        ok = (
            s.span == span
            and s.length == j1
            and result.max_length == top
            and got == counts
            and w == w_inf
        )
        lines.append(f"constellation {text}: {'PASS' if ok else f'FAIL (counts {got}, w {w})'}")
    return lines


def _reproduce_fig5() -> list[str]:
    (cycle,) = load_or_build_cycles([13])
    trace = survival.attrition(cycle)
    figure_primes = [q for q in trace.sieve_primes if q != refvalues.ATTRITION_13_OMITTED_PRIME]
    figure_trace = survival.attrition(cycle, sieve_primes=figure_primes)
    return _verdicts([
        ("initial gap-2 count 1485", trace.initial_histogram.get(2) == 1485),
        ("initial max gap 22", max(trace.initial_histogram) == refvalues.ATTRITION_13_INITIAL_MAX_GAP),
        (
            f"final count {refvalues.ATTRITION_13_FINAL_COUNT} (full sieve list)",
            trace.final_gap_count == refvalues.ATTRITION_13_FINAL_COUNT,
        ),
        (
            f"figure count {refvalues.ATTRITION_13_FIGURE_COUNT} "
            f"(sieve list omitting {refvalues.ATTRITION_13_OMITTED_PRIME}; see notes)",
            figure_trace.final_gap_count == refvalues.ATTRITION_13_FIGURE_COUNT,
        ),
        ("max surviving gap 52", trace.max_surviving_gap == refvalues.ATTRITION_13_MAX_GAP),
        (
            "gap 52 first created at stage 73",
            trace.first_stage_with_gap(52) == refvalues.ATTRITION_13_MAX_GAP_FIRST_STAGE,
        ),
    ])


def _reproduce_g7() -> list[str]:
    (cycle,) = load_or_build_cycles([7])
    trace = survival.attrition(cycle)
    folded = survival.fold_confirmed_front(trace).astype(int).tolist()
    return _verdicts([
        ("stage-7 cycle", cycle.gaps.astype(int).tolist() == refvalues.CYCLE_7_GAPS),
        ("attrition folded sequence", folded == refvalues.ATTRITION_7_FOLDED),
        ("attrition tail 10,2,4,2,12",
         trace.final_gaps[-5:].astype(int).tolist() == [10, 2, 4, 2, 12]),
    ])


def _reproduce_table3() -> list[str]:
    products = dynsys.eigenvalue_products(13, refvalues.EIGENVALUE_PRODUCTS_PK, 9)
    lines = []
    for j, expected in refvalues.EIGENVALUE_PRODUCTS_1E12.items():
        got = products[j]
        ok = abs(got - expected) <= 1e-11
        lines.append(f"a_{j}: {got:.14f} vs {expected:.14f} {'PASS' if ok else 'FAIL'}")
    # late-stage ratios of the gaps 6 and 30 implied by these products
    (cycle,) = load_or_build_cycles([13])
    for g, expected_w in ((6, 1.912), (30, 1.579)):
        v = census_mod.PopulationVector.from_census(_model_vector(cycle, g), 9)
        coeffs = dynsys.polynomial_approx(v)
        w = float(coeffs[0]) + sum(
            (-1) ** m * float(coeffs[m]) * products[m + 1] for m in range(1, len(coeffs))
        )
        ok = abs(w - expected_w) <= 5e-3
        lines.append(f"w_{g} at 1e12: {w:.3f} vs {expected_w} {'PASS' if ok else 'FAIL'}")
    return lines


REPRODUCE = {
    "table2": _reproduce_table2,
    "table3": _reproduce_table3,
    "table5": _reproduce_table5,
    "fig5": _reproduce_fig5,
    "g7-attrition": _reproduce_g7,
}


def cmd_reproduce(args) -> int:
    """Print the target's check lines, then one verdict line from their FAIL scan."""
    if args.long != (args.target == "table3"):
        raise ValueError("table3 sieves to ~1e12 (hours) and runs only with --long, "
                         "which no other target takes")
    lines = REPRODUCE[args.target]()
    ok = not any("FAIL" in line for line in lines)
    lines.append(f"{args.target}: {'PASS' if ok else 'FAIL'}")
    print("\n".join(lines))
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the validation-error code.

    Subparsers are made with the parent's class, so they exit 1 too.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built anew on every call; ``main`` builds one per process."""
    ap = _Parser(
        prog="gapsieve",
        description="Cycles of gaps in Eratosthenes sieve: censuses, population models, asymptotics, survival.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the cycle of gaps at a sieve stage")
    p.add_argument("--prime", type=int, required=True, help="sieve stage (prime)")
    p.add_argument("--out", help="cache file to write (.gapc); the final stage streams to it")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="validate a cycle cache file's structure")
    p.add_argument("--cycle", required=True, help="cycle cache file")
    p.add_argument("--oracle", action="store_true",
                   help="also rebuild by direct coprime scan and compare")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("census", help="count gaps/constellations and their driving terms")
    p.add_argument("--cycle", required=True)
    p.add_argument("--gap", type=_gap, action="append", dest="targets", default=[], metavar="G")
    p.add_argument("--constellation", action="append", dest="targets", metavar="LIST",
                   help="comma list, e.g. 2,10,2; rows follow the command-line order")
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--csv", metavar="OUT")
    p.add_argument("--normalize", action="store_true", help="add ratio column to CSV")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("model", help="run the population model from a cycle's censused counts")
    p.add_argument("--cycle", required=True)
    p.add_argument("--gap", type=_gap, required=True)
    p.add_argument("--to-prime", type=int, required=True)
    p.add_argument("--csv", metavar="OUT")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("asymptotic", help="asymptotic ratio of a gap or constellation")
    p.add_argument("--gap", type=_gap)
    p.add_argument("--at-prime", type=int, help="partial product attained by this stage")
    p.add_argument("--constellation", metavar="LIST")
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("repetition", help="feasibility and weight of a repeated gap")
    p.add_argument("--gap", type=_gap, required=True)
    p.add_argument("--length", type=int, required=True, help="repetition length")
    p.set_defaults(func=cmd_repetition)

    p = sub.add_parser("ajk", help="eigenvalue products over a stage range")
    p.add_argument("--p0", type=int, required=True)
    p.add_argument("--pk", type=int, required=True)
    p.add_argument("--jmax", type=int, required=True)
    p.set_defaults(func=cmd_ajk)

    p = sub.add_parser("crossover", help="where two gaps' populations tie")
    p.add_argument("--gap-a", type=_gap, required=True)
    p.add_argument("--gap-b", type=_gap, required=True)
    p.add_argument("--cycle", required=True)
    p.add_argument("--map-prime", action="store_true",
                   help="also estimate the stage prime for the root")
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("attrition", help="sieve a fixed cycle to its surviving gaps")
    p.add_argument("--cycle", required=True)
    p.add_argument("--csv", metavar="OUT", help="per-stage gap histograms")
    p.set_defaults(func=cmd_attrition)

    p = sub.add_parser("naive-error", help="naive estimates vs true prime gaps")
    p.add_argument("--pmin", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--gaps", type=_gap, nargs="*", action="extend", dest="targets", default=[],
                   metavar="G")
    p.add_argument("--constellation", action="append", dest="targets", metavar="LIST")
    p.add_argument("--csv", required=True, metavar="OUT")
    p.set_defaults(func=cmd_naive_error)

    p = sub.add_parser("reproduce", help="check computed values against reference tables")
    p.add_argument("target", choices=list(REPRODUCE))
    p.add_argument("--long", action="store_true", help="allow multi-hour targets")
    p.set_defaults(func=cmd_reproduce)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on the first ``main`` call, not at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # exact counts outgrow CPython's int-to-str digit guard (model past stage ~10,000);
    # it is lifted for this command's output only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (CapacityError, MemoryError) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # CacheFormatError and FileNotFoundError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
