import csv
import os
import random
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gapsieve
from gapsieve import cli
from gapsieve import cycle as cycle_mod
from gapsieve import dynsys, refvalues
from gapsieve.census import Constellation, census_for
from gapsieve.cli import main
from gapsieve.cycle import GapCycle, build_primorial_cycle, read_cache, write_cache
from gapsieve.dynsys import PopulationVector, iterate
from gapsieve.primal import next_prime, primes_in


def csv_rows(path):
    """The header and data rows of a CSV file, its '#' lines skipped."""
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def built(tmp_path, prime):
    path = tmp_path / f"g{prime}.gapc"
    assert main(["build", "--prime", str(prime), "--out", str(path)]) == 0
    return str(path)


def malformed_cache(tmp_path, kind):
    """A cache that ``read_cache`` accepts or used to accept: a zero gap, gaps that do
    not sum to the modulus, or a header with no factors."""
    path = tmp_path / f"{kind}.gapc"
    if kind == "zero-gap":  # the stage-5 count and sum, its gaps 4, 2 at 3..4 made 0, 6
        write_cache(str(path), GapCycle((2, 3, 5), np.array([6, 4, 2, 0, 6, 4, 6, 2], np.uint16)))
    elif kind == "zero-gap-palindrome":  # modulus 10: count, sum, last gap, parity and
        # symmetry all hold, so only the zero gaps are wrong
        write_cache(str(path), GapCycle((2, 5), np.array([0, 8, 0, 2], np.uint16)))
    elif kind == "wrong-total":  # the stage-7 count, summing to 104, not 210
        write_cache(str(path), GapCycle((2, 3, 5, 7), np.array([10] + [2] * 47, np.uint16)))
    else:
        write_cache(str(path), GapCycle((), np.ones(1, np.uint16)))
    return str(path)


@pytest.fixture
def cycle13(tmp_path):
    return built(tmp_path, 13)


@pytest.fixture
def cache_reads(monkeypatch):
    """The cycles that ``read_cache`` returns while a test runs, in call order."""
    read = cycle_mod.read_cache
    cycles = []

    def recorded_read(*args, **kwargs):
        cycles.append(read(*args, **kwargs))
        return cycles[-1]

    monkeypatch.setattr(cycle_mod, "read_cache", recorded_read)
    return cycles


def test_build_prints_compact(capsys):
    assert main(["build", "--prime", "5"]) == 0
    assert capsys.readouterr().out.strip() == "64242462"
    assert main(["build", "--prime", "3"]) == 0
    assert capsys.readouterr().out.strip() == "42"


def test_build_writes_cache(tmp_path, capsys):
    path = tmp_path / "g7.gapc"
    assert main(["build", "--prime", "7", "--out", str(path)]) == 0
    assert read_cache(str(path)).gap_count == 48


def test_build_stream_identical(tmp_path, capsys):
    a = tmp_path / "a.gapc"
    b = tmp_path / "b.gapc"
    assert main(["build", "--prime", "11", "--out", str(a)]) == 0
    write_cache(str(b), build_primorial_cycle(11))
    assert a.read_bytes() == b.read_bytes()


def test_build_rejects_nonprime(capsys):
    assert main(["build", "--prime", "9"]) == 1


def test_build_refuses_to_print_a_large_cycle_before_building_it(monkeypatch, capsys):
    def never(p):
        raise AssertionError(f"built stage {p}")

    monkeypatch.setattr(cycle_mod, "build_primorial_cycle", never)
    assert main(["build", "--prime", "19"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "use --out" in captured.err
    assert main(["build", "--prime", "9"]) == 1  # the stage check still comes first
    assert main(["build", "--prime", "103"]) == 2


def test_verify(cycle13, capsys):
    assert main(["verify", "--cycle", cycle13, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle: ok" in out
    assert "positive_gaps: ok" in out


@pytest.mark.parametrize("kind", ["zero-gap", "zero-gap-palindrome"])
def test_verify_reports_a_zero_gap(tmp_path, capsys, kind):
    assert main(["verify", "--cycle", malformed_cache(tmp_path, kind)]) == 1
    assert "positive_gaps: FAIL" in capsys.readouterr().out.splitlines()


def test_verify_missing_file(tmp_path, capsys):
    assert main(["verify", "--cycle", str(tmp_path / "none.gapc")]) == 1


@pytest.mark.parametrize(
    "command",
    [["verify"], ["census", "--gap", "2"], ["model", "--gap", "2", "--to-prime", "17"],
     ["crossover", "--gap-a", "2", "--gap-b", "4"], ["attrition"]],
    ids=lambda c: c[0],
)
@pytest.mark.parametrize("where", ["directory", "through-file"])
def test_unreadable_cycle_path_exits_1(tmp_path, capsys, command, where):
    (tmp_path / "file").write_text("not a directory\n")
    path = tmp_path if where == "directory" else tmp_path / "file" / "g13.gapc"
    assert main([*command, "--cycle", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "command",
    [["verify"], ["census", "--gap", "2"], ["model", "--gap", "2", "--to-prime", "17"],
     ["crossover", "--gap-a", "30", "--gap-b", "6"], ["attrition"]],
    ids=lambda c: c[0],
)
def test_cycle_file_is_read_memory_mapped(cycle13, cache_reads, capsys, command):
    assert main([*command, "--cycle", cycle13]) == 0
    assert len(cache_reads) == 1
    assert isinstance(cache_reads[0].gaps, np.memmap)


@pytest.mark.parametrize(
    "argv, stage",
    [(["build", "--prime", "31", "--out", "g31.gapc"], 29),
     (["naive-error", "--pmin", "29", "--pmax", "29", "--gaps", "2", "--csv", "-"], 2)],
    ids=["build", "naive-error"],
)
def test_memory_error_exits_2(monkeypatch, tmp_path, capsys, argv, stage):
    # naive-error builds past stage 23 like build does, with no opt-in flag;
    # build --out holds the stage before the one it streams in memory, and
    # naive-error's chain fails at its first merge
    def out_of_memory(*args):  # (p) or (cycle, q)
        raise MemoryError(f"Unable to allocate the stage-{args[-1]} cycle")

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GAPSIEVE_CACHE_DIR", raising=False)
    monkeypatch.setattr(cycle_mod, "build_primorial_cycle", out_of_memory)
    monkeypatch.setattr(cycle_mod, "extend_cycle", out_of_memory)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"capacity error: Unable to allocate the stage-{stage} cycle\n"
    assert not any(tmp_path.iterdir())


CYCLE_COMMANDS = {
    "verify": ["verify"],
    "census": ["census", "--gap", "2"],
    "model": ["model", "--gap", "2", "--to-prime", "13"],
    "crossover": ["crossover", "--gap-a", "2", "--gap-b", "4"],
    "attrition": ["attrition"],
}


@pytest.mark.parametrize(
    "kind, command",
    [*((kind, c) for kind in ("zero-gap", "zero-gap-palindrome", "wrong-total")
       for c in ("census", "model", "crossover", "attrition")),
     *(("no-factor", c) for c in CYCLE_COMMANDS)],
)
def test_malformed_cache_exits_1(tmp_path, capsys, kind, command):
    assert main([*CYCLE_COMMANDS[command], "--cycle", malformed_cache(tmp_path, kind)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = {"zero-gap": "the cycle holds a zero gap",
              "zero-gap-palindrome": "the cycle holds a zero gap",
              "wrong-total": "the cycle's gaps sum to 104, not its modulus 210",
              "no-factor": "header lists no prime factors"}[kind]
    assert captured.err == f"error: {reason}\n"


def test_verify_reports_a_wrong_total(tmp_path, capsys):
    # the total is checked by the commands that use the gaps, not by read_cache
    assert main(["verify", "--cycle", malformed_cache(tmp_path, "wrong-total")]) == 1
    assert "sum: FAIL (gaps sum to 104, modulus 210)" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "kind, command",
    [("zero-gap", "census"), ("no-factor", "census"),
     ("zero-gap", "attrition"), ("wrong-total", "attrition")],
    ids=["zero-gap", "no-factor", "zero-gap-attrition", "wrong-total-attrition"],
)
def test_malformed_cache_ends_without_a_traceback(tmp_path, kind, command):
    env = {**os.environ, "PYTHONPATH": str(Path(gapsieve.__file__).parents[1])}
    argv = [*CYCLE_COMMANDS[command], "--cycle", malformed_cache(tmp_path, kind)]
    proc = subprocess.run([sys.executable, "-m", "gapsieve.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_census_row(cycle13, capsys):
    assert main(["census", "--cycle", cycle13, "--gap", "16", "--max-len", "9"]) == 0
    assert capsys.readouterr().out.strip() == "16,12,252,750,436,35"


def test_census_csv(cycle13, tmp_path, capsys):
    out = tmp_path / "census.csv"
    assert main(["census", "--cycle", cycle13, "--gap", "2", "--max-len", "2",
                 "--csv", str(out), "--normalize"]) == 0
    text = out.read_text()
    assert "target,j,count,normalized_ratio" in text
    assert "2,1,1485,1" in text


def test_census_determinism(cycle13, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        main(["census", "--cycle", cycle13, "--gap", "30", "--gap", "6",
              "--max-len", "9", "--csv", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_census_constellation(cycle13, capsys):
    assert main(["census", "--cycle", cycle13, "--constellation", "2,10,2,10,2"]) == 0
    assert capsys.readouterr().out.strip() == "2,10,2,10,2,52,44,48"
    assert main(["census", "--cycle", cycle13, "--constellation", "2,10,2,10,2",
                 "--max-len", "5"]) == 0
    assert capsys.readouterr().out.strip() == "2,10,2,10,2,52 (truncated)"
    assert main(["census", "--cycle", cycle13, "--constellation", "2,10,2,10,2",
                 "--max-len", "7"]) == 0
    assert capsys.readouterr().out.strip() == "2,10,2,10,2,52,44,48"


def test_census_truncation_flag(cycle13, capsys):
    assert main(["census", "--cycle", cycle13, "--gap", "30", "--max-len", "4"]) == 0
    assert capsys.readouterr().out == "30,0,0,10,194 (truncated)\n"
    assert main(["census", "--cycle", cycle13, "--gap", "30", "--max-len", "8"]) == 0
    assert capsys.readouterr().out == "30,0,0,10,194,1066,1784,816,90\n"


def test_census_gap_csv(cycle13, capsys):
    assert main(["census", "--cycle", cycle13, "--gap", "2", "--gap", "4", "--max-len", "1",
                 "--csv", "-"]) == 0
    assert capsys.readouterr().out == (
        "2,1485\n4,1485\n# census modulus=30030 max_len=1\ntarget,j,count\n2,1,1485\n4,1,1485\n"
    )


def test_census_constellation_csv(cycle13, capsys):
    assert main(["census", "--cycle", cycle13, "--constellation", "2,10,2,10,2", "--csv", "-"]) == 0
    assert capsys.readouterr().out == (
        "2,10,2,10,2,52,44,48\n# census modulus=30030\ntarget,j,count\n"
        '"2,10,2,10,2",5,52\n"2,10,2,10,2",6,44\n"2,10,2,10,2",7,48\n'
    )


def test_census_csv_marks_truncated_rows(cycle13, capsys):
    assert main(["census", "--cycle", cycle13, "--gap", "30", "--max-len", "4", "--csv", "-"]) == 0
    assert capsys.readouterr().out == (
        "30,0,0,10,194 (truncated)\n# census modulus=30030 max_len=4\ntarget,j,count\n"
        "30,1,0\n30,2,0\n30,3,10\n30,4,194\n# 30 truncated at max_len=4; census max_length=8\n"
    )


def test_census_rows_run_to_the_census_max_length(cycle13, capsys):
    # one row rule for every target: lengths j1 .. min(--max-len, max_length)
    assert main(["census", "--cycle", cycle13, "--gap", "60"]) == 0
    assert capsys.readouterr().out == "60,0,0,0,0,0,0,0,0,70,492,1348,1472,512,64,2\n"
    assert main(["census", "--cycle", cycle13, "--constellation", "2,10,2", "--max-len", "9"]) == 0
    assert capsys.readouterr().out == "2,10,2,216,288\n"


def test_census_repeated_constellation(cycle13, capsys):
    assert main(["census", "--cycle", cycle13, "--constellation", "2,4",
                 "--constellation", "6,6"]) == 0
    assert capsys.readouterr().out == "2,4,640\n6,6,338,750,192\n"


def test_census_mixed_targets_in_command_line_order(cycle13, capsys):
    assert main(["census", "--cycle", cycle13, "--constellation", "2,10,2", "--gap", "2",
                 "--constellation", "6,6", "--csv", "-", "--normalize"]) == 0
    assert capsys.readouterr().out == (
        "2,10,2,216,288\n2,1485\n6,6,338,750,192\n"
        "# census modulus=30030\ntarget,j,count,normalized_ratio\n"
        '"2,10,2",3,216,8/7\n"2,10,2",4,288,32/21\n2,1,1485,1\n'
        '"6,6",2,338,169/320\n"6,6",3,750,75/64\n"6,6",4,192,3/10\n'
    )


def test_census_of_many_targets_prints_each_single_target_run(cycle13, capsys):
    # gap 150 (75 steps) is tabled, the rest walked, all in one pass
    targets = [["--gap", "2"], ["--gap", "30"], ["--constellation", "2,10,2"],
               ["--gap", "150"], ["--constellation", "12,12"], ["--gap", "32"]]
    singles = []
    for t in targets:
        assert main(["census", "--cycle", cycle13, *t]) == 0
        singles.append(capsys.readouterr().out)
    assert main(["census", "--cycle", cycle13, *(a for t in targets for a in t)]) == 0
    assert capsys.readouterr().out == "".join(singles)


def test_census_normalize_is_the_population_vector_ratio(cycle13, tmp_path):
    out = tmp_path / "c.csv"
    assert main(["census", "--cycle", cycle13, "--constellation", "2,10,2,10,2", "--gap", "30",
                 "--max-len", "6", "--csv", str(out), "--normalize"]) == 0
    rows = csv_rows(out)[1:]
    g13 = read_cache(cycle13)
    expected = []
    for target in (Constellation.parse("2,10,2,10,2"), Constellation((30,))):
        c = census_for(g13, target)
        v = PopulationVector.from_census(c, min(6, c.max_length))
        expected += [(str(target), j, e, r)
                     for j, e, r in zip(range(v.j1, v.max_length + 1), v.entries, v.ratios)]
    assert [(t, int(j), int(e), Fraction(r)) for t, j, e, r in rows] == expected


@pytest.mark.parametrize(
    "target",
    [[], ["--gap", "6", "--max-len", "0"],
     ["--constellation", "2,10,2", "--max-len", "1"],
     ["--constellation", "2,10,2", "--max-len", "2"],
     ["--gap", "2", "--normalize"],
     ["--constellation", "2,,10"]],
    ids=["none", "gap-max-len-0", "max-len-1", "max-len-2", "normalize-without-csv",
         "empty-field"],
)
def test_census_rejects_bad_target(cycle13, capsys, target):
    assert main(["census", "--cycle", cycle13, *target]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_model(cycle13, capsys):
    assert main(["model", "--cycle", cycle13, "--gap", "6", "--to-prime", "17"]) == 0
    out = capsys.readouterr().out
    # stage 13 count 1690 and the stepped stage-17 count 15*1690 + 1280
    assert "13,1,1690,338/297" in out
    assert "17,1,26630,5326/4455" in out


def test_model_prints_counts_past_the_int_str_digit_limit(cycle13, tmp_path):
    # past stage ~10,000 the exact counts outgrow CPython's 4,300-digit int-to-str guard
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    csv = tmp_path / "model.csv"
    assert main(["model", "--cycle", cycle13, "--gap", "6", "--to-prime", "10500",
                 "--csv", str(csv)]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit  # restored
    v = iterate(PopulationVector.from_census(census_for(read_cache(cycle13), 6)), 13, 10500)
    assert v.entries[-1].bit_length() > 4300 * 3.33
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        expected = f"{primes_in(14, 10500)[-1]},{v.max_length},{v.entries[-1]},{v.ratios[-1]}"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert csv.read_text().splitlines()[-1] == expected


def test_model_failing_partway_leaves_no_file(cycle13, tmp_path, monkeypatch, capsys):
    # the rows of the first stages are already streamed when the third step fails
    step, calls = dynsys.step, []

    def failing_step(v, p):
        calls.append(p)
        if len(calls) == 3:
            raise ValueError(f"step failed at stage {p}")
        return step(v, p)

    monkeypatch.setattr(dynsys, "step", failing_step)
    out = tmp_path / "model.csv"
    assert main(["model", "--cycle", cycle13, "--gap", "6", "--to-prime", "101",
                 "--csv", str(out)]) == 1
    assert capsys.readouterr().err == "error: step failed at stage 23\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g13.gapc"]


CENSUS_TABLE = "# census modulus=30030\ntarget,j,count\n2,1,1485\n"


def test_csv_through_a_symlink_replaces_its_target(cycle13, tmp_path, capsys):
    target, link = tmp_path / "table.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert main(["census", "--cycle", cycle13, "--gap", "2", "--csv", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text() == CENSUS_TABLE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g13.gapc", "link.csv", "table.csv"]


def test_csv_to_a_fifo_writes_into_it(cycle13, tmp_path, capsys):
    # a path that is no regular file (a FIFO here, /dev/null or /dev/stdout alike)
    # is written in place; a rename over it would replace the node
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["census", "--cycle", cycle13, "--gap", "2", "--csv", str(fifo)]) == 0
        assert fifo.is_fifo()
        assert os.read(reader, 1 << 16).decode() == CENSUS_TABLE
    finally:
        os.close(reader)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g13.gapc", "table.fifo"]


@pytest.mark.parametrize("kind", ["dev-null", "directory", "fifo"])
def test_build_out_refuses_a_path_that_is_no_regular_file(tmp_path, monkeypatch, capsys, kind):
    # the cache is read back once written, which /dev/null, a directory or a
    # FIFO cannot give, so the path is refused before anything is built
    def no_build(*args):
        raise AssertionError("built before checking --out")

    monkeypatch.setattr(cycle_mod, "build_primorial_cycle", no_build)
    monkeypatch.setattr(cycle_mod, "_merged_chunks", no_build)
    out = {"dev-null": Path(os.devnull), "directory": tmp_path / "dir",
           "fifo": tmp_path / "cache.fifo"}[kind]
    if kind == "directory":
        out.mkdir()
    elif kind == "fifo":
        os.mkfifo(out)
    assert main(["build", "--prime", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "regular file" in err
    if kind != "dev-null":
        assert sorted(p.name for p in tmp_path.iterdir()) == [out.name]
        assert not any(out.iterdir()) if kind == "directory" else out.is_fifo()


@pytest.mark.parametrize("command", ["census", "build"])
def test_replacing_a_file_keeps_its_mode(cycle13, tmp_path, capsys, command):
    # the temporary file is made with the umask default; a new file keeps that
    old, new = tmp_path / "old", tmp_path / "new"
    old.write_text("old\n")
    old.chmod(0o600)
    umask = os.umask(0o022)
    try:
        for out in (old, new):
            argv = {"census": ["census", "--cycle", cycle13, "--gap", "2", "--csv", str(out)],
                    "build": ["build", "--prime", "5", "--out", str(out)]}[command]
            assert main(argv) == 0
    finally:
        os.umask(umask)
    assert old.read_bytes() == new.read_bytes()
    assert (old.stat().st_mode & 0o777, new.stat().st_mode & 0o777) == (0o600, 0o644)


def test_model_rejects_target_not_fully_valid(tmp_path, capsys):
    # gap 30 spans more than 2 * 11, so stepping the stage-7 census would
    # print stage-13 counts that contradict the stage-13 census
    path = built(tmp_path, 7)
    capsys.readouterr()
    csv = tmp_path / "model.csv"
    assert main(["model", "--cycle", path, "--gap", "30", "--to-prime", "13",
                 "--csv", str(csv)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: gap 30 at stage 7 is not below 2 * 11 = 22; the model is exact only "
        "for spans below twice the next stage prime\n"
    )
    assert not csv.exists()


def test_asymptotic_gap(capsys):
    assert main(["asymptotic", "--gap", "30"]) == 0
    assert capsys.readouterr().out.strip() == "8/3"
    assert main(["asymptotic", "--gap", "74", "--at-prime", "31"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    # --at-prime 0 is a stage, not unset: no odd factor of 30 is <= 0
    assert main(["asymptotic", "--gap", "30", "--at-prime", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_asymptotic_constellation(capsys):
    # the census-derived ratios of reproduce table5, here with no cycle
    for text, *_, w_inf in refvalues.CONSTELLATION_CASES:
        assert main(["asymptotic", "--constellation", text]) == 0
        assert capsys.readouterr().out == f"{w_inf}\n", text


@pytest.mark.parametrize("text", ["4,4", "8,8", "2,2,2"])
def test_asymptotic_constellation_covering_every_residue_is_zero(capsys, text):
    # three points spaced g, g with 3 not dividing g fill every residue mod 3;
    # the stage-2 census of 4,4 counted a driving term and printed 1
    assert main(["asymptotic", "--constellation", text]) == 0
    assert capsys.readouterr().out == "0\n"


def test_asymptotic_constellation_needs_no_cycle(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GAPSIEVE_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["asymptotic", "--constellation", "2,10,2"]) == 0
    assert capsys.readouterr().out == "8/3\n"
    assert not any(tmp_path.iterdir())


def test_asymptotic_constellation_takes_no_cycle(cycle13, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["asymptotic", "--constellation", "2,10,2", "--cycle", cycle13])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --cycle {cycle13}" in captured.err


@pytest.mark.parametrize(
    "extra",
    [["--gap", "30"], ["--at-prime", "5"], ["--gap", "30", "--at-prime", "5"]],
    ids=["gap", "at-prime", "gap-and-at-prime"],
)
def test_asymptotic_rejects_constellation_with_gap_flags(capsys, extra):
    assert main(["asymptotic", "--constellation", "2,10,2", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_asymptotic_gap_rejects_cycle(cycle13, capsys):
    # every ratio is closed-form; a cycle would be read for nothing
    with pytest.raises(SystemExit) as exc:
        main(["asymptotic", "--gap", "30", "--cycle", cycle13])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --cycle {cycle13}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["census"], [], ["build", "--prime", "x"], ["reproduce", "table4"], ["census", "--bogus"]],
    ids=["missing-required", "no-command", "bad-int", "bad-choice", "unknown-flag"],
)
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: gapsieve")
    assert "error: " in captured.err


GAP_OPTIONS = {
    "census --gap": ["census", "--cycle", "CYCLE", "--gap", "{}"],
    "census --constellation": ["census", "--cycle", "CYCLE", "--constellation", "2,{}"],
    "model --gap": ["model", "--cycle", "CYCLE", "--gap", "{}", "--to-prime", "17"],
    "asymptotic --gap": ["asymptotic", "--gap", "{}"],
    "asymptotic --constellation": ["asymptotic", "--constellation", "2,{}"],
    "repetition --gap": ["repetition", "--gap", "{}", "--length", "2"],
    "crossover --gap-a": ["crossover", "--gap-a", "{}", "--gap-b", "6", "--cycle", "CYCLE"],
    "crossover --gap-b": ["crossover", "--gap-a", "30", "--gap-b", "{}", "--cycle", "CYCLE"],
    "naive-error --gaps": ["naive-error", "--pmin", "11", "--pmax", "11", "--gaps", "2", "{}",
                           "--csv", "-"],
    "naive-error --constellation": ["naive-error", "--pmin", "11", "--pmax", "11",
                                    "--constellation", "2,{}", "--csv", "-"],
}


@pytest.mark.parametrize("option", list(GAP_OPTIONS))
@pytest.mark.parametrize("text", ["0_6", "+6", "-6", " 6", "6 ", "\u0666", "6.0"])
def test_gap_fields_take_ascii_digits_only(cycle13, capsys, option, text):
    # int() reads each of these as 6 or -6; every gap field refuses them
    argv = [cycle13 if a == "CYCLE" else a.format(text) for a in GAP_OPTIONS[option]]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refused the value
        code = exc.code
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed" in captured.err
    assert "Traceback" not in captured.err


def test_census_refuses_int_grammar_targets(cycle13, capsys):
    # these exited 0, counting and labelling the targets 10,2 and 6
    for argv in (["--constellation", "1_0,+2"], ["--gap", "0_6"],
                 ["--constellation", "1_0,+2", "--gap", "0_6"]):
        try:
            code = main(["census", "--cycle", cycle13, *argv])
        except SystemExit as exc:
            code = exc.code
        assert code == 1
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, gap",
    [(["asymptotic", "--gap", "7"], 7), (["repetition", "--gap", "0", "--length", "0"], 0)],
    ids=["asymptotic", "repetition"],
)
def test_bad_gap_message(capsys, argv, gap):
    # repetition's length 0 is bad too; the gap is reported first
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: gap must be a positive even integer: {gap}\n"


def test_repetition(capsys):
    assert main(["repetition", "--gap", "6", "--length", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "g,qbar,w_partial,w_infinity,feasible"
    assert out[1] == "6,3,2,2,true"
    assert main(["repetition", "--gap", "2", "--length", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[1].endswith("false")


def test_long_repetition_is_instant(capsys):
    # 7 does not divide 30: the product is 0 at q = 7, whatever the length
    t0 = time.perf_counter()
    assert main(["repetition", "--gap", "30", "--length", "100000000"]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out.splitlines()[1] == "30,5,8/3,,false"


def test_ajk(capsys):
    assert main(["ajk", "--p0", "13", "--pk", "17", "--jmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "2,0.93333333333333" in out


def test_ajk_prints_the_exact_products(capsys):
    # the big-integer products are 0.2041271221866279... and 0.0407967154961148...
    assert main(["ajk", "--p0", "13", "--pk", "1000000", "--jmax", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "2,0.20412712218663" in lines
    assert "3,0.04079671549611" in lines


@pytest.mark.parametrize("p0, jmax", [(13, 1), (13, 0), (-5, -3)])
def test_ajk_rejects_jmax_below_2(capsys, p0, jmax):
    # a_j starts at j = 2: a smaller jmax asks for no product at all
    assert main(["ajk", "--p0", str(p0), "--pk", "17", "--jmax", str(jmax)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: jmax {jmax} must be at least 2\n"


def test_crossover(cycle13, capsys):
    assert main(["crossover", "--gap-a", "30", "--gap-b", "6", "--cycle", cycle13]) == 0
    out = capsys.readouterr().out
    assert out == "a2* = 0.062893\n"


@pytest.mark.parametrize("prime, gap_a, gap_b", [(7, 30, 6), (13, 210, 30)])
def test_crossover_rejects_target_not_fully_valid(tmp_path, capsys, prime, gap_a, gap_b):
    # the decay polynomial is the model's, so it is refused where model is
    path = built(tmp_path, prime)
    capsys.readouterr()
    assert main(["crossover", "--gap-a", str(gap_a), "--gap-b", str(gap_b),
                 "--cycle", path]) == 1
    captured = capsys.readouterr()
    nxt = next_prime(prime)
    assert captured.out == ""
    assert captured.err == (
        f"error: gap {gap_a} at stage {prime} is not below 2 * {nxt} = {2 * nxt}; "
        "the model is exact only for spans below twice the next stage prime\n"
    )


def test_attrition_cli(cycle13, tmp_path, capsys):
    out = tmp_path / "attr.csv"
    assert main(["attrition", "--cycle", cycle13, "--csv", str(out)]) == 0
    text = capsys.readouterr().out
    assert "-> 3243 gaps" in text
    assert "max surviving gap 52" in text
    assert out.read_text().splitlines()[1] == "prime,gap,count,ratio_to_gap2"


def test_attrition_cli_without_sieving_primes(tmp_path, capsys):
    path = built(tmp_path, 3)
    capsys.readouterr()
    out = tmp_path / "attr.csv"
    assert main(["attrition", "--cycle", path, "--csv", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("no sieving primes: ")
    assert "2 gaps -> 2 gaps" in text
    rows = out.read_text().splitlines()[2:]
    assert rows and all(r.startswith("initial,") for r in rows)


def test_naive_error_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GAPSIEVE_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "err.csv"
    assert main(["naive-error", "--pmin", "13", "--pmax", "13", "--gaps", "2", "4",
                 "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    est2 = lines[2].split(",")[3]
    est4 = lines[3].split(",")[3]
    assert est2 == est4


@pytest.mark.parametrize("cached", [False, True], ids=["built", "cached"])
def test_naive_error_with_no_stage_in_range_prints_its_header(tmp_path, monkeypatch, capsys,
                                                              cached):
    # no prime in [8, 10]: no stage is built or cached, and the table has no row
    if cached:
        monkeypatch.setenv("GAPSIEVE_CACHE_DIR", str(tmp_path / "cache"))
    else:
        monkeypatch.delenv("GAPSIEVE_CACHE_DIR", raising=False)
    assert main(["naive-error", "--pmin", "8", "--pmax", "10", "--gaps", "2", "--csv", "-"]) == 0
    assert capsys.readouterr().out == (
        "# naive estimate vs true prime gaps over [p_next, p_next^2]\n"
        "p_k,p_next,target,estimate,actual,rel_error\n")
    assert not any(tmp_path.iterdir())
    assert list(cli.load_or_build_cycles([])) == []


@pytest.mark.parametrize("cached", [False, True], ids=["built", "cached"])
def test_naive_error_holds_one_stage_at_a_time(tmp_path, monkeypatch, cached):
    # each stage's cycle is let go before the next is read or built, or, with no
    # cache dir, once the chain has merged the next from it, so --pmax 29 does
    # not hold 23# beside 29#; the chain merges each stage prime once
    if cached:
        monkeypatch.setenv("GAPSIEVE_CACHE_DIR", str(tmp_path / "cache"))
    else:
        monkeypatch.delenv("GAPSIEVE_CACHE_DIR", raising=False)
    load, extend, held, merged = cli.load_or_build_cycles, cycle_mod.extend_cycle, [], []

    def load_each(stages):
        for cycle in load(stages):
            held.append(weakref.ref(cycle))
            yield cycle
            del cycle

    def recorded_extend(cycle, q):
        assert all(ref() is None or (not cached and ref() is cycle) for ref in held), q
        merged.append(q)
        return extend(cycle, q)

    monkeypatch.setattr(cli, "load_or_build_cycles", load_each)
    monkeypatch.setattr(cycle_mod, "extend_cycle", recorded_extend)
    out = tmp_path / "err.csv"
    assert main(["naive-error", "--pmin", "5", "--pmax", "19", "--gaps", "2", "4",
                 "--csv", str(out)]) == 0
    assert len(held) == 6
    assert all(ref() is None for ref in held)
    assert [r[0] for r in csv_rows(out)[1:]] == [p for p in ["5", "7", "11", "13", "17", "19"]
                                                 for _ in range(2)]
    if not cached:
        assert merged == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize(
    "argv",
    [["naive-error", "--pmin", "13", "--pmax", "13", "--gaps", "2", "--csv", "-"],
     ["reproduce", "table2"]],
    ids=lambda a: a[0],
)
def test_cache_dir_refuses_a_file_of_another_stage(tmp_path, monkeypatch, capsys, argv):
    path = tmp_path / "g13.gapc"
    write_cache(str(path), build_primorial_cycle(11))
    monkeypatch.setenv("GAPSIEVE_CACHE_DIR", str(tmp_path))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} holds modulus 2310, not stage 13\n"


@pytest.mark.parametrize(
    "argv",
    [["naive-error", "--pmin", "13", "--pmax", "13", "--gaps", "2", "--csv", "-"],
     ["reproduce", "table2"]],
    ids=lambda a: a[0],
)
def test_cache_dir_refuses_gaps_that_miss_the_modulus(tmp_path, monkeypatch, capsys, argv):
    # one gap 2 made 4: the stage-13 gaps then sum to 30032, as --cycle refuses
    gaps = build_primorial_cycle(13).gaps.copy()
    gaps[np.flatnonzero(gaps == 2)[0]] = 4
    write_cache(str(tmp_path / "g13.gapc"), GapCycle((2, 3, 5, 7, 11, 13), gaps))
    monkeypatch.setenv("GAPSIEVE_CACHE_DIR", str(tmp_path))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the cycle's gaps sum to 30032, not its modulus 30030\n"


@pytest.mark.parametrize(
    "argv",
    [["naive-error", "--pmin", "13", "--pmax", "13", "--gaps", "2", "--csv", "-"],
     ["reproduce", "table2"]],
    ids=lambda a: a[0],
)
def test_cache_dir_cycle_is_read_memory_mapped(tmp_path, monkeypatch, cache_reads, capsys, argv):
    write_cache(str(tmp_path / "g13.gapc"), build_primorial_cycle(13))
    monkeypatch.setenv("GAPSIEVE_CACHE_DIR", str(tmp_path))
    assert main(argv) == 0
    assert len(cache_reads) == 1
    assert isinstance(cache_reads[0].gaps, np.memmap)


@pytest.mark.parametrize(
    "flags, targets",
    [(["--gaps", "2", "--gaps", "4"], ["2", "4"]),
     (["--constellation", "2,4", "--constellation", "4,2"], ["2,4", "4,2"]),
     (["--constellation", "2,4", "--gaps", "2", "6", "--constellation", "6,6"],
      ["2,4", "2", "6", "6,6"])],
    ids=["gaps", "constellations", "mixed"],
)
def test_naive_error_keeps_every_target_in_order(tmp_path, monkeypatch, capsys, flags, targets):
    monkeypatch.setenv("GAPSIEVE_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "err.csv"
    assert main(["naive-error", "--pmin", "13", "--pmax", "13", *flags, "--csv", str(out)]) == 0
    assert [r[2] for r in csv_rows(out)[1:]] == targets


def test_constellation_csvs_parse_to_the_header_width(cycle13, tmp_path, monkeypatch):
    monkeypatch.setenv("GAPSIEVE_CACHE_DIR", str(tmp_path / "cache"))
    census_csv, error_csv = tmp_path / "c.csv", tmp_path / "e.csv"
    assert main(["census", "--cycle", cycle13, "--gap", "2", "--constellation", "2,10,2",
                 "--csv", str(census_csv), "--normalize"]) == 0
    assert main(["naive-error", "--pmin", "11", "--pmax", "11", "--gaps", "2",
                 "--constellation", "2,4", "--csv", str(error_csv)]) == 0
    for path, targets in ((census_csv, ["2", "2,10,2", "2,10,2"]), (error_csv, ["2", "2,4"])):
        header, *rows = csv_rows(path)
        assert [len(r) for r in rows] == [len(header)] * len(targets)
        assert [r[header.index("target")] for r in rows] == targets


@pytest.mark.parametrize("target", ["g7-attrition", "table2", "table5", "fig5"])
def test_reproduce_targets_pass(capsys, monkeypatch, tmp_path, target):
    monkeypatch.setenv("GAPSIEVE_CACHE_DIR", str(tmp_path))
    assert main(["reproduce", target]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS" in out


def test_reproduce_table5_builds_each_stage_once(monkeypatch, capsys):
    # stages 5, 7, 11 and 13 come from one chain of merges: 2, 3, 5, 7, 11, 13
    extend = cycle_mod.extend_cycle
    merged = []

    def recorded_extend(cycle, q):
        merged.append(q)
        return extend(cycle, q)

    monkeypatch.delenv("GAPSIEVE_CACHE_DIR", raising=False)
    monkeypatch.setattr(cycle_mod, "extend_cycle", recorded_extend)
    assert main(["reproduce", "table5"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert merged == [2, 3, 5, 7, 11, 13]


def test_reproduce_table3_requires_long(capsys):
    assert main(["reproduce", "table3"]) == 1
    assert "--long" in capsys.readouterr().err


def _table3(monkeypatch, capsys, products):
    """reproduce table3 --long's exit code and lines, with ``products`` as the a_j."""
    calls = []

    def eigenvalue_products(*args):
        calls.append(args)
        return dict(products)

    monkeypatch.delenv("GAPSIEVE_CACHE_DIR", raising=False)
    monkeypatch.setattr(dynsys, "eigenvalue_products", eigenvalue_products)
    code = main(["reproduce", "table3", "--long"])
    assert calls == [(13, refvalues.EIGENVALUE_PRODUCTS_PK, 9)]
    return code, capsys.readouterr().out.splitlines()


def test_reproduce_table3_passes_on_the_pinned_products(monkeypatch, capsys):
    pinned = refvalues.EIGENVALUE_PRODUCTS_1E12
    assert _table3(monkeypatch, capsys, pinned) == (0, [
        *(f"a_{j}: {a:.14f} vs {a:.14f} PASS" for j, a in pinned.items()),
        "w_6 at 1e12: 1.912 vs 1.912 PASS",
        "w_30 at 1e12: 1.580 vs 1.579 PASS",
        "table3: PASS",
    ])


def test_reproduce_table3_fails_on_a_moved_product(monkeypatch, capsys):
    pinned = refvalues.EIGENVALUE_PRODUCTS_1E12
    code, lines = _table3(monkeypatch, capsys, {**pinned, 4: pinned[4] + 1e-10})
    assert code == 1
    assert lines[2] == f"a_4: {pinned[4] + 1e-10:.14f} vs {pinned[4]:.14f} FAIL"
    assert [line.endswith("PASS") for line in lines[:8]] == [j != 4 for j in range(2, 10)]
    assert lines[-1] == "table3: FAIL"


def test_reproduce_long_only_with_table3(capsys):
    assert main(["reproduce", "table2", "--long"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "--long" in captured.err


def test_reproduce_targets_repeat_in_one_process(monkeypatch, capsys):
    """Two shuffled rounds of the targets through one process's parser print the same
    text, and every call, a refused one too, restores the int-to-str digit limit."""
    monkeypatch.delenv("GAPSIEVE_CACHE_DIR", raising=False)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
    start = digits()
    rng = random.Random(7)
    texts = {}
    for _ in range(2):
        order = ["table2", "table5", "fig5", "g7-attrition"]
        rng.shuffle(order)
        for target in order:
            assert main(["reproduce", target]) == 0
            assert digits() == start
            text = capsys.readouterr().out
            assert text.endswith(f"{target}: PASS\n")
            assert texts.setdefault(target, text) == text
    assert main(["reproduce", "table3"]) == 1
    assert digits() == start


def test_unknown_constellation_string(cycle13, capsys):
    assert main(["census", "--cycle", cycle13, "--constellation", "2,x"]) == 1


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--cycle", "--gap", "--constellation", "--max-len", "--csv"):
        assert flag in out


@pytest.mark.parametrize(
    "command",
    ["build", "verify", "census", "model", "asymptotic", "repetition",
     "ajk", "crossover", "attrition", "naive-error", "reproduce"],
)
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def _outcome(argv, capsys, csv_path):
    """main's exit code (a usage error's SystemExit code too), stdout, stderr and the
    bytes it wrote to csv_path, which is removed first."""
    csv_path.unlink(missing_ok=True)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, csv_path.exists() and csv_path.read_bytes()


def test_calls_through_the_shared_parser_match_a_fresh_parser(
        cycle13, tmp_path, monkeypatch, capsys):
    """The --gap and --gaps actions share one default list per parser; no call's
    targets reach the next call's arguments."""
    monkeypatch.setenv("GAPSIEVE_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "out.csv"
    naive = ["naive-error", "--pmin", "11", "--pmax", "13", "--gaps", "2", "--gaps", "4",
             "--csv", str(out)]
    calls = [
        ["census", "--cycle", cycle13, "--gap", "2", "--gap", "4", "--csv", str(out)],
        ["census", "--cycle", cycle13, "--constellation", "2,10,2", "--csv", str(out)],
        ["census", "--cycle", cycle13],
        naive,
        naive,
        ["naive-error", "--pmin", "11", "--pmax", "13", "--gaps", "6", "--bogus",
         "--csv", str(out)],
        ["census", "--cycle", cycle13, "--gap", "6", "--csv", str(out)],
    ]
    shared = []
    for argv in calls:
        shared.append(_outcome(argv, capsys, out))
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            assert _outcome(argv, capsys, out) == shared[-1]
    assert [s[0] for s in shared] == [0, 0, 1, 0, 0, 1, 0]
    assert "no target" in shared[2][2]
    assert "unrecognized arguments: --bogus" in shared[5][2]
    assert {r[0] for r in csv_rows(out)[1:]} == {"6"}
    assert shared[3] == shared[4]


def test_main_builds_its_parser_once(monkeypatch, capsys):
    build = cli.build_parser
    builds = []

    def counted_build():
        builds.append(build())
        return builds[-1]

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    for _ in range(10):
        assert main(["asymptotic", "--gap", "30", "--at-prime", "0"]) == 0
    assert capsys.readouterr().out == "1\n" * 10
    assert len(builds) == 1
    assert build() is not build()
