"""Random argv over every subcommand: main() returns 0, 1 or 2, or argparse exits 1.

Any other exception is a traceback the exit-code contract forbids.  Paths are
drawn from a stage-7 and a stage-13 cache, a cache with a zero gap, one whose
header lists no factors, a missing file, a directory and a path through a
regular file; stages stay <= 17 and prime bounds <= 1000 so
each run is small.  ``reproduce table3 --long`` sieves for hours and is never
drawn.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

from gapsieve.cli import main
from gapsieve.cycle import GapCycle, write_cache


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for p in (7, 13):
        assert main(["build", "--prime", str(p), "--out", str(root / f"g{p}.gapc")]) == 0
    (root / "dir").mkdir()
    (root / "file").write_text("not a directory\n")
    # a zero gap, and a header with no factors
    zero = np.array([6, 4, 2, 0, 6, 4, 6, 2], np.uint16)
    write_cache(str(root / "zero.gapc"), GapCycle((2, 3, 5), zero))
    write_cache(str(root / "unit.gapc"), GapCycle((), np.ones(1, np.uint16)))
    bad = [str(root / "dir"), str(root / "file" / "x"), str(root / "missing.gapc")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GAPSIEVE_CACHE_DIR", str(root / "cache"))
        yield {
            "cycle": [str(root / "g7.gapc"), str(root / "g13.gapc"), str(root / "zero.gapc"),
                      str(root / "unit.gapc"), *bad],
            "out": [str(root / "out.txt"), *bad],
        }


def small(lo=-3, hi=40):
    return st.integers(lo, hi).map(str)


def constellation():
    return st.one_of(
        st.lists(st.integers(-2, 12), min_size=0, max_size=5).map(
            lambda gs: ",".join(map(str, gs))
        ),
        st.just("2,x"),
    )


def options(paths):
    """Each subcommand's flags, with a strategy for each flag's value list."""
    cycle = st.sampled_from(paths["cycle"]).map(lambda p: [p])
    out = st.sampled_from(paths["out"]).map(lambda p: [p])
    csv = st.sampled_from(["-", *paths["out"]]).map(lambda p: [p])
    flag = st.just([])

    def one(s):
        return s.map(lambda v: [v])

    stage = one(small(-2, 17))
    gap = one(small(-4, 64))
    return {
        "build": {"--prime": stage, "--out": out},
        "verify": {"--cycle": cycle, "--oracle": flag},
        "census": {
            "--cycle": cycle,
            "--gap": gap,
            "--constellation": one(constellation()),
            "--max-len": one(small(-2, 12)),
            "--csv": csv,
            "--normalize": flag,
        },
        "model": {"--cycle": cycle, "--gap": gap, "--to-prime": one(small(-2, 60)), "--csv": csv},
        "asymptotic": {
            "--gap": gap,
            "--at-prime": one(small(-2, 1000)),
            "--constellation": one(constellation()),
        },
        "repetition": {"--gap": gap, "--length": one(small(-2, 12))},
        "ajk": {
            "--p0": one(small(-2, 40)),
            "--pk": one(small(-2, 1000)),
            "--jmax": one(small(-2, 12)),
        },
        "crossover": {"--gap-a": gap, "--gap-b": gap, "--cycle": cycle, "--map-prime": flag},
        "attrition": {"--cycle": cycle, "--csv": csv},
        "naive-error": {
            "--pmin": stage,
            "--pmax": stage,
            "--gaps": st.lists(small(-4, 12), max_size=3),
            "--constellation": one(constellation()),
            "--csv": csv,
        },
        "reproduce": {},
    }


@st.composite
def argvs(draw, paths):
    table = options(paths)
    command = draw(st.sampled_from(sorted(table)))
    if command == "reproduce":
        return [command, draw(st.sampled_from(["table2", "table3", "table5", "fig5",
                                               "g7-attrition", "table4"]))]
    argv = [command]
    for flag, values in table[command].items():
        # most flags present, so runs get past argparse's required checks
        if draw(st.integers(0, 4)):
            argv += [flag, *draw(values)]
    return argv


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_argv_never_tracebacks(paths, data):
    argv = data.draw(argvs(paths), label="argv")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        assert exc.code == 1
        return
    assert code in (0, 1, 2)


@pytest.mark.parametrize(
    "command",
    [["verify", "--oracle"], ["census", "--gap", "2"], ["model", "--gap", "2", "--to-prime", "17"],
     ["crossover", "--gap-a", "2", "--gap-b", "4"], ["attrition", "--csv", "-"]],
    ids=lambda c: c[0],
)
def test_every_cycle_path_exits_with_a_code(paths, capsys, command):
    # the random draws may miss a path for a command; this covers each pair once
    for path in paths["cycle"]:
        assert main([*command, "--cycle", path]) in (0, 1, 2)
