import pytest

from gapsieve.cli import main
from gapsieve.cycle import build_primorial_cycle, read_cache, write_cache


@pytest.fixture
def cycle13(tmp_path):
    path = tmp_path / "g13.gapc"
    assert main(["build", "--prime", "13", "--out", str(path)]) == 0
    return str(path)


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


def test_verify(cycle13, capsys):
    assert main(["verify", "--cycle", cycle13, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle: ok" in out


def test_verify_missing_file(tmp_path, capsys):
    assert main(["verify", "--cycle", str(tmp_path / "none.gapc")]) == 1


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


def test_model(cycle13, capsys):
    assert main(["model", "--cycle", cycle13, "--gap", "6", "--to-prime", "17"]) == 0
    out = capsys.readouterr().out
    # stage 13 count 1690 and the stepped stage-17 count 15*1690 + 1280
    assert "13,1,1690,338/297" in out
    assert "17,1,26630,5326/4455" in out


def test_model_rejects_target_not_fully_valid(tmp_path, capsys):
    # gap 30 spans more than 2 * 11, so stepping the stage-7 census would
    # print stage-13 counts that contradict the stage-13 census
    path = tmp_path / "g7.gapc"
    assert main(["build", "--prime", "7", "--out", str(path)]) == 0
    capsys.readouterr()
    csv = tmp_path / "model.csv"
    assert main(["model", "--cycle", str(path), "--gap", "30", "--to-prime", "13",
                 "--csv", str(csv)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "asymptotic-only at stage 7" in captured.err
    assert not csv.exists()


def test_asymptotic_gap(capsys):
    assert main(["asymptotic", "--gap", "30"]) == 0
    assert capsys.readouterr().out.strip() == "8/3"
    assert main(["asymptotic", "--gap", "74", "--at-prime", "31"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_asymptotic_constellation(cycle13, capsys):
    assert main(["asymptotic", "--constellation", "2,10,2,10,2", "--cycle", cycle13]) == 0
    assert capsys.readouterr().out.strip() == "144/35"


def test_repetition(capsys):
    assert main(["repetition", "--gap", "6", "--length", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "g,qbar,w_partial,w_infinity,feasible"
    assert out[1] == "6,3,2,2,true"
    assert main(["repetition", "--gap", "2", "--length", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[1].endswith("false")


def test_ajk(capsys):
    assert main(["ajk", "--p0", "13", "--pk", "17", "--jmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "2,0.93333333333333" in out


def test_crossover(cycle13, capsys):
    assert main(["crossover", "--gap-a", "30", "--gap-b", "6", "--cycle", cycle13]) == 0
    out = capsys.readouterr().out
    assert out.startswith("a2* = 0.062")


def test_attrition_cli(cycle13, tmp_path, capsys):
    out = tmp_path / "attr.csv"
    assert main(["attrition", "--cycle", cycle13, "--csv", str(out)]) == 0
    text = capsys.readouterr().out
    assert "-> 3243 gaps" in text
    assert "max surviving gap 52" in text
    assert out.read_text().splitlines()[1] == "prime,gap,count,ratio_to_gap2"


def test_attrition_cli_without_sieving_primes(tmp_path, capsys):
    path = tmp_path / "g3.gapc"
    assert main(["build", "--prime", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "attr.csv"
    assert main(["attrition", "--cycle", str(path), "--csv", str(out)]) == 0
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


@pytest.mark.parametrize("target", ["g7-attrition", "table2", "table5", "fig5"])
def test_reproduce_targets_pass(capsys, monkeypatch, tmp_path, target):
    monkeypatch.setenv("GAPSIEVE_CACHE_DIR", str(tmp_path))
    assert main(["reproduce", target]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS" in out


def test_reproduce_table3_requires_long(capsys):
    assert main(["reproduce", "table3"]) == 1
    assert "--long" in capsys.readouterr().err


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
