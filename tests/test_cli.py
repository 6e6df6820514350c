"""Command-line interface: commands, exit codes, determinism."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import ftakit
from ftakit import is_trim, parse_fta
from ftakit.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, *args, **kw):
    return runner.invoke(main, list(args), catch_exceptions=False, **kw)


def test_peak_density_prints_table_value(runner):
    result = _invoke(runner, "peak-density", "--n", "8")
    assert result.exit_code == 0
    assert result.output.strip() == "0.0431"
    assert _invoke(runner, "peak-density", "--n", "2").output.strip() == "0.6364"


def test_module_runs_as_a_script():
    src = str(Path(ftakit.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "ftakit.cli", "peak-density", "--n", "8"],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0.0431"


def test_peak_density_rejects_n1(runner):
    result = runner.invoke(main, ["peak-density", "--n", "1"])
    assert result.exit_code == 3


def test_generate_writes_parseable_trim_document(runner, tmp_path):
    out = tmp_path / "m.fta"
    result = _invoke(runner, "generate", "--n", "4", "--d2", "0.2",
                     "--seed", "9", "--out", str(out))
    assert result.exit_code == 0
    fta = parse_fta(out.read_text(encoding="utf-8"))
    assert is_trim(fta)
    assert fta.n == 4


def test_generate_is_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.fta", tmp_path / "b.fta"
    for path in (a, b):
        _invoke(runner, "generate", "--n", "5", "--d2", "0.15",
                "--seed", "31", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_generate_to_stdout(runner):
    result = _invoke(runner, "generate", "--n", "3", "--d2", "0.3", "--seed", "1")
    assert result.exit_code == 0
    assert parse_fta(result.stdout).n == 3
    assert "seed 1" in result.stderr


def test_generate_no_trim(runner):
    result = _invoke(runner, "generate", "--n", "3", "--d2", "0.0",
                     "--d0", "0.0", "--no-trim", "--seed", "4")
    assert result.exit_code == 0
    assert not parse_fta(result.stdout).transitions


def test_determinize_then_minimize_example(runner, tmp_path, example_doc):
    src = tmp_path / "ex.fta"
    det = tmp_path / "det.fta"
    src.write_text(example_doc, encoding="utf-8")
    result = _invoke(runner, "determinize", "--in", str(src), "--out", str(det))
    assert result.exit_code == 0
    assert result.output.strip() == "4"
    result = _invoke(runner, "minimize", "--in", str(det))
    assert result.exit_code == 0
    assert result.output.strip() == "4"


@pytest.mark.parametrize("command", ["determinize", "minimize"])
def test_document_on_stdout_pipes_on(runner, tmp_path, command):
    src = tmp_path / "m.fta"
    _invoke(runner, "generate", "--n", "4", "--d2", "0.3", "--seed", "7", "--out", str(src))
    piped = _invoke(runner, command, "--in", str(src), "--out", "-")
    assert piped.exit_code == 0
    parse_fta(piped.stdout)
    # The size still comes out, on stderr.
    size = _invoke(runner, command, "--in", str(src)).stdout
    assert piped.stderr.splitlines()[-1] == size.strip()
    canonical = _invoke(runner, "minimize", "--in", str(src)).stdout
    again = _invoke(runner, "minimize", "--in", "-", input=piped.stdout)
    assert again.exit_code == 0
    assert again.stdout == canonical


def test_pipeline_deterministic(runner):
    args = ["pipeline", "--n", "4", "--d2", "0.1696", "--d0", "0.5", "--seed", "7"]
    first = _invoke(runner, *args)
    second = _invoke(runner, *args)
    assert first.exit_code == 0
    assert first.output == second.output
    lines = first.output.strip().split("\n")
    assert lines[-2].startswith("det_size ")
    assert lines[-1].startswith("canonical_size ")
    det = int(lines[-2].split()[1])
    canon = int(lines[-1].split()[1])
    assert 1 <= canon <= det


def test_exit_code_parse_error(runner, tmp_path):
    bad = tmp_path / "bad.fta"
    bad.write_text("states 1\nfinals 1\nalphabet alpha:0\nalpha -> 9\n")
    result = runner.invoke(main, ["determinize", "--in", str(bad)])
    assert result.exit_code == 3
    assert "error" in result.output or "error" in (result.stderr or "")


def test_exit_code_undecodable_document(runner, tmp_path):
    data = b"states 0\nfinals 0\nalphabet a:0\na -> 0 # \xff\n"
    bad = tmp_path / "bad.fta"
    bad.write_bytes(data)
    for args, stdin in (([str(bad)], None), (["-"], data)):
        result = runner.invoke(main, ["minimize", "--in", *args], input=stdin)
        assert result.exit_code == 3
        assert result.stderr.splitlines()[-1] == (
            "error: document is not UTF-8: invalid start byte at byte 40")


def test_exit_code_missing_file(runner, tmp_path):
    result = runner.invoke(main, ["determinize", "--in", str(tmp_path / "nope.fta")])
    assert result.exit_code == 4


def test_exit_code_exhaustion(runner):
    result = runner.invoke(main, ["generate", "--n", "3", "--d2", "0",
                                  "--d0", "0", "--seed", "2",
                                  "--max-attempts", "25"])
    assert result.exit_code == 5


@pytest.mark.parametrize("command", ["determinize", "minimize"])
def test_exit_code_negative_max_subsets(runner, tmp_path, example_doc, command):
    src = tmp_path / "ex.fta"
    src.write_text(example_doc, encoding="utf-8")
    result = runner.invoke(main, [command, "--in", str(src), "--max-subsets", "-1"])
    assert result.exit_code == 3
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: max_subsets must be at least 0, got -1"]


def test_exit_code_check_without_cases(runner):
    result = runner.invoke(main, ["check", "--cases", "0", "--seed", "1"])
    assert result.exit_code == 3
    assert result.stderr.splitlines()[-1] == "error: cases must be at least 1"
    assert "ok" not in result.stdout


def test_exit_code_bad_flag(runner):
    result = runner.invoke(main, ["generate", "--n", "3"])
    assert result.exit_code == 2


def test_sweep_csv_and_worker_independence(runner, tmp_path):
    csv_1 = tmp_path / "w1.csv"
    csv_2 = tmp_path / "w2.csv"
    base = ["sweep", "--n", "3", "--steps", "6", "--trials", "4", "--seed", "11"]
    assert _invoke(runner, *base, "--workers", "1", "--out", str(csv_1)).exit_code == 0
    assert _invoke(runner, *base, "--workers", "2", "--out", str(csv_2)).exit_code == 0
    assert csv_1.read_bytes() == csv_2.read_bytes()
    header = csv_1.read_text().split("\n", 1)[0]
    assert header == "setting,n,x,d2,trials,trim_attempts,mean_det_size,mean_canonical_size"


def test_sweep_prints_seed(runner):
    result = _invoke(runner, "sweep", "--n", "3", "--steps", "4",
                     "--trials", "3", "--seed", "55")
    assert result.exit_code == 0
    combined = result.output + (result.stderr or "")
    assert "seed 55" in combined


def test_table1_small(runner, tmp_path):
    out = tmp_path / "t1.csv"
    result = _invoke(runner, "table1", "--n", "4", "--steps", "8",
                     "--trials", "6", "--seed", "3", "--out", str(out))
    assert result.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,expected_d2,observed_d2,ci_lo,ci_hi,contains"
    assert lines[1].startswith("4,0.169")


def test_table2_small(runner, tmp_path):
    out = tmp_path / "t2.csv"
    result = _invoke(runner, "table2", "--trials", "60", "--seed", "6",
                     "--out", str(out))
    assert result.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "d2,n,trials,trim,ratio,ci_half_width"
    assert len(lines) == 1 + 43  # 5x10 grid minus the 7 blank cells


def test_check_command(runner):
    result = _invoke(runner, "check", "--cases", "8", "--seed", "12")
    assert result.exit_code == 0
    assert result.stdout == "ok: 8 cases agree up to height 4\n"


@pytest.mark.parametrize("args", [
    ["sweep", "--n", "3", "--steps", "1", "--trials", "1", "--seed", "1"],
    ["table1", "--n", "3", "--steps", "1", "--trials", "1", "--seed", "1"],
    ["sweep", "--n", "3", "--steps", "1", "--trials", "1", "--seed", "1",
     "--max-attempts", "1"],
])
def test_exit_code_too_few_points_to_fit(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: need at least 3 positive-weight points")
    assert "Traceback" not in result.output


def test_workers_env_is_ignored(runner):
    args = ["sweep", "--n", "3", "--steps", "2", "--trials", "1", "--seed", "1"]
    plain = _invoke(runner, *args)
    result = _invoke(runner, *args, env={"FTAKIT_WORKERS": "many"})
    assert result.exit_code == 0
    assert result.stdout == plain.stdout


@pytest.mark.parametrize("flag, message", [
    (["--workers", "0"], "workers must be at least 1, got 0"),
    (["--workers", "-3"], "workers must be at least 1, got -3"),
])
def test_exit_code_workers_below_one(runner, flag, message):
    result = runner.invoke(main, ["sweep", "--n", "3", "--steps", "2", "--trials", "1",
                                  "--seed", "1", *flag])
    assert result.exit_code == 3
    assert result.stderr.splitlines()[-1] == f"error: {message}"
    assert result.stdout == ""


@pytest.mark.parametrize("args", [
    ["table1", "--n", "3", "--steps", "2", "--trials", "1"],
    ["table2", "--trials", "1"],
])
def test_exit_code_table_workers_below_one(runner, args):
    result = runner.invoke(main, [*args, "--seed", "1", "--workers", "0"])
    assert result.exit_code == 3
    assert result.stderr.splitlines()[-1] == "error: workers must be at least 1, got 0"
    assert result.stdout == ""
