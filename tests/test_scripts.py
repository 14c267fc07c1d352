"""Smoke tests: the scripts under scripts/ run against the library and agree with it."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def test_chi_table_check():
    proc = run_script("chi_table.py", "--n", "4", "--check")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == 8  # one row per composition of 4
    assert "MISMATCH" not in proc.stdout
    assert all(row.endswith("[ok]") for row in rows)
    assert rows[0].split()[0] == "(1," and rows[-1].split()[0] == "(4,)"


def test_species_counts_match_the_expansion():
    proc = run_script("species_counts.py", "--max-n", "10")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["n", "count", "egf", "coeff", "match"]
    assert [int(row.split()[0]) for row in rows] == list(range(11))
    assert all(row.split()[-1] == "ok" for row in rows)


@pytest.mark.parametrize("name, argv, message", [
    ("chi_table.py", ["--n", "-1"], "--n must be nonnegative"),
    ("chi_table.py", ["--n", "9", "--check"], "exceeds the recount bound 8"),
    ("species_counts.py", ["--max-n", "-1"], "--max-n must lie in 0..1000"),
    ("species_counts.py", ["--max-n", "1001"], "--max-n must lie in 0..1000"),
    ("chi_table.py", ["--n", "13"], "--n 13 exceeds the degree bound 12"),
])
def test_script_refuses_out_of_range_arguments(name, argv, message):
    proc = run_script(name, *argv)
    assert proc.returncode == 2
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_species_counts_from_zero():
    proc = run_script("species_counts.py", "--max-n", "0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split() == ["0", "1", "1", "ok"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, broken", [
    ("chi_table.py", ["--n", "3", "--check"], "chi_bruteforce"),
    ("species_counts.py", ["--max-n", "4"], "egf_counts"),
])
def test_script_exits_1_on_mismatch(monkeypatch, capsys, name, argv, broken):
    script = load_script(name)
    original = getattr(script, broken)
    wrong = {
        "chi_bruteforce": lambda alpha: 2 * original(alpha),
        "egf_counts": lambda max_n: [c + 1 for c in original(max_n)],
    }[broken]
    monkeypatch.setattr(script, broken, wrong)
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code == 1
    assert "MISMATCH" in capsys.readouterr().out
