"""Smoke tests of the experiment scripts, each run in a fresh interpreter."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqst

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(pqst.__file__).resolve().parents[1])


def _run_script(name, *args, cwd):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": SRC})


def test_run_mse_scaling_writes_six_panels(tmp_path):
    out = _run_script("run_mse_scaling.py", "--trials", "20", "--outdir", str(tmp_path),
                      cwd=tmp_path)
    assert out.returncode == 0
    paths = sorted(tmp_path.glob("mse_panel_*.csv"))
    assert len(paths) == 6
    for path in paths:
        with open(path, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 16  # 4 methods x 4 budgets


def test_reconstruct_states_prints_five_states(tmp_path):
    out = _run_script("reconstruct_states.py", "--shots", "2000", cwd=tmp_path)
    assert out.returncode == 0
    rows = [line.split() for line in out.stdout.splitlines() if line.startswith("table2-")]
    assert [row[0] for row in rows] == [f"table2-{k}" for k in ("i", "ii", "iii", "iv", "v")]
    assert all(len(row) == 3 for row in rows)


@pytest.mark.parametrize("name,args,message", [
    ("reconstruct_states.py", ["--shots", "0"], "--shots must be >= 1, got 0"),
    ("reconstruct_states.py", ["--seed", "-1"], "--seed must be >= 0, got -1"),
    ("run_mse_scaling.py", ["--trials", "0"], "--trials must be >= 1, got 0"),
    ("run_mse_scaling.py", ["--seed", "-1"], "--seed must be >= 0, got -1"),
    ("reconstruct_states.py", ["--shots", str(2**63)],
     f"--shots must be <= 2^63 - 1, got {2**63}"),
])
def test_scripts_reject_bad_arguments_exit_2(tmp_path, name, args, message):
    out = _run_script(name, *args, cwd=tmp_path)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("usage: ")
    assert out.stderr.endswith(f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []
