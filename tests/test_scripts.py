"""Smoke tests of the experiment scripts, each run in a fresh interpreter."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pqst

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(pqst.__file__).resolve().parents[1])


def _run_script(name, *args, cwd):
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                         capture_output=True, text=True, cwd=cwd, check=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    return out.stdout


def test_run_mse_scaling_writes_six_panels(tmp_path):
    _run_script("run_mse_scaling.py", "--trials", "20", "--outdir", str(tmp_path), cwd=tmp_path)
    paths = sorted(tmp_path.glob("mse_panel_*.csv"))
    assert len(paths) == 6
    for path in paths:
        with open(path, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 16  # 4 methods x 4 budgets


def test_reconstruct_states_prints_five_states(tmp_path):
    out = _run_script("reconstruct_states.py", "--shots", "2000", cwd=tmp_path)
    rows = [line.split() for line in out.splitlines() if line.startswith("table2-")]
    assert [row[0] for row in rows] == [f"table2-{k}" for k in ("i", "ii", "iii", "iv", "v")]
    assert all(len(row) == 3 for row in rows)
