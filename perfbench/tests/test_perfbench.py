"""Tests of the benchmark itself: span arithmetic, tracer hygiene, gates on
corrupted outputs, smoke-sized passes of each workload, the metric names of
BENCHMARK.json, and the refusal to run without the pqst sources.

Run with: python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import gates  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

wl.load_pqst()
import pqst.cli  # noqa: E402,F401
from pqst import bench, shadow  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Span arithmetic.

def synthetic_spans():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7] (c is named like a)
    return [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 5.0, 9.0, 0],
            ["a", 6.0, 7.0, 2]]


def test_self_times_on_synthetic_tree():
    assert tracing.self_times(synthetic_spans()) == [3.0, 3.0, 3.0, 1.0]


def test_outermost_time_does_not_double_count_nesting():
    spans = synthetic_spans()
    assert tracing._seconds(spans, "a") == 4.0
    assert tracing._seconds(spans, "b", "a") == 7.0       # c lies inside b
    assert tracing._calls(spans, "a") == 2


def test_segments_are_joined_with_parent_offsets():
    spans, counters = tracing._concat([(synthetic_spans(), {"x": 1}),
                                       (synthetic_spans(), {"x": 2})])
    assert spans[5][3] == 4 and spans[7][3] == 6 and counters == {"x": 3}
    assert tracing.self_times(spans)[4:] == [3.0, 3.0, 3.0, 1.0]


# ---------------------------------------------------------------------------
# Tracer installation.

def test_tracer_wraps_every_import_site_and_uninstalls_cleanly():
    original = shadow._cell_snapshots
    assert bench._cell_snapshots is original
    tr = tracing.Tracer()
    tr.install()
    try:
        assert shadow._cell_snapshots is bench._cell_snapshots is not original
        assert tracing.installed_wrappers() > 50
        bench.load_fixture("rho2")
    finally:
        tr.uninstall()
    assert shadow._cell_snapshots is bench._cell_snapshots is original
    assert tracing.installed_wrappers() == 0
    names = {s[0] for s in tr.spans}
    assert {"bench.load_fixture", "qcore.DensityMatrix", "qcore.jacobi_eigh"} <= names


# ---------------------------------------------------------------------------
# Gates on good and deliberately corrupted outputs.

SHOTS = [100, 1000, 10_000, 100_000]


def panel(pqst_scale=1.0, pauli_scale=2.0, slope=-1.0):
    mse = lambda scale, s: [scale * (m / 100.0) ** s for m in SHOTS]  # noqa: E731
    return {"pqst-auto": (SHOTS, mse(pqst_scale, slope)), "pauli": (SHOTS, mse(pauli_scale, -1.0))}


def test_mse_gates():
    assert gates.mse_panel(panel()) == {"pqst-auto": [], "pauli": []}
    assert gates.mse_panel(panel(slope=-0.7))["pqst-auto"]
    assert gates.mse_panel(panel(pqst_scale=3.0))["pqst-auto"]
    bad = panel()
    bad["pauli"] = (SHOTS, [1.0, math.nan, 0.1, 0.01])
    assert gates.mse_panel(bad)["pauli"]
    bad["pauli"] = (SHOTS, [1.0, 0.0, 0.1, 0.01])
    assert gates.mse_panel(bad)["pauli"]


def test_reconstruction_gates():
    rho = wl.random_density_matrices(3, 1, 2)[0]
    stderr = np.full(rho.shape, 1e-3)
    assert gates.exact_reconstruction(rho, rho) == []
    assert gates.exact_reconstruction(rho + 1e-8, rho)
    assert gates.sampled_reconstruction(rho, rho, stderr) == []
    skew = rho.copy()
    skew[0, 1] += 1e-9j
    assert gates.sampled_reconstruction(skew, rho, stderr)
    assert gates.sampled_reconstruction(rho + np.eye(4) * 1e-6, rho, stderr)
    far = rho.copy()
    far[0, 1] += 0.01
    far[1, 0] += 0.01
    assert gates.sampled_reconstruction(far, rho, stderr)


def test_owner_index_follows_differing_qubits():
    owner = gates.owner_index(2)
    assert owner[0, 0] == 0 and owner[0, 3] == 0 and owner[0, 1] == 1 and owner[1, 2] == 0


def test_cli_gates(tmp_path):
    assert gates.cli_output("validate", 0, "50/50 checks passed\n") == []
    assert gates.cli_output("validate", 0, "49/50 checks passed\n")
    assert gates.cli_output("validate", 1, "50/50 checks passed\n")
    est = "estimate: 3.5\nstderr: 0.1\n"
    assert gates.cli_output("estimate_pqst", 0, est, 3.4) == []
    assert gates.cli_output("estimate_pqst", 0, est, 2.0)
    assert gates.cli_output("estimate_pqst", 0, "estimate: 3.5\nstderr: 0.0\n", 3.4)
    assert gates.cli_output("estimate_rotated_exact", 0, "estimate: 0.19\n", 0.19) == []
    assert gates.cli_output("estimate_rotated_exact", 0, "estimate: 0.1901\n", 0.19)
    assert gates.cli_output("reconstruct_exact", 0, "fidelity vs input: 1.0000000159\n") == []
    assert gates.cli_output("reconstruct_exact", 0, "fidelity vs input: 0.99\n")
    assert gates.cli_output("reconstruct_sampled", 0, "fidelity vs input: 1.0009\n") == []
    assert gates.cli_output("reconstruct_sampled", 0, "fidelity vs input: 0.5\n")
    assert gates.cli_output("reconstruct_sampled", 0, "fidelity vs input: nan\n")
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("method,mse\n" + "pqst-auto,0.5\n" * 6)
    bad.write_text("method,mse\n" + "pqst-auto,0.5\n" * 5 + "pauli,nan\n")
    assert gates.cli_output("bench", 0, "", csv_path=good, csv_rows=6) == []
    assert gates.cli_output("bench", 0, "", csv_path=bad, csv_rows=6)
    assert gates.cli_output("bench", 0, "", csv_path=good, csv_rows=8)


# ---------------------------------------------------------------------------
# Smoke-sized passes.

@pytest.mark.parametrize("trace", [False, True])
def test_mse_panels_smoke(monkeypatch, tmp_path, trace):
    monkeypatch.setattr(wl, "PANELS", (("a", "rho2", "O2X"),))
    monkeypatch.setattr(wl, "TRIALS", 200)
    passer = worker._PassTimer(trace, tmp_path, 0)
    (result,) = worker.mse_session(5, 0, passer)
    passer.dump()
    assert len(result["ops"]) == 4 and all(not o["reasons"] for o in result["ops"])
    assert result["stats"]["panels"]["a"]["pqst_below_pauli"]
    if trace:
        layers = result["layers"]
        assert layers["qcore.spawn_rng_calls"] == 4 * 4 * 200
        assert layers["bench.trials"] == 4 * 4 * 200 and layers["bench.models_calls"] == 4
        assert 0 < layers["bench.distinct_value_ratio"] <= 1
        assert 0 < layers["bench.trial_loop_s"] < result["wall_s"]
        assert (tmp_path / "session0-pass0.spans.json").exists()
    assert tracing.installed_wrappers() == 0


@pytest.mark.parametrize("trace", [False, True])
def test_reconstruct_4q_smoke(monkeypatch, tmp_path, trace):
    monkeypatch.setattr(wl, "RECON_STATES", 2)
    monkeypatch.setattr(wl, "RECON_SHOTS", 2000)
    passes = worker.reconstruct_session(5, 0, worker._PassTimer(trace, tmp_path, 0), 0.0, 1)
    assert len(passes) == 1 and len(passes[0]["ops"]) == 2
    assert all(not o["reasons"] for o in passes[0]["ops"])
    if trace:
        layers = passes[0]["layers"]
        assert layers["shadow.sampled_pse_calls"] == 8 and layers["qcore.eigh_calls"] == 6
        assert layers["ensembles.build_calls"] == 0
    assert tracing.installed_wrappers() == 0


def test_cli_cold_smoke(monkeypatch, tmp_path):
    full = wl.cli_commands
    keep = {"estimate_pqst", "estimate_rotated_exact", "reconstruct_exact"}
    monkeypatch.setattr(wl, "cli_commands", lambda *a: [c for c in full(*a) if c[0] in keep])
    result = run.run_cli_cold(5, 0.0, True, tmp_path)
    plain, traced = result["passes"]
    assert not plain["traced"] and traced["traced"]
    assert all(not o["reasons"] for p in result["passes"] for o in p["ops"])
    cli = tracing.cli_metrics(traced["children"])
    assert cli["cli.estimate_pqst_ms"] > 0 and cli["cli.import_ms"] > 0
    assert traced["layers"]["qcore.fidelity_over_one"] == 1   # table2-v reads 1 + 1.6e-8
    assert result["wrappers_left"] == 0 and len(result["setups"]) == run.SETUP_REPEATS


def test_the_cli_list_runs_one_of_each_command():
    stems = [c[0] for c in wl.cli_commands(1, 0, Path("."))]
    assert stems == list(tracing.CLI_COMMANDS)


# ---------------------------------------------------------------------------
# Metric names and the result line.

def test_per_layer_names_match_benchmark_json():
    produced = set(tracing.layer_metrics([])) | set(tracing.cli_metrics([]))
    produced.add("trace.overhead_s")
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_end_to_end_names_match_benchmark_json():
    passes = [{"traced": False, "wall_s": 1.0, "ops": [{"ms": float(i)} for i in range(72)]}]
    fake = {"passes": passes, "setups": [0.5], "rss_mb": 40.0}
    metrics, detail = run.end_to_end("mse_panels", fake)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert metrics["op_tail_ms"][0] == 61.0 and detail["tail_percentile"] == pytest.approx(86.11, 1e-3)


def test_speed_factors_scale_each_interval_by_its_own_calibrations():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.factor([ref / 2, 3 * ref / 2]) == 1.0
    assert hostspeed.factor([2 * ref]) == 0.5
    layers = {"qcore.eigh_s": 3.0, "qcore.eigh_calls": 7, "cli.import_ms": 100.0}
    measured = {"setups": [2.0, 3.0], "setup_factors": [0.5, 2.0], "passes": [
        {"traced": True, "wall_s": 4.0, "speed_factor": 0.5, "layers": layers,
         "ops": [{"ms": 10.0, "speed_factor": 2.0}, {"ms": 10.0, "speed_factor": 0.25}]}]}
    scaled = run.at_reference_speed(measured)
    (p,) = scaled["passes"]
    assert scaled["setups"] == [1.0, 6.0] and p["wall_s"] == 2.0
    assert [o["ms"] for o in p["ops"]] == [20.0, 2.5]
    assert p["layers"] == {"qcore.eigh_s": 1.5, "qcore.eigh_calls": 7, "cli.import_ms": 50.0}
    assert measured["passes"][0]["ops"][0]["ms"] == 10.0   # the measured run is kept


def test_launcher_reports_its_calibration(tmp_path):
    meta = tmp_path / "meta.json"
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "launch.py"), "--meta", str(meta),
                           "--", "--help"], capture_output=True, text=True, timeout=60)
    doc = json.loads(meta.read_text())
    assert proc.returncode == 0 and doc["exit_code"] == 0 and doc["wrappers_left"] == 0
    assert len(doc["kernel_s"]) == 2 and doc["calibration_s"] >= sum(doc["kernel_s"]) > 0


def test_tail_takes_median_over_complete_blocks():
    values = list(range(32)) + [v + 100 for v in range(32)] + [1000.0] * 5
    assert run.tail(values, 32) == (71.0, pytest.approx(68.75))   # median of 21 and 121


def test_run_refuses_a_directory_without_pqst_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
