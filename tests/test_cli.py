import json

import pytest
from click.testing import CliRunner

from pqst.bench import load_fixture
from pqst.cli import main
from pqst.operators import expectation, parse_observable
from pqst.qcore import save_density_matrix
from conftest import random_density


class _Result:
    """CliRunner result with stdout and stderr merged into .output."""

    def __init__(self, result):
        self.exit_code = result.exit_code
        err = ""
        try:
            err = result.stderr
        except (AttributeError, ValueError):
            pass
        self.output = result.output + err


def run(*args):
    return _Result(CliRunner().invoke(main, list(args)))


def test_validate_passes():
    result = run("validate")
    assert result.exit_code == 0
    assert "FAIL" not in result.output
    assert "checks passed" in result.output


def test_ensemble_info():
    result = run("ensemble-info", "--ensemble", "zeta-m:2", "--n", "3")
    assert result.exit_code == 0
    assert "members: 13" in result.output
    result = run("ensemble-info", "--ensemble", "bogus", "--n", "2")
    assert result.exit_code == 2


def test_reconstruct_exact_fidelity():
    result = run("reconstruct", "--state", "table2-v",
                 "--sets", "zeta-X,zeta-A:1|zeta-A:2", "--exact")
    assert result.exit_code == 0
    fid = float(result.output.split("fidelity vs input:")[1].strip())
    assert fid >= 1 - 1e-10


def test_reconstruct_n3_exact():
    result = run("reconstruct", "--state", "rho3",
                 "--sets", "zeta-m:3,zeta-m:1,zeta-m:2", "--exact")
    assert result.exit_code == 0


def test_reconstruct_missing_set_exit_2():
    result = run("reconstruct", "--state", "table2-v",
                 "--sets", "zeta-A:1|zeta-A:2", "--exact")
    assert result.exit_code == 2
    assert "diagonal" in result.output and "{1,2}" in result.output


def test_reconstruct_sampled_requires_seed():
    result = run("reconstruct", "--state", "table2-v",
                 "--sets", "zeta-X,zeta-A:1|zeta-A:2", "--shots", "100")
    assert result.exit_code == 2
    assert "seed" in result.output


def test_reconstruct_report_file(tmp_path):
    out = tmp_path / "report.json"
    result = run("reconstruct", "--state", "table2-i",
                 "--sets", "zeta-X,zeta-A:1|zeta-A:2", "--shots", "2000",
                 "--seed", "4", "--output", str(out))
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["n_qubits"] == 2
    assert report["seed"] == 4
    assert len(report["estimate_re"]) == 4
    assert all(any(row) for row in report["trusted"])


def test_reconstruct_from_state_file(tmp_path):
    path = tmp_path / "state.json"
    save_density_matrix(path, load_fixture("table2-ii").state)
    result = run("reconstruct", "--state", str(path),
                 "--sets", "zeta-X,zeta-A:1|zeta-A:2", "--exact")
    assert result.exit_code == 0


def test_state_that_is_both_file_and_fixture_exit_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_density_matrix(tmp_path / "rho3", load_fixture("rho3").state)
    result = run("reconstruct", "--state", "rho3", "--sets", "pauli", "--exact")
    assert result.exit_code == 2
    assert "file" in result.output and "fixture 'rho3'" in result.output
    assert str((tmp_path / "rho3").resolve()) in result.output


def test_estimate_exact_matches_trace():
    result = run("estimate", "--state", "rho2X", "--obs", "1 ZZ",
                 "--method", "pqst", "--exact")
    assert result.exit_code == 0
    value = float(result.output.split("estimate:")[1].strip())
    rho = load_fixture("rho2X").state
    assert abs(value - expectation(parse_observable("1 ZZ"), rho.mat)) < 1e-10


def test_estimate_rotated_matches_direct():
    result = run("estimate", "--state", "rho2", "--obs", "1 ZX",
                 "--method", "pqst-rotated", "--exact")
    assert result.exit_code == 0
    value = float(result.output.split("estimate:")[1].strip())
    rho = load_fixture("rho2").state
    assert abs(value - expectation(parse_observable("1 ZX"), rho.mat)) < 1e-10
    assert "pqst-rotated" in result.output


def test_estimate_rotated_exact_matches_trace(tmp_path, rng):
    rho = random_density(2, rng)
    path = tmp_path / "state.json"
    save_density_matrix(path, rho)
    for text in ("1 ZX", "7 XZ; 15 YZ", "2 YY"):
        result = run("estimate", "--state", str(path), "--obs", text,
                     "--method", "pqst-rotated", "--exact")
        assert result.exit_code == 0
        value = float(result.output.split("estimate:")[1].strip())
        assert abs(value - expectation(parse_observable(text), rho.mat)) < 1e-10


def test_estimate_rotated_rejects_unrotatable_exit_2():
    result = run("estimate", "--state", "rho2", "--obs", "1 XI; 1 ZI",
                 "--method", "pqst-rotated", "--exact")
    assert result.exit_code == 2
    assert "no per-qubit rotation" in result.output


def test_estimate_sampled_prints_stderr():
    result = run("estimate", "--state", "rho2", "--obs", "O2X",
                 "--method", "pauli", "--shots", "2000", "--seed", "8")
    assert result.exit_code == 0
    assert "stderr:" in result.output


@pytest.mark.parametrize("method", ["pqst", "pauli", "clifford", "mub"])
def test_estimate_identity_observable_is_one_cell(method):
    # every cell of 1 II has the same value, so one cell is drawn with probability 1
    result = run("estimate", "--state", "rho2", "--obs", "1 II", "--method", method,
                 "--shots", "1000", "--seed", "2")
    assert result.exit_code == 0
    assert "estimate: 1.0\n" in result.output
    assert "stderr: 0.0\n" in result.output


def test_estimate_malformed_observable_exit_2():
    result = run("estimate", "--state", "rho2", "--obs", "1 QQ",
                 "--method", "pqst", "--exact")
    assert result.exit_code == 2
    assert "term 1" in result.output


def test_bench_grid_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("bench", "--state", "rho2", "--obs", "O2X",
            "--methods", "pqst-auto,pauli", "--trials", "30", "--seed", "7")
    assert run(*args, "--output", str(a)).exit_code == 0
    assert run(*args, "--output", str(b)).exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 1 + 2 * 4  # header + methods x default budgets


def test_bench_requires_seed(tmp_path):
    result = run("bench", "--state", "rho2", "--obs", "O2X",
                 "--output", str(tmp_path / "x.csv"))
    assert result.exit_code == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state": "rho2X", "obs": "1 ZZ", "exact": True}))
    result = run("estimate", "--method", "pqst", "--config", str(cfg))
    assert result.exit_code == 0
    # flag overrides the config's observable
    result = run("estimate", "--obs", "1 XX", "--method", "pqst",
                 "--config", str(cfg))
    assert result.exit_code == 0
    value = float(result.output.split("estimate:")[1].strip())
    rho = load_fixture("rho2X").state
    assert abs(value - expectation(parse_observable("1 XX"), rho.mat)) < 1e-10


_BAD_VALUES = [
    ("reconstruct", {"state": "rho2", "sets": "zeta-A:x", "exact": True}),
    ("reconstruct", {"state": "rho2", "sets": "zeta-m:x", "exact": True}),
    ("bench", {"state": "rho2", "obs": "O2X", "seed": 1, "output": "x.csv",
               "shots_grid": "100,abc"}),
    ("reconstruct", {"state": "rho2", "sets": "zeta-X,zeta-m:1", "seed": 1, "shots": 0}),
    ("reconstruct", {"state": "rho2", "sets": "zeta-X,zeta-m:1", "seed": 1, "shots": -3}),
    ("estimate", {"state": "rho2", "obs": "O2X", "seed": 1, "shots": 0}),
    ("estimate", {"state": "rho2", "obs": "O2X", "seed": 1, "shots": -5}),
    ("estimate", {"state": "rho2", "obs": "O2X", "seed": -1, "shots": 10}),
    ("reconstruct", {"state": "rho2", "sets": "zeta-X,zeta-m:1", "seed": -3, "shots": 10}),
    ("reconstruct", {"state": "rho2", "sets": "zeta-X,zeta-m:1", "seed": -3, "exact": True}),
    ("bench", {"state": "rho2", "obs": "O2X", "seed": -2, "output": "x.csv"}),
]


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("command,options", _BAD_VALUES)
def test_bad_values_exit_2_with_one_error_line(tmp_path, monkeypatch, command, options,
                                               via_config):
    monkeypatch.chdir(tmp_path)
    if via_config:
        (tmp_path / "cfg.json").write_text(json.dumps(options))
        args = ["--config", "cfg.json"]
    else:
        args = []
        for key, value in options.items():
            flag = "--" + key.replace("_", "-")
            args += [flag] if value is True else [flag, str(value)]
    _assert_one_error_line(CliRunner().invoke(main, [command, *args]), tmp_path)


def _assert_one_error_line(result, tmp_path):
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("n,sets", [(2, "zeta-X,zeta-A:1,2"), (1, "zeta-A:1,zeta-X")])
def test_same_name_conflict_gives_set_positions(tmp_path, monkeypatch, rng, n, sets):
    monkeypatch.chdir(tmp_path)
    save_density_matrix(tmp_path / "state.json", random_density(n, rng))
    result = CliRunner().invoke(main, ["reconstruct", "--state", "state.json",
                                       "--sets", sets, "--exact"])
    _assert_one_error_line(result, tmp_path)
    assert result.stderr == ("error: pattern diagonal trusted by both zeta-X (set 1) "
                             "and zeta-X (set 2)\n")


@pytest.mark.parametrize("state,obs,message", [
    ("rho2", "rho2", "error: fixture 'rho2' is a state, not an observable\n"),
    ("O2X", "O2X", "error: fixture 'O2X' is an observable, not a state\n"),
], ids=["obs-names-a-state", "state-names-an-observable"])
def test_fixture_of_the_wrong_kind_exit_2(tmp_path, monkeypatch, state, obs, message):
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["estimate", "--state", state, "--obs", obs, "--exact"])
    _assert_one_error_line(result, tmp_path)
    assert result.stderr == message


_RECON = {"state": "rho2", "sets": "zeta-X,zeta-m:1"}
_EST = {"state": "rho2", "obs": "O2X"}
_BENCH = {"state": "rho2", "obs": "O2X", "output": "x.csv"}
_BAD_CONFIG_TYPES = [
    ("reconstruct", {**_RECON, "seed": 1, "shots": "abc"}),
    ("reconstruct", {**_RECON, "seed": 1, "shots": 2.5}),
    ("reconstruct", {**_RECON, "seed": "x", "shots": 10}),
    ("reconstruct", {**_RECON, "seed": 1.5, "exact": True}),
    ("reconstruct", {**_RECON, "exact": "false"}),
    ("estimate", {**_EST, "seed": 1, "shots": "abc"}),
    ("estimate", {**_EST, "seed": 1, "shots": True}),
    ("estimate", {**_EST, "seed": "x", "shots": 10}),
    ("estimate", {**_EST, "exact": "false"}),
    ("estimate", {**_EST, "seed": 1, "shots": 10, "exact": 0}),
    ("bench", {**_BENCH, "seed": "x"}),
    ("bench", {**_BENCH, "seed": 1, "trials": "many"}),
    ("bench", {**_BENCH, "seed": 1, "trials": 2.5}),
]


@pytest.mark.parametrize("command,options", _BAD_CONFIG_TYPES)
def test_config_value_types_exit_2_with_one_error_line(tmp_path, monkeypatch, command,
                                                       options):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(options))
    _assert_one_error_line(CliRunner().invoke(main, [command, "--config", "cfg.json"]),
                           tmp_path)


def test_config_integer_text_and_boolean_exact(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_EST, "seed": "8", "shots": "2000", "exact": False}))
    by_config = run("estimate", "--method", "pauli", "--config", str(cfg))
    by_flags = run("estimate", "--state", "rho2", "--obs", "O2X", "--method", "pauli",
                   "--shots", "2000", "--seed", "8")
    assert by_config.exit_code == 0 and "sampled" in by_config.output
    assert by_config.output == by_flags.output


def test_validate_negative_seed_exit_2(tmp_path):
    result = CliRunner().invoke(main, ["validate", "--seed", "-1"])
    _assert_one_error_line(result, tmp_path)
    assert result.stderr == "error: --seed must be >= 0, got -1\n"


@pytest.mark.parametrize("spec,n", [("zeta-X", 5), ("zeta-m:1", 5), ("pauli", 5),
                                    ("mub", 0), ("zeta-X", 0), ("zeta-A:1", -1)])
def test_ensemble_info_n_out_of_range_exit_2(tmp_path, spec, n):
    result = CliRunner().invoke(main, ["ensemble-info", "--ensemble", spec, "--n", str(n)])
    _assert_one_error_line(result, tmp_path)
    assert result.stderr == f"error: n must be in 1..4, got {n}\n"


@pytest.mark.parametrize("methods", ["", " , ", "pauli,pauli", "mub, pauli,mub"],
                         ids=["empty", "only-commas", "repeated", "repeated-spaced"])
def test_bench_methods_empty_or_repeated_exit_2(tmp_path, monkeypatch, methods):
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["bench", "--state", "rho2", "--obs", "O2X",
                                       "--methods", methods, "--trials", "5",
                                       "--seed", "1", "--output", "x.csv"])
    _assert_one_error_line(result, tmp_path)
    assert result.stderr == ("error: --methods must name one or more methods, each once, "
                             f"got {methods!r}\n")
