import csv
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from pqst.bench import load_fixture
from pqst.cli import main
from pqst.operators import expectation, parse_observable
from pqst.qcore import save_density_matrix
from pqst.golden import random_density_matrix


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


def test_missing_patterns_are_listed_in_pattern_order():
    result = CliRunner().invoke(main, ["reconstruct", "--state", "rho3",
                                       "--sets", "zeta-m:1", "--exact"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == ("error: no PSE trusts activity patterns: "
                             "diagonal, {1,2}, {1,3}, {2,3}, {1,2,3}\n")


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
    assert [s["patterns"] for s in report["sets"]] == [["diagonal", "{1,2}"], ["{1}", "{2}"]]
    assert report["state_residuals"] == load_fixture("table2-i").state.validation_residuals
    assert report["fidelity_above_one"] is False


@pytest.mark.parametrize("mode,fidelity,warned", [
    # eigensolver noise stays below the flag
    pytest.param(["--exact"], "1.0000000156", False, id="exact"),
    pytest.param(["--shots", "100000", "--seed", "11"], "1.0009402784", True, id="sampled"),
])
def test_reconstruct_warns_on_stderr_of_a_fidelity_above_one(mode, fidelity, warned):
    result = CliRunner().invoke(main, ["reconstruct", "--state", "table2-i", "--sets",
                                       "zeta-X,zeta-A:1|zeta-A:2", *mode])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[-1] == f"fidelity vs input: {fidelity}"
    assert result.stderr.splitlines() == \
        (["warning: fidelity exceeds 1 by more than 1e-06"] if warned else [])


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
    rho = random_density_matrix(2, rng)
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
    ("bench", {"state": "rho2", "obs": "O2X", "seed": 1, "output": "x.csv",
               "shots_grid": "100,100"}),
    ("bench", {"state": "rho2", "obs": "O2X", "seed": 1, "output": "x.csv",
               "shots_grid": "100,1000,0100"}),
    ("reconstruct", {"state": "rho2", "sets": "zeta-A:1,1", "exact": True}),
    ("estimate", {"state": "rho2", "obs": "O2X", "seed": 1, "shots": 2**63}),
    ("reconstruct", {"state": "rho2", "sets": "zeta-X,zeta-m:1", "seed": 1, "shots": 2**63}),
    ("bench", {"state": "rho2", "obs": "O2X", "seed": 1, "output": "x.csv",
               "shots_grid": f"100,{2**63}"}),
    ("reconstruct", {"state": ".", "sets": "zeta-X", "exact": True}),
    ("estimate", {"state": ".", "obs": "O2X", "exact": True}),
    ("bench", {"state": ".", "obs": "O2X", "seed": 1, "output": "x.csv"}),
    ("reconstruct", {"state": "rho2", "sets": "zeta-X", "exact": True,
                     "output": "missing/x.json"}),
    ("bench", {"state": "rho2", "obs": "O2X", "seed": 1, "output": "missing/x.csv"}),
]


# The ids keep the "-False" suffix that the flag cases carried when the same values
# were also given through a config file, so each case keeps its name.
@pytest.mark.parametrize("command,options", [
    pytest.param(command, options, id=f"{command}-options{i}-False")
    for i, (command, options) in enumerate(_BAD_VALUES)])
def test_bad_values_exit_2_with_one_error_line(tmp_path, monkeypatch, command, options):
    monkeypatch.chdir(tmp_path)
    args = []
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        args += [flag] if value is True else [flag, str(value)]
    _assert_one_error_line(CliRunner().invoke(main, [command, *args]), tmp_path)


@pytest.mark.parametrize("command", ["reconstruct", "estimate", "bench"])
def test_config_option_is_gone_exit_2(tmp_path, monkeypatch, command):
    # a run is described by its flags alone
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text("{}")
    result = CliRunner().invoke(main, [command, "--config", "cfg.json"])
    assert result.exit_code == 2
    assert "No such option '--config'" in result.stderr


@pytest.mark.parametrize("args,message", [
    (["estimate", "--obs", "O2X", "--shots", str(2**63)],
     f"--shots must be <= 2^63 - 1, got {2**63}"),
    (["reconstruct", "--sets", "zeta-X,zeta-m:1", "--shots", str(10**30)],
     f"--shots must be <= 2^63 - 1, got {10**30}"),
    (["bench", "--obs", "O2X", "--output", "x.csv", "--shots-grid", f"{2**64},100"],
     f"--shots-grid budgets must be <= 2^63 - 1, got '{2**64},100'"),
])
def test_shot_budgets_above_the_int64_range_name_flag_and_bound(tmp_path, monkeypatch,
                                                                args, message):
    # numpy's multinomial takes a signed 64-bit count
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, [*args, "--state", "rho2", "--seed", "1"])
    _assert_one_error_line(result, tmp_path)
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("args,message", [
    (["reconstruct", "--state", ".", "--sets", "zeta-X", "--exact"],
     "--state '.' is a directory, not a density-matrix JSON file"),
    (["reconstruct", "--state", "rho2", "--sets", "zeta-X", "--exact",
      "--output", "no/such/x.json"],
     "--output directory 'no/such' is not an existing directory"),
    (["bench", "--state", "rho2", "--obs", "O2X", "--seed", "1", "--output", "x.csv/x.csv"],
     "--output directory 'x.csv' is not an existing directory"),
])
def test_bad_paths_exit_2_before_any_work(tmp_path, monkeypatch, args, message):
    # no state is read and no run is made: x.csv is a file, so x.csv/ is no directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").write_text("")
    result = CliRunner().invoke(main, args)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {message}\n")
    assert (tmp_path / "x.csv").read_text() == ""


@pytest.mark.parametrize("args", [
    ["estimate", "--obs", "O2X"], ["reconstruct", "--sets", "zeta-X,zeta-m:1"]])
def test_the_largest_int64_shot_budget_runs(args):
    result = run(*args, "--state", "rho2", "--seed", "1", "--shots", str(2**63 - 1))
    assert result.exit_code == 0, result.output


def _assert_one_error_line(result, tmp_path):
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("n,sets", [(2, "zeta-X,zeta-A:1,2"), (1, "zeta-A:1,zeta-X")])
def test_same_name_conflict_gives_set_positions(tmp_path, monkeypatch, rng, n, sets):
    monkeypatch.chdir(tmp_path)
    save_density_matrix(tmp_path / "state.json", random_density_matrix(n, rng))
    result = CliRunner().invoke(main, ["reconstruct", "--state", "state.json",
                                       "--sets", sets, "--exact"])
    _assert_one_error_line(result, tmp_path)
    assert result.stderr == ("error: pattern diagonal trusted by both zeta-X (set 1) "
                             "and zeta-X (set 2)\n")


@pytest.mark.parametrize("state,obs,message", [
    ("rho2", "rho2", "error: fixture 'rho2' is a state, not an observable\n"),
    ("O2X", "O2X", "error: fixture 'O2X' is an observable, not a state\n"),
    ("rho2", "O3X", "error: observable is on 3 qubits, expected 2\n"),
    ("rho3", "O2X", "error: observable is on 2 qubits, expected 3\n"),
    ("rho3", "1 XX", "error: observable is on 2 qubits, expected 3\n"),
], ids=["obs-names-a-state", "state-names-an-observable", "obs-wider-than-state",
        "obs-narrower-than-state", "text-obs-narrower-than-state"])
def test_fixture_of_the_wrong_kind_exit_2(tmp_path, monkeypatch, state, obs, message):
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["estimate", "--state", state, "--obs", obs, "--exact"])
    _assert_one_error_line(result, tmp_path)
    assert result.stderr == message


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


@pytest.mark.parametrize("methods", ["", " , ", "pauli,pauli", "mub, pauli,mub",
                                     "pqst,pqst-auto"],
                         ids=["empty", "only-commas", "repeated", "repeated-spaced",
                              "pqst-is-pqst-auto"])
def test_bench_methods_empty_or_repeated_exit_2(tmp_path, monkeypatch, methods):
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["bench", "--state", "rho2", "--obs", "O2X",
                                       "--methods", methods, "--trials", "5",
                                       "--seed", "1", "--output", "x.csv"])
    _assert_one_error_line(result, tmp_path)
    assert result.stderr == ("error: --methods must name one or more methods, each once, "
                             f"got {methods!r}\n")


_MALFORMED_STATE_FILES = {
    "not-json": "{not json",
    "not-utf8": "\xff\xfe{",
    "non-numeric-entry": '{"n_qubits": 1, "re": [1, 0, 0, 0], "im": [0, 0, 0, "a"]}',
    "null-entry": '{"n_qubits": 1, "re": [1, 0, 0, null], "im": [0, 0, 0, 0]}',
    "wrong-entry-count": '{"n_qubits": 1, "re": [1, 0, 0], "im": [0, 0, 0, 0]}',
    "missing-key": '{"n_qubits": 1, "re": [1, 0, 0, 0]}',
    "not-an-object": "[1, 0, 0, 0]",
    "n-qubits-5": '{"n_qubits": 5, "re": [], "im": []}',
    "n-qubits-0": '{"n_qubits": 0, "re": [1], "im": [0]}',
    "n-qubits-text": '{"n_qubits": "1", "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}',
    "numeric-string-entry": '{"n_qubits": 1, "re": ["1", "0", "0", "0"], "im": [0, 0, 0, 0]}',
    "boolean-entry": '{"n_qubits": 1, "re": [true, 0, 0, false], "im": [0, 0, 0, 0]}',
    "huge-integer-entry": '{"n_qubits": 1, "re": [1, 0, 0, 1' + "0" * 400 + '], "im": [0, 0, 0, 0]}',
}


@pytest.mark.parametrize("text", _MALFORMED_STATE_FILES.values(), ids=_MALFORMED_STATE_FILES)
@pytest.mark.parametrize("command", [["reconstruct", "--sets", "zeta-X,zeta-m:1", "--exact"],
                                     ["estimate", "--obs", "1 Z", "--exact"]],
                         ids=["reconstruct", "estimate"])
def test_malformed_state_file_exit_2(tmp_path, monkeypatch, text, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "state.json").write_text(text, encoding="latin-1")
    result = CliRunner().invoke(main, [*command, "--state", "state.json"])
    _assert_one_error_line(result, tmp_path)
    assert result.stderr.startswith("error: malformed density matrix file state.json: ")


@pytest.mark.parametrize("re,message", [
    ([1, 0, 0, 1], "error: density matrix trace differs from 1 by 1.00e+00\n"),
    ([1.5, 0, 0, -0.5], "error: density matrix has eigenvalue -5.00e-01 below -1e-09\n"),
], ids=["trace", "psd"])
def test_invalid_state_file_matrix_exit_1(tmp_path, monkeypatch, re, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "state.json").write_text(json.dumps({"n_qubits": 1, "re": re,
                                                     "im": [0, 0, 0, 0]}))
    result = CliRunner().invoke(main, ["estimate", "--obs", "1 Z", "--exact",
                                       "--state", "state.json"])
    assert result.exit_code == 1 and result.stderr == message


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_state_files_are_validated_strictly(tmp_path, monkeypatch, rng, n):
    """A saved random state loads; the same matrix at trace 1.004, which the
    fixtures' relaxed tolerance (5e-3) would accept, exits 1 naming the residual."""
    monkeypatch.chdir(tmp_path)
    rho = random_density_matrix(n, rng)
    obs = "1 " + "Z" * n
    command = ["estimate", "--obs", obs, "--exact", "--state", "state.json"]
    save_density_matrix(tmp_path / "state.json", rho)
    result = CliRunner().invoke(main, command)
    assert result.exit_code == 0 and result.stderr == ""
    value = float(result.stdout.split("estimate:")[1].strip())
    assert abs(value - expectation(parse_observable(obs), rho.mat)) < 1e-10
    scaled = 1.004 * rho.mat
    (tmp_path / "state.json").write_text(json.dumps({"n_qubits": n,
                                                     "re": scaled.real.ravel().tolist(),
                                                     "im": scaled.imag.ravel().tolist()}))
    result = CliRunner().invoke(main, command)
    assert result.exit_code == 1
    assert result.stderr == "error: density matrix trace differs from 1 by 4.00e-03\n"


# The exit-code contract, over the grammar of every command that reads input.
# Values are drawn with each flag's click type, so the property is about pqst's
# own checks. --trials and --shots-grid are bounded by value (<= 20 trials, <= 2
# budgets <= 1000; the budget 2^63 is rejected before any run). Valid values are
# drawn more often than invalid ones, so that most calls get past the first check.
_STATE_FIXTURES = {"rho2": 2, "rho2X": 2, "table2-i": 2, "rho3": 3, "rho3X": 3,
                   "O2X": 2, "nope": 2, "": 2, ".": 2}
_STATE_KINDS = ["valid"] * 6 + ["trace", "hermitian", "negative", "huge", "nan", "truncated"]
_SET_SPECS = ["zeta-X,zeta-A:1|zeta-A:2", "zeta-X,zeta-m:1,zeta-m:2,zeta-m:3",
              "zeta-X,zeta-m:1,zeta-m:2", "zeta-X,zeta-m:1", "pauli", "clifford", "mub",
              "zeta-m:1", "zeta-X,zeta-X", "zeta-A:x", "zeta-m:9", "zeta-A:1|zeta-A:1,2",
              "", ","]
_OBS_FIXTURES = ["O2X", "O2", "O2NX", "O3", "O3X", "O3NX", "rho2", "O9", ""]
_COEFFS = ["0", "-0", "1e-300", "5e-324", "1e-10", "1", "-3.5", "12", "1e200", "1e308",
           "-1e308", "inf", "nan", "x"]
_SHOTS = st.one_of(st.sampled_from([0, -1, 2**63, 2**63 - 1]), st.integers(1, 2000))
_SEEDS = st.one_of(st.sampled_from([None, -1, 2**63]), st.integers(0, 50), st.integers(0, 50))


@st.composite
def _states(draw, path):
    """(--state value, n): a fixture name, or a JSON file of a random state of
    1..4 qubits, as it is or broken."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(_STATE_FIXTURES)))
        return name, _STATE_FIXTURES[name]
    n = draw(st.integers(1, 4))
    rho = random_density_matrix(n, np.random.default_rng(draw(st.integers(0, 99)))).mat
    kind = draw(st.sampled_from(_STATE_KINDS))
    rho = {"trace": 1.01 * rho, "hermitian": rho + np.triu(np.full_like(rho, 0.1), 1),
           "negative": rho + np.diag(np.r_[1.0, np.zeros(len(rho) - 2), -1.0]),
           "huge": rho * 1e308, "nan": rho * np.nan}.get(kind, rho)
    text = json.dumps({"n_qubits": n, "re": rho.real.ravel().tolist(),
                       "im": rho.imag.ravel().tolist()})
    path.write_text(text[:len(text) // 2] if kind == "truncated" else text)
    return str(path), n


@st.composite
def _observables(draw, n):
    """A catalogue name, or 1..3 terms, mostly on the state's n qubits."""
    if not draw(st.integers(0, 3)):
        return draw(st.sampled_from(_OBS_FIXTURES))
    width = draw(st.sampled_from([n, n, n, 1, 2, 3, 4]))
    terms = draw(st.lists(st.tuples(st.sampled_from(_COEFFS),
                                    st.text("IXYZ", min_size=width, max_size=width)),
                          min_size=1, max_size=3))
    return "; ".join(f"{c} {w}" for c, w in terms)


@st.composite
def _invocations(draw, tmp):
    command = draw(st.sampled_from(["estimate", "reconstruct", "ensemble-info", "bench"]))
    if command == "ensemble-info":
        return [command, "--ensemble", draw(st.sampled_from(_SET_SPECS)),
                "--n", str(draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 2**63])))]
    state, n = draw(_states(tmp / "state.json"))
    args = [command, "--state", state]
    seed = draw(_SEEDS)
    if seed is not None:
        args += ["--seed", str(seed)]
    if command == "bench":
        budgets = draw(st.lists(st.one_of(st.sampled_from([0, -5, 2**63]),
                                          st.integers(1, 1000), st.integers(1, 1000)),
                                min_size=1, max_size=2))
        methods = draw(st.lists(st.sampled_from(["pqst-auto", "pqst", "pauli", "clifford",
                                                 "mub", "haar"]), min_size=1, max_size=2))
        return args + ["--obs", draw(_observables(n)), "--methods", ",".join(methods),
                       "--shots-grid", ",".join(map(str, budgets)),
                       "--trials", str(draw(st.sampled_from([-1, 0, 1, 2, 20]))),
                       "--output", str(tmp / "out.csv")]
    if draw(st.booleans()):
        args.append("--exact")
    else:
        args += ["--shots", str(draw(_SHOTS))]
    if command == "estimate":
        return args + ["--obs", draw(_observables(n)), "--method", draw(st.sampled_from(
            ["pqst", "pqst-auto", "pqst-rotated", "pauli", "clifford", "mub"]))]
    return args + ["--sets", draw(st.sampled_from(_SET_SPECS))]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_invocation_keeps_the_exit_code_contract(data):
    """Exit 0, 1 or 2 and no traceback; exits 1 and 2 print exactly one error:
    line; no exit prints a warning, and exit 0 reports only finite numbers."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        args = data.draw(_invocations(Path(tmp)), label="args")
        result = CliRunner().invoke(main, args)
        rows = []
        if args[0] == "bench" and result.exit_code == 0:
            with open(Path(tmp) / "out.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
    assert result.exit_code in (0, 1, 2)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)
    assert "Traceback" not in result.output + result.stderr
    # outside a test run each warning is printed to stderr
    assert [str(w.message) for w in caught] == []
    if result.exit_code:
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")
    else:
        # slope=nan is the documented tag of a failed fit, so slope_tag is not read
        reported = [line.split(":", 1)[1] for line in result.stdout.splitlines()
                    if line.startswith(("estimate:", "stderr:", "fidelity"))]
        reported += [row[key] for row in rows for key in ("mse", "stderr", "true_value")]
        assert all(math.isfinite(float(value)) for value in reported), result.stdout
