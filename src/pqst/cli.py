"""Command-line interface: reconstruct, estimate, bench, validate, ensemble-info.

Exit codes: 0 success, 1 numerical failure or a read or write that fails
after the up-front path checks, 2 usage/parse/coverage error (a directory as
--state or a missing --output directory included).
Options come from flags only: there is no config file and no environment
fallback, and a seed is always an explicit --seed, so every run is
reproducible from its recorded invocation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .qcore import DensityMatrix, QcoreError, StateFileError, load_density_matrix, spawn_rng
from .operators import Observable, ObservableError, format_observable, \
    parse_observable, rotate_to_x_structure
from .ensembles import EnsembleError, ensemble_info, parse_ensemble_list, \
    parse_ensemble_spec
from .channels import ChannelError
from .shadow import FIDELITY_SLACK, MAX_SHOTS, CoverageError, ensemble_pse, \
    estimate_observable, reconstruct_state
from .bench import BenchError, DEFAULT_SHOT_GRID, DEFAULT_TRIALS, FIXTURE_NAMES, \
    bench_rows, draw_estimates, load_fixture, measurement_models, method_ensembles, \
    write_csv
from .golden import run_validation

_USAGE_ERRORS = (EnsembleError, ObservableError, BenchError, CoverageError, StateFileError)
_NUMERICAL_ERRORS = (QcoreError, ChannelError)


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Map domain exceptions onto the CLI exit-code contract."""
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _USAGE_ERRORS as exc:
            _fail(str(exc), 2)
        except _NUMERICAL_ERRORS as exc:
            _fail(str(exc), 1)
        except OSError as exc:
            _fail(str(exc), 1)
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _seed(seed):
    """A seed, which SeedSequence takes only when it is >= 0; None when unset."""
    if seed is not None and seed < 0:
        _fail(f"--seed must be >= 0, got {seed}", 2)
    return seed


def _require_shots(shots) -> int:
    if shots is None:
        _fail("sampled mode needs --shots (or use --exact)", 2)
    if shots < 1:
        _fail(f"--shots must be >= 1, got {shots}", 2)
    if shots > MAX_SHOTS:
        _fail(f"--shots must be <= 2^63 - 1, got {shots}", 2)
    return shots


def _require_seed(seed):
    if seed is None:
        _fail("a --seed is required for stochastic runs (no implicit default)", 2)
    return seed


def _check_output(output):
    """Fail before any work when --output's directory does not exist."""
    if output is not None and not Path(output).parent.is_dir():
        _fail(f"--output directory {str(Path(output).parent)!r} is not an existing directory", 2)


def _resolve_state(source: str) -> tuple[str, DensityMatrix]:
    if source is None:
        _fail("a --state (fixture name or density-matrix JSON file) is required", 2)
    if Path(source).is_dir():
        _fail(f"--state {source!r} is a directory, not a density-matrix JSON file", 2)
    if Path(source).exists():
        if source in FIXTURE_NAMES:
            _fail(f"--state {source!r} names both the file {Path(source).resolve()} and "
                  f"the fixture {source!r}; pass the file as ./{source} or rename it", 2)
        return Path(source).stem, load_density_matrix(source)
    fixture = load_fixture(source)
    if fixture.state is None:
        raise BenchError(f"fixture {source!r} is an observable, not a state")
    return source, fixture.state


def _resolve_observable(source: str, n: int) -> tuple[str, Observable]:
    if source is None:
        _fail("an --obs (fixture name or 'coeff WORD; ...' string) is required", 2)
    fixture = source in FIXTURE_NAMES
    obs = load_fixture(source).observable if fixture else parse_observable(source)
    if obs is None:
        raise BenchError(f"fixture {source!r} is a state, not an observable")
    if obs.n != n:
        raise ObservableError(f"observable is on {obs.n} qubits, expected {n}")
    return (source if fixture else format_observable(obs)), obs


@click.group()
def main():
    """Partial shadow tomography toolkit for small qubit registers."""


@main.command()
@click.option("--state", default=None, help="Fixture name or density-matrix JSON file.")
@click.option("--sets", "sets_spec", default=None,
              help="Comma-separated ensemble specs; '|' joins zeta-A parts into unions.")
@click.option("--exact", is_flag=True, default=False,
              help="Exact diagonal-tomography mode (no sampling, no seed).")
@click.option("--shots", type=int, default=None, help="Shots per measurement set.")
@click.option("--seed", type=int, default=None)
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Write the reconstruction report as JSON.")
@_guarded
def reconstruct(state, sets_spec, exact, shots, seed, output):
    """Reconstruct a density matrix from one PSE per measurement set."""
    _seed(seed)
    _check_output(output)
    state_name, rho = _resolve_state(state)
    if sets_spec is None:
        _fail("--sets is required (e.g. 'zeta-X,zeta-A:1|zeta-A:2')", 2)
    ensembles = parse_ensemble_list(sets_spec, rho.n)
    shots_per_set = None if exact else _require_shots(shots)
    run_seed = seed if exact else _require_seed(seed)
    report = reconstruct_state(rho, ensembles, shots_per_set, run_seed)
    report["state"] = state_name
    if output:
        with open(output, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        click.echo(f"report written to {output}")
    click.echo(f"sets: {', '.join(s['name'] for s in report['sets'])}")
    click.echo(f"fidelity vs input: {report['fidelity_vs_reference']:.10f}")
    if report["fidelity_above_one"]:
        click.echo(f"warning: fidelity exceeds 1 by more than {FIDELITY_SLACK:g}", err=True)


@main.command()
@click.option("--state", default=None)
@click.option("--obs", "obs_spec", default=None,
              help="Fixture name or observable string 'coeff WORD; ...'.")
@click.option("--method", default="pqst",
              type=click.Choice(["pqst", "pqst-auto", "pqst-rotated",
                                 "pauli", "clifford", "mub"]))
@click.option("--exact", is_flag=True, default=False)
@click.option("--shots", type=int, default=None)
@click.option("--seed", type=int, default=None)
@_guarded
def estimate(state, obs_spec, method, exact, shots, seed):
    """Estimate the expectation value of a Pauli-string observable."""
    _seed(seed)
    state_name, rho = _resolve_state(state)
    obs_name, obs = _resolve_observable(obs_spec, rho.n)

    if method == "pqst-rotated":
        found = rotate_to_x_structure(obs)
        if found is None:
            raise CoverageError("no per-qubit rotation X-structures this observable")
        u, rotated, assignment = found
        rot_mat = u @ rho.mat @ u.conj().T
        rho = DensityMatrix((rot_mat + rot_mat.conj().T) / 2, relaxed=True)
        obs = rotated
        models_method = "pqst"
        method_label = f"pqst-rotated (per-qubit {','.join(assignment)})"
    else:
        models_method = method
        method_label = method

    if exact:
        ensembles = method_ensembles(models_method, obs)
        value = estimate_observable(obs, [ensemble_pse(rho, ens) for ens in ensembles])
        click.echo(f"method: {method_label} (exact)")
        click.echo(f"estimate: {value!r}")
    else:
        share = _require_shots(shots)
        run_seed = _require_seed(seed)
        models = measurement_models(rho, obs, models_method)
        value, stderr = draw_estimates(models, share, spawn_rng(run_seed, 0), 1)
        click.echo(f"method: {method_label} (sampled, {share} shots per set, "
                   f"{len(models)} sets)")
        click.echo(f"estimate: {float(value[0])!r}")
        click.echo(f"stderr: {float(stderr[0])!r}")


@main.command()
@click.option("--state", default=None)
@click.option("--obs", "obs_spec", default=None)
@click.option("--methods", default="pqst-auto,pauli,clifford,mub",
              help="Comma-separated subset of pqst-auto,pauli,clifford,mub.")
@click.option("--shots-grid", default=None,
              help="Comma-separated shot budgets (default 100,1000,10000,100000).")
@click.option("--trials", type=int, default=DEFAULT_TRIALS)
@click.option("--seed", type=int, default=None)
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="CSV output path (required).")
@_guarded
def bench(state, obs_spec, methods, shots_grid, trials, seed, output):
    """Run the MSE-scaling benchmark and write one CSV row per (method, shots)."""
    _seed(seed)
    state_name, rho = _resolve_state(state)
    obs_name, obs = _resolve_observable(obs_spec, rho.n)
    run_seed = _require_seed(seed)
    if output is None:
        _fail("--output CSV path is required", 2)
    _check_output(output)
    try:
        grid = DEFAULT_SHOT_GRID if shots_grid is None else \
            tuple(int(s) for s in shots_grid.split(","))
    except ValueError:
        _fail(f"--shots-grid must be comma-separated integers, got {shots_grid!r}", 2)
    if len(set(grid)) < len(grid):
        _fail(f"--shots-grid must name each budget once, got {shots_grid!r}", 2)
    if max(grid) > MAX_SHOTS:
        _fail(f"--shots-grid budgets must be <= 2^63 - 1, got {shots_grid!r}", 2)
    method_list = [m.strip() for m in methods.split(",") if m.strip()]
    selections = {"pqst-auto" if m == "pqst" else m for m in method_list}  # pqst = pqst-auto
    if not method_list or len(selections) < len(method_list):
        _fail(f"--methods must name one or more methods, each once, got {methods!r}", 2)
    rows = bench_rows(state_name, rho, obs_name, obs, method_list, grid,
                      trials, run_seed)
    write_csv(output, rows)
    click.echo(f"{len(rows)} rows written to {output}")


@main.command()
@click.option("--seed", type=int, default=2024, show_default=True,
              help="Base seed for the randomized closed-form checks.")
@_guarded
def validate(seed):
    """Run the golden closed-form and structural checks; nonzero exit on failure."""
    results = run_validation(_seed(seed))
    failures = 0
    for label, passed, resid in results:
        status = "PASS" if passed else "FAIL"
        click.echo(f"[{status}] {label} (max residual {resid:.3e})")
        failures += 0 if passed else 1
    click.echo(f"{len(results) - failures}/{len(results)} checks passed")
    if failures:
        sys.exit(1)


@main.command("ensemble-info")
@click.option("--ensemble", "spec", required=True,
              help="Ensemble spec, e.g. zeta-X, zeta-A:1,3, zeta-m:2, pauli, clifford, mub.")
@click.option("--n", "n_qubits", type=int, required=True)
@_guarded
def ensemble_info_cmd(spec, n_qubits):
    """Describe an ensemble: members, p, inverse, trusted element classes."""
    click.echo(ensemble_info(parse_ensemble_spec(spec, n_qubits)))


if __name__ == "__main__":
    main()
