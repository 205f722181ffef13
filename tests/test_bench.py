from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqst import bench
from pqst.bench import (BenchError, DEFAULT_SHOT_GRID, FIXTURE_NAMES, METHODS,
                        MseResult, bench_rows, draw_estimates, method_ensembles,
                        fit_scaling, load_fixture, measurement_models,
                        mse_experiment, pqst_auto_ensembles,
                        write_csv)
from pqst.channels import apply_inverse
from pqst.ensembles import clifford_ensemble, mub_ensemble, \
    pauli_local_ensemble, zeta_m_active
from pqst.operators import Observable, PauliString, expectation, parse_observable
from pqst.qcore import DensityMatrix, QcoreError, born_table, spawn_rng
from pqst.shadow import CoverageError, pattern_owners
from pqst.golden import random_density_matrix
from conftest import random_hermitian, reference_cells

PANELS = [("rho2", "O2X"), ("rho2", "O2NX"), ("rho2X", "O2"),
          ("rho3", "O3X"), ("rho3", "O3NX"), ("rho3X", "O3")]


def test_all_fixture_names_load():
    for name in FIXTURE_NAMES:
        f = load_fixture(name)
        assert (f.state is None) != (f.observable is None)
    with pytest.raises(BenchError):
        load_fixture("rho5")
    with pytest.raises(BenchError):
        load_fixture("table2-vi")


def test_fixture_names_in_catalogue_order():
    assert FIXTURE_NAMES == ("rho2", "rho2X", "rho3", "rho3X", "table2-i", "table2-ii",
                             "table2-iii", "table2-iv", "table2-v",
                             "O2X", "O2NX", "O2", "O3X", "O3NX", "O3")


@pytest.mark.parametrize("name", ["rho5", "table2-vi", "O4", ""])
def test_unknown_fixture_names_share_one_message(name):
    with pytest.raises(BenchError) as err:
        load_fixture(name)
    assert str(err.value) == f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}"


@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if n.startswith("table2-")])
def test_table2_fixture_builds_only_its_own_state(name, monkeypatch):
    built = []
    init = DensityMatrix.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DensityMatrix, "__init__", counting_init)
    assert load_fixture(name).state is not None
    assert len(built) == 1


@pytest.mark.parametrize("name", ["table2-i", "table2-ii", "table2-iii", "table2-iv"])
def test_table2_product_fixtures_keep_np_kron_bytes(name, monkeypatch):
    """The product fixtures take their tensor product from qcore.kron_all, and
    their matrices keep the bytes of a direct np.kron of the two factors."""
    built = load_fixture(name).state.mat
    calls = []

    def direct_kron(*mats):
        calls.append(len(mats))
        return reduce(np.kron, mats)

    monkeypatch.setattr(bench, "kron_all", direct_kron)
    direct = load_fixture(name).state.mat
    assert calls == [2]
    assert (built.shape, built.tobytes()) == (direct.shape, direct.tobytes())


def test_rho2x_entries_as_printed():
    mat = load_fixture("rho2X").state.mat
    assert np.allclose(np.diag(mat), [0.19375, 0.30625, 0.30625, 0.19375])
    assert mat[0, 3] == pytest.approx(0.09375)
    assert mat[1, 2] == pytest.approx(-0.20625)
    assert mat[0, 1] == 0


def test_mse_result_invariant():
    with pytest.raises(BenchError):
        MseResult("pauli", 10, 5, -1.0, 0.0, 0.0)


def test_pqst_auto_selection():
    x_obs = load_fixture("O2X").observable
    sets = pqst_auto_ensembles(x_obs)
    assert [e.name for e in sets] == ["zeta-X"]
    arb = load_fixture("O2").observable
    names = [e.name for e in pqst_auto_ensembles(arb)]
    assert names == ["zeta-A:1|zeta-A:2", "zeta-X"]
    single_card = load_fixture("O3NX").observable  # both terms {1,3}-active
    sets = pqst_auto_ensembles(single_card)
    assert [e.name for e in sets] == ["zeta-A:1,3"]
    diag_only = parse_observable("1 ZZ; 2 IZ")
    assert [e.name for e in pqst_auto_ensembles(diag_only)] == ["zeta-X"]


def test_measurement_models_probabilities():
    state = load_fixture("rho2X").state
    obs = load_fixture("O2").observable
    for method in ("pqst-auto", "pauli", "clifford", "mub"):
        models = measurement_models(state, obs, method)
        for m in models:
            assert m.probs.sum() == pytest.approx(1.0)
            assert m.probs.min() >= 0
            assert m.values.shape == m.probs.shape
    with pytest.raises(BenchError):
        measurement_models(state, obs, "haar")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PANELS), st.sampled_from(METHODS),
       st.one_of(st.integers(-40, 20), st.integers(-900, -500), st.integers(500, 900)),
       st.integers(0, 2**32))
def test_sampled_estimates_scale_with_the_observable(panel, method, k, seed):
    # 2^k scales every float exactly, so the cell merge, the draws and both
    # reported numbers must scale by exactly 2^k, however small the observable
    # and however large, including where a squared cell value leaves the range
    state, obs = load_fixture(panel[0]).state, load_fixture(panel[1]).observable
    scaled = Observable([PauliString(t.word, t.coeff * 2.0**k) for t in obs.terms])
    est, err = draw_estimates(measurement_models(state, obs, method), 1000,
                              spawn_rng(seed, 0), 3)
    est_k, err_k = draw_estimates(measurement_models(state, scaled, method), 1000,
                                  spawn_rng(seed, 0), 3)
    assert est_k.tolist() == (est * 2.0**k).tolist()
    assert err_k.tolist() == (err * 2.0**k).tolist()


def test_non_finite_cell_values_are_a_numerical_error():
    state = load_fixture("rho2").state
    with pytest.raises(QcoreError, match="non-finite"):
        measurement_models(state, parse_observable("1e308 XX; 1e308 XX"), "pqst")


def test_mse_experiment_unbiased_and_scaling():
    state = load_fixture("rho2").state
    obs = load_fixture("O2X").observable
    results = mse_experiment(state, obs, "pqst-auto", trials=400, seed=3)
    assert [r.shots for r in results] == list(DEFAULT_SHOT_GRID)
    assert all(r.true_value == pytest.approx(expectation(obs, state.mat))
               for r in results)
    assert results[0].mse > results[-1].mse  # decays over 3 decades
    slope, _, r2 = fit_scaling(results)
    assert slope == pytest.approx(-1.0, abs=0.15)
    assert r2 > 0.99


def test_mse_single_shot_self_consistency():
    # MSE at M=1 equals the exact single-shot variance within 5 sigma
    state = load_fixture("rho2").state
    obs = load_fixture("O2X").observable
    models = measurement_models(state, obs, "pqst-auto")
    exact_var = 0.0
    for m in models:
        ev, ev2 = float(m.probs @ m.values), float(m.probs @ m.values**2)
        exact_var += ev2 - ev**2
    bias = sum(float(m.probs @ m.values) for m in models) \
        - expectation(obs, state.mat)
    assert abs(bias) < 1e-10  # estimator is unbiased
    [r] = mse_experiment(state, obs, "pqst-auto", shots_grid=(1,),
                         trials=1000, seed=9)
    assert abs(r.mse - exact_var) < 5 * r.stderr


def _snapshot_values(ens, state, o):
    return np.einsum("ij,cji->c", o, reference_cells(ens, state)[1]).real


def _born_table_values(ens, o):
    return born_table(np.stack(ens.members), apply_inverse(ens, o)).real.ravel()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_born_table_values_match_snapshots(n):
    # every inverse kind: pseudo (zeta sets), per-site (pauli), depolarizing
    rng = np.random.default_rng(40 + n)
    state = random_density_matrix(n, rng)
    o = random_hermitian(2**n, rng)
    sets = [zeta_m_active(n, m) for m in range(1, n + 1)]
    sets += [pauli_local_ensemble(n), clifford_ensemble(n), mub_ensemble(n)]
    for ens in sets:
        resid = np.abs(_born_table_values(ens, o) - _snapshot_values(ens, state, o))
        assert resid.max() < 1e-12, ens.name


def test_born_table_values_match_snapshots_n4():
    rng = np.random.default_rng(44)
    state = random_density_matrix(4, rng)
    o = random_hermitian(16, rng)
    obs = parse_observable("2 XXYY; -1 ZIXI; 3 IZZI; 0.5 YIIX; 1 IIIZ")
    for ens in pqst_auto_ensembles(obs) + [pauli_local_ensemble(4)]:
        resid = np.abs(_born_table_values(ens, o) - _snapshot_values(ens, state, o))
        assert resid.max() < 1e-12, ens.name


@pytest.mark.parametrize("state_name,obs_name", PANELS)
def test_merged_models_keep_mean_and_variance(state_name, obs_name):
    state = load_fixture(state_name).state
    obs = load_fixture(obs_name).observable
    for method in METHODS:
        ensembles = method_ensembles(method, obs)
        owners = pattern_owners(ensembles, obs.terms)
        owned = [(ens, [t for t in obs.terms if owners[t.activity] == index])
                 for index, ens in enumerate(ensembles)]
        owned = [(ens, terms) for ens, terms in owned if terms]
        models = measurement_models(state, obs, method)
        assert [m.ensemble.name for m in models] == [ens.name for ens, _ in owned]
        for model, (ens, terms) in zip(models, owned):
            probs = reference_cells(ens, state)[0]
            values = _snapshot_values(ens, state, sum(t.matrix() for t in terms))
            mean, merged_mean = probs @ values, model.probs @ model.values
            var = probs @ values**2 - mean**2
            merged_var = model.probs @ model.values**2 - merged_mean**2
            assert abs(merged_mean - mean) < 1e-12
            assert abs(merged_var - var) <= 1e-9 * var
            assert np.unique(model.values.round(9)).size == model.values.size


def test_mse_determinism_across_runs_and_method_order():
    state = load_fixture("rho2X").state
    obs = load_fixture("O2").observable

    def run(methods):  # 300 trials span two trial blocks
        return {m: [(r.mse, r.stderr) for r in
                    mse_experiment(state, obs, m, shots_grid=(100, 1000),
                                   trials=300, seed=21)]
                for m in methods}

    first = run(METHODS)
    assert run(METHODS) == first
    assert run(METHODS[::-1]) == first


def test_fit_scaling_synthetic():
    rows = [MseResult("m", s, 10, 3.7 / s, 0.0, 0.0)
            for s in (100, 1000, 10_000, 100_000)]
    slope, intercept, r2 = fit_scaling(rows)
    assert slope == pytest.approx(-1.0, abs=1e-6)
    assert r2 > 0.999999
    flat = [MseResult("m", s, 10, 2.0, 0.0, 0.0) for s in (10, 100, 1000, 10000)]
    slope, _, _ = fit_scaling(flat)
    assert slope == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(BenchError):
        fit_scaling([MseResult("m", 10, 1, 1.0, 0.0, 0.0)] * 4)


def test_coverage_error_names_patterns():
    state = load_fixture("rho2").state
    obs = parse_observable("1 XX; 1 XI")
    # force a configuration with no owner for the single-active pattern
    from pqst.ensembles import zeta_A, zeta_x
    with pytest.raises(CoverageError) as err:
        pattern_owners([zeta_x(2)], obs.terms)
    assert "XI" in str(err.value)
    with pytest.raises(CoverageError) as err:
        pattern_owners([zeta_A(2, {1}), zeta_m_active(2, 1)])
    assert str(err.value) == "pattern {1} trusted by both zeta-A:1 and zeta-m:1"


def test_bench_rows_and_csv(tmp_path):
    state = load_fixture("rho2").state
    obs = load_fixture("O2X").observable
    rows = bench_rows("rho2", state, "O2X", obs, ["pqst-auto", "mub"],
                      shots_grid=(100, 1000, 10_000, 100_000), trials=20, seed=5)
    assert len(rows) == 8
    assert all(row["slope_tag"].startswith("slope=") for row in rows)
    path = tmp_path / "out.csv"
    write_csv(path, rows)
    first = path.read_text().splitlines()[0]
    assert first == ("method,n_qubits,state,observable,shots,trials,mse,stderr,"
                     "true_value,slope_tag,seed")
