import itertools
import tracemalloc

import numpy as np
import pytest

from pqst.bench import load_fixture
from pqst.channels import apply_inverse, forward_channel_exact, snapshot_moments
from pqst.ensembles import (UnitaryEnsemble, clifford_ensemble, enumerate_clifford_group,
                            mub_ensemble, parse_ensemble_list, pauli_local_ensemble,
                            zeta_A, zeta_m_active, zeta_union, zeta_x)
from pqst.operators import activity_of_indices, expectation, parse_observable, \
    pattern_name
from pqst.qcore import spawn_rng
from pqst.shadow import (CoverageError, cell_probabilities, combine_pses, ensemble_pse,
                         estimate_observable, reconstruct_state, sampled_pse)
from pqst.golden import random_density_matrix
from conftest import member_word, reference_cells


def test_snapshot_is_unbiased_over_cells(rng):
    # probability-weighted average of all snapshots = pseudo-inverse of the
    # exact forward channel = the exact-mode PSE
    rho = random_density_matrix(2, rng)
    for ens in (zeta_x(2), zeta_union(2, [{1}, {2}]), pauli_local_ensemble(2),
                clifford_ensemble(2), mub_ensemble(2)):
        probs, snaps = reference_cells(ens, rho)
        mean = np.tensordot(probs, snaps, axes=1)
        exact = ensemble_pse(rho, ens).estimate
        assert np.abs(mean - exact).max() < 1e-10


def _every_set(n):
    sets = [zeta_x(n)] + [zeta_m_active(n, m) for m in range(1, n + 1)]
    sets += [zeta_A(n, set(a)) for r in range(1, n + 1)
             for a in itertools.combinations(range(1, n + 1), r)]
    sets.append(pauli_local_ensemble(n))
    if n <= 3:
        sets += [clifford_ensemble(n), mub_ensemble(n)]
    return sets


class _RecordingRng:
    """Passes multinomial draws through to a generator and keeps the last one."""

    def __init__(self, rng):
        self.rng, self.pvals, self.counts = rng, None, None

    def multinomial(self, shots, pvals):
        self.pvals, self.counts = pvals, self.rng.multinomial(shots, pvals)
        return self.counts


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sampled_pse_matches_full_stack_formula(n):
    # the closed-form moments equal the whole (cells, d, d) snapshot stack
    # contracted with the same counts
    rng = np.random.default_rng(70 + n)
    rho = random_density_matrix(n, rng)
    shots = 5000
    for ens in _every_set(n):
        probs, snaps = reference_cells(ens, rho)
        draw = _RecordingRng(spawn_rng(n, 0))
        pse = sampled_pse(rho, ens, shots, draw)
        assert np.abs(draw.pvals - probs / probs.sum()).max() < 1e-15, ens.name
        counts = draw.counts
        est = np.tensordot(counts, snaps, axes=1) / shots
        second = np.tensordot(counts, np.abs(snaps)**2, axes=1) / shots
        stderr = np.sqrt(np.clip(second - np.abs(est)**2, 0.0, None) / shots)
        assert np.abs(pse.estimate - est).max() < 1e-12, ens.name
        assert np.abs(pse.stderr - stderr).max() < 1e-12, ens.name


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_clifford_pse_stays_below_the_born_table_peak():
    # the n=4 Born table's conjugate copy of 2,295 stabilizer bases peaks at
    # 9.78 MiB; the moments, contracted in chunks of members, stay under it
    ens = clifford_ensemble(4)
    rho = random_density_matrix(4, np.random.default_rng(4))
    born = _traced_peak(lambda: cell_probabilities(ens, rho))
    peak = _traced_peak(lambda: sampled_pse(rho, ens, 10_000, spawn_rng(1, 0)))
    assert peak < 11 * 2**20
    assert peak < born + 2**18


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sampled_pses_are_unbiased_with_the_exact_variance(n):
    # sigma_exact is the per-entry standard error at the Born probabilities:
    # the mean of R sampled PSEs lies within 6 sigma_exact / sqrt(R) of the
    # exact PSE, and the empirical variance matches sigma_exact^2 per set (the
    # median over a set's 256 entries at n = 4 is steady with fewer draws)
    rho = random_density_matrix(n, np.random.default_rng(90 + n))
    draws, shots = (160 if n < 4 else 80), 500
    for index, ens in enumerate(_every_set(n)):
        exact = apply_inverse(ens, forward_channel_exact(ens, rho.mat))
        mean, second = snapshot_moments(ens, cell_probabilities(ens, rho))
        assert np.abs(mean - exact).max() < 1e-12, ens.name
        sigma2 = (second - np.abs(mean)**2) / shots
        pses = np.array([sampled_pse(rho, ens, shots, spawn_rng(n, index, r)).estimate
                         for r in range(draws)])
        bound = 6 * np.sqrt(np.clip(sigma2, 0.0, None) / draws) + 1e-12
        assert np.all(np.abs(pses.mean(axis=0) - exact) <= bound), ens.name
        spread = sigma2 > 1e-12
        ratio = np.median(pses.var(axis=0, ddof=1)[spread] / sigma2[spread])
        assert 0.8 <= ratio <= 1.25, (ens.name, ratio)


_RELAXED_FIXTURES = {2: ("rho2", "rho2X"), 3: ("rho3", "rho3X")}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ensemble_pse_equals_the_dense_forward_channel(n):
    # the exact PSE is the snapshot mean at the raw Born table; the oracle is the
    # independent einsum of the forward channel. The relaxed fixtures miss trace 1
    # and PSD at the 1e-3 level, so a clipped or normalised table would show
    states = [random_density_matrix(n, np.random.default_rng(30 + n))]
    states += [load_fixture(name).state for name in _RELAXED_FIXTURES.get(n, ())]
    sets = _every_set(n)
    if n > 1:
        sets.append(zeta_union(n, [{q} for q in range(1, n + 1)]))
    if n > 2:
        sets.append(zeta_union(n, [set(a) for a in itertools.combinations(range(1, n + 1), 2)]))
    if n == 4:
        sets.append(clifford_ensemble(4))
    if n <= 2:
        sets.append(UnitaryEnsemble("clifford-closure", enumerate_clifford_group(n),
                                    2.0**n + 1, frozenset()))
    for rho in states:
        for ens in sets:
            oracle = apply_inverse(ens, forward_channel_exact(ens, rho.mat))
            assert np.abs(ensemble_pse(rho, ens).estimate - oracle).max() < 1e-12, ens.name


def test_ensemble_pse_trusted_entries(rng):
    rho = random_density_matrix(2, rng)
    pse = ensemble_pse(rho, zeta_A(2, {1}))
    assert pse.shots == 0 and pse.ensemble.p == 3
    assert abs(pse.estimate[0, 2] - rho.mat[0, 2]) < 1e-12
    assert abs(pse.estimate[1, 3] - rho.mat[1, 3]) < 1e-12
    assert pse.ensemble.trusted == {0b10} and 0 not in pse.ensemble.trusted


def test_sampled_pse_converges_and_is_deterministic(rng):
    rho = random_density_matrix(2, rng)
    ens = zeta_x(2)
    pse1 = sampled_pse(rho, ens, 200_000, spawn_rng(42, 0))
    pse2 = sampled_pse(rho, ens, 200_000, spawn_rng(42, 0))
    assert np.array_equal(pse1.estimate, pse2.estimate)
    exact = ensemble_pse(rho, ens).estimate
    trusted = np.isin(activity_of_indices(2), list(pse1.ensemble.trusted))
    assert trusted.sum() == 8  # the diagonal and the anti-diagonal
    assert np.abs(pse1.estimate - exact)[trusted].max() < 0.02
    assert pse1.stderr is not None and pse1.stderr.min() >= 0
    with pytest.raises(ValueError):
        sampled_pse(rho, ens, 0, spawn_rng(0, 0))


def test_combine_full_coverage(rng):
    rho = random_density_matrix(2, rng)
    pses = [ensemble_pse(rho, zeta_x(2)),
            ensemble_pse(rho, zeta_union(2, [{1}, {2}]))]
    est = combine_pses(pses)
    assert np.abs(est - rho.mat).max() < 1e-10


def test_combine_reports_missing_patterns(rng):
    rho = random_density_matrix(2, rng)
    with pytest.raises(CoverageError) as err:
        combine_pses([ensemble_pse(rho, zeta_union(2, [{1}, {2}]))])
    assert "diagonal" in str(err.value) and "{1,2}" in str(err.value)


def test_combine_rejects_double_ownership(rng):
    rho = random_density_matrix(2, rng)
    with pytest.raises(CoverageError):
        combine_pses([ensemble_pse(rho, zeta_x(2)),
                      ensemble_pse(rho, pauli_local_ensemble(2))])


def test_estimate_observable_matches_trace(rng):
    rho = random_density_matrix(2, rng)
    obs = parse_observable("8 ZY; 12 XZ; 3 XX; -10 IZ; 9 II")
    pses = [ensemble_pse(rho, zeta_x(2)),
            ensemble_pse(rho, zeta_union(2, [{1}, {2}]))]
    assert estimate_observable(obs, pses) == pytest.approx(
        expectation(obs, rho.mat), abs=1e-10)
    with pytest.raises(CoverageError):
        estimate_observable(obs, pses[1:])


def test_identity_member_cell_probabilities_are_the_populations():
    state = load_fixture("table2-iii").state
    ens = zeta_x(2)
    probs = cell_probabilities(ens, state)
    assert probs.shape == (5 * 4,)
    identity = [member_word(ens, i) for i in range(ens.size)].index(("1", "1"))
    assert np.allclose(probs.reshape(5, 4)[identity] * ens.size, np.diag(state.mat).real)


_ZETA_X_AND_ZETA_1 = (zeta_x(2), zeta_union(2, [{1}, {2}]))


def test_reconstruct_state_exact_and_sampled():
    state = load_fixture("table2-iii").state
    exact = reconstruct_state(state, _ZETA_X_AND_ZETA_1)
    assert exact["fidelity_vs_reference"] >= 1 - 1e-10
    assert exact["seed"] is None and exact["shots_per_set"] == 0
    sampled = reconstruct_state(state, _ZETA_X_AND_ZETA_1, 50_000, 2)
    assert sampled["fidelity_vs_reference"] >= 0.97


def test_reconstruct_state_sampled_needs_a_seed():
    state = load_fixture("table2-iii").state
    with pytest.raises(ValueError, match="requires a seed"):
        reconstruct_state(state, _ZETA_X_AND_ZETA_1, 10)


@pytest.mark.parametrize("n,specs,expected", [
    (2, "zeta-X,zeta-A:1|zeta-A:2", [["diagonal", "{1,2}"], ["{1}", "{2}"]]),
    (2, "pauli", [["diagonal", "{1}", "{2}", "{1,2}"]]),
    (3, "zeta-m:2,zeta-X,zeta-m:1",
     [["{1,2}", "{1,3}", "{2,3}"], ["diagonal", "{1,2,3}"], ["{1}", "{2}", "{3}"]]),
])
def test_report_lists_each_pattern_under_its_one_owner(n, specs, expected):
    rho = random_density_matrix(n, np.random.default_rng(n))
    report = reconstruct_state(rho, parse_ensemble_list(specs, n), 100, 3)
    patterns = [s["patterns"] for s in report["sets"]]
    assert patterns == expected
    names = [name for owned in patterns for name in owned]
    assert sorted(names) == sorted(pattern_name(m, n) for m in range(2**n))


def test_report_flags_a_fidelity_above_one_and_records_residuals():
    state = load_fixture("table2-i").state
    exact = reconstruct_state(state, _ZETA_X_AND_ZETA_1)
    sampled = reconstruct_state(state, _ZETA_X_AND_ZETA_1, 100_000, 11)
    assert abs(exact["fidelity_vs_reference"] - 1) < 1e-7
    assert not exact["fidelity_above_one"]
    assert sampled["fidelity_vs_reference"] > 1 + 1e-6
    assert sampled["fidelity_above_one"]
    assert sampled["state_residuals"] == state.validation_residuals


@pytest.mark.parametrize("cover", ["zeta-X,zeta-A:1|zeta-A:2", "zeta-X,zeta-A:1,zeta-A:2",
                                   "zeta-X,zeta-m:1", "mub", "clifford", "pauli"])
@pytest.mark.parametrize("name", ["table2-i", "table2-ii", "table2-v"])
def test_exact_full_covers_of_pure_fixtures_read_fidelity_one(name, cover):
    """The exact estimate of a pure state is the state, so its fidelity is 1
    up to rounding, far below the flag's slack."""
    state = load_fixture(name).state
    report = reconstruct_state(state, parse_ensemble_list(cover, state.n))
    assert abs(report["fidelity_vs_reference"] - 1) <= 1e-12
    assert report["fidelity_above_one"] is False
