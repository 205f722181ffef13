"""Property tests of the exact and sampled estimators over random states, of
the PQST set selection over random observables, and of the fidelity of random
physical states, n = 1..4."""

import numpy as np
from hypothesis import given, settings, strategies as st

from pqst.bench import pqst_auto_ensembles
from pqst.ensembles import pauli_local_ensemble, zeta_A, zeta_m_active, zeta_union, zeta_x
from pqst.operators import Observable, PauliString, activity_of_indices, is_x_structured, \
    pattern_qubits
from pqst.qcore import DensityMatrix, fidelity, spawn_rng
from pqst.shadow import FIDELITY_SLACK, combine_pses, ensemble_pse, sampled_pse
from pqst.golden import random_density_matrix

sizes = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _assert_exact_on_trusted(rho, ens):
    est = ensemble_pse(rho, ens).estimate
    trusted = np.isin(activity_of_indices(rho.n), list(ens.trusted))
    assert trusted.any()
    assert np.abs(est - rho.mat)[trusted].max() < 1e-10


@settings(max_examples=50, deadline=None)
@given(sizes, seeds, st.data())
def test_zeta_sets_exact_on_trusted_elements(n, seed, data):
    rho = random_density_matrix(n, np.random.default_rng(seed))
    qubits = list(range(1, n + 1))
    a = data.draw(st.sets(st.sampled_from(qubits), min_size=1))
    _assert_exact_on_trusted(rho, zeta_A(n, a))
    _assert_exact_on_trusted(rho, zeta_m_active(n, data.draw(st.integers(1, n))))
    size = data.draw(st.integers(1, n))
    subsets = data.draw(st.lists(st.frozensets(st.sampled_from(qubits), min_size=size,
                                               max_size=size), min_size=1, unique=True))
    _assert_exact_on_trusted(rho, zeta_union(n, subsets))


@settings(max_examples=20, deadline=None)
@given(sizes, seeds)
def test_combined_zeta_x_and_m_active_sets_recover_rho(n, seed):
    rho = random_density_matrix(n, np.random.default_rng(seed))
    sets = [zeta_x(n)] + [zeta_m_active(n, m) for m in range(1, n)]
    est = combine_pses([ensemble_pse(rho, ens) for ens in sets])
    assert np.abs(est - rho.mat).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(sizes, seeds, st.integers(1, 10_000), st.booleans())
def test_combined_sampled_pses_equal_their_conjugate_transpose(n, seed, shots, zeta):
    # the reconstruction report relies on this and does not symmetrise again
    rho = random_density_matrix(n, np.random.default_rng(seed))
    sets = [zeta_x(n)] + [zeta_m_active(n, m) for m in range(1, n)] if zeta \
        else [pauli_local_ensemble(n)]
    est = combine_pses([sampled_pse(rho, ens, shots, spawn_rng(seed, i))
                        for i, ens in enumerate(sets)])
    assert np.array_equal(est, est.conj().T)


@given(st.text(alphabet="IXYZ", min_size=1, max_size=4))
def test_word_mask_is_the_xy_positions(word):
    n = len(word)
    assert pattern_qubits(PauliString(word).activity, n) == \
        [q for q in range(1, n + 1) if word[q - 1] in "XY"]
    # the word's matrix is nonzero exactly on the elements of its pattern
    support = np.abs(PauliString(word).matrix()) > 0
    assert np.array_equal(support, activity_of_indices(n) == PauliString(word).activity)


@st.composite
def x_structured_observables(draw):
    """Observables whose every term lies in {I,Z}^n or in {X,Y}^n."""
    n = draw(sizes)
    words = st.one_of(st.text(alphabet="IZ", min_size=n, max_size=n),
                      st.text(alphabet="XY", min_size=n, max_size=n))
    coeffs = st.floats(-10, 10, allow_nan=False)
    return Observable([PauliString(w, c) for w, c in
                       draw(st.lists(st.tuples(words, coeffs), min_size=1, max_size=6))])


@settings(max_examples=200, deadline=None)
@given(x_structured_observables())
def test_pqst_auto_gives_zeta_x_for_x_structured_observables(obs):
    assert is_x_structured(obs)
    [chosen] = pqst_auto_ensembles(obs)
    expected = zeta_x(obs.n)
    assert (chosen.name, chosen.p, chosen.trusted) == \
        (expected.name, expected.p, expected.trusted)
    assert [m.tobytes() for m in chosen.members] == [m.tobytes() for m in expected.members]


def _random_state(n, rng, pure):
    if not pure:
        return random_density_matrix(n, rng)
    return DensityMatrix.from_statevector(rng.normal(size=2**n) + 1j * rng.normal(size=2**n))


@settings(max_examples=60, deadline=None)
@given(sizes, seeds, st.booleans(), st.booleans())
def test_fidelity_of_physical_states_is_bounded_symmetric_and_one_on_itself(
        n, seed, rho_pure, sigma_pure):
    rng = np.random.default_rng(seed)
    rho, sigma = _random_state(n, rng, rho_pure), _random_state(n, rng, sigma_pure)
    f = fidelity(rho, sigma)
    assert 0 <= f <= 1 + FIDELITY_SLACK
    assert abs(f - fidelity(sigma, rho)) <= 1e-6
    assert abs(fidelity(rho, rho) - 1) <= 1e-6
