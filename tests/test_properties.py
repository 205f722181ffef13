"""Property tests of the exact estimators over random states, n = 1..4."""

import numpy as np
from hypothesis import given, settings, strategies as st

from pqst.ensembles import zeta_A, zeta_m_active, zeta_union, zeta_x
from pqst.operators import PauliString, activity_of_indices, pattern_qubits
from pqst.shadow import combine_pses, ensemble_pse
from conftest import random_density

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
    rho = random_density(n, np.random.default_rng(seed))
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
    rho = random_density(n, np.random.default_rng(seed))
    sets = [zeta_x(n)] + [zeta_m_active(n, m) for m in range(1, n)]
    est = combine_pses([ensemble_pse(rho, ens) for ens in sets])
    assert np.abs(est - rho.mat).max() < 1e-10


@given(st.text(alphabet="IXYZ", min_size=1, max_size=4))
def test_word_mask_is_the_xy_positions(word):
    n = len(word)
    assert pattern_qubits(PauliString(word).activity, n) == \
        [q for q in range(1, n + 1) if word[q - 1] in "XY"]
    # the word's matrix is nonzero exactly on the elements of its pattern
    support = np.abs(PauliString(word).matrix()) > 0
    assert np.array_equal(support, activity_of_indices(n) == PauliString(word).activity)
