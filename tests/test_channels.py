import numpy as np
import pytest

from pqst import channels
from pqst.channels import (apply_inverse, depolarizing_channel,
                           forward_channel_exact, pseudo_inverse)
from pqst.ensembles import (clifford_ensemble, enumerate_clifford_group,
                            mub_ensemble, pauli_local_ensemble,
                            UnitaryEnsemble, zeta_A, zeta_m_active, zeta_x)
from pqst.qcore import born_table
from pqst.shadow import ensemble_pse
from pqst.golden import random_density_matrix


def test_pseudo_inverse_linear_form(rng):
    a = random_density_matrix(2, rng).mat
    assert np.allclose(pseudo_inverse(5, a), 5 * a - np.eye(4))


def test_depolarizing_inverse_inverts_channel(rng):
    for n in (1, 2, 3):
        a = random_density_matrix(n, rng).mat
        ens = mub_ensemble(n)
        assert ens.p == 2**n + 1
        assert np.abs(apply_inverse(ens, depolarizing_channel(n, a)) - a).max() < 1e-12
        assert np.abs(depolarizing_channel(n, apply_inverse(ens, a)) - a).max() < 1e-12


def _every_inverse_kind(n):
    return [zeta_x(n), zeta_m_active(n, 1), pauli_local_ensemble(n), mub_ensemble(n)]


def _every_set_kind(n):
    sets = [zeta_x(n), zeta_A(n, {1}), zeta_m_active(n, 1), pauli_local_ensemble(n),
            clifford_ensemble(n)]
    if n <= 3:
        sets.append(mub_ensemble(n))
    if n <= 2:
        sets.append(UnitaryEnsemble("clifford-closure", enumerate_clifford_group(n),
                                    2.0**n + 1, frozenset()))
    return sets


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_born_table_and_forward_channel_equal_single_calls(n, rng):
    """Both act on the last two axes of a stack of states, and each slice of a
    stacked call equals the single-state call to the bit."""
    states = np.stack([random_density_matrix(n, rng).mat for _ in range(3)])
    for ens in _every_set_kind(n):
        tables = born_table(ens.members, states)
        forward = forward_channel_exact(ens, states)
        assert tables.shape == (3, ens.size, 2**n) and forward.shape == states.shape
        for i, rho in enumerate(states):
            assert tables[i].tobytes() == born_table(ens.members, rho).tobytes(), ens.name
            assert forward[i].tobytes() == forward_channel_exact(ens, rho).tobytes(), ens.name


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_inverse_batched_equals_per_operator(n, rng):
    d = 2**n
    stack = rng.normal(size=(3, 2, d, d)) + 1j * rng.normal(size=(3, 2, d, d))
    for ens in _every_inverse_kind(n):
        batched = apply_inverse(ens, stack)
        assert batched.shape == stack.shape
        for i, j in np.ndindex(3, 2):
            single = apply_inverse(ens, stack[i, j])
            assert np.abs(batched[i, j] - single).max() < 1e-13, ens.name


def test_forward_channel_trace_preserving(rng):
    rho = random_density_matrix(2, rng)
    out = forward_channel_exact(zeta_x(2), rho.mat)
    assert complex(np.trace(out)).real == pytest.approx(1.0, abs=1e-12)
    # channel output is diagonal-dominant mixing: Hermitian
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_forward_channel_chunks_match_member_loop(rng):
    # 11,520 members: the chunk boundaries fall inside the member list
    group = enumerate_clifford_group(2)
    assert len(group) % channels._CHUNK != 0
    ens = UnitaryEnsemble("closure", group, 5.0, frozenset(range(4)))
    rho = random_density_matrix(2, rng).mat
    loop = np.zeros((4, 4), dtype=complex)
    for u in group:
        ud = u.conj().T
        loop += (ud * np.einsum("ki,ij,jk->k", u, rho, ud).real) @ u
    assert np.abs(forward_channel_exact(ens, rho) - loop / len(group)).max() < 1e-12


def test_pseudo_inverse_unbiased_at_full_p(rng):
    # the Pauli set with global pseudo-inverse p=2^n+1 is NOT the right inverse,
    # but clifford/mub with the depolarizing inverse recover rho exactly
    rho = random_density_matrix(2, rng)
    for ens in (clifford_ensemble(2), mub_ensemble(2)):
        est = apply_inverse(ens, forward_channel_exact(ens, rho.mat))
        assert np.abs(est - rho.mat).max() < 1e-10


def test_clifford_closure_channel_is_depolarizing(rng):
    rho = random_density_matrix(2, rng)
    group = enumerate_clifford_group(2)
    ens = UnitaryEnsemble("closure", group, 5.0, frozenset(range(4)))
    assert np.abs(forward_channel_exact(ens, rho.mat)
                  - depolarizing_channel(2, rho.mat)).max() < 1e-10
    # the 15-basis reduction computes the same channel 768x faster
    assert np.abs(forward_channel_exact(clifford_ensemble(2), rho.mat)
                  - depolarizing_channel(2, rho.mat)).max() < 1e-10


def test_clifford_channel_is_depolarizing_at_n4(rng):
    rho = random_density_matrix(4, rng)
    ens = clifford_ensemble(4)
    assert (ens.n, ens.size, ens.p) == (4, 2295, 17.0)
    assert np.abs(forward_channel_exact(ens, rho.mat)
                  - depolarizing_channel(4, rho.mat)).max() <= 1e-10


def test_per_site_pauli_inverse_factors(rng):
    # on a product operator the per-site inverse is 3f - Tr(f) 1 on each factor
    f = np.array([[1, 0], [0, 0]], dtype=complex)
    one = 3 * f - np.eye(2)
    ens = pauli_local_ensemble(2)
    assert np.allclose(apply_inverse(ens, np.kron(f, f)), np.kron(one, one))
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    expected = np.kron(np.kron(3 * a - np.trace(a) * np.eye(2), 3 * b - np.trace(b) * np.eye(2)),
                       3 * c - np.trace(c) * np.eye(2))
    assert np.allclose(apply_inverse(pauli_local_ensemble(3), np.kron(np.kron(a, b), c)),
                       expected)


def test_per_site_inverse_recovers_rho_for_pauli_set(rng):
    for n in (1, 2, 3):
        rho = random_density_matrix(n, rng)
        est = ensemble_pse(rho, pauli_local_ensemble(n)).estimate
        assert np.abs(est - rho.mat).max() < 1e-10


def test_per_site_inverse_fails_for_zeta_x(rng):
    # negative control: the Pauli set's per-site inverse is wrong for the zeta_X set
    rho = random_density_matrix(2, rng)
    est = apply_inverse(pauli_local_ensemble(2), forward_channel_exact(zeta_x(2), rho.mat))
    trusted_resid = max(
        np.abs(np.diag(est) - np.diag(rho.mat)).max(),
        abs(est[0, 3] - rho.mat[0, 3]), abs(est[1, 2] - rho.mat[1, 2]))
    assert trusted_resid > 0.01

