import itertools
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqst import qcore
from pqst.qcore import (DensityMatrix, HADAMARD, HS, ID2, PHASE_S, QcoreError,
                        RELAXED_TOLERANCES, STRICT_TOLERANCES, dag, fidelity,
                        fidelity_with_clip, jacobi_eigh, kron_all, load_density_matrix,
                        save_density_matrix, spawn_rng)
from pqst.ensembles import zeta_m_active, zeta_x
from pqst.operators import PAULI_1Q
from pqst.golden import random_density_matrix, run_validation
from pqst.bench import draw_estimates, load_fixture, measurement_models
from pqst.shadow import reconstruct_state
from conftest import random_hermitian


def test_gate_constants_unitary():
    for u in (ID2, HADAMARD, PHASE_S, HS):
        assert np.abs(dag(u) @ u - ID2).max() < 1e-14
    assert np.allclose(HS, HADAMARD @ PHASE_S)


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_jacobi_matches_numpy_eigh(d, rng):
    for _ in range(10):
        a = random_hermitian(d, rng)
        w, v = jacobi_eigh(a)
        w_ref = np.linalg.eigvalsh(a)
        assert np.allclose(w, w_ref, atol=1e-10)
        assert np.abs(v @ np.diag(w) @ dag(v) - a).max() < 1e-10
        assert np.abs(dag(v) @ v - np.eye(d)).max() < 1e-10


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(QcoreError):
        jacobi_eigh(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 complex(0, np.nan), complex(0, np.inf), complex(0, -np.inf)])
def test_non_finite_input_is_rejected_by_the_solver_and_the_fidelity(bad):
    sigma = np.eye(4, dtype=complex) / 4
    sigma[0, 0] = bad
    with pytest.raises(QcoreError, match="jacobi_eigh input contains non-finite"):
        jacobi_eigh(sigma)
    with pytest.raises(QcoreError, match="fidelity second argument contains non-finite"):
        fidelity_with_clip(DensityMatrix(np.eye(4) / 4), sigma)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16])
def test_round_robin_rounds_are_disjoint_and_cover_each_pair_once(d):
    rounds = qcore._round_robin(d)
    assert len(rounds) == d - 1 + d % 2
    swept = []
    for p, q in rounds:
        assert len(p) == d // 2 and (p < q).all()
        assert len(set(p) | set(q)) == 2 * len(p)
        swept += zip(p.tolist(), q.tolist())
    assert sorted(swept) == list(itertools.combinations(range(d), 2))


def _structured_hermitians(d, rng):
    """Inputs with degenerate spectra or exactly zero couplings."""
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    block = np.zeros((d, d), dtype=complex)
    h = d // 2
    block[:h, :h], block[h:, h:] = random_hermitian(h, rng) / d, random_hermitian(d - h, rng) / d
    return {"maximally mixed": np.eye(d) / d, "pure": np.outer(psi, psi.conj()),
            "unsorted diagonal": np.diag(rng.permutation(d) % 3 - 0.5),
            "block diagonal": block}


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_jacobi_on_degenerate_and_structured_inputs(d, rng):
    for name, a in _structured_hermitians(d, rng).items():
        w, v = jacobi_eigh(a)
        assert np.all(np.diff(w) >= 0), name
        assert np.abs(v @ np.diag(w) @ dag(v) - a).max() < 1e-12, name
        assert np.abs(dag(v) @ v - np.eye(d)).max() < 1e-12, name
        assert np.abs(w - np.linalg.eigvalsh(a)).max() < 1e-12, name


def test_round_robin_is_built_once_per_dimension_and_read_only():
    rounds = qcore._round_robin(8)
    assert qcore._round_robin(8) is rounds
    assert isinstance(rounds, tuple)
    for p, q in rounds:
        for index in (p, q):
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 0


@pytest.mark.parametrize("d", range(2, 17))
def test_eigenvalues_without_vectors_are_the_same_bits(d, rng):
    inputs = [random_hermitian(d, rng) for _ in range(3)]
    for a in inputs + list(_structured_hermitians(d, rng).values()):
        w, v = jacobi_eigh(a, vectors=False)
        assert v is None
        assert w.tobytes() == jacobi_eigh(a)[0].tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), mix=st.floats(0, 1))
def test_fidelity_matches_eigvalsh_of_sqrt_rho_sigma_sqrt_rho(n, seed, mix):
    """F and the clipped mass, solved in rho's eigenbasis, against numpy's
    eigenvalues of sqrt(rho) sigma sqrt(rho) for a full-rank rho and a
    Hermitian sigma mixing a state with a trace-less, indefinite part."""
    d, rng = 2**n, np.random.default_rng(seed)
    rho, state = random_density_matrix(n, rng), random_density_matrix(n, rng)
    h = random_hermitian(d, rng)
    sigma = mix * state.mat + (1 - mix) * (h - np.trace(h) / d) / d
    w, v = np.linalg.eigh(rho.mat)
    root = v @ np.diag(np.sqrt(w)) @ dag(v)
    lam = np.linalg.eigvalsh(root @ sigma @ root)
    f, clipped = fidelity_with_clip(rho, sigma)
    assert f == pytest.approx(np.sqrt(np.clip(lam, 0, None)).sum() ** 2, abs=1e-12)
    assert clipped == pytest.approx(-lam[lam < 0].sum(), abs=1e-12)


def test_density_matrix_keeps_its_decomposition(rng):
    for n in range(1, 5):
        d = 2**n
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        for rho in (random_density_matrix(n, rng), DensityMatrix.from_statevector(psi)):
            w, v = rho.eigenvalues, rho.decomposition[1]
            assert np.abs(v @ np.diag(w) @ dag(v) - rho.mat).max() < 1e-12
            assert np.abs(dag(v) @ v - np.eye(d)).max() < 1e-12
            assert np.all(np.diff(w) >= 0)
            assert rho.validation_residuals["min_eigenvalue"] == w[0]
            root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ dag(v)
            assert np.abs(root @ root - rho.mat).max() < 1e-10


@pytest.fixture
def solves(monkeypatch):
    """One entry per qcore.jacobi_eigh call, through every caller."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return jacobi_eigh(*args, **kwargs)

    monkeypatch.setattr(qcore, "jacobi_eigh", counted)
    return calls


def test_a_state_and_a_fidelity_make_one_eigen_solve_each(solves, rng):
    # the state's own solve waits for its first read and is kept
    mat = random_density_matrix(3, rng).mat
    sigma = random_density_matrix(3, rng).mat
    solves.clear()
    rho = DensityMatrix(mat)
    assert len(solves) == 0
    fidelity_with_clip(rho, sigma)
    assert len(solves) == 2
    fidelity_with_clip(rho, sigma)
    assert len(solves) == 3
    assert rho.validation_residuals["min_eigenvalue"] == rho.eigenvalues[0]
    assert len(solves) == 3


def test_validation_battery_makes_no_eigen_solve(solves):
    results = run_validation()
    assert [label for label, passed, _ in results if not passed] == []
    assert len(results) == 50
    assert solves == []


@pytest.mark.parametrize("method", ["pqst", "pauli", "clifford", "mub"])
def test_sampled_estimate_makes_no_eigen_solve(solves, method):
    # the path of `pqst estimate` in sampled mode
    state = random_density_matrix(3, np.random.default_rng(5))
    models = measurement_models(state, load_fixture("O3X").observable, method)
    draw_estimates(models, 1000, spawn_rng(5, 0), 1)
    assert solves == []


def test_sampled_4_qubit_reconstruction_makes_two_eigen_solves(solves):
    sets = [zeta_x(4)] + [zeta_m_active(4, m) for m in (1, 2, 3)]
    solves.clear()
    rho = random_density_matrix(4, np.random.default_rng(8))
    reconstruct_state(rho, sets, shots=10_000, seed=8)
    assert len(solves) == 2


def test_tensor_product_dimension_cap():
    assert kron_all(*(ID2,) * 4).shape == (16, 16)
    with pytest.raises(QcoreError):
        kron_all(*(ID2,) * 5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tensor_product_bytes_match_np_kron_chain(n):
    """Ensemble members and observables inherit kron_all's bytes, and the
    multinomial draws move with their last bits; so the product must be the
    np.kron chain's to the bit, on every {1,H,HS} word and every Pauli word."""
    sites = [ID2, HADAMARD, HS], list(PAULI_1Q.values())
    for site in sites:
        for word in itertools.product(site, repeat=n):
            chain = reduce(np.kron, word, np.eye(1, dtype=complex))
            product = kron_all(*word)
            assert (product.shape, product.tobytes()) == (chain.shape, chain.tobytes())


def test_density_matrix_validation():
    with pytest.raises(QcoreError):
        DensityMatrix(np.array([[1, 1], [0, 0]], dtype=complex))  # not Hermitian
    with pytest.raises(QcoreError):
        DensityMatrix(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(QcoreError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
    ok = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    assert ok.validation_residuals["trace"] < 1e-12


def _haar_unitary(d, rng):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cholesky_psd_check_agrees_with_the_eigenvalue_floor(solves, n, relaxed):
    """A state whose lowest eigenvalue sits delta above or below the floor, with
    one eigenvalue there or all but one (rank 1 up to the floor), is accepted
    iff Jacobi's lowest eigenvalue clears the floor. An accepted state was
    decided by the Cholesky factor alone (no solve); a rejected one carries
    the eigenvalue in the message text the eigenvalue check always gave.
    The two decisions were also seen to agree at delta = 1e-15."""
    floor = (RELAXED_TOLERANCES if relaxed else STRICT_TOLERANCES)[2]
    d, rng = 2**n, np.random.default_rng(100 * n + relaxed)
    for delta, sign, rank_one in itertools.product(10.0 ** -np.arange(6, 13), (1, -1),
                                                   (False, True)):
        low = floor + sign * delta
        if rank_one:
            spectrum = np.full(d, low)
            spectrum[-1] = 1 - (d - 1) * low
        else:
            rest = rng.uniform(0.1, 1.0, size=d - 1)
            spectrum = np.concatenate([[low], rest * (1 - low) / rest.sum()])
        u = _haar_unitary(d, rng)
        mat = (u * spectrum) @ dag(u)
        min_eig = float(jacobi_eigh(mat)[0][0])
        assert (min_eig >= floor) == (sign > 0)
        solves.clear()
        if min_eig >= floor:
            DensityMatrix(mat, relaxed=relaxed)
            assert solves == []
        else:
            with pytest.raises(QcoreError) as info:
                DensityMatrix(mat, relaxed=relaxed)
            assert str(info.value) == \
                f"density matrix has eigenvalue {min_eig:.2e} below {floor:.0e}"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pure_states_pass_the_strict_floor_without_a_solve(solves, n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        solves.clear()
        rho = DensityMatrix.from_statevector(psi)
        assert solves == []
        assert rho.validation_residuals["min_eigenvalue"] >= STRICT_TOLERANCES[2]


def test_relaxed_validation_accepts_printed_precision():
    mat = np.diag([0.5005, 0.4998]).astype(complex)
    with pytest.raises(QcoreError):
        DensityMatrix(mat)
    relaxed = DensityMatrix(mat, relaxed=True)
    assert relaxed.validation_residuals["trace"] == pytest.approx(3e-4, abs=1e-9)


def test_purity_and_fidelity_pure_states():
    psi = np.array([1, 0, 0, 1]) / math.sqrt(2)
    bell = DensityMatrix.from_statevector(psi)
    assert np.trace(bell.mat @ bell.mat).real == pytest.approx(1.0)
    # a pure rho puts near-zero eigenvalues under a square root; solved in
    # rho's eigenbasis they only scale B's rows and columns, so this reads
    # 1.0 and the bound is loose
    assert fidelity(bell, bell) == pytest.approx(1.0, abs=2e-7)
    other = DensityMatrix.from_statevector(np.array([0, 1, 0, 0], dtype=complex))
    assert fidelity(bell, other) == pytest.approx(0.0, abs=2e-7)


def test_fidelity_pure_overlap_formula(rng):
    # for pure rho, F(rho, sigma) = <psi|sigma|psi>
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = DensityMatrix.from_statevector(psi)
    sigma = random_density_matrix(2, rng)
    expected = float((psi.conj() @ sigma.mat @ psi).real)
    assert fidelity(rho, sigma) == pytest.approx(expected, abs=2e-7)


def test_fidelity_clips_negative_eigenvalues(rng):
    rho = random_density_matrix(2, rng)
    est = rho.mat + 0.3 * np.diag([1, -1, 1, -1])  # non-physical estimator
    f, clipped = fidelity_with_clip(rho, est)
    assert clipped > 0
    assert 0 <= f


def test_spawn_rng_deterministic_and_keyed():
    a = spawn_rng(5, 0, 1).random(3)
    b = spawn_rng(5, 0, 1).random(3)
    c = spawn_rng(5, 0, 2).random(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_density_matrix_file_round_trip(tmp_path, rng):
    rho = random_density_matrix(2, rng)
    path = tmp_path / "rho.json"
    save_density_matrix(path, rho)
    back = load_density_matrix(path)
    assert np.abs(back.mat - rho.mat).max() < 1e-15
    with pytest.raises(QcoreError):
        path.write_text('{"n_qubits": 2, "re": [1], "im": [0]}')
        load_density_matrix(path)


def test_density_matrix_file_accepts_nested_rows(tmp_path):
    path = tmp_path / "rho.json"
    path.write_text('{"n_qubits": 1, "re": [[0.5, 0.5], [0.5, 0.5]], "im": [[0, 0], [0, 0]]}')
    assert np.array_equal(load_density_matrix(path).mat, np.full((2, 2), 0.5))
