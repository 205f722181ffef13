"""Closed-form expected estimator matrices for the 2-qubit sets, built
entrywise from an arbitrary rho, plus the validation battery the CLI exposes.

These constructors were derived independently of the channel code: each entry
was worked out by hand from the channel definition and verified numerically
before being frozen here, so they can serve as an oracle for the channel path.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .qcore import HADAMARD, HS, DensityMatrix, kron_all, spawn_rng
from .ensembles import (enumerate_clifford_group, mub_ensemble, pauli_local_ensemble,
                        zeta_A, zeta_m_active, zeta_union, zeta_x, UnitaryEnsemble)
from .channels import apply_inverse, depolarizing_channel, forward_channel_exact, \
    pseudo_inverse
from .operators import activity_of_indices
from .shadow import ensemble_pse


def golden_rho_x(rho: np.ndarray) -> np.ndarray:
    """Exact-mode zeta_X estimator at p=5: diagonal and anti-diagonal exact,
    other off-diagonals are two-entry sums."""
    r = rho
    return np.array([
        [r[0, 0], r[0, 1] + r[2, 3], r[0, 2] + r[1, 3], r[0, 3]],
        [r[1, 0] + r[3, 2], r[1, 1], r[1, 2], r[1, 3] + r[0, 2]],
        [r[2, 0] + r[3, 1], r[2, 1], r[2, 2], r[2, 3] + r[0, 1]],
        [r[3, 0], r[3, 1] + r[2, 0], r[3, 2] + r[1, 0], r[3, 3]],
    ])


def golden_rho_1(rho: np.ndarray) -> np.ndarray:
    """Exact-mode zeta_1 estimator at p=5: 1-active exact, diagonal distorted
    to 2 rho_ii - rho_{comp(i)}, 2-active zeroed."""
    r = rho
    return np.array([
        [2 * r[0, 0] - r[3, 3], r[0, 1], r[0, 2], 0],
        [r[1, 0], 2 * r[1, 1] - r[2, 2], 0, r[1, 3]],
        [r[2, 0], 0, 2 * r[2, 2] - r[1, 1], r[2, 3]],
        [0, r[3, 1], r[3, 2], 2 * r[3, 3] - r[0, 0]],
    ])


def golden_rho_1a(rho: np.ndarray) -> np.ndarray:
    """Exact-mode zeta_1a estimator at p=3 (qubit-1 single-active entries exact)."""
    r = rho
    return np.array([
        [-1 + 2 * r[0, 0] + r[2, 2], 0, r[0, 2], 0],
        [0, -1 + 2 * r[1, 1] + r[3, 3], 0, r[1, 3]],
        [r[2, 0], 0, -1 + 2 * r[2, 2] + r[0, 0], 0],
        [0, r[3, 1], 0, -1 + 2 * r[3, 3] + r[1, 1]],
    ])


def golden_rho_1b(rho: np.ndarray) -> np.ndarray:
    """Exact-mode zeta_1b estimator at p=3 (qubit-2 single-active entries exact)."""
    r = rho
    return np.array([
        [-1 + 2 * r[0, 0] + r[1, 1], r[0, 1], 0, 0],
        [r[1, 0], -1 + 2 * r[1, 1] + r[0, 0], 0, 0],
        [0, 0, -1 + 2 * r[2, 2] + r[3, 3], r[2, 3]],
        [0, 0, r[3, 2], -1 + 2 * r[3, 3] + r[2, 2]],
    ])


def golden_b_h(rho: np.ndarray) -> np.ndarray:
    """The B_H matrix: {1,H x H} channel building block, rho_hat = -1 + (p/4) B_H."""
    r = rho
    a = r[0, 0] + r[1, 1] + r[2, 2] + r[3, 3]
    b = r[0, 1] + r[1, 0] + r[2, 3] + r[3, 2]
    c = r[0, 2] + r[1, 3] + r[2, 0] + r[3, 1]
    d = r[0, 3] + r[1, 2] + r[2, 1] + r[3, 0]
    return np.array([
        [a, b, c, d],
        [b, a, d, c],
        [c, d, a, b],
        [d, c, b, a],
    ])


def golden_b_hs(rho: np.ndarray) -> np.ndarray:
    """The B_HS matrix for the {HS x HS} single-unitary channel."""
    r = rho
    a = r[0, 0] + r[1, 1] + r[2, 2] + r[3, 3]
    b = r[0, 1] - r[1, 0] + r[2, 3] - r[3, 2]
    c = r[0, 2] + r[1, 3] - r[2, 0] - r[3, 1]
    d = r[0, 3] - r[1, 2] - r[2, 1] + r[3, 0]
    return np.array([
        [a, b, c, d],
        [-b, a, -d, c],
        [-c, -d, a, b],
        [d, -c, -b, a],
    ])


def random_density_matrix(n: int, rng) -> DensityMatrix:
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _exact_estimate(ensemble: UnitaryEnsemble, rho: DensityMatrix) -> np.ndarray:
    return pseudo_inverse(ensemble.p, forward_channel_exact(ensemble, rho))


# ---------------------------------------------------------------------------
# The validation battery behind `pqst validate`. Each check returns
# (label, passed, max residual).

def _max_resid(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def check_closed_forms(seed: int = 20240, states: int = 100, tol: float = 1e-10):
    """Exact-mode PSEs vs the closed-form golden constructors: the worst
    residual of each case over `states` random 2-qubit states."""
    hh = _single_word_ensemble(("H", "H"), HADAMARD)
    hshs = _single_word_ensemble(("HS", "HS"), HS)
    # (label, ensemble, p, closed form). A zeta set's closed form is its PSE; a
    # one-word channel's is B, with the PSE -1 + (p/4) B at each p.
    cases = [(f"{label} vs closed form", ens, ens.p, closed_form)
             for label, ens, closed_form in (
                 ("zeta_X", zeta_x(2), golden_rho_x),
                 ("zeta_1", zeta_union(2, [{1}, {2}]), golden_rho_1),
                 ("zeta_1a", zeta_A(2, {1}), golden_rho_1a),
                 ("zeta_1b", zeta_A(2, {2}), golden_rho_1b))]
    cases += [(f"{ens.name} channel vs {b_name} (p={p})", ens, p, closed_form)
              for p in (3, 5, 7)
              for ens, b_name, closed_form in ((hh, "B_H", golden_b_h),
                                               (hshs, "B_HS", golden_b_hs))]
    sets = {ens.name: ens for _, ens, _, _ in cases}
    rng = spawn_rng(seed, 0)
    worst = [0.0] * len(cases)
    for _ in range(states):
        rho = random_density_matrix(2, rng)
        forward = {name: forward_channel_exact(ens, rho) for name, ens in sets.items()}
        for i, (_, ens, p, closed_form) in enumerate(cases):
            expected = closed_form(rho.mat)
            if ens.p is None:
                expected = pseudo_inverse(p / 4, expected)
            worst[i] = max(worst[i], _max_resid(pseudo_inverse(p, forward[ens.name]), expected))
    return [(label, resid <= tol, resid) for (label, *_), resid in zip(cases, worst)]


def _single_word_ensemble(word, gate):
    """The one-member 2-qubit pseudo ensemble {gate x gate}, named by its word."""
    return UnitaryEnsemble("x".join(word), 2, (kron_all(gate, gate),), None,
                           "pseudo", frozenset(), local_factors=(word,))


def check_generalized_protocol(seed: int = 20241, states: int = 20, tol: float = 1e-10):
    """Set sizes, p values, and targeted-entry recovery for every zeta_A,
    equal-size union, and m-active set at n in {2, 3}."""
    results = []
    for n in (2, 3):
        ensembles = []
        qubits = list(range(1, n + 1))
        for r in range(1, n + 1):
            for a in itertools.combinations(qubits, r):
                ens = zeta_A(n, a)
                ok_size = ens.size == 2**r + 1 and ens.p == 2**r + 1
                results.append((f"n={n} |zeta_A({','.join(map(str, a))})| = 2^|A|+1",
                                ok_size, 0.0 if ok_size else 1.0))
                ensembles.append(ens)
            subsets = [frozenset(c) for c in itertools.combinations(qubits, r)]
            for count in range(2, len(subsets) + 1):
                for combo in itertools.combinations(subsets, count):
                    ensembles.append(zeta_union(n, combo))
        for m in range(1, n + 1):
            ens = zeta_m_active(n, m)
            ok = ens.size == comb(n, m) * 2**m + 1 and ens.p == ens.size
            results.append((f"n={n} |zeta_m={m}| = C(n,m)2^m+1", ok, 0.0 if ok else 1.0))
        rng = spawn_rng(seed, n)
        states_list = [random_density_matrix(n, rng) for _ in range(states)]
        masks = activity_of_indices(n)
        for ens in ensembles:
            trusted = np.isin(masks, list(ens.trusted))
            worst = max(_max_resid(_exact_estimate(ens, rho)[trusted], rho.mat[trusted])
                        for rho in states_list)
            results.append((f"n={n} {ens.name} targeted entries recovered", worst <= tol, worst))
    return results


def check_baseline_channels(seed: int = 20242, tol: float = 1e-10):
    """Clifford-closure and MUB channels equal the depolarizing map; the full
    Pauli set with the per-site inverse reconstructs rho exactly."""
    results = []
    rng = spawn_rng(seed, 0)
    rho2 = random_density_matrix(2, rng)
    group = enumerate_clifford_group(2)
    cliff = UnitaryEnsemble("clifford-closure", 2, group, 5.0,
                            "global-depolarizing", frozenset(range(4)))
    resid = _max_resid(forward_channel_exact(cliff, rho2),
                       depolarizing_channel(2, rho2.mat))
    results.append(("n=2 Clifford closure channel = depolarizing map",
                    resid <= tol, resid))
    resid = _max_resid(forward_channel_exact(mub_ensemble(2), rho2),
                       depolarizing_channel(2, rho2.mat))
    results.append(("n=2 MUB channel = depolarizing", resid <= tol, resid))
    for n in (1, 2, 3):
        rho = random_density_matrix(n, rng)
        resid = _max_resid(ensemble_pse(rho, pauli_local_ensemble(n)).estimate, rho.mat)
        results.append((f"n={n} full Pauli set + per-site inverse recovers rho",
                        resid <= tol, resid))
    return results


def check_negative_control(seed: int = 20243, states: int = 10):
    """The Pauli set's per-site inverse applied to zeta_X's channel must NOT
    recover the trusted entries."""
    rng = spawn_rng(seed, 0)
    zx, pauli = zeta_x(2), pauli_local_ensemble(2)
    trusted = np.isin(activity_of_indices(2), list(zx.trusted))
    worst = 0.0
    for _ in range(states):
        rho = random_density_matrix(2, rng)
        est = apply_inverse(pauli, forward_channel_exact(zx, rho))
        worst = max(worst, _max_resid(est[trusted], rho.mat[trusted]))
    return [("per-site inverse with zeta_X fails (max trusted residual > 0.01)",
             worst > 0.01, worst)]


def run_validation(seed: int = 2024) -> list:
    """All golden and structural checks; list of (label, passed, residual)."""
    results = []
    results += check_closed_forms(seed * 10)
    results += check_generalized_protocol(seed * 10 + 1)
    results += check_baseline_channels(seed * 10 + 2)
    results += check_negative_control(seed * 10 + 3)
    return results
