"""Forward measurement channels and the inverse / pseudo-inverse maps."""

from __future__ import annotations

import numpy as np

from .qcore import born_table
from .ensembles import UnitaryEnsemble

# Members per batch in the contractions below: all 11,520 n=2 Clifford elements, or
# 2,295 n=4 stabilizer bases, at once cost MBs of peak memory.
_CHUNK = 1024


def forward_channel_exact(ensemble: UnitaryEnsemble, rho: np.ndarray) -> np.ndarray:
    """(1/|zeta|) sum_U sum_k <k|U rho U^dag|k> U^dag|k><k|U on the last two axes of
    an array or a stack: the dense oracle that snapshot_mean is checked against."""
    out = np.zeros(np.shape(rho), dtype=complex)
    for start in range(0, ensemble.size, _CHUNK):
        u = ensemble.members[start:start + _CHUNK]
        weights = born_table(u, rho)
        weights.imag = 0  # the real part, with no real-to-complex cast copy in einsum
        out += np.einsum("...ck,cki,ckj->...ij", weights, u.conj(), u)
    return out / ensemble.size


def pseudo_inverse(p: float, a: np.ndarray) -> np.ndarray:
    """M_p^{-1}(A) = p A - 1."""
    a = np.asarray(a, dtype=complex)
    return p * a - np.eye(a.shape[0])


def depolarizing_channel(n: int, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return (a + complex(np.trace(a)) * np.eye(a.shape[0])) / (2**n + 1)


def _inverse_map(p, t, i, j, eye):
    """pA - Tr(A) 1 on the axes (i, j) of t."""
    return p * t - np.expand_dims(np.trace(t, axis1=i, axis2=j), (i, j)) * eye


def _moment_map(p, t, i, j, eye):
    """p^2 X - diag(2p X1 - 1^T X1) on the axes (i, j): |pA - Tr(A) 1|^2 at X = |A|^2."""
    sums = t.sum(axis=j, keepdims=True)
    return p**2 * t - (2 * p * sums - sums.sum(axis=i, keepdims=True)) * eye


def _apply_map(ensemble: UnitaryEnsemble, a: np.ndarray, site_map) -> np.ndarray:
    """site_map at strength p on the last two axes, or at 3 on every qubit when p is None."""
    if ensemble.p is not None:
        return site_map(ensemble.p, a, -2, -1, np.eye(a.shape[-1]))
    n, lead = ensemble.n, a.ndim - 2
    t = a.reshape(a.shape[:lead] + (2,) * (2 * n))
    for j in range(lead, lead + n):
        site_eye = np.eye(2).reshape([2 if q in (j, n + j) else 1 for q in range(t.ndim)])
        t = site_map(3, t, j, n + j, site_eye)
    return t.reshape(a.shape)


def apply_inverse(ensemble: UnitaryEnsemble, a) -> np.ndarray:
    """The ensemble's inverse map M^{-1}(A) on the last two axes of a stack,
    linear in A: pA - Tr(A) 1, which is both the pseudo-inverse and the global
    depolarizing inverse (Clifford and MUB sets carry p = 2^n + 1), or
    3A - Tr(A) 1 on every site when p is None. Both are self-adjoint, so
    Tr(O M^{-1}(S)) = Tr(M^{-1}(O) S) for any O and S."""
    return _apply_map(ensemble, np.asarray(a, dtype=complex), _inverse_map)


def snapshot_mean(ensemble: UnitaryEnsemble, weights) -> np.ndarray:
    """sum_c w_c M^{-1}(P_c) over cells c = (U, k), P_c = U^dag|k><k|U, weights
    (size, 2^n): M^{-1}(R^dag diag(w) R), R the rows <k|U."""
    d = ensemble.members.shape[-1]
    weights = np.reshape(weights, (ensemble.size, d))
    mean = np.zeros((d, d), dtype=complex)
    for start in range(0, ensemble.size, _CHUNK):
        rows = ensemble.members[start:start + _CHUNK].reshape(-1, d)
        scaled = weights[start:start + _CHUNK].reshape(-1, 1) * rows
        mean += np.conjugate(scaled, out=scaled).T @ rows
        del scaled  # below the Born table's peak for the n=4 Clifford set
    return apply_inverse(ensemble, mean)


def snapshot_moments(ensemble: UnitaryEnsemble, weights) -> tuple[np.ndarray, np.ndarray]:
    """snapshot_mean and sum_c w_c |M^{-1}(P_c)|^2 (entrywise): as each P_c has rank 1
    and trace 1, _moment_map of A^T diag(w) A, A = |R|^2 (per qubit when p is None:
    {1, H, HS} words have product-state rows)."""
    d = ensemble.members.shape[-1]
    weights = np.reshape(weights, (ensemble.size, d))
    gram = np.zeros((d, d))
    for start in range(0, ensemble.size, _CHUNK):
        rows = ensemble.members[start:start + _CHUNK].reshape(-1, d)
        a = rows.real**2 + rows.imag**2
        gram += (weights[start:start + _CHUNK].reshape(-1, 1) * a).T @ a
    return snapshot_mean(ensemble, weights), _apply_map(ensemble, gram, _moment_map)
