"""Forward measurement channels and the inverse / pseudo-inverse maps."""

from __future__ import annotations

import numpy as np

from .qcore import DensityMatrix, born_table
from .ensembles import UnitaryEnsemble

# Members per batch in forward_channel_exact: stacking all 11,520 elements of
# the n=2 Clifford closure at once costs several MB of peak memory.
_CHUNK = 1024


class ChannelError(ValueError):
    pass


def _as_matrix(rho) -> np.ndarray:
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def forward_channel_exact(ensemble: UnitaryEnsemble, rho) -> np.ndarray:
    """(1/|zeta|) sum_U sum_k <k|U rho U^dag|k> U^dag|k><k|U, no sampling."""
    mat = _as_matrix(rho)
    d = mat.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for start in range(0, ensemble.size, _CHUNK):
        u = np.asarray(ensemble.members[start:start + _CHUNK])
        weights = born_table(u, mat).real
        out += np.einsum("ck,cki,ckj->ij", weights, u.conj(), u)
    return out / ensemble.size


def pseudo_inverse(p: float, a: np.ndarray) -> np.ndarray:
    """M_p^{-1}(A) = p A - 1."""
    if p <= 0:
        raise ChannelError("pseudo-inverse strength must be positive")
    a = np.asarray(a, dtype=complex)
    return p * a - np.eye(a.shape[0])


def depolarizing_channel(n: int, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return (a + complex(np.trace(a)) * np.eye(a.shape[0])) / (2**n + 1)


def _per_site_inverse_map(n: int, a: np.ndarray) -> np.ndarray:
    """D_{1/3}^{-1}(A) = 3A - Tr(A) 1 applied on every site of each n-qubit
    operator in a stack (the last two axes)."""
    lead = a.ndim - 2
    t = a.reshape(a.shape[:lead] + (2,) * (2 * n))
    for j in range(lead, lead + n):
        site_eye = np.eye(2).reshape([2 if q in (j, n + j) else 1 for q in range(t.ndim)])
        traced = np.expand_dims(np.trace(t, axis1=j, axis2=n + j), (j, n + j))
        t = 3 * t - traced * site_eye
    return t.reshape(a.shape)


def apply_inverse(ensemble: UnitaryEnsemble, a) -> np.ndarray:
    """The ensemble's inverse map M^{-1}(A) on the last two axes of a stack,
    linear in A. The pseudo-inverse and the global depolarizing inverse are both
    pA - Tr(A) 1 (Clifford and MUB sets carry p = 2^n + 1). Every kind is
    self-adjoint, so Tr(O M^{-1}(S)) = Tr(M^{-1}(O) S) for any O and S."""
    a = np.asarray(a, dtype=complex)
    if ensemble.inverse_kind == "per-site-pauli":
        return _per_site_inverse_map(ensemble.n, a)
    if ensemble.inverse_kind in ("pseudo", "global-depolarizing"):
        traces = np.trace(a, axis1=-2, axis2=-1)[..., None, None]
        return ensemble.p * a - traces * np.eye(a.shape[-1])
    raise ChannelError(f"unknown inverse kind {ensemble.inverse_kind!r}")

