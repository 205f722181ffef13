"""Dense complex linear algebra and quantum-state primitives for small qubit registers.

Everything here works on plain numpy complex arrays of dimension 2^n, n <= 4,
with qubit 1 as the most significant bit of the computational-basis index.
"""

from __future__ import annotations

import json
import math
from functools import cache, cached_property

import numpy as np

MAX_QUBITS = 4
MAX_DIM = 2**MAX_QUBITS

# Single-qubit gate conventions. HS is the matrix product H @ S.
ID2 = np.eye(2, dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PHASE_S = np.diag([1, 1j]).astype(complex)
HS = HADAMARD @ PHASE_S


class QcoreError(ValueError):
    pass


def dag(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise QcoreError(f"{what} contains non-finite entries")


def num_qubits(mat: np.ndarray) -> int:
    d = mat.shape[0]
    n = d.bit_length() - 1
    if mat.shape != (d, d) or 2**n != d or not 1 <= n <= MAX_QUBITS:
        raise QcoreError(f"matrix dimension {mat.shape} is not 2^n x 2^n with n in 1..{MAX_QUBITS}")
    return n


def kron_all(*mats: np.ndarray) -> np.ndarray:
    """Tensor product of 2-D factors: per step the products np.kron forms, in
    its order, without its axis bookkeeping."""
    out = np.eye(1, dtype=complex)
    for m in mats:
        m = np.asarray(m, dtype=complex)
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(
            len(out) * len(m), -1)
    if out.shape[0] > MAX_DIM:
        raise QcoreError(f"tensor product dimension {out.shape[0]} exceeds {MAX_DIM}")
    return out


# ---------------------------------------------------------------------------
# Hermitian eigensolver: cyclic Jacobi with complex rotations, in the parallel
# (round-robin) order of Brent and Luk, SIAM J. Sci. Stat. Comput. 6, 69 (1985).

@cache
def _round_robin(d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """One sweep: rounds of disjoint pairs, as read-only index arrays p < q,
    that hold every pair of range(d) once (circle method; odd d idles one
    index a round). Built once per d."""
    m = d + d % 2
    ring, rounds = list(range(m)), []
    for _ in range(m - 1):
        pairs = [(i, j) for i, j in map(sorted, zip(ring[:m // 2], ring[::-1])) if j < d]
        p, q = np.array(pairs, dtype=int).reshape(-1, 2).T.copy()
        p.flags.writeable = q.flags.writeable = False
        rounds.append((p, q))
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return tuple(rounds)


def jacobi_eigh(a: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60, vectors: bool = True):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi sweeps, each
    round's disjoint rotations applied at once as one unitary u: a <- u^dag a u.

    Returns (eigenvalues ascending, eigenvector columns), or (eigenvalues, None)
    with vectors=False, which skips accumulating them; the eigenvalues are the
    same bits either way. Converges when the off-diagonal Frobenius norm drops
    below tol * max(1, ||a||_F).
    """
    a = np.array(a, dtype=complex)
    d = a.shape[0]
    _check_finite(a, "jacobi_eigh input")
    if np.abs(a - dag(a)).max() > 1e-8 * max(1.0, np.abs(a).max()):
        raise QcoreError("jacobi_eigh requires a Hermitian matrix")
    a = (a + dag(a)) / 2
    eye = np.eye(d, dtype=complex)
    v = eye if vectors else None
    scale = max(1.0, float(np.linalg.norm(a)))
    # each round's pairs with the flat offsets of a[p, q] and of u's four entries per pair
    rounds = [(p, q, p * d + q, np.concatenate([p * (d + 1), p * d + q, q * d + p, q * (d + 1)]))
              for p, q in _round_robin(d)]
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= tol * scale:
            break
        for p, q, pq, entries in rounds:
            b, diag = a.take(pq), a.diagonal().real
            mag = np.abs(b)
            keep = mag >= 1e-300  # a smaller |a[p,q]| keeps the identity
            theta = np.arctan2(mag + mag, diag[p] - diag[q])
            theta *= 0.5 * keep
            c, s = np.cos(theta), np.sin(theta)
            e = np.divide(b.conj(), mag, out=np.ones_like(b), where=keep)  # e^{-i phi}
            # per pair [[c, -s], [s e^{-i phi}, c e^{-i phi}]], phi = arg a[p,q], zeroes a[p,q]
            u = eye.copy()
            u.put(entries, np.concatenate((c, -s, s * e, c * e)))
            a = dag(u) @ a @ u
            if vectors:
                v = v @ u
    w = np.diag(a).real
    order = np.argsort(w, kind="stable")
    return w[order], (v[:, order] if vectors else None)


# ---------------------------------------------------------------------------
# Density matrices. Validation tolerances (Hermiticity, trace, eigenvalue
# floor): strict by default; relaxed for fixture matrices transcribed from
# printed 4-decimal data, which can miss trace 1 / PSD at the 1e-3 level.

STRICT_TOLERANCES = (1e-10, 1e-10, -1e-9)
RELAXED_TOLERANCES = (1e-8, 5e-3, -5e-3)


class StateFileError(QcoreError):
    """A density-matrix file that is not a well-formed {n_qubits, re, im} document."""


class DensityMatrix:
    """Validated density operator: Hermitian, unit trace, PSD within tolerance
    (a Cholesky factor of the Hermitian part minus the floor). The decomposition
    (ascending eigenvalues, eigenvector columns) is solved on first read and
    kept; fidelity_with_clip reuses it."""

    def __init__(self, mat, relaxed: bool = False):
        herm_tol, trace_tol, eig_floor = RELAXED_TOLERANCES if relaxed else STRICT_TOLERANCES
        mat = np.asarray(mat, dtype=complex)
        self.n = num_qubits(mat)
        _check_finite(mat, "density matrix")
        herm_resid = float(np.abs(mat - dag(mat)).max())
        if herm_resid > herm_tol:
            raise QcoreError(f"density matrix not Hermitian (residual {herm_resid:.2e})")
        trace_resid = abs(complex(np.trace(mat)) - 1.0)
        if trace_resid > trace_tol:
            raise QcoreError(f"density matrix trace differs from 1 by {trace_resid:.2e}")
        self.mat = mat
        self._residuals = {"hermiticity": herm_resid, "trace": trace_resid}
        try:
            np.linalg.cholesky((mat + dag(mat)) / 2 - eig_floor * np.eye(len(mat)))
        except np.linalg.LinAlgError:
            # the eigenvalue names the rejection, and overrules a round-off failure at the floor
            min_eig = float(self.eigenvalues[0])
            if min_eig < eig_floor:
                raise QcoreError(f"density matrix has eigenvalue {min_eig:.2e} "
                                 f"below {eig_floor:.0e}") from None

    @cached_property
    def decomposition(self) -> tuple[np.ndarray, np.ndarray]:
        return jacobi_eigh(self.mat)

    eigenvalues = property(lambda self: self.decomposition[0])

    @property
    def validation_residuals(self) -> dict:
        return {**self._residuals, "min_eigenvalue": float(self.eigenvalues[0])}

    @classmethod
    def from_statevector(cls, psi) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()))


def born_table(members: np.ndarray, x) -> np.ndarray:
    """<k|U x U^dag|k> for each member U of a stack (rows) and outcome k
    (columns), for x on its last two axes (a stack gives a stack of tables)."""
    return np.einsum("cki,...ij,ckj->...ck", members, x, members.conj())


# ---------------------------------------------------------------------------
# Metrics.

def fidelity_with_clip(rho: DensityMatrix, sigma) -> tuple[float, float]:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 plus clipped mass.

    Solved in rho's eigenbasis (rho = V diag(w) V^dag, from its decomposition,
    solved on first read): sqrt(rho) sigma sqrt(rho) = V B V^dag with
    B = diag(r) V^dag sigma V diag(r), r = sqrt(clip(w, 0)), so B has its
    spectrum and only B's eigenvalues are solved. Nothing is trace-normalised:
    F(rho, rho) = (Tr rho)^2, e.g. 1.0002000100 for the relaxed rho3 of trace
    1.0001. sigma may be any Hermitian matrix (finite-shot estimators can be
    non-physical); negative eigenvalues of B are clamped to zero and their
    total magnitude is returned alongside. That mass misses any negative mass
    of sigma outside rho's support.
    """
    sig = sigma.mat if isinstance(sigma, DensityMatrix) else np.asarray(sigma, dtype=complex)
    if sig.shape != rho.mat.shape:
        raise QcoreError("fidelity arguments have mismatched dimensions")
    _check_finite(sig, "fidelity second argument")
    if np.abs(sig - dag(sig)).max() > 1e-8:
        raise QcoreError("fidelity second argument is not Hermitian")
    w, v = rho.decomposition
    r = np.sqrt(np.clip(w, 0.0, None))
    w = jacobi_eigh(r[:, None] * (dag(v) @ sig @ v) * r, vectors=False)[0]
    clipped = float(-w[w < 0].sum()) if np.any(w < 0) else 0.0
    f = float(np.sqrt(np.clip(w, 0.0, None)).sum() ** 2)
    return f, clipped


def fidelity(rho: DensityMatrix, sigma) -> float:
    return fidelity_with_clip(rho, sigma)[0]


# ---------------------------------------------------------------------------
# Random streams. Each stochastic unit (a reconstruction set, a block of MSE
# trials) owns a stream derived from the seed by its integer key.

def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


# ---------------------------------------------------------------------------
# Density matrix file format: {n_qubits, re, im} with row-major arrays.

def save_density_matrix(path, rho: DensityMatrix) -> None:
    doc = {
        "n_qubits": rho.n,
        "re": [float(x) for x in rho.mat.real.ravel()],
        "im": [float(x) for x in rho.mat.imag.ravel()],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_density_matrix(path) -> DensityMatrix:
    """Read a density matrix file. A file that is not such a document raises
    StateFileError; a matrix that fails the strict validation raises QcoreError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or not {"n_qubits", "re", "im"} <= doc.keys():
            raise ValueError("expected an object with keys n_qubits, re and im")
        n = doc["n_qubits"]
        if type(n) is not int or not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be an integer in 1..{MAX_QUBITS}, got {n!r}")
        re, im = (np.asarray(doc[key], dtype=object).ravel() for key in ("re", "im"))
        if not all(type(x) in (int, float) for x in (*re, *im)):  # bool, str, null
            raise ValueError("entries must be JSON numbers")
        re, im = re.astype(float), im.astype(float)
        if re.size != 4**n or im.size != 4**n:
            raise ValueError(f"re and im must hold {4**n} entries each, "
                             f"got {re.size} and {im.size}")
        if not np.all(np.isfinite(re + im)):
            raise ValueError("entries must be finite numbers")
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateFileError(f"malformed density matrix file {path}: {exc}") from None
    return DensityMatrix((re + 1j * im).reshape(2**n, 2**n))
