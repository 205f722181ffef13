"""Measurement ensembles: PQST subsets, local Pauli, global Clifford, MUBs.

PQST sets are explicit lists of {1,H,HS} tensor words. The global Clifford
group is enumerated exactly by closure for n <= 2. For channel and benchmark
work the Clifford ensemble is represented by the stabilizer measurement bases
(15 at n=2, 135 at n=3): uniform Clifford sampling pushes forward to the
uniform distribution over those bases, and a shadow snapshot depends on U only
through the basis {U^dag|k>}. Each basis belongs to a maximal commuting class
of Pauli words, i.e. a maximal isotropic subspace of F_2^{2n}, enumerated on
integer bitmasks. Its vectors come from the rank-1 joint-eigenspace projectors
prod_j (1 +- P_j)/2 of n independent generators P_j of the class, so no
eigensolver is involved. The MUBs are the bases of 2^n+1 classes that
partition the nontrivial Pauli words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb

import numpy as np

from .qcore import HADAMARD, HS, ID2, MAX_QUBITS, PHASE_S, kron_all
from .operators import PAULI_1Q, pattern_mask, pattern_qubits


class EnsembleError(ValueError):
    pass


@dataclass(frozen=True)
class UnitaryEnsemble:
    """A finite unitary set with its pseudo-inverse strength and the activity
    patterns (operators.pattern_mask) its estimator is exact on; 0 in `trusted`
    means the diagonal is."""

    name: str
    n: int
    members: tuple
    p: float | None
    inverse_kind: str  # 'pseudo' | 'global-depolarizing' | 'per-site-pauli'
    trusted: frozenset
    local_factors: tuple | None = None  # per-member single-qubit factors, if local

    @property
    def size(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# Phase canonicalization: scale each matrix of a stack so its first entry
# (row-major) above tol is real positive. Shadows are phase-invariant, so
# dedup works on these forms.

def canonical_phase(stack: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    flat = stack.reshape(len(stack), -1)
    z = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > tol, axis=1)]
    return stack * (np.abs(z) / z)[:, None, None]


def _mat_keys(stack: np.ndarray) -> list:
    """Bytes keys of phase-canonical matrices rounded to 6 decimals; adding
    0.0 folds -0.0 into 0.0, which would otherwise give a second key."""
    rounded = np.round(stack.reshape(len(stack), -1), 6) + 0.0
    return [row.tobytes() for row in rounded]


# ---------------------------------------------------------------------------
# PQST sets.

_LOCAL = {"1": ID2, "H": HADAMARD, "HS": HS}


def _word_members(words):
    return tuple(kron_all(*(_LOCAL[w] for w in word)) for word in words)


def _zeta_words(n, subsets):
    words = [("1",) * n]
    for a in subsets:
        for choice in itertools.product(("H", "HS"), repeat=len(a)):
            word = ["1"] * n
            for q, u in zip(sorted(a), choice):
                word[q - 1] = u
            words.append(tuple(word))
    return words


def _validate_subset(n, a):
    a = frozenset(int(q) for q in a)
    if not a:
        raise EnsembleError("empty active set A is rejected; use zeta-X for diagonal readout")
    if not a <= set(range(1, n + 1)):
        raise EnsembleError(f"active set {sorted(a)} outside qubits 1..{n}")
    return a


def zeta_A(n: int, a) -> UnitaryEnsemble:
    """Identity plus all {H,HS} words on the qubits in A; p = 2^|A| + 1."""
    return zeta_union(n, [a])


def zeta_union(n: int, subsets) -> UnitaryEnsemble:
    """Identity plus every zeta_A word of equal-cardinality subsets; p = |members|.
    A lone full-register subset is zeta_X, which also trusts the diagonal."""
    subsets = [_validate_subset(n, a) for a in subsets]
    if len(set(subsets)) != len(subsets):
        raise EnsembleError("union subsets must be distinct")
    if len({len(a) for a in subsets}) != 1:
        raise EnsembleError("union subsets must have equal cardinality")
    words = _zeta_words(n, subsets)
    trusted = {pattern_mask(a, n) for a in subsets}
    if len(subsets[0]) == n:
        name = "zeta-X"
        trusted.add(0)
    else:
        name = "|".join("zeta-A:" + ",".join(map(str, sorted(a))) for a in subsets)
    return UnitaryEnsemble(
        name=name, n=n, members=_word_members(words), p=float(len(words)),
        inverse_kind="pseudo", trusted=frozenset(trusted), local_factors=tuple(words),
    )


def zeta_x(n: int) -> UnitaryEnsemble:
    return zeta_A(n, range(1, n + 1))


def zeta_m_active(n: int, m: int) -> UnitaryEnsemble:
    """Union over all size-m subsets; |members| = C(n,m) 2^m + 1."""
    if not 1 <= m <= n:
        raise EnsembleError(f"m must be in 1..{n}")
    if m == n:
        return zeta_x(n)
    subsets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), m)]
    ens = zeta_union(n, subsets)
    assert ens.size == comb(n, m) * 2**m + 1
    return replace(ens, name=f"zeta-m:{m}")


def pauli_local_ensemble(n: int) -> UnitaryEnsemble:
    """All 3^n tensor words over {1,H,HS}; inverted per site (depolarizing strength 3)."""
    if n > 4:
        raise EnsembleError("pauli ensemble limited to n <= 4")
    words = list(itertools.product(("1", "H", "HS"), repeat=n))
    return UnitaryEnsemble(
        name="pauli", n=n, members=_word_members(words), p=None,
        inverse_kind="per-site-pauli", trusted=frozenset(range(2**n)),
        local_factors=tuple(words),
    )


# ---------------------------------------------------------------------------
# Clifford group: exact enumeration by closure (n <= 2).

_BATCH = 512  # frontier members multiplied at once in the closure
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


@lru_cache(maxsize=None)
def enumerate_clifford_group(n: int) -> tuple:
    """All elements of Cl(2^n) modulo global phase, by closure of generators.

    Each breadth-first layer multiplies batches of the frontier by every
    generator at once, in (frontier member, generator) order, and keys the
    phase-canonical products by the bytes of their rounded entries.
    """
    if n == 1:
        gens = [HADAMARD, PHASE_S]
    elif n == 2:
        # CNOT control = qubit 1 (most significant bit)
        gens = [kron_all(HADAMARD, ID2), kron_all(ID2, HADAMARD),
                kron_all(PHASE_S, ID2), kron_all(ID2, PHASE_S), _CNOT]
    else:
        raise EnsembleError("closure enumeration supported only for n <= 2")
    d = 2**n
    gens = np.stack(gens)
    eye = np.eye(d, dtype=complex)
    frontier = eye[None]
    seen = {_mat_keys(frontier)[0]: eye}
    while len(frontier):
        fresh = []
        # batches bound the product stack; a whole layer reaches 15,245 products
        for part in np.split(frontier, range(_BATCH, len(frontier), _BATCH)):
            prods = canonical_phase((gens[None] @ part[:, None]).reshape(-1, d, d))
            for key, m in zip(_mat_keys(prods), prods):
                if key not in seen:
                    # a copy, so that no kept member pins the batch's product stack
                    seen[key] = m.copy()
                    fresh.append(seen[key])
        frontier = np.array(fresh).reshape(-1, d, d)
    return tuple(seen.values())


# ---------------------------------------------------------------------------
# Stabilizer measurement bases and MUBs via maximal isotropic subspaces. A
# Pauli word is an interleaved bitmask: bit 2i is the x bit and bit 2i+1 the
# z bit of qubit i+1. Classes leave this module as sorted tuples of bit tuples.

_X_BITS = int("01" * 8, 2)  # the x bit of every qubit, for n <= 8


def _anticommute(a: int, b: int) -> int:
    """Symplectic product of two Pauli bitmasks: 1 iff the words anticommute."""
    return (((a & (b >> 1)) ^ (b & (a >> 1))) & _X_BITS).bit_count() & 1


def _bits(v: int, nn: int) -> tuple:
    return tuple((v >> j) & 1 for j in range(nn))


def _mask(bits) -> int:
    return sum(b << j for j, b in enumerate(bits))


@lru_cache(maxsize=None)
def _pauli_table(n: int) -> np.ndarray:
    """The Hermitian Pauli i^{x.z} X^x Z^z of every bitmask, indexed by the mask."""
    one = np.stack([PAULI_1Q["I"], PAULI_1Q["X"], PAULI_1Q["Z"], PAULI_1Q["Y"]])
    table = np.ones((1, 1, 1), dtype=complex)
    for k in range(1, n + 1):
        # prepend a qubit: the new leftmost factor owns the two lowest mask bits
        table = np.einsum("aij,bkl->baikjl", one, table).reshape(4**k, 2**k, 2**k)
    return table


@lru_cache(maxsize=None)
def maximal_isotropic_subspaces(n: int) -> tuple:
    """All maximal isotropic subspaces of F_2^{2n}, each as a sorted tuple of
    nonzero vectors (interleaved x,z bit tuples)."""
    nn = 2 * n
    found = set()

    def rec(gens, start, span):
        if len(gens) == n:
            found.add(frozenset(span))
            return
        for v in range(start, 1 << nn):
            if v not in span and not any(_anticommute(v, g) for g in gens):
                rec(gens + [v], v + 1, span | {s ^ v for s in span})

    rec([], 1, {0})
    return tuple(sorted(tuple(sorted(_bits(v, nn) for v in cls if v)) for cls in found))


def _class_basis(cls, n: int) -> np.ndarray:
    """Measurement unitary (rows = <basis vector|) of a maximal commuting class.

    Each basis vector spans a rank-1 joint-eigenspace projector
    prod_j (1 +- P_j)/2 of n independent generators P_j of the class. Rows are
    in ascending eigenvalue of sum_i 3^i P_i over the class in sorted order;
    the weights make those eigenvalues distinct.
    """
    paulis = _pauli_table(n)
    masks = [_mask(v) for v in cls]
    half = np.eye(2**n) / 2
    proj = np.eye(2**n, dtype=complex)[None]
    span = {0}
    for v in masks:
        if v not in span:
            span |= {s ^ v for s in span}
            proj = np.concatenate([proj @ (half + paulis[v] / 2), proj @ (half - paulis[v] / 2)])
    # proj[t] = |psi><psi| has column c = psi conj(psi_c): take the column at
    # the largest diagonal entry |psi_c|^2 and divide by |psi_c|
    rows = np.arange(len(proj))
    diag = proj.diagonal(axis1=1, axis2=2).real
    c = diag.argmax(axis=1)
    psi = proj[rows, :, c] / np.sqrt(diag[rows, c])[:, None]
    weighted = np.tensordot(3.0 ** np.arange(len(masks)), paulis[masks], axes=1)
    eig = np.einsum("ti,ij,tj->t", psi.conj(), weighted, psi).real
    return psi[np.argsort(eig)].conj()


@lru_cache(maxsize=None)
def stabilizer_basis_unitaries(n: int) -> tuple:
    """Measurement unitaries U (rows = basis vectors) for every stabilizer basis."""
    return tuple(_class_basis(cls, n) for cls in maximal_isotropic_subspaces(n))


def clifford_ensemble(n: int) -> UnitaryEnsemble:
    """Global-Clifford measurement, reduced to the uniform stabilizer-basis mix."""
    if n > 3:
        raise EnsembleError("clifford ensemble supported only for n <= 3")
    return UnitaryEnsemble(
        name="clifford", n=n, members=stabilizer_basis_unitaries(n),
        p=float(2**n + 1), inverse_kind="global-depolarizing",
        trusted=frozenset(range(2**n)),
    )


@lru_cache(maxsize=None)
def mub_partition(n: int) -> tuple:
    """2^n+1 disjoint maximal commuting classes covering all nontrivial Pauli words."""
    classes = maximal_isotropic_subspaces(n)
    all_vecs = frozenset(v for cls in classes for v in cls)
    solution = []

    def rec(remaining):
        if not remaining:
            return True
        pivot = min(remaining)
        for cls in classes:
            cset = frozenset(cls)
            if pivot in cset and cset <= remaining:
                solution.append(cls)
                if rec(remaining - cset):
                    return True
                solution.pop()
        return False

    if not rec(all_vecs):
        raise EnsembleError(f"no MUB partition found for n={n}")
    return tuple(solution)


@lru_cache(maxsize=None)
def mub_ensemble(n: int) -> UnitaryEnsemble:
    """2^n+1 mutually unbiased basis-change unitaries; depolarizing inverse."""
    if n > 3:
        raise EnsembleError("MUB ensemble supported only for n <= 3")
    members = tuple(_class_basis(cls, n) for cls in mub_partition(n))
    return UnitaryEnsemble(
        name="mub", n=n, members=members, p=float(2**n + 1),
        inverse_kind="global-depolarizing", trusted=frozenset(range(2**n)),
    )


# ---------------------------------------------------------------------------
# CLI-visible ensemble names.

def _integers(text: str, spec: str) -> list[int]:
    """The comma-separated integers of a spec's argument."""
    try:
        return [int(q) for q in text.split(",") if q]
    except ValueError:
        raise EnsembleError(f"ensemble spec {spec!r}: {text!r} is not a list of integers") from None


def parse_ensemble_spec(spec: str, n: int) -> UnitaryEnsemble:
    """One ensemble spec on n qubits: a name, 'zeta-m:m', or zeta-A parts joined
    by '|' into a union (a lone 'zeta-A:...' is a one-part union)."""
    if not 1 <= n <= MAX_QUBITS:
        raise EnsembleError(f"n must be in 1..{MAX_QUBITS}, got {n}")
    # the ensembles named by their spec alone; built per call, so that it holds
    # the module's current bindings (perfbench's tracer rebinds them)
    named = {"zeta-X": zeta_x, "pauli": pauli_local_ensemble,
             "clifford": clifford_ensemble, "mub": mub_ensemble}
    parts = [part.strip() for part in spec.split("|")]
    if len(parts) == 1 and parts[0] in named:
        return named[parts[0]](n)
    if len(parts) == 1 and parts[0].startswith("zeta-m:"):
        m = _integers(parts[0][len("zeta-m:"):], parts[0])
        if len(m) != 1:
            raise EnsembleError(f"ensemble spec {parts[0]!r}: zeta-m takes one integer m")
        return zeta_m_active(n, m[0])
    subsets = []
    for part in parts:
        if not part.startswith("zeta-A:"):
            raise EnsembleError(f"union parts must be zeta-A specs, got {part!r}"
                                if len(parts) > 1 else f"unknown ensemble spec {part!r}")
        subsets.append(_integers(part[len("zeta-A:"):], part))
    return zeta_union(n, subsets)


def parse_ensemble_list(text: str, n: int) -> list:
    """Comma-separated ensemble specs; a bare-digit token continues a zeta-A list."""
    tokens = []
    for raw in text.split(","):
        raw = raw.strip()
        if tokens and raw.isdigit():
            tokens[-1] += "," + raw
        elif raw:
            tokens.append(raw)
    return [parse_ensemble_spec(tok, n) for tok in tokens]


def ensemble_info(ens: UnitaryEnsemble) -> str:
    sig = sorted((pattern_qubits(m, ens.n) for m in ens.trusted if m),
                 key=lambda s: (len(s), s))
    lines = [
        f"name: {ens.name}",
        f"n_qubits: {ens.n}",
        f"members: {ens.size}",
        f"p: {ens.p if ens.p is not None else 'per-site (3 per qubit)'}",
        f"inverse: {ens.inverse_kind}",
        f"activity signature: {[''.join(map(str, s)) for s in sig]}",
        f"diagonal trusted: {0 in ens.trusted}",
    ]
    return "\n".join(lines)
