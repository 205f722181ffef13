"""Measurement ensembles: PQST subsets, local Pauli, global Clifford, MUBs.

PQST sets are explicit lists of {1,H,HS} tensor words. The Clifford machinery
has two layers: exact group enumeration by closure for n <= 2, and uniform
sampling via Koenig-Smolin symplectic indexing for n = 3. For channel and
benchmark work the Clifford ensemble is represented by the stabilizer
measurement bases (15 at n=2, 135 at n=3): uniform Clifford sampling pushes
forward to the uniform distribution over those bases, and a shadow snapshot
depends on U only through the basis {U^dag|k>}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .qcore import HADAMARD, HS, ID2, dag, is_unitary, jacobi_eigh, kron_all
from .operators import PAULI_1Q


class EnsembleError(ValueError):
    pass


@dataclass(frozen=True)
class UnitaryEnsemble:
    """A finite unitary set with its pseudo-inverse strength and activity signature."""

    name: str
    n: int
    members: tuple | None
    p: float | None
    inverse_kind: str  # 'pseudo' | 'global-depolarizing' | 'per-site-pauli'
    activity_signature: frozenset
    diagonal_trusted: bool
    sampler: object = None
    local_factors: tuple | None = None  # per-member single-qubit factors, if local

    @property
    def is_explicit(self) -> bool:
        return self.members is not None

    @property
    def size(self) -> int:
        if not self.is_explicit:
            raise EnsembleError(f"ensemble {self.name} has no explicit member list")
        return len(self.members)

    @property
    def trusted_patterns(self) -> frozenset:
        extra = {frozenset()} if self.diagonal_trusted else set()
        return frozenset(set(self.activity_signature) | extra)


# ---------------------------------------------------------------------------
# Phase canonicalization: scale so the first nonzero entry (row-major) is
# real positive. Shadows are phase-invariant, so dedup works on these forms.

def canonical_phase(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    for z in m.ravel():
        if abs(z) > tol:
            return m * (abs(z) / z)
    return m


def _mat_key(m: np.ndarray) -> tuple:
    c = canonical_phase(np.asarray(m, dtype=complex))
    return tuple(np.round(c.ravel(), 6).view(float))


def check_members(name, members):
    """Raise if any member fails the unitarity residual test."""
    for m in members:
        if not is_unitary(m):
            raise EnsembleError(f"ensemble {name} contains a non-unitary member")


# ---------------------------------------------------------------------------
# PQST sets.

_LOCAL = {"1": ID2, "H": HADAMARD, "HS": HS}


def _word_members(n, words):
    mats = tuple(kron_all(*(_LOCAL[w] for w in word)) for word in words)
    return mats


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
    a = _validate_subset(n, a)
    words = _zeta_words(n, [a])
    members = _word_members(n, words)
    full = len(a) == n
    name = "zeta-X" if full else "zeta-A:" + ",".join(map(str, sorted(a)))
    return UnitaryEnsemble(
        name=name, n=n, members=members, p=float(2 ** len(a) + 1),
        inverse_kind="pseudo", activity_signature=frozenset({a}),
        diagonal_trusted=full, local_factors=tuple(words),
    )


def zeta_union(n: int, subsets) -> UnitaryEnsemble:
    """Union of equal-cardinality zeta_A sets; p = |union| (identity deduplicated)."""
    subsets = [_validate_subset(n, a) for a in subsets]
    if len(set(subsets)) != len(subsets):
        raise EnsembleError("union subsets must be distinct")
    if len({len(a) for a in subsets}) != 1:
        raise EnsembleError("union subsets must have equal cardinality")
    if len(subsets) == 1:
        return zeta_A(n, subsets[0])
    words = []
    for w in _zeta_words(n, subsets):
        if w not in words:
            words.append(w)
    members = _word_members(n, words)
    name = "|".join("zeta-A:" + ",".join(map(str, sorted(a))) for a in subsets)
    return UnitaryEnsemble(
        name=name, n=n, members=members, p=float(len(members)),
        inverse_kind="pseudo", activity_signature=frozenset(subsets),
        diagonal_trusted=False, local_factors=tuple(words),
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
    return UnitaryEnsemble(
        name=f"zeta-m:{m}", n=n, members=ens.members, p=ens.p,
        inverse_kind="pseudo", activity_signature=ens.activity_signature,
        diagonal_trusted=False, local_factors=ens.local_factors,
    )


def _all_patterns(n, include_empty=True):
    qubits = range(1, n + 1)
    pats = set()
    for r in range(0 if include_empty else 1, n + 1):
        pats.update(frozenset(c) for c in itertools.combinations(qubits, r))
    return frozenset(pats)


def pauli_local_ensemble(n: int) -> UnitaryEnsemble:
    """All 3^n tensor words over {1,H,HS}; inverted per site (depolarizing strength 3)."""
    if n > 4:
        raise EnsembleError("pauli ensemble limited to n <= 4")
    words = list(itertools.product(("1", "H", "HS"), repeat=n))
    return UnitaryEnsemble(
        name="pauli", n=n, members=_word_members(n, words), p=None,
        inverse_kind="per-site-pauli",
        activity_signature=_all_patterns(n, include_empty=False),
        diagonal_trusted=True, local_factors=tuple(words),
    )


# ---------------------------------------------------------------------------
# Clifford group: exact enumeration by closure (n <= 2).

_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


@lru_cache(maxsize=None)
def enumerate_clifford_group(n: int) -> tuple:
    """All elements of Cl(2^n) modulo global phase, by closure of generators."""
    if n == 1:
        gens = [HADAMARD, np.diag([1, 1j]).astype(complex)]
    elif n == 2:
        s = np.diag([1, 1j]).astype(complex)
        # CNOT control = qubit 1 (most significant bit)
        gens = [kron_all(HADAMARD, ID2), kron_all(ID2, HADAMARD),
                kron_all(s, ID2), kron_all(ID2, s), _CNOT]
    else:
        raise EnsembleError("closure enumeration supported only for n <= 2")
    d = 2**n
    eye = np.eye(d, dtype=complex)
    seen = {_mat_key(eye): eye}
    frontier = [eye]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = g @ m
                k = _mat_key(prod)
                if k not in seen:
                    c = canonical_phase(prod)
                    seen[k] = c
                    new.append(c)
        frontier = new
    return tuple(seen.values())


def clifford_group_order(n: int) -> int:
    """|Cl(2^n)| modulo global phase: 4^n sign choices times |Sp(2n, 2)|."""
    return 4**n * num_symplectics(n)


# ---------------------------------------------------------------------------
# Koenig-Smolin symplectic sampling (uniform over Sp(2n, 2)) and tableau
# synthesis. Vectors interleave (x, z) bits per qubit; qubit 1 maps to the
# first bit pair.

def _symp_inner(v, w):
    t = 0
    for i in range(len(v) >> 1):
        t += v[2 * i] * w[2 * i + 1] + w[2 * i] * v[2 * i + 1]
    return t % 2


def _transvect(k, v):
    return (v + _symp_inner(k, v) * k) % 2


def _int_to_bits(i, n):
    return np.array([(i >> j) & 1 for j in range(n)], dtype=np.int8)


def _find_transvect(x, y):
    out = np.zeros((2, len(x)), dtype=np.int8)
    if np.array_equal(x, y):
        return out
    if _symp_inner(x, y) == 1:
        out[0] = (x + y) % 2
        return out
    z = np.zeros(len(x), dtype=np.int8)
    for i in range(len(x) >> 1):
        ii = 2 * i
        if (x[ii] + x[ii + 1]) != 0 and (y[ii] + y[ii + 1]) != 0:
            z[ii] = (x[ii] + y[ii]) % 2
            z[ii + 1] = (x[ii + 1] + y[ii + 1]) % 2
            if z[ii] + z[ii + 1] == 0:
                z[ii + 1] = 1
                if x[ii] != x[ii + 1]:
                    z[ii] = 1
            out[0] = (x + z) % 2
            out[1] = (y + z) % 2
            return out
    for i in range(len(x) >> 1):
        ii = 2 * i
        if (x[ii] + x[ii + 1]) != 0 and (y[ii] + y[ii + 1]) == 0:
            if x[ii] == x[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = x[ii]
                z[ii] = x[ii + 1]
            break
    for i in range(len(x) >> 1):
        ii = 2 * i
        if (x[ii] + x[ii + 1]) == 0 and (y[ii] + y[ii + 1]) != 0:
            if y[ii] == y[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = y[ii]
                z[ii] = y[ii + 1]
            break
    out[0] = (x + z) % 2
    out[1] = (y + z) % 2
    return out


def num_symplectics(n: int) -> int:
    x = 1
    for j in range(1, n + 1):
        x *= 2 ** (2 * j - 1) * (2 ** (2 * j) - 1)
    return x


def symplectic_matrix(i: int, n: int) -> np.ndarray:
    """The i-th element of Sp(2n, 2) in Koenig-Smolin canonical indexing."""
    nn = 2 * n
    s = (1 << nn) - 1
    k = (i % s) + 1
    i //= s
    f1 = _int_to_bits(k, nn)
    e1 = np.zeros(nn, dtype=np.int8)
    e1[0] = 1
    t = _find_transvect(e1, f1)
    bits = _int_to_bits(i % (1 << (nn - 1)), nn - 1)
    i >>= nn - 1
    eprime = e1.copy()
    for j in range(2, nn):
        eprime[j] = bits[j - 1]
    h0 = _transvect(t[0], eprime)
    h0 = _transvect(t[1], h0)
    if bits[0] == 1:
        f1 = f1 * 0
    if n != 1:
        g = np.zeros((nn, nn), dtype=np.int8)
        g[:2, :2] = np.eye(2, dtype=np.int8)
        g[2:, 2:] = symplectic_matrix(i, n - 1)
    else:
        g = np.eye(2, dtype=np.int8)
    for j in range(nn):
        g[j] = _transvect(t[0], g[j])
        g[j] = _transvect(t[1], g[j])
        g[j] = _transvect(h0, g[j])
        g[j] = _transvect(f1, g[j])
    return g


def pauli_from_xz_vector(v, n: int) -> np.ndarray:
    """Hermitian Pauli for an interleaved (x,z) bit vector: i^{xz} X^x Z^z per site."""
    factors = []
    for i in range(n):
        x, z = int(v[2 * i]), int(v[2 * i + 1])
        m = (1j) ** (x * z) * np.linalg.matrix_power(PAULI_1Q["X"], x) \
            @ np.linalg.matrix_power(PAULI_1Q["Z"], z)
        factors.append(m)
    return kron_all(*factors)


def clifford_from_tableau(g: np.ndarray, signs, n: int) -> np.ndarray:
    """Unitary (up to global phase) with X_j -> +-P(g[2j]), Z_j -> +-P(g[2j+1]).

    Built from the stabilizer state U|0..0> (projector onto the joint +1
    eigenspace of the Z images) and the X images acting as column shifts.
    """
    d = 2**n
    z_img = [(-1) ** int(signs[2 * j + 1]) * pauli_from_xz_vector(g[2 * j + 1], n)
             for j in range(n)]
    x_img = [(-1) ** int(signs[2 * j]) * pauli_from_xz_vector(g[2 * j], n)
             for j in range(n)]
    proj = np.eye(d, dtype=complex)
    for s in z_img:
        proj = proj @ (np.eye(d) + s) / 2
    psi = None
    for k in range(d):
        v = proj[:, k]
        nrm = np.linalg.norm(v)
        if nrm > 1e-6:
            psi = v / nrm
            break
    u = np.zeros((d, d), dtype=complex)
    for k in range(d):
        col = psi
        for j in range(n):
            if (k >> (n - 1 - j)) & 1:
                col = x_img[j] @ col
        u[:, k] = col
    return u


def sample_global_clifford(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random element of Cl(2^n) modulo global phase, n <= 3."""
    if n <= 2:
        group = enumerate_clifford_group(n)
        return group[int(rng.integers(0, len(group)))]
    if n == 3:
        i = int(rng.integers(0, num_symplectics(3)))
        g = symplectic_matrix(i, 3)
        signs = rng.integers(0, 2, size=6)
        return clifford_from_tableau(g, signs, 3)
    raise EnsembleError("global Clifford sampling supported only for n <= 3")


# ---------------------------------------------------------------------------
# Stabilizer measurement bases and MUBs via maximal isotropic subspaces.

@lru_cache(maxsize=None)
def maximal_isotropic_subspaces(n: int) -> tuple:
    """All maximal isotropic subspaces of F_2^{2n}, each as a sorted tuple of
    nonzero vectors (interleaved x,z bit tuples)."""
    nn = 2 * n
    vecs = [_int_to_bits(m, nn) for m in range(1, 1 << nn)]
    found = set()

    def span(gens):
        out = set()
        for mask in range(1, 1 << len(gens)):
            v = np.zeros(nn, dtype=np.int8)
            for i, g in enumerate(gens):
                if (mask >> i) & 1:
                    v = (v + g) % 2
            out.add(tuple(int(b) for b in v))
        return tuple(sorted(out))

    def rec(gens, start, current_span):
        if len(gens) == n:
            found.add(span(gens))
            return
        for idx in range(start, len(vecs)):
            v = vecs[idx]
            if tuple(int(b) for b in v) in current_span:
                continue
            if all(_symp_inner(v, g) == 0 for g in gens):
                rec(gens + [v], idx + 1, set(span(gens + [v])))

    rec([], 0, set())
    return tuple(sorted(found))


def _class_eigenbasis(cls, n: int) -> np.ndarray:
    """Common eigenbasis (columns) of a commuting Pauli class. Weights 3^i give
    distinct balanced-ternary eigenvalue sums, so the combination is simple."""
    total = np.zeros((2**n, 2**n), dtype=complex)
    for i, v in enumerate(sorted(cls)):
        total += (3.0**i) * pauli_from_xz_vector(v, n)
    # eigenvalue gaps are >= 2, so driving the off-diagonal mass to the
    # floating-point floor gives basis vectors accurate to ~1e-15
    _, basis = jacobi_eigh(total, tol=1e-15)
    return basis


@lru_cache(maxsize=None)
def stabilizer_basis_unitaries(n: int) -> tuple:
    """Measurement unitaries U (rows = basis vectors) for every stabilizer basis."""
    return tuple(dag(_class_eigenbasis(cls, n)) for cls in maximal_isotropic_subspaces(n))


def clifford_ensemble(n: int) -> UnitaryEnsemble:
    """Global-Clifford measurement, reduced to the uniform stabilizer-basis mix."""
    if n > 3:
        raise EnsembleError("clifford ensemble supported only for n <= 3")
    return UnitaryEnsemble(
        name="clifford", n=n, members=stabilizer_basis_unitaries(n),
        p=float(2**n + 1), inverse_kind="global-depolarizing",
        activity_signature=_all_patterns(n, include_empty=False),
        diagonal_trusted=True,
        sampler=lambda rng, n=n: sample_global_clifford(n, rng),
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
    members = tuple(dag(_class_eigenbasis(cls, n)) for cls in mub_partition(n))
    return UnitaryEnsemble(
        name="mub", n=n, members=members, p=float(2**n + 1),
        inverse_kind="global-depolarizing",
        activity_signature=_all_patterns(n, include_empty=False),
        diagonal_trusted=True,
    )


# ---------------------------------------------------------------------------
# CLI-visible ensemble names.

def _parse_single(spec: str, n: int):
    spec = spec.strip()
    if spec == "zeta-X":
        return zeta_x(n)
    if spec.startswith("zeta-A:"):
        qubits = [int(q) for q in spec[len("zeta-A:"):].split(",") if q]
        return zeta_A(n, qubits)
    if spec.startswith("zeta-m:"):
        return zeta_m_active(n, int(spec[len("zeta-m:"):]))
    if spec == "pauli":
        return pauli_local_ensemble(n)
    if spec == "clifford":
        return clifford_ensemble(n)
    if spec == "mub":
        return mub_ensemble(n)
    raise EnsembleError(f"unknown ensemble spec {spec!r}")


def parse_ensemble_spec(spec: str, n: int) -> UnitaryEnsemble:
    """One ensemble spec; '|' joins zeta-A parts into a union."""
    if "|" in spec:
        parts = []
        for part in spec.split("|"):
            part = part.strip()
            if not part.startswith("zeta-A:"):
                raise EnsembleError(f"union parts must be zeta-A specs, got {part!r}")
            parts.append(frozenset(int(q) for q in part[len("zeta-A:"):].split(",") if q))
        return zeta_union(n, parts)
    return _parse_single(spec, n)


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
    sig = sorted((sorted(a) for a in ens.activity_signature), key=lambda s: (len(s), s))
    lines = [
        f"name: {ens.name}",
        f"n_qubits: {ens.n}",
        f"members: {ens.size if ens.is_explicit else 'implicit sampler'}",
        f"p: {ens.p if ens.p is not None else 'per-site (3 per qubit)'}",
        f"inverse: {ens.inverse_kind}",
        f"activity signature: {[''.join(map(str, s)) or 'none' for s in sig]}",
        f"diagonal trusted: {ens.diagonal_trusted}",
    ]
    return "\n".join(lines)
