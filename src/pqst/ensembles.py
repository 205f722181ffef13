"""Measurement ensembles: PQST subsets, local Pauli, global Clifford, MUBs.

An ensemble is a name, its members as one (size, d, d) stack, the strength p
of its inverse map pA - Tr(A) 1 (None: 3A - Tr(A) 1 on every qubit) and the
activity patterns it trusts. PQST sets are explicit lists of {1,H,HS} tensor
words. The global Clifford group is enumerated exactly by closure for n <= 2;
a product is new unless its signed images of the 2n one-bit Pauli words, which
fix a Clifford up to phase, have been seen as one packed integer code.
For channel and benchmark work the Clifford ensemble (n <= 4) is represented
by the stabilizer measurement bases (15 at n=2, 135 at n=3, 2295 at n=4):
uniform Clifford sampling pushes forward to the uniform distribution over those
bases, and a shadow snapshot depends on U only through the basis {U^dag|k>}.
Each basis belongs to a maximal commuting class of Pauli words, i.e. a maximal
isotropic subspace of F_2^{2n}, built directly from a row-echelon subspace R of
F_2^n and a symmetric matrix S over its pivots (Aaronson and Gottesman, PRA 70,
052328 (2004)). Its vectors come from the rank-1 joint-eigenspace projectors
prod_j (1 +- P_j)/2 of n independent generators P_j of the class, batched over
chunks of classes, so no eigensolver is involved. The MUBs (n <= 3) are the
bases of 2^n+1 classes that partition the nontrivial Pauli words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb, prod

import numpy as np

from .qcore import HADAMARD, HS, ID2, MAX_QUBITS, PHASE_S, kron_all
from .operators import pattern_mask, pattern_order, pattern_qubits, pauli_action, \
    pauli_table


class EnsembleError(ValueError):
    pass


@dataclass(frozen=True)
class UnitaryEnsemble:
    """A finite unitary set: its members as one (size, d, d) stack, the
    strength p of its inverse map pA - Tr(A) 1 (None selects 3A - Tr(A) 1 on
    every qubit), and the activity patterns (operators.pattern_mask) its
    estimator is exact on; 0 in `trusted` means the diagonal is."""

    name: str
    members: np.ndarray
    p: float | None
    trusted: frozenset

    @property
    def n(self) -> int:
        return self.members.shape[-1].bit_length() - 1

    @property
    def size(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# PQST sets.

_LOCAL = {"1": ID2, "H": HADAMARD, "HS": HS}


def _word_members(words):
    return np.array([kron_all(*(_LOCAL[w] for w in word)) for word in words])


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
    qubits = [int(q) for q in a]
    a = frozenset(qubits)
    if not a:
        raise EnsembleError("empty active set A is rejected; use zeta-X for diagonal readout")
    if len(a) < len(qubits):
        raise EnsembleError(f"active set {qubits} names a qubit more than once")
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
    return UnitaryEnsemble(name=name, members=_word_members(words), p=float(len(words)),
                           trusted=frozenset(trusted))


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
    return UnitaryEnsemble(name="pauli", members=_word_members(words), p=None,
                           trusted=frozenset(range(2**n)))


# ---------------------------------------------------------------------------
# Clifford group: exact enumeration by closure (n <= 2).

# Frontier members whose products are coded at once in the closure. Batches
# only partition the frontier; each forms the matrices of its new products.
_BATCH = 128
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


@lru_cache(maxsize=None)
def enumerate_clifford_group(n: int) -> np.ndarray:
    """All elements of Cl(2^n) modulo global phase, by closure of generators,
    as one stack in breadth-first order. Each element keeps the phase of the
    product that first reached it; a global phase never reaches a channel.

    The stack is allocated at the group order 4^n |Sp(2n, 2)| = 2^(n^2+2n)
    prod_j (4^j - 1) (24 and 11,520) and filled in place; each breadth-first
    layer is the block filled by the one before. Batches of the frontier are
    multiplied by every generator, in (frontier member, generator) order. A
    Clifford is fixed up to phase by its signed images of the 2n one-bit Pauli
    words (Aaronson and Gottesman, PRA 70, 052328 (2004)): a product is new
    unless its images, read from pauli_action and packed into one code below
    (2 4^n)^(2n), are marked in a bitmap. Only new products become matrices.
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
    act = pauli_action(gens, n)
    group = np.empty((2**(n * n + 2 * n) * prod(4**j - 1 for j in range(1, n + 1)), d, d),
                     dtype=complex)
    group[0] = np.eye(d)
    images = np.empty((len(group), 2 * n), dtype=act.dtype)
    images[0] = 1 << np.arange(2 * n)  # the identity fixes every one-bit word
    place = (2 * d * d) ** np.arange(2 * n)
    seen = np.zeros((2 * d * d) ** (2 * n) // 8, dtype=np.uint8)  # one bit per packed code
    seen[images[0] @ place >> 3] = 1 << (images[0] @ place & 7)
    start, end = 0, 1
    while start < end:
        size = end
        for lo in range(start, end, _BATCH):
            codes = act[:, images[lo:min(lo + _BATCH, end)]].transpose(1, 0, 2).reshape(-1, 2 * n)
            keys = codes @ place
            first = np.unique(keys, return_index=True)[1]
            new = np.sort(first[(seen[keys[first] >> 3] >> (keys[first] & 7) & 1) == 0])
            np.bitwise_or.at(seen, keys[new] >> 3, (1 << (keys[new] & 7)).astype(np.uint8))
            parent, gen = np.divmod(new, len(gens))
            group[size:size + len(new)] = gens[gen] @ group[lo + parent]
            images[size:size + len(new)] = codes[new]
            size += len(new)
        start, end = end, size
    assert end == len(group)
    return group


# ---------------------------------------------------------------------------
# Stabilizer measurement bases and MUBs via maximal isotropic subspaces. A
# class is a sorted tuple of Pauli words as operators.pauli_table masks.

@lru_cache(maxsize=None)
def maximal_isotropic_subspaces(n: int) -> tuple:
    """All maximal isotropic subspaces of F_2^{2n}, each as a sorted tuple of
    nonzero Pauli bitmasks: {(x, Sx + w) : x in R, w in R^perp} for each
    row-echelon subspace R of F_2^n and symmetric S over its k pivots, so
    sum_k [n choose k]_2 2^{k(k+1)/2} of them (3, 15, 135, 2295; Aaronson and
    Gottesman, PRA 70, 052328 (2004))."""
    # bit i of x (qubit i+1) moves to that qubit's x bit; a z part is shifted by 1
    spread = [sum(((x >> i) & 1) << (2 * (n - i) - 1) for i in range(n))
              for x in range(1 << n)]
    found = []
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, n)
                    if c not in pivots]
            pairs = list(itertools.combinations_with_replacement(range(k), 2))
            for bits in itertools.product((0, 1), repeat=len(free) + len(pairs)):
                rows, z = [1 << p for p in pivots], [0] * k
                for (i, c), b in zip(free, bits):
                    rows[i] |= b << c
                for (i, j), b in zip(pairs, bits[len(free):]):
                    z[i] |= b << pivots[j]
                    z[j] |= b << pivots[i]
                perp = [spread[w] >> 1 for w in range(1, 1 << n)
                        if not any((w & r).bit_count() & 1 for r in rows)]
                span = {0}
                for v in [spread[r] | spread[q] >> 1 for r, q in zip(rows, z)] + perp:
                    if v not in span:
                        span |= {s ^ v for s in span}
                found.append(tuple(sorted(v for v in span if v)))
    return tuple(sorted(found))


_CHUNK = 16  # classes whose projectors are multiplied at once; bounds the stack


def _class_bases(classes, n: int) -> np.ndarray:
    """Measurement unitaries (rows = <basis vector|) of maximal commuting classes.

    Each basis vector spans a rank-1 joint-eigenspace projector
    prod_j (1 +- P_j)/2 of n independent generators P_j of its class, formed
    for a chunk of classes in one batched product; the entries are dyadic, so
    exact. Rows are in ascending eigenvalue of sum_i 3^i P_i over the class in
    sorted order; the weights make those eigenvalues distinct.
    """
    paulis = pauli_table(n)
    masks = np.array(classes)
    # a sorted class lists its span in the binary order of the coefficients over
    # a reduced basis, so the words at positions 2^j - 1 are independent
    gens = masks[:, [2**j - 1 for j in range(n)]]
    half = np.eye(2**n) / 2
    weights = 3.0 ** np.arange(masks.shape[1])
    members = np.empty((len(classes), 2**n, 2**n), dtype=complex)
    for lo in range(0, len(classes), _CHUNK):
        proj = np.eye(2**n, dtype=complex)[None, None]
        for g in gens[lo:lo + _CHUNK].T:
            p = paulis[g][:, None] / 2
            proj = np.concatenate([proj @ (half + p), proj @ (half - p)], axis=1)
        # proj[., t] = |psi><psi| has column c = psi conj(psi_c): take the
        # column at the largest diagonal entry |psi_c|^2 and divide by |psi_c|
        diag = proj.diagonal(axis1=2, axis2=3).real
        c = diag.argmax(axis=2)[..., None]
        psi = (np.take_along_axis(proj, c[..., None], axis=3)[..., 0]
               / np.sqrt(np.take_along_axis(diag, c, axis=2)))
        weighted = np.einsum("i,ciab->cab", weights, paulis[masks[lo:lo + _CHUNK]])
        eig = np.einsum("cta,cab,ctb->ct", psi.conj(), weighted, psi).real
        members[lo:lo + _CHUNK] = np.take_along_axis(
            psi, eig.argsort(axis=1)[..., None], axis=1).conj()
    return members


@lru_cache(maxsize=None)
def stabilizer_basis_unitaries(n: int) -> np.ndarray:
    """Measurement unitaries U (rows = basis vectors) for every stabilizer basis."""
    return _class_bases(maximal_isotropic_subspaces(n), n)


def clifford_ensemble(n: int) -> UnitaryEnsemble:
    """Global-Clifford measurement, reduced to the uniform stabilizer-basis mix."""
    if n > MAX_QUBITS:
        raise EnsembleError(f"clifford ensemble supported only for n <= {MAX_QUBITS}")
    return UnitaryEnsemble(name="clifford", members=stabilizer_basis_unitaries(n),
                           p=float(2**n + 1), trusted=frozenset(range(2**n)))


@lru_cache(maxsize=None)
def mub_partition(n: int) -> tuple:
    """2^n+1 disjoint maximal commuting classes covering all nontrivial Pauli words.

    One greedy pass: each step takes the first class in sorted order that holds
    the smallest uncovered word and no covered word.
    """
    classes = maximal_isotropic_subspaces(n)
    uncovered = {v for cls in classes for v in cls}
    chosen = []
    while uncovered:
        pivot = min(uncovered)
        cls = next((c for c in classes if pivot in c and uncovered.issuperset(c)), None)
        if cls is None:
            raise EnsembleError(f"no MUB partition found for n={n}")
        chosen.append(cls)
        uncovered.difference_update(cls)
    return tuple(chosen)


@lru_cache(maxsize=None)
def mub_ensemble(n: int) -> UnitaryEnsemble:
    """2^n+1 mutually unbiased basis-change unitaries; depolarizing inverse."""
    if n > 3:
        raise EnsembleError("MUB ensemble supported only for n <= 3")
    return UnitaryEnsemble(name="mub", members=_class_bases(mub_partition(n), n),
                           p=float(2**n + 1), trusted=frozenset(range(2**n)))


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
    sig = [pattern_qubits(m, ens.n)
           for m in sorted(ens.trusted, key=lambda m: pattern_order(m, ens.n)) if m]
    if ens.p is None:
        p, inverse = "per-site (3 per qubit)", "3A - Tr(A) 1 on every qubit"
    else:
        p, inverse = ens.p, "pA - Tr(A) 1"
    lines = [
        f"name: {ens.name}",
        f"n_qubits: {ens.n}",
        f"members: {ens.size}",
        f"p: {p}",
        f"inverse: {inverse}",
        f"activity signature: {[''.join(map(str, s)) for s in sig]}",
        f"diagonal trusted: {0 in ens.trusted}",
    ]
    return "\n".join(lines)
