"""Pauli-string observables, activity classification, and X-structure tools."""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .qcore import HADAMARD, ID2, PHASE_S, kron_all

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}

_WORD_RE = re.compile(r"^[IXYZ]+$")


class ObservableError(ValueError):
    pass


@dataclass(frozen=True)
class PauliString:
    """A word over {I,X,Y,Z} with a real coefficient."""

    word: str
    coeff: float = 1.0

    def __post_init__(self):
        if not _WORD_RE.match(self.word):
            raise ObservableError(f"invalid Pauli word {self.word!r}")
        if not math.isfinite(self.coeff):
            raise ObservableError("non-finite coefficient")

    @property
    def n(self) -> int:
        return len(self.word)

    def matrix(self) -> np.ndarray:
        return self.coeff * kron_all(*(PAULI_1Q[c] for c in self.word))

    @property
    def activity(self) -> int:
        """Mask of the qubits carrying X or Y: the pattern of the elements this word touches."""
        return pattern_mask((j + 1 for j, c in enumerate(self.word) if c in "XY"), self.n)


class Observable:
    """Real linear combination of Pauli strings on a fixed register size."""

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ObservableError("observable needs at least one term")
        if len({t.n for t in terms}) != 1:
            raise ObservableError("terms have mismatched register sizes")
        self.terms = terms
        self.n = terms[0].n

    @cached_property
    def matrix(self) -> np.ndarray:
        return sum(t.matrix() for t in self.terms)

    def __repr__(self):
        return f"Observable({format_observable(self)!r})"


def parse_observable(text: str) -> Observable:
    """Parse 'coeff WORD; coeff WORD; ...', e.g. '8 ZZ; 2 XY; 3 XX; -10 IZ'."""
    terms = []
    for pos, chunk in enumerate(text.split(";")):
        parts = chunk.split()
        if len(parts) != 2:
            raise ObservableError(f"term {pos + 1} ({chunk.strip()!r}): expected 'coeff WORD'")
        try:
            coeff = float(parts[0])
        except ValueError:
            raise ObservableError(f"term {pos + 1}: bad coefficient {parts[0]!r}") from None
        if not _WORD_RE.match(parts[1]):
            raise ObservableError(f"term {pos + 1}: bad Pauli word {parts[1]!r}")
        terms.append(PauliString(parts[1], coeff))
    return Observable(terms)


def format_observable(obs: Observable) -> str:
    return "; ".join(f"{t.coeff:g} {t.word}" for t in obs.terms)


# ---------------------------------------------------------------------------
# Activity patterns. Element (i, j) is A-active when the bits of i and j differ
# exactly on the qubits in A. A pattern is the integer mask of A with qubit 1 as
# the most significant of n bits, the bit order of basis indices, so the pattern
# of element (i, j) is i ^ j and the diagonal's is 0.

def pattern_mask(qubits, n: int) -> int:
    """Mask of a set of 1-based qubit labels."""
    return sum(1 << (n - q) for q in qubits)


def pattern_qubits(mask: int, n: int) -> list[int]:
    """Ascending 1-based qubit labels of a mask."""
    return [q for q in range(1, n + 1) if mask >> (n - q) & 1]


def pattern_name(mask: int, n: int) -> str:
    """'{1,3}'-style name of a pattern, 'diagonal' for 0."""
    return "{" + ",".join(map(str, pattern_qubits(mask, n))) + "}" if mask else "diagonal"


def pattern_order(mask: int, n: int) -> tuple:
    """Sort key of patterns: the diagonal first, then by size, then by qubit labels."""
    return mask.bit_count(), pattern_qubits(mask, n)


def activity_of_indices(n: int) -> np.ndarray:
    """The pattern i ^ j of every element (i, j) of a 2^n x 2^n matrix."""
    index = np.arange(2**n)
    return np.bitwise_xor.outer(index, index)


def activity_support(obs: Observable) -> frozenset[int]:
    """Patterns touched by the observable, one per term's X/Y positions."""
    return frozenset(t.activity for t in obs.terms)


def is_x_structured(obs: Observable) -> bool:
    """True iff every term lies entirely in {I,Z} or entirely in {X,Y}."""
    return all(set(t.word) <= {"I", "Z"} or set(t.word) <= {"X", "Y"} for t in obs.terms)


# ---------------------------------------------------------------------------
# A Pauli word is an integer mask with qubit 1 most significant, as in basis
# indices: qubit q's x bit is bit 2(n - q) + 1 and its z bit is bit 2(n - q),
# so one qubit's I, Z, X, Y are 0, 1, 2, 3.

@lru_cache(maxsize=None)
def pauli_table(n: int) -> np.ndarray:
    """The Hermitian Pauli i^{x.z} X^x Z^z of every bitmask, indexed by the
    mask: the Kronecker-ordered table of [I, Z, X, Y] over the qubits."""
    one = np.stack([PAULI_1Q["I"], PAULI_1Q["Z"], PAULI_1Q["X"], PAULI_1Q["Y"]])
    table = np.ones((1, 1, 1), dtype=complex)
    for k in range(1, n + 1):
        table = np.einsum("aij,bkl->abikjl", table, one).reshape(4**k, 2**k, 2**k)
    return table


def pauli_action(gens: np.ndarray, n: int) -> np.ndarray:
    """Each Clifford's action on signed Pauli codes s 4^n + m, (-1)^s the sign
    and m the pauli_table mask: entry [g, s 4^n + m] codes g (-1)^s P_m g^dag.
    Codes are below 2 4^n, held as uint8 for n <= 3 and uint16 at n = 4.

    Each image is read as a signed monomial: since X^x Z^z |j> = (-1)^{z.j}
    |j ^ x>, x is the row of column 0's nonzero entry, each z bit is the sign
    of M[x ^ j, j] / M[x, 0] at the one-bit j, and the sign is M[x, 0] / i^{x.z}."""
    paulis = pauli_table(n)
    images = gens[:, None] @ paulis @ gens.conj().transpose(0, 2, 1)[:, None]
    g, a = np.ogrid[:len(gens), :4**n]
    x = np.abs(images[..., 0]).argmax(axis=2)
    lead = images[g, a, x, 0]
    k = np.arange(n)  # basis bit k is qubit n - k, with mask bits 2k + 1 (x) and 2k (z)
    x_bits = x[..., None] >> k & 1
    flips = images[g[..., None], a[..., None], x[..., None] ^ 1 << k, 1 << k]
    z_bits = ((flips * lead.conj()[..., None]).real < 0).astype(int)
    mask = (x_bits << 2 * k + 1 | z_bits << 2 * k).sum(axis=2)
    sign = (lead * np.array([1, -1j, -1, 1j])[(x_bits & z_bits).sum(axis=2) % 4]).real < 0
    assert np.abs(images - np.where(sign, -1, 1)[..., None, None] * paulis[mask]).max() < 1e-12
    act = (mask + 4**n * sign).astype(np.min_scalar_type(2 * 4**n - 1))
    return np.concatenate([act, act ^ 4**n], axis=1)


# Per-qubit rotation candidates: H swaps X and Z; HSH sends Y -> Z and fixes X.
_ROTATION_CANDIDATES = (("1", ID2), ("H", HADAMARD), ("HSH", HADAMARD @ PHASE_S @ HADAMARD))


def rotate_to_x_structure(obs: Observable):
    """Find a per-qubit rotation U with U O U^dag = P X-structured.

    Returns (U, rotated observable, per-qubit rotation names) or None when no
    assignment of per-qubit candidates X-structures every term simultaneously.
    Always succeeds for a single Pauli string.
    """
    names, mats = zip(*_ROTATION_CANDIDATES)
    # each candidate's (image letter, sign) of every letter, read from its action
    action = [{letter: ("IZXY"[code % 4], -1.0 if code >= 4 else 1.0)
               for letter, code in zip("IZXY", row)}
              for row in pauli_action(np.stack(mats), 1)]
    for assign in itertools.product(range(len(names)), repeat=obs.n):
        rotated = []
        for t in obs.terms:
            images = [action[a][letter] for a, letter in zip(assign, t.word)]
            rotated.append(PauliString("".join(target for target, _ in images),
                                       t.coeff * math.prod(sign for _, sign in images)))
        candidate = Observable(rotated)
        if is_x_structured(candidate):
            u = kron_all(*(mats[a] for a in assign))
            return u, candidate, tuple(names[a] for a in assign)
    return None


def expectation(obs, mat) -> float:
    """Re Tr(O M); complains if the imaginary residual exceeds 1e-8 max(1, |Re|)."""
    o = obs.matrix if isinstance(obs, Observable) else np.asarray(obs, dtype=complex)
    mat = np.asarray(mat, dtype=complex)
    if o.shape != mat.shape:
        raise ObservableError("expectation arguments have mismatched dimensions")
    val = complex(np.trace(o @ mat))
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise ObservableError(f"expectation has imaginary residual {val.imag:.2e}")
    return val.real
