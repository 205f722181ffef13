import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import comb
from pathlib import Path

import numpy as np
import pytest

import pqst
from pqst import ensembles, qcore
from pqst.bench import load_fixture, pqst_auto_ensembles
from pqst.ensembles import (EnsembleError, clifford_ensemble,
                            enumerate_clifford_group, ensemble_info,
                            maximal_isotropic_subspaces, mub_ensemble,
                            mub_partition, parse_ensemble_list,
                            parse_ensemble_spec, pauli_local_ensemble,
                            stabilizer_basis_unitaries, zeta_A, zeta_m_active,
                            zeta_union, zeta_x)
from pqst.operators import PAULI_1Q, pattern_mask, pauli_action, pauli_table
from pqst.qcore import HADAMARD, HS, ID2, PHASE_S, dag, kron_all
from conftest import member_word


def is_unitary(u, tol=1e-10):
    return np.abs(dag(u) @ u - np.eye(len(u))).max() <= tol


def test_zeta_A_sizes_and_p():
    for n in (1, 2, 3, 4):
        for r in range(1, n + 1):
            for a in itertools.combinations(range(1, n + 1), r):
                ens = zeta_A(n, a)
                assert ens.size == 2**r + 1
                assert ens.p == 2**r + 1
                diagonal = {0} if r == n else set()
                assert ens.trusted == {pattern_mask(a, n)} | diagonal
                assert all(is_unitary(m) for m in ens.members)


def test_zeta_A_is_the_one_subset_union():
    for n in (1, 2, 3, 4):
        for r in range(1, n + 1):
            for a in itertools.combinations(range(1, n + 1), r):
                single, union = zeta_A(n, a), zeta_union(n, [a])
                for field in dataclasses.fields(single):
                    if field.name == "members":
                        assert np.array_equal(single.members, union.members)
                    else:
                        assert getattr(single, field.name) == getattr(union, field.name)


def test_union_words_are_distinct():
    for n in (1, 2, 3, 4):
        for r in range(1, n + 1):
            same = list(itertools.combinations(range(1, n + 1), r))
            for k in range(1, len(same) + 1):
                for subsets in itertools.combinations(same, k):
                    ens = zeta_union(n, subsets)
                    words = {member_word(ens, i) for i in range(ens.size)}
                    assert len(words) == ens.size == ens.p


def test_zeta_x_is_full_register():
    ens = zeta_x(2)
    assert ens.name == "zeta-X"
    assert ens.size == 5 and ens.trusted == {0, 0b11}


def test_zeta_union_sizes():
    z1 = zeta_union(2, [{1}, {2}])
    assert z1.size == 5 and z1.p == 5
    z2 = zeta_union(3, [{1, 2}, {1, 3}])
    assert z2.size == 9 and z2.p == 9  # the n=3 two-subset double-active union
    assert zeta_m_active(3, 1).size == 7
    assert zeta_m_active(3, 2).size == 13
    assert zeta_m_active(3, 3).size == 9
    for n in (2, 3):
        for m in range(1, n + 1):
            assert zeta_m_active(n, m).size == comb(n, m) * 2**m + 1


def test_zeta_validation_errors():
    with pytest.raises(EnsembleError):
        zeta_A(2, [])
    with pytest.raises(EnsembleError):
        zeta_A(2, [3])
    with pytest.raises(EnsembleError):
        zeta_union(3, [{1}, {2, 3}])  # unequal cardinality
    with pytest.raises(EnsembleError):
        zeta_union(2, [{1}, {1}])  # duplicates
    with pytest.raises(EnsembleError):
        zeta_m_active(2, 3)


def test_pauli_local_ensemble():
    ens = pauli_local_ensemble(2)
    assert ens.size == 9
    assert ens.p is None
    assert ens.trusted == {0, 0b01, 0b10, 0b11}  # the diagonal, {2}, {1}, {1,2}
    assert all(is_unitary(m) for m in ens.members)


def test_clifford_closure_orders():
    # |Cl(2^n)| modulo phase = 4^n |Sp(2n, 2)|: 4 x 6 and 16 x 720
    assert len(enumerate_clifford_group(1)) == 24
    assert len(enumerate_clifford_group(2)) == 11520


def test_clifford_closure_bytes_pinned():
    """The closure's elements in breadth-first order, pinned to the bit, as the
    n=2 Clifford channel of `pqst validate` sums them in this order."""
    group = enumerate_clifford_group(2)
    assert (group.shape, group.dtype) == ((11520, 4, 4), np.complex128)
    assert hashlib.sha256(group.tobytes()).hexdigest() == \
        "57a8b7e06e0d392bd7a94063af44ed4d08610560078d12873dcdb66caf90f99d"


def test_clifford_closure_peak_memory():
    """At its peak the n=2 closure holds one (11520, 4, 4) stack (2.95 MB), the
    one-byte Pauli-image codes of its elements (46 kB), a 128 kB bitmap of the
    packed codes seen and the matrices of one batch's new elements; 128-byte
    rounded-entry keys of every product peaked at 6.1 MB."""
    enumerate_clifford_group.cache_clear()
    tracemalloc.start()
    try:
        enumerate_clifford_group(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6


def _closure_generators(n):
    """The closure's generators: H and S on each qubit, and CNOT at n = 2."""
    site = lambda gate, q: kron_all(*(gate if i == q else ID2 for i in range(n)))
    gens = [site(g, q) for g in (HADAMARD, PHASE_S) for q in range(n)]
    return np.stack(gens + [np.eye(4)[[0, 1, 3, 2]]] * (n == 2))


@pytest.mark.parametrize("n", [1, 2])
def test_pauli_action_tables_are_exact(n):
    """Every entry of the action table, for every generator and a sample of
    group elements and every signed Pauli word, is g (+-P) g^dag to 1e-12:
    a dropped sign or a wrong image fails."""
    paulis, d2 = pauli_table(n), 4**n
    signed = np.concatenate([paulis, -paulis])

    def check(gens):
        act = pauli_action(gens, n)
        assert act.shape == (len(gens), 2 * d2)
        conj = gens[:, None] @ signed @ gens.conj().transpose(0, 2, 1)[:, None]
        image = np.where(act >= d2, -1, 1)[..., None, None] * paulis[act % d2]
        assert np.abs(conj - image).max() < 1e-12
        # the table permutes the signed words, and g(-P)g^dag = -(gPg^dag)
        assert (np.sort(act, axis=1) == np.arange(2 * d2)).all()
        assert (act[:, d2:] == act[:, :d2] ^ d2).all()

    check(_closure_generators(n))
    check(enumerate_clifford_group(n)[::97])


def test_closure_elements_differ_in_their_pauli_images():
    """Distinct elements of the n=2 closure have distinct signed images of the
    one-bit Pauli words, the code the closure deduplicates on."""
    group = enumerate_clifford_group(2)
    act = pauli_action(group, 2)
    codes = act[:, 1 << np.arange(4)]
    assert len(np.unique(codes, axis=0)) == len(group)


# ---------------------------------------------------------------------------
# Trusted sets, certified exactly. Each member measures one class of Pauli
# words: a {1, H, HS} word the words over {I, L} on each site, L the letter
# its site unitary u sends to +-Z (u L u^dag = +-Z); a Clifford or MUB member
# the words of its commuting class and 1. The inverse map scales word P by
# lambda_P (p, p - 2^n on 1, 3^|supp P| when p is None), so a set's estimator
# is exact on pattern A iff lambda_P count_P = |zeta| for every word P whose
# X/Y support is A, count_P being the number of members whose class holds P.

def _measured_classes(ens):
    n = ens.n
    if ens.name in ("clifford", "mub"):
        classes = maximal_isotropic_subspaces(n) if ens.name == "clifford" else mub_partition(n)
        return [(0,) + cls for cls in classes]
    act = pauli_action(np.stack([ID2, HADAMARD, HS]), 1)
    letter = {w: next(m for m in (1, 2, 3) if act[i, m] % 4 == 1)
              for i, w in enumerate(("1", "H", "HS"))}
    classes = []
    for member in range(ens.size):
        codes = [letter[w] << 2 * (n - 1 - q) for q, w in enumerate(member_word(ens, member))]
        classes.append([sum(c for c, keep in zip(codes, bits) if keep)
                        for bits in itertools.product((0, 1), repeat=n)])
    return classes


def _certified_trusted(ens):
    n = ens.n
    count = Counter(w for cls in _measured_classes(ens) for w in cls)
    exact = {}
    for w in range(4**n):
        if ens.p is None:
            scale = Fraction(3) ** sum(1 for j in range(n) if w >> 2 * j & 3)
        else:
            scale = Fraction(ens.p) - (2**n if w == 0 else 0)
        pattern = sum((w >> 2 * j + 1 & 1) << j for j in range(n))
        exact[pattern] = exact.get(pattern, True) and scale * count[w] == ens.size
    return frozenset(pattern for pattern, ok in exact.items() if ok)


def _every_declared_set():
    """Every zeta_A, every union of two or more equal-size subsets and every
    m-active set, with Pauli and Clifford, at n = 1..4, and MUB at n <= 3."""
    for n in (1, 2, 3, 4):
        for r in range(1, n + 1):
            same = list(itertools.combinations(range(1, n + 1), r))
            yield from (zeta_A(n, a) for a in same)
            for k in range(2, len(same) + 1):
                yield from (zeta_union(n, subsets) for subsets in itertools.combinations(same, k))
        yield from (zeta_m_active(n, m) for m in range(1, n + 1))
        yield pauli_local_ensemble(n)
        yield clifford_ensemble(n)
        if n <= 3:
            yield mub_ensemble(n)


def test_every_declared_trusted_set_is_certified_exactly():
    checked = 0
    for ens in _every_declared_set():
        assert _certified_trusted(ens) == ens.trusted, (ens.name, ens.n)
        checked += 1
    assert checked == 135


def test_isotropic_subspace_counts():
    assert len(maximal_isotropic_subspaces(1)) == 3
    assert len(maximal_isotropic_subspaces(2)) == 15
    assert len(maximal_isotropic_subspaces(3)) == 135


def _anticommute(a, b):
    """Symplectic product of two interleaved Pauli bitmasks (each qubit's x bit
    directly above its z bit, which sits at an even position): 1 iff the words
    anticommute."""
    z_bits = int("01" * 4, 2)
    return ((((a >> 1) & b) ^ (a & (b >> 1))) & z_bits).bit_count() & 1


def _gaussian_binomial(n, k):
    """[n choose k]_2: the number of k-dimensional subspaces of F_2^n."""
    num = den = 1
    for i in range(k):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_isotropic_subspaces_are_the_stabilizer_count_of_distinct_classes(n):
    classes = maximal_isotropic_subspaces(n)
    assert len(classes) == sum(_gaussian_binomial(n, k) * 2 ** (k * (k + 1) // 2)
                               for k in range(n + 1))
    assert len(set(classes)) == len(classes)
    for cls in classes:
        masks = list(cls)
        assert len(set(masks)) == len(masks) == 2**n - 1 and 0 not in masks
        # the words at positions 2^j - 1, the stabilizer bases' generators,
        # span the class, so it is a subspace and they are independent
        span = {0}
        for j in range(n):
            span |= {s ^ masks[2**j - 1] for s in span}
        assert span == set(masks) | {0}
        assert not any(_anticommute(a, b)
                       for a, b in itertools.combinations(masks, 2))


def test_stabilizer_basis_unitaries_unitary():
    for u in stabilizer_basis_unitaries(2):
        assert is_unitary(u, tol=1e-9)


def test_mub_partition_and_unbiasedness():
    for n in (1, 2, 3):
        partition = mub_partition(n)
        assert len(partition) == 2**n + 1
        covered = set()
        for cls in partition:
            assert len(cls) == 2**n - 1
            covered.update(cls)
        assert len(covered) == 4**n - 1  # all nontrivial Pauli words, disjointly
        members = mub_ensemble(n).members
        d = 2**n
        for a, b in itertools.combinations(members, 2):
            overlaps = np.abs(a @ dag(b)) ** 2
            assert np.abs(overlaps - 1 / d).max() < 1e-9


def test_clifford_ensemble_reduction():
    ens = clifford_ensemble(2)
    assert ens.size == 15
    assert ens.p == 2**2 + 1
    with pytest.raises(EnsembleError):
        clifford_ensemble(5)


def test_parse_ensemble_specs():
    assert parse_ensemble_spec("zeta-X", 2).name == "zeta-X"
    assert parse_ensemble_spec("zeta-A:1,3", 3).size == 5
    assert parse_ensemble_spec("zeta-m:2", 3).size == 13
    union = parse_ensemble_spec("zeta-A:1|zeta-A:2", 2)
    assert union.size == 5 and union.trusted == {0b10, 0b01}
    for name in ("pauli", "clifford", "mub"):
        assert parse_ensemble_spec(name, 2).name == name
    with pytest.raises(EnsembleError):
        parse_ensemble_spec("nope", 2)
    with pytest.raises(EnsembleError):
        parse_ensemble_spec("zeta-X|zeta-A:1", 2)


# (spec, n, name and size of the parsed set, or the EnsembleError text)
_SPEC_GRAMMAR = [
    ("zeta-X", 2, ("zeta-X", 5)),
    (" zeta-X ", 3, ("zeta-X", 9)),
    ("pauli", 2, ("pauli", 9)),
    ("clifford", 3, ("clifford", 135)),
    ("mub", 1, ("mub", 3)),
    ("zeta-A:2", 2, ("zeta-A:2", 3)),
    ("zeta-A:1,3", 3, ("zeta-A:1,3", 5)),
    ("zeta-A:3,1", 3, ("zeta-A:1,3", 5)),
    ("zeta-A:1,2", 2, ("zeta-X", 5)),
    ("zeta-m:1", 3, ("zeta-m:1", 7)),
    ("zeta-m:2", 3, ("zeta-m:2", 13)),
    ("zeta-m:3", 3, ("zeta-X", 9)),
    ("zeta-A:1|zeta-A:2", 2, ("zeta-A:1|zeta-A:2", 5)),
    ("zeta-A:1|zeta-A:2|zeta-A:3", 3, ("zeta-A:1|zeta-A:2|zeta-A:3", 7)),
    ("zeta-A:1,2 | zeta-A:3,4", 4, ("zeta-A:1,2|zeta-A:3,4", 9)),
    ("zeta-A:1,2,3|zeta-A:2,3,4", 4, ("zeta-A:1,2,3|zeta-A:2,3,4", 17)),
    ("", 2, "unknown ensemble spec ''"),
    ("bogus", 2, "unknown ensemble spec 'bogus'"),
    ("zeta-x", 2, "unknown ensemble spec 'zeta-x'"),
    ("zeta-A", 2, "unknown ensemble spec 'zeta-A'"),
    ("zeta-A:", 2, "empty active set A is rejected; use zeta-X for diagonal readout"),
    ("zeta-A:x", 2, "ensemble spec 'zeta-A:x': 'x' is not a list of integers"),
    ("zeta-A:0", 2, "active set [0] outside qubits 1..2"),
    ("zeta-A:3", 2, "active set [3] outside qubits 1..2"),
    ("zeta-m:0", 2, "m must be in 1..2"),
    ("zeta-m:3", 2, "m must be in 1..2"),
    ("zeta-m:1,2", 2, "ensemble spec 'zeta-m:1,2': zeta-m takes one integer m"),
    ("zeta-m:x", 2, "ensemble spec 'zeta-m:x': 'x' is not a list of integers"),
    ("zeta-m:", 2, "ensemble spec 'zeta-m:': zeta-m takes one integer m"),
    ("zeta-X|zeta-A:1", 2, "union parts must be zeta-A specs, got 'zeta-X'"),
    ("zeta-A:1|zeta-X", 2, "union parts must be zeta-A specs, got 'zeta-X'"),
    ("zeta-A:1|", 2, "union parts must be zeta-A specs, got ''"),
    ("pauli|zeta-A:1", 2, "union parts must be zeta-A specs, got 'pauli'"),
    ("zeta-A:1|zeta-A:1", 2, "union subsets must be distinct"),
    ("zeta-A:1,1", 2, "active set [1, 1] names a qubit more than once"),
    ("zeta-A:2|zeta-A:1,1", 2, "active set [1, 1] names a qubit more than once"),
    ("zeta-A:1|zeta-A:1,2", 2, "union subsets must have equal cardinality"),
    ("zeta-A:1|zeta-A:b", 2, "ensemble spec 'zeta-A:b': 'b' is not a list of integers"),
    ("clifford", 4, ("clifford", 2295)),
    ("mub", 4, "MUB ensemble supported only for n <= 3"),
    ("zeta-X", 0, "n must be in 1..4, got 0"),
    ("mub", 0, "n must be in 1..4, got 0"),
    ("zeta-X", 5, "n must be in 1..4, got 5"),
    ("zeta-m:1", 5, "n must be in 1..4, got 5"),
    ("bogus", 5, "n must be in 1..4, got 5"),
]


@pytest.mark.parametrize("spec,n,expected", _SPEC_GRAMMAR)
def test_spec_grammar(spec, n, expected):
    if isinstance(expected, str):
        with pytest.raises(EnsembleError) as err:
            parse_ensemble_spec(spec, n)
        assert str(err.value) == expected
    else:
        ens = parse_ensemble_spec(spec, n)
        assert (ens.name, ens.size) == expected


def test_parse_ensemble_list_reattaches_digits():
    sets = parse_ensemble_list("zeta-X,zeta-A:1,3,zeta-m:1", 3)
    assert [e.name for e in sets] == ["zeta-X", "zeta-A:1,3", "zeta-m:1"]
    names = [e.name for e in parse_ensemble_list("zeta-A:1|zeta-A:2,mub", 2)]
    assert names == ["zeta-A:1|zeta-A:2", "mub"]


def test_ensemble_info_text():
    text = ensemble_info(zeta_m_active(3, 2))
    assert "members: 13" in text
    assert "p: 13.0" in text
    assert "diagonal trusted: False" in text
    assert "inverse: pA - Tr(A) 1" in text.splitlines()
    text = ensemble_info(pauli_local_ensemble(2))
    assert "p: per-site (3 per qubit)" in text.splitlines()
    assert "inverse: 3A - Tr(A) 1 on every qubit" in text.splitlines()


# ---------------------------------------------------------------------------
# The cold Clifford / stabilizer / MUB layer.

# SHA-256 of the repr of maximal_isotropic_subspaces(n) with each word as its
# (x1, z1, x2, z2, ...) bit tuple, pinned from the earlier int8-vector
# enumeration; the order of the subspaces fixes the member order of
# clifford_ensemble.
_ISOTROPIC_SHA256 = {
    1: "b9b7fc2f0933ee7e74867f5a7e6b61af6366c0dbe9dca9ae8fb8a72e4311e904",
    2: "1909fe840d4320b3963b411ba8f0055a6630c9b66ff3ae16a4b8eafea9a5a5a8",
    3: "52f7faff7b924daff106e2da09703f1a33a0a1a737c506cc92e95a1f7b1d7302",
}


def _bit_tuples(classes, n):
    """Each word of each class as its bit tuple, qubit 1's x bit first."""
    return tuple(tuple(tuple((v >> (2 * n - 1 - j)) & 1 for j in range(2 * n)) for v in cls)
                 for cls in classes)


def _pauli(v, n):
    """Hermitian Pauli word of an n-qubit bitmask, built site by site from its
    (x, z) bit pairs, qubit 1's pair most significant."""
    names = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    return reduce(np.kron, (PAULI_1Q[names[(v >> 2 * (n - q) + 1) & 1, (v >> 2 * (n - q)) & 1]]
                            for q in range(1, n + 1)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_isotropic_subspaces_pinned(n):
    rendered = _bit_tuples(maximal_isotropic_subspaces(n), n)
    assert hashlib.sha256(repr(rendered).encode()).hexdigest() == _ISOTROPIC_SHA256[n]


# the member order of the MUB ensemble, and with it the `mub` draws
_MUB_PARTITION_SHA256 = {
    1: "b9b7fc2f0933ee7e74867f5a7e6b61af6366c0dbe9dca9ae8fb8a72e4311e904",
    2: "6ddfbd0a9a90c8410613c60d28e7533e59886ae4f37b92acbfe351e851129f87",
    3: "09d986b0b00c0554ac0c945dc394fe170c399117457ce81b7d1d5a3d0991726e",
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mub_partition_pinned(n):
    rendered = _bit_tuples(mub_partition(n), n)
    assert hashlib.sha256(repr(rendered).encode()).hexdigest() == _MUB_PARTITION_SHA256[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stabilizer_and_mub_rows_are_ordered_joint_eigenvectors(n):
    classes = list(maximal_isotropic_subspaces(n)) + list(mub_partition(n))
    members = list(stabilizer_basis_unitaries(n)) + list(mub_ensemble(n).members)
    for cls, u in zip(classes, members):
        assert is_unitary(u, tol=1e-12)
        basis = dag(u)  # columns are the basis vectors
        signs = []
        for v in cls:
            image = _pauli(v, n) @ basis
            eig = np.einsum("ik,ik->k", basis.conj(), image).real
            assert np.abs(np.abs(eig) - 1).max() < 1e-12
            assert np.abs(image - basis * eig).max() < 1e-12
            signs.append(eig)
        weighted = np.tensordot(3.0 ** np.arange(len(cls)), np.array(signs), axes=1)
        assert np.all(np.diff(weighted) > 1)


def _class_basis_oracle(cls, n):
    """One class's measurement unitary, built on its own as ensembles did before
    the bases were batched: the rank-1 projectors prod_j (1 +- P_j)/2 of the
    greedy independent words in sorted order, the column at the largest
    diagonal entry, rows in ascending eigenvalue of sum_i 3^i P_i."""
    paulis = pauli_table(n)
    masks = list(cls)
    half = np.eye(2**n) / 2
    proj = np.eye(2**n, dtype=complex)[None]
    span = {0}
    for v in masks:
        if v not in span:
            span |= {s ^ v for s in span}
            proj = np.concatenate([proj @ (half + paulis[v] / 2), proj @ (half - paulis[v] / 2)])
    rows = np.arange(len(proj))
    diag = proj.diagonal(axis1=1, axis2=2).real
    c = diag.argmax(axis=1)
    psi = proj[rows, :, c] / np.sqrt(diag[rows, c])[:, None]
    weighted = np.tensordot(3.0 ** np.arange(len(masks)), paulis[masks], axes=1)
    eig = np.einsum("ti,ij,tj->t", psi.conj(), weighted, psi).real
    return psi[np.argsort(eig)].conj()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stabilizer_and_mub_members_match_the_per_class_oracle_bytes(n):
    """The multinomial draws move with the last bits of the members, so the
    batched bases must be the per-class construction's to the bit."""
    for classes, ens in ((maximal_isotropic_subspaces(n), clifford_ensemble(n)),
                         (mub_partition(n), mub_ensemble(n))):
        assert len(ens.members) == len(classes)
        for cls, u in zip(classes, ens.members):
            oracle = _class_basis_oracle(cls, n)
            assert (u.shape, u.dtype, u.tobytes()) == (oracle.shape, oracle.dtype,
                                                      oracle.tobytes())


def _dag_stack(a):
    return np.conj(np.swapaxes(a, -1, -2))


def _conjugation_keys(unitaries, n):
    """Rounded images of X_j and Z_j under each U: equal iff the U agree up to phase."""
    gens = [_pauli(1 << k, n) for k in range(2 * n)]
    images = np.stack([unitaries @ p @ _dag_stack(unitaries) for p in gens], axis=1)
    rounded = np.round(images.reshape(len(unitaries), -1), 6) + 0.0
    return [row.tobytes() for row in rounded]


@pytest.mark.parametrize("n,order", [(1, 24), (2, 11520)])
def test_clifford_closure_is_a_group_modulo_phase(n, order):
    group = enumerate_clifford_group(n)
    assert len(group) == order
    assert np.abs(_dag_stack(group) @ group - np.eye(2**n)).max() < 1e-12
    keys = _conjugation_keys(group, n)
    assert len(set(keys)) == order  # distinct modulo phase
    cnot = np.eye(4)[[0, 1, 3, 2]]
    gens = ([HADAMARD, PHASE_S] if n == 1 else
            [np.kron(HADAMARD, np.eye(2)), np.kron(np.eye(2), HADAMARD),
             np.kron(PHASE_S, np.eye(2)), np.kron(np.eye(2), PHASE_S), cnot])
    members = set(keys)
    for g in gens:
        assert set(_conjugation_keys(g @ group, n)) <= members


def test_stabilizer_bases_use_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for obj in vars(ensembles).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    monkeypatch.setattr(qcore, "jacobi_eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert len(stabilizer_basis_unitaries(3)) == 135
    assert mub_ensemble(3).size == 9


def test_import_builds_no_ensemble():
    src = str(Path(pqst.__file__).resolve().parents[1])
    code = ("import sys\n"
            "import pqst\n"
            "assert not [m for m in sys.modules if m.startswith('pqst.')]\n"
            "from pqst import ensembles\n"
            "caches = [v for v in vars(ensembles).values() if hasattr(v, 'cache_info')]\n"
            "assert caches\n"
            "print(sum(c.cache_info().currsize for c in caches))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# Member order. The multinomial draws of a sampled PSE or an MSE trial follow
# the order of an ensemble's members, so these pins guard the bytes of the
# six-panel CSVs. pqst_auto_ensembles hands equal-cardinality patterns to
# zeta_union in descending mask order, which is lexicographic qubit-label order.

def _order_digest(ensembles):
    words = [(e.name, tuple(member_word(e, i) for i in range(e.size))) for e in ensembles]
    return hashlib.sha256(repr(words).encode()).hexdigest()


_AUTO_SHA256 = {
    "O2X": "6025023461ccc9c9697cd03746b23c1f092cbf9e2a4126592636d9ca863a36e7",
    "O2NX": "8ac228a4993e330240b63c1e2d44e5a63c152d24f8d9d5c623f19fcdd83b9e31",
    "O2": "7720fb417b7025efc573825fbe804aa312602af644841be87078d3b427f7c1bc",
    "O3X": "8b73ba1044cb92ae82727adfe4d6bb55a89d0183daee142c9792622151b01d81",
    "O3NX": "0fd1c5f5e530c6d2080d24b26285fa55c3721cee4b0f464f4bc3cbdf7b0cc2f6",
    "O3": "7d94b5a44afc3faa5c0cfe4c127518c122941fd5bc6194b470379756da598acb",
}

# (every union of >= 2 equal-cardinality subsets, in both orders; zeta_m:1..n)
_UNION_SHA256 = {
    2: ("ff72d5d44b7f8aeb9cdf9a6bddab06cf4e640f5721e81b2e9e2682ee3d4f3410",
        "b5814e08ed444ed4c8299f17d804f74f10ddc3ed7d14e37703fedab3943f10a0"),
    3: ("8e4c8103b201627b8cac0f7984428298ef33118b4d27f6599b608f8146583c53",
        "7f17e72f7f4abeb97539e089a0fa6ce7dc6a7d6bb9d8ee308a6c7f0a8be80c3b"),
    4: ("b9210c3c423f3b78286386d4df1c8da60e3acfc6b54f629cdcedb372fbe0668f",
        "edef9da51f033c84a3be5b83451ebda76d2589df7dcffb1e5a6139ae0f161049"),
}


@pytest.mark.parametrize("name", sorted(_AUTO_SHA256))
def test_pqst_auto_member_order_pinned(name):
    ensembles = pqst_auto_ensembles(load_fixture(name).observable)
    assert _order_digest(ensembles) == _AUTO_SHA256[name]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_union_and_m_active_member_order_pinned(n):
    unions = []
    for r in range(1, n):
        subsets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), r)]
        for count in range(2, len(subsets) + 1):
            for combo in itertools.combinations(subsets, count):
                unions += [zeta_union(n, combo), zeta_union(n, combo[::-1])]
    m_active = [zeta_m_active(n, m) for m in range(1, n + 1)]
    assert (_order_digest(unions), _order_digest(m_active)) == _UNION_SHA256[n]
