import hashlib
import itertools
import os
import subprocess
import sys
from functools import reduce
from math import comb
from pathlib import Path

import numpy as np
import pytest

import pqst
from pqst import ensembles, qcore
from pqst.ensembles import (EnsembleError, check_members, clifford_ensemble,
                            clifford_group_order, enumerate_clifford_group,
                            ensemble_info, maximal_isotropic_subspaces,
                            mub_ensemble, mub_partition, num_symplectics,
                            parse_ensemble_list, parse_ensemble_spec,
                            pauli_local_ensemble, stabilizer_basis_unitaries,
                            zeta_A, zeta_m_active, zeta_union, zeta_x)
from pqst.operators import PAULI_1Q
from pqst.qcore import HADAMARD, PHASE_S, dag, is_unitary


def test_zeta_A_sizes_and_p():
    for n in (1, 2, 3, 4):
        for r in range(1, n + 1):
            for a in itertools.combinations(range(1, n + 1), r):
                ens = zeta_A(n, a)
                assert ens.size == 2**r + 1
                assert ens.p == 2**r + 1
                assert ens.activity_signature == frozenset({frozenset(a)})
                assert ens.diagonal_trusted == (r == n)
                check_members(ens.name, ens.members)


def test_zeta_x_is_full_register():
    ens = zeta_x(2)
    assert ens.name == "zeta-X"
    assert ens.size == 5 and ens.diagonal_trusted


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
    assert ens.inverse_kind == "per-site-pauli"
    assert ens.diagonal_trusted
    assert len(ens.activity_signature) == 3  # {1}, {2}, {1,2}
    check_members(ens.name, ens.members)


def test_clifford_closure_orders():
    assert len(enumerate_clifford_group(1)) == 24 == clifford_group_order(1)
    assert len(enumerate_clifford_group(2)) == 11520 == clifford_group_order(2)
    assert num_symplectics(3) == 1451520


def test_isotropic_subspace_counts():
    assert len(maximal_isotropic_subspaces(1)) == 3
    assert len(maximal_isotropic_subspaces(2)) == 15
    assert len(maximal_isotropic_subspaces(3)) == 135


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
    assert ens.p == 5
    assert ens.inverse_kind == "global-depolarizing"
    with pytest.raises(EnsembleError):
        clifford_ensemble(4)


def test_parse_ensemble_specs():
    assert parse_ensemble_spec("zeta-X", 2).name == "zeta-X"
    assert parse_ensemble_spec("zeta-A:1,3", 3).size == 5
    assert parse_ensemble_spec("zeta-m:2", 3).size == 13
    union = parse_ensemble_spec("zeta-A:1|zeta-A:2", 2)
    assert union.size == 5 and len(union.activity_signature) == 2
    for name in ("pauli", "clifford", "mub"):
        assert parse_ensemble_spec(name, 2).name == name
    with pytest.raises(EnsembleError):
        parse_ensemble_spec("nope", 2)
    with pytest.raises(EnsembleError):
        parse_ensemble_spec("zeta-X|zeta-A:1", 2)


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


# ---------------------------------------------------------------------------
# The cold Clifford / stabilizer / MUB layer.

# SHA-256 of repr(maximal_isotropic_subspaces(n)), pinned from the earlier
# int8-vector enumeration; the order of the subspaces fixes the member order
# of clifford_ensemble.
_ISOTROPIC_SHA256 = {
    1: "b9b7fc2f0933ee7e74867f5a7e6b61af6366c0dbe9dca9ae8fb8a72e4311e904",
    2: "1909fe840d4320b3963b411ba8f0055a6630c9b66ff3ae16a4b8eafea9a5a5a8",
    3: "52f7faff7b924daff106e2da09703f1a33a0a1a737c506cc92e95a1f7b1d7302",
}


def _pauli(v):
    """Hermitian Pauli word of an interleaved (x, z) bit tuple, built site by site."""
    names = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    return reduce(np.kron, (PAULI_1Q[names[v[2 * i], v[2 * i + 1]]]
                            for i in range(len(v) // 2)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_isotropic_subspaces_pinned(n):
    digest = hashlib.sha256(repr(maximal_isotropic_subspaces(n)).encode()).hexdigest()
    assert digest == _ISOTROPIC_SHA256[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stabilizer_and_mub_rows_are_ordered_joint_eigenvectors(n):
    classes = list(maximal_isotropic_subspaces(n)) + list(mub_partition(n))
    members = list(stabilizer_basis_unitaries(n)) + list(mub_ensemble(n).members)
    for cls, u in zip(classes, members):
        assert is_unitary(u, tol=1e-12)
        basis = dag(u)  # columns are the basis vectors
        signs = []
        for v in cls:
            image = _pauli(v) @ basis
            eig = np.einsum("ik,ik->k", basis.conj(), image).real
            assert np.abs(np.abs(eig) - 1).max() < 1e-12
            assert np.abs(image - basis * eig).max() < 1e-12
            signs.append(eig)
        weighted = np.tensordot(3.0 ** np.arange(len(cls)), np.array(signs), axes=1)
        assert np.all(np.diff(weighted) > 1)


def _dag_stack(a):
    return np.conj(np.swapaxes(a, -1, -2))


def _conjugation_keys(unitaries, n):
    """Rounded images of X_j and Z_j under each U: equal iff the U agree up to phase."""
    gens = [_pauli(tuple(int(b == k) for b in range(2 * n))) for k in range(2 * n)]
    images = np.stack([unitaries @ p @ _dag_stack(unitaries) for p in gens], axis=1)
    rounded = np.round(images.reshape(len(unitaries), -1), 6) + 0.0
    return [row.tobytes() for row in rounded]


@pytest.mark.parametrize("n,order", [(1, 24), (2, 11520)])
def test_clifford_closure_is_a_group_modulo_phase(n, order):
    group = np.array(enumerate_clifford_group(n))
    assert len(group) == order == clifford_group_order(n)
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
    code = ("import pqst\n"
            "from pqst import ensembles\n"
            "caches = [v for v in vars(ensembles).values() if hasattr(v, 'cache_info')]\n"
            "assert caches\n"
            "print(sum(c.cache_info().currsize for c in caches))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "0"
