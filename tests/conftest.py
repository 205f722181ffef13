import itertools
from functools import lru_cache

import numpy as np
import pytest

from pqst.channels import pseudo_inverse
from pqst.qcore import HADAMARD, HS, ID2, kron_all


def random_hermitian(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


_SITE = {"1": ID2, "H": HADAMARD, "HS": HS}


@lru_cache(maxsize=None)
def _word_products(n):
    words = list(itertools.product(_SITE, repeat=n))
    return words, np.stack([kron_all(*(_SITE[w] for w in word)) for word in words])


def member_word(ens, member):
    """The {1, H, HS} word of one member of a local ensemble, recovered by
    matching its matrix against the product of every word."""
    words, products = _word_products(ens.n)
    resid = np.abs(products - ens.members[member]).max(axis=(1, 2))
    assert resid.min() < 1e-12, f"member {member} of {ens.name} is not a {{1, H, HS}} word"
    return words[int(resid.argmin())]


def reference_snapshot(ens, member, k):
    """M^{-1}(U^dag|k><k|U) of one cell, written out without
    channels.apply_inverse: the kron of 3|k_q><k_q| - 1 over the sites of a
    local word (qubit 1 is the most significant bit of k) when p is None,
    (2^n + 1)P - 1 for Clifford and MUB sets whatever their p, and
    pseudo_inverse(p, P) for the zeta sets."""
    n, d = ens.n, 2**ens.n
    if ens.p is None:
        factors = []
        for q, w in enumerate(member_word(ens, member)):
            ket = _SITE[w].conj().T[:, (k >> (n - 1 - q)) & 1]
            factors.append(3 * np.outer(ket, ket.conj()) - np.eye(2))
        return kron_all(*factors)
    ket = ens.members[member].conj().T[:, k]
    proj = np.outer(ket, ket.conj())
    if ens.name in ("clifford", "mub"):
        return (d + 1) * proj - np.eye(d)
    return pseudo_inverse(ens.p, proj)


def reference_cells(ens, rho):
    """Per-(member, outcome) probabilities, summing to 1, and the stack of
    reference snapshots, one cell at a time."""
    d = 2**rho.n
    probs, snaps = [], []
    for i, u in enumerate(ens.members):
        p = np.clip(np.einsum("ki,ij,jk->k", u, rho.mat, u.conj().T).real, 0.0, None)
        probs.append(p / p.sum() / ens.size)
        snaps += [reference_snapshot(ens, i, k) for k in range(d)]
    return np.concatenate(probs), np.array(snaps)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
