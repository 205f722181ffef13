"""The estimation engine: sampled shadows, exact ensemble-mode PSEs, PSE
combination by pattern ownership, observable estimation and reconstruction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, dag, fidelity_with_clip, index_to_bits, spawn_rng
from .operators import Observable, activity_of_indices, expectation, pattern_name, \
    pattern_qubits
from .ensembles import UnitaryEnsemble
from .channels import ChannelError, apply_inverse, depolarizing_inverse, \
    forward_channel_exact, pseudo_inverse, _local_snapshot


class CoverageError(ValueError):
    """An activity pattern required by the task is not trusted by any PSE."""


@dataclass
class PartialShadowEstimator:
    """A density-matrix estimate trusted only on its ensemble's patterns."""

    estimate: np.ndarray
    ensemble_name: str
    p: float | None
    shots: int  # 0 = exact ensemble mode
    trusted: frozenset
    n: int
    stderr: np.ndarray | None = None


def snapshot(ensemble: UnitaryEnsemble, member: int, k: int) -> np.ndarray:
    """Inverse-mapped single-shot contribution M^{-1}(U^dag |k><k| U) of outcome k."""
    if ensemble.inverse_kind == "per-site-pauli":
        return _local_snapshot(ensemble.local_factors[member], index_to_bits(k, ensemble.n))
    ket = dag(ensemble.members[member])[:, k]
    proj = np.outer(ket, ket.conj())
    if ensemble.inverse_kind == "pseudo":
        return pseudo_inverse(ensemble.p, proj)
    if ensemble.inverse_kind == "global-depolarizing":
        return depolarizing_inverse(ensemble.n, proj)
    raise ChannelError(f"unknown inverse kind {ensemble.inverse_kind!r}")


def _cell_snapshots(ensemble: UnitaryEnsemble, rho: DensityMatrix):
    """Per-(member, outcome) probabilities and inverse snapshots for an explicit
    ensemble. Shots are iid over these cells, so sampling reduces to a
    multinomial draw over them."""
    d = rho.dim
    probs = np.empty((ensemble.size, d))
    snaps = np.empty((ensemble.size, d, d, d), dtype=complex)
    for i, u in enumerate(ensemble.members):
        p = np.clip(np.einsum("ki,ij,jk->k", u, rho.mat, dag(u)).real, 0.0, None)
        probs[i] = p / p.sum() / ensemble.size
        for k in range(d):
            snaps[i, k] = snapshot(ensemble, i, k)
    return probs.ravel(), snaps.reshape(-1, d, d)


def sampled_pse(rho: DensityMatrix, ensemble: UnitaryEnsemble, shots: int,
                rng: np.random.Generator) -> PartialShadowEstimator:
    """Empirical-mean shadow estimator over `shots` single shots (Born-sampled)."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs, snaps = _cell_snapshots(ensemble, rho)
    counts = rng.multinomial(shots, probs / probs.sum())
    est = np.tensordot(counts, snaps, axes=1) / shots
    # per-entry standard error from the cell-count second moments
    second_re = np.tensordot(counts, snaps.real**2, axes=1) / shots
    second_im = np.tensordot(counts, snaps.imag**2, axes=1) / shots
    var = (second_re - est.real**2) + (second_im - est.imag**2)
    stderr = np.sqrt(np.clip(var, 0.0, None) / shots)
    return PartialShadowEstimator(
        estimate=est, ensemble_name=ensemble.name, p=ensemble.p, shots=shots,
        trusted=ensemble.trusted, n=ensemble.n, stderr=stderr)


def ensemble_pse(rho: DensityMatrix, ensemble: UnitaryEnsemble) -> PartialShadowEstimator:
    """Exact PSE from Born probabilities (diagonal-tomography mode, no sampling)."""
    est = apply_inverse(ensemble, forward_channel_exact(ensemble, rho))
    return PartialShadowEstimator(
        estimate=est, ensemble_name=ensemble.name, p=ensemble.p, shots=0,
        trusted=ensemble.trusted, n=ensemble.n)


def pattern_owners(sets, n: int, terms=()) -> dict:
    """The index of the one set trusting each pattern, for (name, trusted) pairs.
    A pattern trusted by two sets, or a term whose pattern no set trusts, is a
    CoverageError."""
    owners = {}
    for index, (name, trusted) in enumerate(sets):
        for mask in sorted(trusted):
            if mask in owners:
                raise CoverageError(f"pattern {pattern_name(mask, n)} trusted by both "
                                    f"{sets[owners[mask]][0]} and {name}")
            owners[mask] = index
    orphans = [t for t in terms if t.activity not in owners]
    if orphans:
        names = ", ".join(f"{t.coeff:g} {t.word}" for t in orphans)
        raise CoverageError(f"observable terms not covered by any set: {names}")
    return owners


def _pse_owners(pses, terms=()) -> dict:
    return pattern_owners([(p.ensemble_name, p.trusted) for p in pses], pses[0].n, terms)


def combine_pses(pses) -> np.ndarray:
    """Assemble a full density-matrix estimate, one owner per element class."""
    pses = list(pses)
    if not pses:
        raise CoverageError("no PSEs given")
    n = pses[0].n
    owners = _pse_owners(pses)
    masks = activity_of_indices(n)
    missing = sorted(set(range(2**n)) - owners.keys(), key=lambda m: pattern_qubits(m, n))
    if missing:
        names = ", ".join(pattern_name(m, n) for m in missing)
        raise CoverageError(f"no PSE trusts activity patterns: {names}")
    out = np.zeros((2**n, 2**n), dtype=complex)
    for mask, index in owners.items():
        owned = masks == mask
        out[owned] = pses[index].estimate[owned]
    return (out + dag(out)) / 2


def estimate_observable(obs: Observable, pses) -> float:
    """Tr(O rho_hat) with each Pauli term read off the PSE trusting its pattern."""
    owners = _pse_owners(pses, obs.terms)
    return sum(expectation(t.matrix(), pses[owners[t.activity]].estimate) for t in obs.terms)


def reconstruction_report(estimate: np.ndarray, pses, shots_per_set, seed,
                          reference: DensityMatrix | None = None) -> dict:
    """Structured reconstruction report: estimate, trusted flags, fidelity."""
    n = pses[0].n
    owned = np.isin(activity_of_indices(n), list(_pse_owners(pses)))
    report = {
        "n_qubits": n,
        "estimate_re": [[float(x) for x in row] for row in estimate.real],
        "estimate_im": [[float(x) for x in row] for row in estimate.imag],
        "trusted": owned.tolist(),
        "sets": [{"name": p.ensemble_name, "p": p.p, "shots": p.shots} for p in pses],
        "shots_per_set": shots_per_set,
        "seed": seed,
    }
    if reference is not None:
        f, clipped = fidelity_with_clip(reference, (estimate + dag(estimate)) / 2)
        report["fidelity_vs_reference"] = float(f)
        report["fidelity_clipped_mass"] = float(clipped)
    return report


def reconstruct_state(rho: DensityMatrix, ensembles, shots: int | None = None,
                      seed=None) -> dict:
    """Reconstruction report of rho from one PSE per set, combined. Exact mode
    when `shots` is None; otherwise set i draws `shots` shots from the stream
    (seed, i)."""
    if shots is None:
        pses = [ensemble_pse(rho, ens) for ens in ensembles]
    else:
        pses = [sampled_pse(rho, ens, shots, spawn_rng(seed, i))
                for i, ens in enumerate(ensembles)]
    return reconstruction_report(combine_pses(pses), pses, shots or 0, seed, reference=rho)
