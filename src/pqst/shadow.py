"""The estimation engine: sampled shadows, exact ensemble-mode PSEs, PSE
combination by pattern ownership, observable estimation and reconstruction."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .qcore import DensityMatrix, QcoreError, born_table, dag, fidelity_with_clip, spawn_rng
from .operators import Observable, activity_of_indices, expectation, pattern_name, \
    pattern_order
from .ensembles import UnitaryEnsemble
from .channels import snapshot_mean, snapshot_moments


class CoverageError(ValueError):
    """An activity pattern required by the task is not trusted by any PSE."""


@dataclass
class PartialShadowEstimator:
    """A density-matrix estimate trusted only on its ensemble's patterns."""

    estimate: np.ndarray
    ensemble: UnitaryEnsemble
    shots: int  # 0 = exact ensemble mode
    stderr: np.ndarray | None = None


def cell_probabilities(ensemble: UnitaryEnsemble, rho: DensityMatrix) -> np.ndarray:
    """The flat (member, outcome) distribution that both samplers draw from: Born
    probabilities clipped at 0 and normalised per member, over |zeta| members."""
    table = np.clip(born_table(ensemble.members, rho.mat).real, 0.0, None)
    probs = (table / table.sum(axis=1, keepdims=True) / ensemble.size).ravel()
    return probs / probs.sum()


MAX_SHOTS = 2**63 - 1  # numpy's multinomial takes the shot count as a signed 64-bit int


def sampled_pse(rho: DensityMatrix, ensemble: UnitaryEnsemble, shots: int,
                rng: np.random.Generator) -> PartialShadowEstimator:
    """Empirical-mean shadow estimator over `shots` single shots. Shots are iid
    over the (member, outcome) cells, so the counts are one multinomial draw over
    them; the snapshot mean and plug-in stderr are closed forms of the counts."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    counts = rng.multinomial(shots, cell_probabilities(ensemble, rho))
    first, second = snapshot_moments(ensemble, counts / shots)
    var = second - (first.real**2 + first.imag**2)
    return PartialShadowEstimator(first, ensemble, shots,
                                  np.sqrt(np.clip(var, 0.0, None) / shots))


def ensemble_pse(rho: DensityMatrix, ensemble: UnitaryEnsemble) -> PartialShadowEstimator:
    """Exact PSE (diagonal-tomography mode): the snapshot mean at the raw Born
    table / |zeta|, neither clipped nor normalised, so it is linear in rho."""
    weights = born_table(ensemble.members, rho.mat).real / ensemble.size
    return PartialShadowEstimator(snapshot_mean(ensemble, weights), ensemble, 0)


def pattern_owners(sets, terms=()) -> dict:
    """The index of the one ensemble in `sets` trusting each pattern. A pattern
    trusted by two sets, or a term whose pattern no set trusts, is a
    CoverageError; two conflicting sets of one name are told apart by their
    1-based positions."""
    owners = {}
    for index, ens in enumerate(sets):
        for mask in sorted(ens.trusted):
            if mask in owners:
                first, second = sets[owners[mask]].name, ens.name
                if first == second:
                    first += f" (set {owners[mask] + 1})"
                    second += f" (set {index + 1})"
                raise CoverageError(f"pattern {pattern_name(mask, ens.n)} trusted by both "
                                    f"{first} and {second}")
            owners[mask] = index
    orphans = [t for t in terms if t.activity not in owners]
    if orphans:
        names = ", ".join(f"{t.coeff:g} {t.word}" for t in orphans)
        raise CoverageError(f"observable terms not covered by any set: {names}")
    return owners


def combine_pses(pses) -> np.ndarray:
    """Assemble the full estimate, one owner per element class; exactly Hermitian."""
    pses = list(pses)
    if not pses:
        raise CoverageError("no PSEs given")
    n = pses[0].ensemble.n
    owners = pattern_owners([p.ensemble for p in pses])
    masks = activity_of_indices(n)
    missing = sorted(set(range(2**n)) - owners.keys(), key=lambda m: pattern_order(m, n))
    if missing:
        names = ", ".join(pattern_name(m, n) for m in missing)
        raise CoverageError(f"no PSE trusts activity patterns: {names}")
    out = np.zeros((2**n, 2**n), dtype=complex)
    for mask, index in owners.items():
        owned = masks == mask
        out[owned] = pses[index].estimate[owned]
    return (out + dag(out)) / 2


def estimate_observable(obs: Observable, pses) -> float:
    """Tr(O rho_hat) with each Pauli term read off the PSE trusting its pattern;
    a sum beyond the float range is a QcoreError."""
    owners = pattern_owners([p.ensemble for p in pses], obs.terms)
    value = sum(expectation(t.matrix(), pses[owners[t.activity]].estimate) for t in obs.terms)
    if not isfinite(value):
        raise QcoreError("estimate overflows the float range")
    return value


FIDELITY_SLACK = 1e-6  # above the eigensolver's noise: exact full covers of pure fixtures <= 2.2e-8


def reconstruction_report(estimate: np.ndarray, pses, shots_per_set, seed,
                          reference: DensityMatrix) -> dict:
    """Report of a `combine_pses` estimate: each set's owned patterns, the
    reference's validation residuals, and the fidelity, flagged above 1."""
    f, clipped = fidelity_with_clip(reference, estimate)
    n = reference.n
    return {
        "n_qubits": n,
        "estimate_re": [[float(x) for x in row] for row in estimate.real],
        "estimate_im": [[float(x) for x in row] for row in estimate.imag],
        "sets": [{"name": p.ensemble.name, "p": p.ensemble.p, "shots": p.shots,
                  "patterns": [pattern_name(m, n) for m in sorted(
                      p.ensemble.trusted, key=lambda m: pattern_order(m, n))]}
                 for p in pses],
        "shots_per_set": shots_per_set,
        "seed": seed,
        "state_residuals": reference.validation_residuals,
        "fidelity_vs_reference": float(f),
        "fidelity_above_one": f > 1 + FIDELITY_SLACK,
        "fidelity_clipped_mass": float(clipped),
    }


def reconstruct_state(rho: DensityMatrix, ensembles, shots: int | None = None,
                      seed=None) -> dict:
    """Reconstruction report of rho from one PSE per set, combined. Exact mode
    when `shots` is None; otherwise set i draws `shots` shots from the stream
    (seed, i), and a seed is required."""
    if shots is None:
        pses = [ensemble_pse(rho, ens) for ens in ensembles]
    elif seed is None:
        raise ValueError("sampled mode requires a seed")
    else:
        pses = [sampled_pse(rho, ens, shots, spawn_rng(seed, i))
                for i, ens in enumerate(ensembles)]
    return reconstruction_report(combine_pses(pses), pses, shots or 0, seed, reference=rho)
