"""The estimation engine: sampled shadows, exact ensemble-mode PSEs, PSE
combination, and observable estimation including the rotated X-shadow path."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, dag, index_to_bits
from .operators import Observable, activity_of_indices, activity_support, \
    expectation, rotate_to_x_structure
from .ensembles import UnitaryEnsemble
from .channels import ChannelError, apply_inverse, depolarizing_inverse, \
    forward_channel_exact, pseudo_inverse, _local_snapshot


class CoverageError(ValueError):
    """An activity pattern required by the task is not trusted by any PSE."""


@dataclass(frozen=True)
class ShadowRecord:
    """One measurement shot: ensemble member index + outcome."""

    outcome: tuple
    member_index: int


@dataclass
class PartialShadowEstimator:
    """A density-matrix estimate trusted only on declared element classes."""

    estimate: np.ndarray
    ensemble_name: str
    p: float | None
    shots: int  # 0 = exact ensemble mode
    trusted: frozenset
    n: int
    stderr: np.ndarray | None = None

    @property
    def diagonal_trusted(self) -> bool:
        return frozenset() in self.trusted


def single_shot(rho: DensityMatrix, ensemble: UnitaryEnsemble,
                rng: np.random.Generator) -> ShadowRecord:
    """Uniform member draw, then a Born-distributed outcome of the rotated state."""
    idx = int(rng.integers(0, ensemble.size))
    u = ensemble.members[idx]
    probs = np.clip(np.einsum("ki,ij,jk->k", u, rho.mat, dag(u)).real, 0.0, None)
    probs /= probs.sum()
    k = int(rng.choice(probs.size, p=probs))
    return ShadowRecord(outcome=index_to_bits(k, ensemble.n), member_index=idx)


def snapshot(ensemble: UnitaryEnsemble, record: ShadowRecord) -> np.ndarray:
    """Inverse-mapped single-shot contribution M^{-1}(U^dag |k><k| U)."""
    n = ensemble.n
    k = 0
    for b in record.outcome:
        k = (k << 1) | b
    if ensemble.inverse_kind == "per-site-pauli":
        return _local_snapshot(ensemble.local_factors[record.member_index], record.outcome)
    ket = dag(ensemble.members[record.member_index])[:, k]
    proj = np.outer(ket, ket.conj())
    if ensemble.inverse_kind == "pseudo":
        return pseudo_inverse(ensemble.p, proj)
    if ensemble.inverse_kind == "global-depolarizing":
        return depolarizing_inverse(n, proj)
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
            snaps[i, k] = snapshot(ensemble, ShadowRecord(
                outcome=index_to_bits(k, ensemble.n), member_index=i))
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
        trusted=ensemble.trusted_patterns, n=ensemble.n, stderr=stderr)


def ensemble_pse(rho: DensityMatrix, ensemble: UnitaryEnsemble) -> PartialShadowEstimator:
    """Exact PSE from Born probabilities (diagonal-tomography mode, no sampling)."""
    est = apply_inverse(ensemble, forward_channel_exact(ensemble, rho))
    return PartialShadowEstimator(
        estimate=est, ensemble_name=ensemble.name, p=ensemble.p, shots=0,
        trusted=ensemble.trusted_patterns, n=ensemble.n)


def _pattern_owners(pses, n: int):
    """Exclusive owner per activity pattern; the diagonal needs a designated
    diagonal-trusting (zeta_X-type) PSE."""
    owners = {}
    for pse in pses:
        for pattern in pse.trusted:
            if pattern in owners:
                raise CoverageError(
                    f"pattern {sorted(pattern) or 'diagonal'} trusted by both "
                    f"{owners[pattern].ensemble_name} and {pse.ensemble_name}")
            owners[pattern] = pse
    return owners


def _pattern_name(pattern) -> str:
    return "{" + ",".join(map(str, sorted(pattern))) + "}" if pattern else "diagonal"


def combine_pses(pses) -> np.ndarray:
    """Assemble a full density-matrix estimate, one owner per element class."""
    pses = list(pses)
    if not pses:
        raise CoverageError("no PSEs given")
    n = pses[0].n
    d = 2**n
    owners = _pattern_owners(pses, n)
    missing = set()
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            pattern = activity_of_indices(i, j, n)
            owner = owners.get(pattern)
            if owner is None:
                missing.add(pattern)
            else:
                out[i, j] = owner.estimate[i, j]
    if missing:
        names = ", ".join(_pattern_name(p) for p in sorted(missing, key=sorted))
        raise CoverageError(f"no PSE trusts activity patterns: {names}")
    return (out + dag(out)) / 2


def estimate_observable(obs: Observable, pse_or_pses) -> float:
    """Tr(O rho_hat) with each Pauli term read off the PSE trusting its pattern."""
    pses = [pse_or_pses] if isinstance(pse_or_pses, PartialShadowEstimator) else list(pse_or_pses)
    owners = _pattern_owners(pses, pses[0].n)
    unsupported = [t for t in obs.terms if t.activity not in owners]
    if unsupported:
        names = ", ".join(f"{t.coeff:g} {t.word}" for t in unsupported)
        raise CoverageError(f"observable terms not covered by any PSE: {names}")
    return sum(expectation(t.matrix(), owners[t.activity].estimate) for t in obs.terms)


def x_shadow_rotated(rho: DensityMatrix, obs: Observable, exact: bool = True,
                     shots: int | None = None, rng: np.random.Generator | None = None,
                     zeta_x_ensemble: UnitaryEnsemble | None = None) -> float:
    """Estimate <O> by X-shadow tomography of the rotated state U rho U^dag."""
    from .ensembles import zeta_x
    from .qcore import conjugate_by_unitary

    found = rotate_to_x_structure(obs)
    if found is None:
        raise CoverageError("no per-qubit rotation X-structures this observable")
    u, rotated, _ = found
    ens = zeta_x_ensemble if zeta_x_ensemble is not None else zeta_x(obs.n)
    rotated_state = conjugate_by_unitary(rho, u)
    if exact:
        pse = ensemble_pse(rotated_state, ens)
    else:
        if shots is None or rng is None:
            raise ValueError("sampled mode needs shots and rng")
        pse = sampled_pse(rotated_state, ens, shots, rng)
    return estimate_observable(rotated, pse)


def reconstruction_report(estimate: np.ndarray, pses, shots_per_set, seed,
                          reference: DensityMatrix | None = None) -> dict:
    """Structured reconstruction report: estimate, trusted flags, fidelity."""
    from .qcore import fidelity_with_clip

    n = pses[0].n
    d = 2**n
    owners = _pattern_owners(pses, n)
    trusted_flags = [[activity_of_indices(i, j, n) in owners for j in range(d)]
                     for i in range(d)]
    report = {
        "n_qubits": n,
        "estimate_re": [[float(x) for x in row] for row in estimate.real],
        "estimate_im": [[float(x) for x in row] for row in estimate.imag],
        "trusted": trusted_flags,
        "sets": [{"name": p.ensemble_name, "p": p.p, "shots": p.shots} for p in pses],
        "shots_per_set": shots_per_set,
        "seed": seed,
    }
    if reference is not None:
        f, clipped = fidelity_with_clip(reference, (estimate + dag(estimate)) / 2)
        report["fidelity_vs_reference"] = float(f)
        report["fidelity_clipped_mass"] = float(clipped)
    return report
