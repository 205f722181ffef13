"""Output gates. Each returns a list of failure reasons; an empty list passes.

The gates compute what they check with plain numpy, independently of the pqst
code under test, so a faster build that breaks the statistics fails ops.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

SLOPE_TARGET, SLOPE_TOL = -1.0, 0.15   # MSE ~ 1/M
STDERR_MULTIPLE = 6.0                  # sampled value vs reference, in stderrs
EXACT_TOL = 1e-10                      # exact reconstruction vs input
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-9
ROTATED_TOL = 1e-8                     # rotated exact estimate vs direct exact
PURE_FIDELITY_TOL = 1e-6               # exact reconstruction of a pure state
SAMPLED_FIDELITY_RANGE = (0.9, 1.05)


def loglog_slope(shots, mse) -> float:
    return float(np.polyfit(np.log(shots), np.log(mse), 1)[0])


def mse_panel(results: dict) -> dict:
    """Gate one panel. `results` maps method -> (shots list, mse list); returns
    method -> reasons. The PQST < Pauli verdict at M = 1000 is charged to pqst-auto."""
    reasons = {m: [] for m in results}
    for method, (shots, mse) in results.items():
        if not all(math.isfinite(v) and v > 0 for v in mse):
            reasons[method].append(f"{method}: MSE not finite and positive: {mse}")
            continue
        slope = loglog_slope(shots, mse)
        if abs(slope - SLOPE_TARGET) > SLOPE_TOL:
            reasons[method].append(f"{method}: slope {slope:.3f} outside -1 +- {SLOPE_TOL}")
    if "pqst-auto" in results and not pqst_below_pauli(results):
        reasons["pqst-auto"].append(f"pqst-auto MSE@1e3 {mse_at(results, 'pqst-auto')} "
                                    f"not below pauli {mse_at(results, 'pauli')}")
    return reasons


def mse_at(results: dict, method: str, shots: int = 1000):
    return dict(zip(*results[method])).get(shots) if method in results else None


def pqst_below_pauli(results: dict) -> bool:
    """The paper's claim for one panel: PQST has the lower MSE at M = 1000."""
    pq, pa = mse_at(results, "pqst-auto"), mse_at(results, "pauli")
    return pq is not None and pa is not None and pq < pa


def owner_index(n: int) -> np.ndarray:
    """Index of the owning set in [zeta-X, zeta-m:1, ..., zeta-m:n-1] per element:
    zeta-X owns the diagonal and the full-register pattern, zeta-m:k the
    elements whose row and column bits differ on exactly k qubits."""
    idx = np.arange(2**n)
    differing = np.vectorize(lambda v: bin(v).count("1"))(np.bitwise_xor.outer(idx, idx))
    return np.where(differing == n, 0, differing)


def exact_reconstruction(estimate, rho) -> list:
    err = float(np.abs(np.asarray(estimate) - rho).max())
    return [] if err <= EXACT_TOL else [f"exact reconstruction differs from input by {err:.2e}"]


def sampled_reconstruction(estimate, rho, stderr) -> list:
    """Hermitian, unit trace, and each element within STDERR_MULTIPLE of its
    owning estimator's per-entry standard error."""
    est = np.asarray(estimate)
    reasons = []
    herm = float(np.abs(est - est.conj().T).max())
    if herm > HERMITIAN_TOL:
        reasons.append(f"estimate not Hermitian (residual {herm:.2e})")
    trace = abs(complex(np.trace(est)) - 1.0)
    if trace > TRACE_TOL:
        reasons.append(f"estimate trace differs from 1 by {trace:.2e}")
    excess = np.abs(est - rho) - (STDERR_MULTIPLE * np.asarray(stderr) + 1e-12)
    if not np.all(excess <= 0):
        i, j = np.unravel_index(np.argmax(excess), excess.shape)
        reasons.append(f"element ({i},{j}) off by {abs(est[i, j] - rho[i, j]):.3e}, "
                       f"more than {STDERR_MULTIPLE:g} x stderr {stderr[i, j]:.3e}")
    return reasons


def number(label: str, text: str):
    m = re.search(rf"^{re.escape(label)}:\s*(\S+)\s*$", text, re.MULTILINE)
    return float(m.group(1)) if m else None


def golden_count(text: str):
    """(passed, total) from `pqst validate` output, or None."""
    m = re.search(r"^(\d+)/(\d+) checks passed$", text, re.MULTILINE)
    return (int(m.group(1)), int(m.group(2))) if m else None


def fidelity(text: str):
    return number("fidelity vs input", text)


def cli_output(stem: str, returncode: int, stdout: str, reference=None,
               csv_path=None, csv_rows=None) -> list:
    """Gate one CLI invocation of the cli_cold workload by its command stem."""
    if returncode != 0:
        return [f"{stem}: exit code {returncode}"]
    if stem == "validate":
        count = golden_count(stdout)
        return [] if count == (50, 50) else [f"validate: expected 50/50 checks, got {count}"]
    if stem.startswith("estimate"):
        value = number("estimate", stdout)
        if value is None or reference is None:
            return [f"{stem}: no estimate or no reference"]
        if stem == "estimate_rotated_exact":
            ok = abs(value - reference) <= ROTATED_TOL
            return [] if ok else [f"{stem}: {value!r} vs exact {reference!r}"]
        err = number("stderr", stdout)
        if err is None or not err > 0 or abs(value - reference) > STDERR_MULTIPLE * err:
            return [f"{stem}: {value!r} vs exact {reference!r} with stderr {err!r}"]
        return []
    if stem.startswith("reconstruct"):
        f = fidelity(stdout)
        if f is None or not math.isfinite(f):
            return [f"{stem}: no fidelity printed"]
        if stem == "reconstruct_exact":
            return [] if abs(f - 1.0) <= PURE_FIDELITY_TOL else [f"{stem}: fidelity {f!r}"]
        lo, hi = SAMPLED_FIDELITY_RANGE
        return [] if lo <= f <= hi else [f"{stem}: fidelity {f!r} outside [{lo}, {hi}]"]
    if stem == "bench":
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = [r["mse"] for r in rows if not (math.isfinite(float(r["mse"])) and float(r["mse"]) > 0)]
        if len(rows) != csv_rows or bad:
            return [f"bench: {len(rows)} rows (expected {csv_rows}), bad MSE {bad}"]
        return []
    return [f"unknown command stem {stem!r}"]
