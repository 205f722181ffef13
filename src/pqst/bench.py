"""Benchmark fixtures, the MSE-scaling experiment, scaling fits and CSV output."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import cos, pi, sin, sqrt

import numpy as np

from .qcore import DensityMatrix, QcoreError, born_table, kron_all, spawn_rng
from .operators import Observable, PAULI_1Q, activity_support, expectation, \
    parse_observable, pattern_qubits
from .ensembles import UnitaryEnsemble, parse_ensemble_spec, zeta_union, zeta_x
from .channels import apply_inverse
from .shadow import CoverageError, cell_probabilities, pattern_owners

DEFAULT_SHOT_GRID = (100, 1000, 10_000, 100_000)
DEFAULT_TRIALS = 1000
TRIAL_BLOCK = 256  # MSE trials drawn per random stream
METHODS = ("pqst-auto", "pauli", "clifford", "mub")

CSV_COLUMNS = ("method", "n_qubits", "state", "observable", "shots", "trials",
               "mse", "stderr", "true_value", "slope_tag", "seed")


class BenchError(ValueError):
    pass


@dataclass
class Fixture:
    """A catalogue reference state or observable."""

    state: DensityMatrix | None = None
    observable: Observable | None = None


@dataclass
class MseResult:
    method: str
    shots: int
    trials: int
    mse: float
    stderr: float
    true_value: float

    def __post_init__(self):
        if self.mse < 0:
            raise BenchError("mse must be non-negative")


# ---------------------------------------------------------------------------
# Fixture catalogue. The 4x4 / 8x8 reference matrices are transcribed at
# 4-decimal precision; their trace/PSD residuals at the 1e-3 level are
# tolerated (relaxed validation) and recorded rather than renormalized away.

_RHO2 = np.array([
    [0.3484, 0.0242 + 0.1014j, 0.0118 - 0.0301j, -0.1986 + 0.0933j],
    [0.0242 - 0.1014j, 0.2641, 0.0447 - 0.0050j, -0.0548 - 0.0516j],
    [0.0118 + 0.0301j, 0.0447 + 0.0050j, 0.1210, 0.0263 - 0.0367j],
    [-0.1986 - 0.0933j, -0.0548 + 0.0516j, 0.0263 + 0.0367j, 0.2665],
])

_RHO2X = np.array([
    [0.19375, 0, 0, 0.09375],
    [0, 0.30625, -0.20625, 0],
    [0, -0.20625, 0.30625, 0],
    [0.09375, 0, 0, 0.19375],
], dtype=complex)

_RHO3 = np.array([
    [0.1855, -0.0429 + 0.0097j, 0.0075 - 0.0288j, 0.0319 - 0.0305j,
     -0.0640 - 0.0150j, 0.0061 + 0.0318j, -0.0125 - 0.0371j, 0.0348 - 0.0563j],
    [-0.0429 - 0.0097j, 0.1172, 0.0383 + 0.0321j, 0.0171 - 0.0024j,
     0.0434 - 0.0252j, 0.0786 - 0.0181j, -0.0078 + 0.0359j, -0.0350 + 0.0078j],
    [0.0075 + 0.0288j, 0.0383 - 0.0321j, 0.1012, 0.0545 - 0.0414j,
     0.0106 - 0.0673j, 0.0505 - 0.0307j, 0.0487 - 0.0143j, -0.0449 + 0.0372j],
    [0.0319 + 0.0305j, 0.0171 + 0.0024j, 0.0545 + 0.0414j, 0.0957,
     0.0118 - 0.0219j, 0.0630 + 0.0153j, 0.0474 - 0.0341j, -0.0510 + 0.0032j],
    [-0.0640 + 0.0150j, 0.0434 + 0.0252j, 0.0106 + 0.0673j, 0.0118 + 0.0219j,
     0.1038, 0.0349 + 0.0267j, -0.0042 + 0.0408j, -0.0387 - 0.0013j],
    [0.0061 - 0.0318j, 0.0786 + 0.0181j, 0.0505 + 0.0307j, 0.0630 - 0.0153j,
     0.0349 - 0.0267j, 0.1308, 0.0294 - 0.0356j, -0.0518 + 0.0164j],
    [-0.0125 + 0.0371j, -0.0078 - 0.0359j, 0.0487 + 0.0143j, 0.0474 + 0.0341j,
     -0.0042 - 0.0408j, 0.0294 + 0.0356j, 0.1359, -0.0453 + 0.0288j],
    [0.0348 + 0.0563j, -0.0350 - 0.0078j, -0.0449 - 0.0372j, -0.0510 - 0.0032j,
     -0.0387 + 0.0013j, -0.0518 - 0.0164j, -0.0453 - 0.0288j, 0.1300],
])

_RHO3X = np.zeros((8, 8), dtype=complex)
np.fill_diagonal(_RHO3X, [0.20, 0.15, 0.10, 0.18, 0.12, 0.10, 0.08, 0.07])
for _i, _z in ((0, 0.05 + 0.02j), (1, 0.04 + 0.03j), (2, 0.03 + 0.01j), (3, 0.06 + 0.02j)):
    _RHO3X[_i, 7 - _i] = _z
    _RHO3X[7 - _i, _i] = _z.conjugate()

_KET0 = np.array([[1.0], [0.0]], dtype=complex)  # columns, as kron_all takes 2-D factors
_KET1 = np.array([[0.0], [1.0]], dtype=complex)
_IZ, _IX, _IY = PAULI_1Q["Z"] / 2, PAULI_1Q["X"] / 2, PAULI_1Q["Y"] / 2


def _product_state(theta1, theta2):
    a = cos(theta1) * _KET1 + sin(theta1) * _KET0
    b = cos(theta2) * _KET1 + sin(theta2) * _KET0
    return DensityMatrix.from_statevector(kron_all(a, b))


def _mixed_product(shrink, r1, r2):
    """The product of the qubit states 1/2 - shrink r1 and 1/2 - shrink r2."""
    one = np.eye(2, dtype=complex)
    return DensityMatrix(kron_all(one / 2 - shrink * r1, one / 2 - shrink * r2))


def _table2_v():
    s6, c6 = sin(pi / 6), cos(pi / 6)
    s12, c12 = sin(pi / 12), cos(pi / 12)
    eta_v = np.array([s6 * s12, s6 * c12, s12 * c6, -c6 * c12], dtype=complex)
    return DensityMatrix.from_statevector(eta_v)


# State fixtures by name, each built on its own when it is loaded.
_STATES = {
    "rho2": lambda: DensityMatrix(_RHO2, relaxed=True),
    "rho2X": lambda: DensityMatrix(_RHO2X, relaxed=True),
    "rho3": lambda: DensityMatrix(_RHO3, relaxed=True),
    "rho3X": lambda: DensityMatrix(_RHO3X, relaxed=True),
    "table2-i": lambda: _product_state(pi / 6, pi / 3),
    "table2-ii": lambda: _product_state(pi / 8, pi / 12),
    "table2-iii": lambda: _mixed_product(cos(pi / 4), cos(pi / 4) * _IZ - sin(pi / 4) * _IX,
                                         cos(pi / 6) * _IZ - sin(pi / 6) * _IX),
    "table2-iv": lambda: _mixed_product(cos(pi / 6), cos(pi / 4) * _IZ + sin(pi / 4) * _IY,
                                        cos(pi / 3) * _IZ + sin(pi / 3) * _IX),
    "table2-v": _table2_v,
}

_OBSERVABLES = {
    "O2X": "8 ZZ; 2 XY; 3 XX; -10 IZ",
    "O2NX": "7 XZ; 15 YZ; 12 ZX",
    "O2": "8 ZY; 12 XZ; 3 XX; -10 IZ; 9 II",
    "O3X": "2 IIZ; 4 XXX; 6 XYX; 8 YYX; 10 IZZ; 12 XXX",
    "O3NX": "2 XZY; 4 YIY",
    "O3": "5 XXX; 10 ZZZ; 7 XYY; -6 ZIZ; 6 YYY; 7 ZXX; -2 ZXI",
}

FIXTURE_NAMES = tuple(_STATES) + tuple(_OBSERVABLES)


def load_fixture(name: str) -> Fixture:
    """Look up a reference state or observable by catalogue name."""
    if name in _STATES:
        return Fixture(state=_STATES[name]())
    if name in _OBSERVABLES:
        return Fixture(observable=parse_observable(_OBSERVABLES[name]))
    raise BenchError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")


# ---------------------------------------------------------------------------
# Measurement models: each (ensemble, owned observable part) is reduced to
# per-(member, outcome) cell probabilities and cell values Tr(O_part s_cell),
# so a trial at budget M is a single multinomial draw. Cells with equal values
# are one outcome of the estimator and are merged before drawing.

@dataclass
class MeasurementModel:
    ensemble: UnitaryEnsemble
    probs: np.ndarray   # flat cell probabilities, sums to 1
    values: np.ndarray  # flat cell values of the owned observable part


def pqst_auto_ensembles(obs: Observable) -> list[UnitaryEnsemble]:
    """Minimal PQST set selection: one equal-cardinality union per active-pattern
    cardinality class, plus zeta_X for an untrusted diagonal. The full-register
    class alone is zeta_X, so an X-structured observable gets zeta_X only."""
    n = obs.n
    patterns = activity_support(obs)
    by_card = {}
    for mask in patterns:
        if mask:
            by_card.setdefault(mask.bit_count(), set()).add(mask)
    ensembles = []
    for card in sorted(by_card):
        # descending masks list equal-size qubit sets in lexicographic label
        # order; it fixes the union's member order, and so the draws
        masks = sorted(by_card[card], reverse=True)
        ensembles.append(zeta_union(n, [pattern_qubits(m, n) for m in masks]))
    if 0 in patterns and not any(0 in e.trusted for e in ensembles):
        ensembles.append(zeta_x(n))
    return ensembles


def method_ensembles(method: str, obs: Observable) -> list[UnitaryEnsemble]:
    """The measurement sets of one method: the PQST selection for 'pqst' and
    'pqst-auto', else the one baseline ensemble of that spec name."""
    if method in ("pqst", "pqst-auto"):
        return pqst_auto_ensembles(obs)
    if method not in METHODS:
        raise BenchError(f"unknown method {method!r}; known: {', '.join(METHODS)}")
    return [parse_ensemble_spec(method, obs.n)]


def _merge_cells(ens: UnitaryEnsemble, probs: np.ndarray, values: np.ndarray,
                 part: np.ndarray) -> MeasurementModel:
    """Merge cells whose values agree to 1e-9 of the largest |value|; each group
    keeps its summed probability and its probability-weighted mean value, so
    sum p v is exact. When all cells agree, the one value is Tr(part) / d, since
    each member's outcomes sum to Tr(part), and it is drawn with probability 1."""
    if not np.all(np.isfinite(values)):
        raise QcoreError("observable cell values overflow to non-finite numbers")
    scale = np.abs(values).max()
    keys, group = np.unique(np.round(values / (scale or 1.0), 9), return_inverse=True)
    if keys.size == 1:
        return MeasurementModel(ens, np.ones(1), np.trace(part).real[None] / len(part))
    p = np.bincount(group, weights=probs)
    pv = np.bincount(group, weights=probs * values)
    keep = p > 0
    return MeasurementModel(ens, p[keep], pv[keep] / p[keep])


def measurement_models(state: DensityMatrix, obs: Observable, method: str):
    """Build the merged cell models for one method; ensembles that own no term
    are dropped. The inverse maps are self-adjoint, so cell (U, k) has value
    Tr(O_part M^-1(U^dag|k><k|U)) = <k|U M^-1(O_part) U^dag|k>, a Born table."""
    ensembles = method_ensembles(method, obs)
    owners = pattern_owners(ensembles, obs.terms)
    models = []
    for index, ens in enumerate(ensembles):
        terms = [t for t in obs.terms if owners[t.activity] == index]
        if not terms:
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # _merge_cells rejects inf, nan
            part = apply_inverse(ens, sum(t.matrix() for t in terms))
            values = born_table(ens.members, part).real.ravel()
        models.append(_merge_cells(ens, cell_probabilities(ens, state), values, part))
    if not models:
        raise CoverageError("no measurement model owns any observable term")
    return models


def draw_estimates(models, shots: int, rng: np.random.Generator, size: int):
    """`size` independent estimates of <O> at `shots` shots per model, with the
    standard error each estimate reports from its own cell counts."""
    est = np.zeros(size)
    var = np.zeros(size)
    for model in models:
        counts = rng.multinomial(shots, model.probs, size=size)
        part = counts @ model.values / shots
        second = counts @ model.values**2 / shots
        est += part
        var += np.clip(second - part**2, 0.0, None) / shots
    return est, np.sqrt(var)


def mse_experiment(state: DensityMatrix, observable: Observable, method: str,
                   shots_grid=DEFAULT_SHOT_GRID, trials: int = DEFAULT_TRIALS,
                   seed: int = 0) -> list[MseResult]:
    """MSE of the shadow estimate of <O> vs the exact trace, per shot budget.

    The budget M is per measurement set: each PSE's set receives M shots, as
    each unitary set is measured as its own experiment. Trials run in fixed
    blocks of TRIAL_BLOCK; block b at budget index i draws from the stream keyed
    (seed, i, b), one multinomial of the whole block per model.
    """
    if trials < 1:
        raise BenchError("trials must be >= 1")
    models = measurement_models(state, observable, method)
    true_value = expectation(observable, state.mat)
    results = []
    for b_idx, shots in enumerate(shots_grid):
        shots = int(shots)
        if shots < 1:
            raise BenchError("every shot budget must be >= 1")
        estimates = np.concatenate([
            draw_estimates(models, shots, spawn_rng(seed, b_idx, block),
                           min(TRIAL_BLOCK, trials - start))[0]
            for block, start in enumerate(range(0, trials, TRIAL_BLOCK))])
        errors = (estimates - true_value) ** 2
        mse = float(errors.mean())
        stderr = float(errors.std(ddof=1) / sqrt(trials)) if trials > 1 else 0.0
        results.append(MseResult(method=method, shots=shots, trials=trials,
                                 mse=mse, stderr=stderr, true_value=true_value))
    return results


def fit_scaling(results) -> tuple[float, float, float]:
    """Least-squares fit of log(mse) on log(shots): (slope, intercept, r^2)."""
    pts = [(r.shots, r.mse) for r in results]
    if len({s for s, _ in pts}) < 2:
        raise BenchError("scaling fit needs at least two distinct shot budgets")
    if any(m <= 0 for _, m in pts):
        raise BenchError("scaling fit needs strictly positive MSE values")
    x = np.log([s for s, _ in pts])
    y = np.log([m for _, m in pts])
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(((y - yhat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def mse_rows(state_name: str, obs_name: str, n_qubits: int, results,
             seed: int) -> list[dict]:
    """One CSV row dict per budget of one method's results, with its fitted slope."""
    try:
        slope_tag = f"slope={fit_scaling(results)[0]!r}"
    except BenchError:
        slope_tag = "slope=nan"
    return [{"method": r.method, "n_qubits": n_qubits, "state": state_name,
             "observable": obs_name, "shots": r.shots, "trials": r.trials,
             "mse": repr(r.mse), "stderr": repr(r.stderr),
             "true_value": repr(r.true_value), "slope_tag": slope_tag, "seed": seed}
            for r in results]


def bench_rows(state_name: str, state: DensityMatrix, obs_name: str,
               observable: Observable, methods, shots_grid=DEFAULT_SHOT_GRID,
               trials: int = DEFAULT_TRIALS, seed: int = 0):
    """One CSV row dict per (method, shots), with the per-method fitted slope."""
    rows = []
    for method in methods:
        results = mse_experiment(state, observable, method, shots_grid, trials, seed)
        rows += mse_rows(state_name, obs_name, observable.n, results, seed)
    return rows


def write_csv(path, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
