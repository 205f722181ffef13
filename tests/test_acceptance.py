"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; each test also enforces its runtime budget.
"""

import time

import numpy as np

from pqst.bench import load_fixture, mse_experiment, bench_rows, fit_scaling, \
    write_csv
from pqst.ensembles import enumerate_clifford_group, zeta_m_active, zeta_union, \
    zeta_x
from pqst.golden import (check_baseline_channels, check_closed_forms,
                         check_generalized_protocol, check_negative_control,
                         random_density_matrix)
from pqst.qcore import fidelity, spawn_rng
from pqst.shadow import combine_pses, ensemble_pse, sampled_pse


def _report(num: int, desc: str, ok: bool):
    print(f"\n[ACCEPTANCE {num}] {desc}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _all_pass(checks):
    return all(ok for _, ok, _ in checks)


def test_criterion_1_golden_closed_forms():
    t0 = time.perf_counter()
    checks = check_closed_forms(seed=20240)
    elapsed = time.perf_counter() - t0
    _report(1, "golden closed forms (100 random states, <= 1e-10, < 5 s)",
            _all_pass(checks) and elapsed < 5)


def test_criterion_2_generalized_protocol():
    t0 = time.perf_counter()
    checks = check_generalized_protocol(seed=20241)
    elapsed = time.perf_counter() - t0
    sizes_ok = (zeta_m_active(3, 2).size == 13
                and zeta_m_active(3, 1).size == 7
                and zeta_x(3).size == 9)
    _report(2, "generalized protocol: set sizes, p values, targeted recovery (< 30 s)",
            _all_pass(checks) and sizes_ok and elapsed < 30)


def test_criterion_3_full_reconstruction():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(77)
    sets2 = [zeta_x(2), zeta_union(2, [{1}, {2}])]
    table2 = [load_fixture(f"table2-{k}").state for k in ("i", "ii", "iii", "iv", "v")]
    for rho in table2 + [random_density_matrix(2, rng) for _ in range(5)]:
        est = combine_pses([ensemble_pse(rho, e) for e in sets2])
        ok &= fidelity(rho, est) >= 1 - 1e-10
    sets3 = [zeta_x(3), zeta_m_active(3, 1), zeta_m_active(3, 2)]
    for rho in [random_density_matrix(3, rng) for _ in range(3)]:
        est = combine_pses([ensemble_pse(rho, e) for e in sets3])
        ok &= fidelity(rho, est) >= 1 - 1e-10
    for i, rho in enumerate(table2):
        pses = [sampled_pse(rho, e, 100_000, spawn_rng(11, i, j))
                for j, e in enumerate(sets2)]
        ok &= fidelity(rho, combine_pses(pses)) >= 0.97
    elapsed = time.perf_counter() - t0
    _report(3, "full reconstruction: exact >= 1-1e-10, sampled 1e5 shots/set "
               ">= 0.97 (< 2 min)", ok and elapsed < 120)


def test_criterion_4_baseline_channels():
    t0 = time.perf_counter()
    checks = check_baseline_channels(seed=20242)
    closure_ok = len(enumerate_clifford_group(2)) == 11520
    elapsed = time.perf_counter() - t0
    _report(4, "baseline channels: 11520-element closure, MUB, per-site Pauli "
               "inverse (< 1 min)", _all_pass(checks) and closure_ok and elapsed < 60)


def _purity(name):
    rho = load_fixture(name).state.mat
    return np.trace(rho @ rho).real


def _entanglement_entropy(name):
    """Base-2 entropy of qubit 1's reduced state of a pure 2-qubit fixture."""
    reduced = np.einsum("ajbj->ab", load_fixture(name).state.mat.reshape(2, 2, 2, 2))
    w = np.linalg.eigvalsh(reduced)
    w = w[w > 1e-12]
    return -(w * np.log2(w)).sum()


def test_criterion_5_fixtures():
    t0 = time.perf_counter()
    ok = True
    for name, norm in (("O2X", 18.630), ("O2NX", 28.553), ("O2", 34.061),
                       ("O3X", 34.819), ("O3NX", 4.472), ("O3", 25.038)):
        ok &= abs(np.linalg.norm(load_fixture(name).observable.matrix, 2) - norm) <= 0.001
    ok &= abs(_purity("table2-iii") - 0.56) <= 0.005
    ok &= abs(_purity("table2-iv") - 0.765) <= 0.005
    ok &= abs(_entanglement_entropy("table2-v") - 0.28) <= 0.01
    for k in ("i", "ii", "v"):
        ok &= abs(_purity(f"table2-{k}") - 1) <= 1e-8
    elapsed = time.perf_counter() - t0
    _report(5, "fixtures: six spectral norms +-0.001, prepared-state metrics (< 5 s)",
            ok and elapsed < 5)


def test_criterion_6_mse_scaling():
    t0 = time.perf_counter()
    ok = True
    at_1e3 = {}
    for sname, oname in (("rho2", "O2X"), ("rho2X", "O2")):
        state = load_fixture(sname).state
        obs = load_fixture(oname).observable
        for method in ("pqst-auto", "pauli", "clifford", "mub"):
            results = mse_experiment(state, obs, method, trials=1000, seed=11)
            slope, _, _ = fit_scaling(results)
            ok &= abs(slope + 1.0) <= 0.15
            at_1e3[(sname, method)] = results[1]
    for sname in ("rho2", "rho2X"):
        pq, pa = at_1e3[(sname, "pqst-auto")], at_1e3[(sname, "pauli")]
        margin = 3 * (pq.stderr**2 + pa.stderr**2) ** 0.5
        ok &= pa.mse - pq.mse > margin
    elapsed = time.perf_counter() - t0
    _report(6, "MSE scaling: slopes -1 +- 0.15, PQST < Pauli at M=1e3 beyond "
               "3 sigma (< 10 min)", ok and elapsed < 600)


def test_criterion_7_csv_determinism(tmp_path):
    state = load_fixture("rho2").state
    obs = load_fixture("O2X").observable
    paths = [tmp_path / f"{k}.csv" for k in "abc"]
    for path in paths:
        rows = bench_rows("rho2", state, "O2X", obs, ["pqst-auto", "pauli"],
                          shots_grid=(100, 1000), trials=50, seed=7)
        write_csv(path, rows)
    blobs = [p.read_bytes() for p in paths]
    _report(7, "determinism: identical seed gives byte-identical CSV across "
               "runs", blobs[0] == blobs[1] == blobs[2])


def test_criterion_8_negative_control():
    checks = check_negative_control(seed=20243)
    _report(8, "negative control: per-site inverse with zeta_X misses trusted "
               "entries by > 0.01", _all_pass(checks))
