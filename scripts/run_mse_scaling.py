#!/usr/bin/env python3
"""Reproduce the six MSE-scaling panels and write one CSV per panel.

Each panel pairs a reference state with an observable class (X-type, non-X,
or arbitrary on an X-state) and benchmarks pqst-auto against Pauli, Clifford,
and MUB shadows over the default shot grid.

Usage: run_mse_scaling.py [--trials 1000] [--seed 7] [--outdir results]
"""

import argparse
from pathlib import Path

from pqst.bench import (DEFAULT_SHOT_GRID, METHODS, fit_scaling, load_fixture,
                        mse_experiment, mse_rows, write_csv)

PANELS = [
    ("a", "rho2", "O2X"),
    ("b", "rho2", "O2NX"),
    ("c", "rho2X", "O2"),
    ("d", "rho3", "O3X"),
    ("e", "rho3", "O3NX"),
    ("f", "rho3X", "O3"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    args = ap.parse_args()
    if args.trials < 1:
        ap.error(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")

    args.outdir.mkdir(parents=True, exist_ok=True)
    for panel, state_name, obs_name in PANELS:
        state = load_fixture(state_name).state
        obs = load_fixture(obs_name).observable
        rows, fits = [], []
        for method in METHODS:
            results = mse_experiment(state, obs, method, DEFAULT_SHOT_GRID,
                                     args.trials, args.seed)
            rows += mse_rows(state_name, obs_name, obs.n, results, args.seed)
            fits.append((method, fit_scaling(results), results[1].mse))
        path = args.outdir / f"mse_panel_{panel}_{state_name}_{obs_name}.csv"
        write_csv(path, rows)
        print(f"panel ({panel}) {state_name} / {obs_name} -> {path}")
        for method, (slope, _, r2), mse_1e3 in fits:
            print(f"  {method:10s} slope {slope:+.3f} (r^2 {r2:.4f}), "
                  f"MSE@1e3 {mse_1e3:.3e}")


if __name__ == "__main__":
    main()
