#!/usr/bin/env python3
"""Reconstruct the five experimentally motivated 2-qubit states by combining
the zeta_X and zeta_1 partial shadow estimators through reconstruct_state, in
exact diagonal-tomography mode and in sampled mode, and print the resulting
fidelities. A fidelity above 1 is marked with '*'.

Usage: reconstruct_states.py [--shots 100000] [--seed 11]
"""

import argparse

from pqst.bench import load_fixture
from pqst.ensembles import zeta_union, zeta_x
from pqst.shadow import FIDELITY_SLACK, MAX_SHOTS, reconstruct_state

STATES = ("table2-i", "table2-ii", "table2-iii", "table2-iv", "table2-v")
SETS = (zeta_x(2), zeta_union(2, [{1}, {2}]))


def _fidelity(report, width):
    mark = "*" if report["fidelity_above_one"] else ""
    return f"{report['fidelity_vs_reference']:{width}.10f}{mark}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shots", type=int, default=100_000,
                    help="shots per measurement set in sampled mode")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    if args.shots < 1:
        ap.error(f"--shots must be >= 1, got {args.shots}")
    if args.shots > MAX_SHOTS:
        ap.error(f"--shots must be <= 2^63 - 1, got {args.shots}")
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")

    print(f"{'state':12s} {'exact fidelity':>16s} {'sampled fidelity':>18s}")
    flagged = False
    for name in STATES:
        state = load_fixture(name).state
        exact = reconstruct_state(state, SETS)
        sampled = reconstruct_state(state, SETS, args.shots, args.seed)
        flagged |= exact["fidelity_above_one"] or sampled["fidelity_above_one"]
        print(f"{name:12s} {_fidelity(exact, 16)} {_fidelity(sampled, 18)}")
    if flagged:
        print(f"* above 1 by more than {FIDELITY_SLACK:g}: the estimate is not a physical state")


if __name__ == "__main__":
    main()
