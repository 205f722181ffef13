"""Workload definitions shared by the runner, the worker and the launcher.

Inputs are generated here from the benchmark seed; the pqst code under test
only ever receives the generated inputs. Importing this module imports neither
pqst nor numpy, so the CLI launcher's import timing covers both: `load_pqst`
imports pqst from the checkout's own `src/` tree.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# mse_panels: the six (state, observable) panels of scripts/run_mse_scaling.py.
PANELS = (("a", "rho2", "O2X"), ("b", "rho2", "O2NX"), ("c", "rho2X", "O2"),
          ("d", "rho3", "O3X"), ("e", "rho3", "O3NX"), ("f", "rho3X", "O3"))
METHODS = ("pqst-auto", "pauli", "clifford", "mub")
SHOT_GRID = (100, 1_000, 10_000, 100_000)
TRIALS = 1000

# reconstruct_4q: one sampled full reconstruction of a random 4-qubit state.
RECON_QUBITS = 4
RECON_SETS = "zeta-X,zeta-m:1,zeta-m:2,zeta-m:3"
RECON_SHOTS = 10_000
RECON_STATES = 8          # one pass reconstructs each state once

# cli_cold: fixed argument lists; seeds and output paths are filled per cycle.
CLI_STATE, CLI_OBS = "rho3", "O3X"
ROTATED_OBS = "1 ZXY"
CLI_SHOTS = "10000"
BENCH_METHODS, BENCH_GRID = "pqst-auto,pauli", "100,1000,10000"
BENCH_ROWS = 6

# Single-threaded BLAS in every process the benchmark starts.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class CheckoutError(RuntimeError):
    """The pqst sources are missing from the checkout the benchmark runs in."""


def check_checkout() -> None:
    if not (SRC / "pqst" / "__init__.py").is_file():
        raise CheckoutError(f"no pqst package under {SRC}")


def load_pqst():
    """Import pqst from this checkout's src/ tree, never from site-packages."""
    check_checkout()
    sys.path.insert(0, str(SRC))
    import pqst
    if Path(pqst.__file__).resolve().parent != SRC / "pqst":
        raise CheckoutError(f"pqst imported from {pqst.__file__}, not {SRC}")
    return pqst


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def derive_seed(*key: int) -> int:
    """A 31-bit seed derived from the benchmark seed and a position key."""
    import numpy as np
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0] >> 1)


def random_density_matrices(seed: int, count: int, n: int) -> list:
    """Full-rank random states rho = A A^dag / Tr(A A^dag), A complex Ginibre."""
    import numpy as np
    rng = np.random.default_rng(derive_seed(seed, 4))
    d = 2**n
    mats = []
    for _ in range(count):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = a @ a.conj().T
        m = (m + m.conj().T) / 2
        mats.append(m / np.trace(m).real)
    return mats


def cli_commands(seed: int, cycle: int, out_dir: Path) -> list:
    """The cli_cold cycle: (metric stem, pqst arguments, bench CSV path or None)."""
    s = [str(derive_seed(seed, cycle, j)) for j in range(5)]
    csv_path = out_dir / f"bench-{cycle}.csv"
    estimate = ["estimate", "--state", CLI_STATE, "--obs", CLI_OBS, "--shots", CLI_SHOTS]
    return [
        ("estimate_clifford", estimate + ["--method", "clifford", "--seed", s[0]], None),
        ("estimate_mub", estimate + ["--method", "mub", "--seed", s[1]], None),
        ("estimate_pqst", estimate + ["--method", "pqst", "--seed", s[2]], None),
        ("estimate_rotated_exact", ["estimate", "--state", CLI_STATE, "--obs", ROTATED_OBS,
                                    "--method", "pqst-rotated", "--exact"], None),
        ("reconstruct_sampled", ["reconstruct", "--state", "rho3", "--sets",
                                 "zeta-X,zeta-m:1,zeta-m:2", "--shots", CLI_SHOTS,
                                 "--seed", s[3]], None),
        ("reconstruct_exact", ["reconstruct", "--state", "table2-v", "--sets",
                               "zeta-X,zeta-A:1|zeta-A:2", "--exact"], None),
        ("bench", ["bench", "--state", "rho2", "--obs", "O2X", "--methods", BENCH_METHODS,
                   "--shots-grid", BENCH_GRID, "--trials", "200", "--seed", s[4],
                   "--output", str(csv_path)], csv_path),
        ("validate", ["validate"], None),
    ]


# Exact values the sampled and rotated estimates are checked against, computed
# once per run by the direct exact path, outside every timed region.
CLI_REFERENCES = {
    "estimate": ["estimate", "--state", CLI_STATE, "--obs", CLI_OBS, "--method", "pqst",
                 "--exact"],
    "estimate_rotated_exact": ["estimate", "--state", CLI_STATE, "--obs", ROTATED_OBS,
                               "--method", "pqst", "--exact"],
}
