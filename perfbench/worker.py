"""One fresh-interpreter session of an in-process workload.

    python3 perfbench/worker.py --workload mse_panels|reconstruct_4q --seed N
        --session K --budget-s B --trace 0|1 --out DIR

Sets up, runs the host-speed kernel (hostspeed.py) once, prints READY (the
runner times set-up up to that line, less the kernel), runs passes of timed
ops with the kernel run around each, gates every op's output outside the
timed region, writes the spans of traced passes to DIR, and prints one JSON
line describing the session.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import gates
import hostspeed
import tracer as tracing
import workloads as wl

MIN_PASSES = 2            # reconstruct_4q passes per session, whatever the budget
HOST_S = []               # kernel times of this session, the first at the end of set-up


def _calibrate():
    """Run the host-speed kernel between two timed intervals (see hostspeed.py)."""
    HOST_S.append(hostspeed.kernel_s(lapack=True))


def _ready():
    _calibrate()
    print("READY", flush=True)


class _PassTimer:
    """Runs passes, tracing them when asked, with a fresh Tracer per pass."""

    def __init__(self, trace: bool, out, session: int):
        self.trace, self.out, self.session = trace, out, session
        self.tracers = []

    def run(self, body):
        tr = tracing.Tracer() if self.trace else None
        if tr:
            tr.install()
        first, t0 = len(HOST_S), time.perf_counter()
        try:
            ops = body()
        finally:  # the calibrations between ops are not the pass's work
            wall = time.perf_counter() - t0 - sum(HOST_S[first:])
            if tr:
                tr.uninstall()
        _calibrate()
        samples = HOST_S[first:]
        if len(samples) != len(ops) + 1:
            raise RuntimeError(f"{len(ops)} ops but {len(samples)} calibrations")
        for j, op in enumerate(ops):
            op["speed_factor"] = hostspeed.factor(samples[j:j + 2])
        result = {"traced": self.trace, "wall_s": wall, "ops": ops,
                  "speed_factor": hostspeed.factor(samples)}
        if tr:
            self.tracers.append(tr)
            result["layers"] = tracing.layer_metrics([(tr.spans, tr.counters)])
        return result

    def dump(self):
        for i, tr in enumerate(self.tracers):
            tr.dump(self.out / f"session{self.session}-pass{i}.spans.json")


def mse_session(seed, session, passer):
    wl.load_pqst()
    from pqst import bench  # called through module attributes, so tracing sees the calls

    inputs = [(p, bench.load_fixture(s).state, bench.load_fixture(o).observable)
              for p, s, o in wl.PANELS]
    pass_seed = wl.derive_seed(seed, session)
    _ready()

    def body():
        ops = []
        for panel, state, obs in inputs:
            for method in wl.METHODS:
                _calibrate()
                t0 = time.perf_counter()
                try:
                    res = bench.mse_experiment(state, obs, method, wl.SHOT_GRID, wl.TRIALS,
                                         pass_seed)
                except Exception as exc:  # an op that raises counts as failed
                    res, error = [], [f"{panel}/{method}: {exc!r}"]
                else:
                    error = []
                ms = (time.perf_counter() - t0) * 1e3
                ops.append({"name": f"{panel}/{method}", "ms": ms, "reasons": error,
                            "shots": [r.shots for r in res], "mse": [r.mse for r in res]})
        return ops

    result = passer.run(body)
    stats = {}
    for panel, _, _ in inputs:
        mine = {o["name"].split("/")[1]: o for o in result["ops"]
                if o["name"].startswith(panel + "/") and not o["reasons"]}
        results = {m: (o["shots"], o["mse"]) for m, o in mine.items()}
        reasons = gates.mse_panel(results)
        for method, op in mine.items():
            op["reasons"] = reasons[method]
        stats[panel] = {
            "slopes": {m: gates.loglog_slope(*r) for m, r in results.items()
                       if all(v > 0 for v in r[1])},
            "mse_at_1e3": {m: gates.mse_at(results, m) for m in results},
            "pqst_below_pauli": gates.pqst_below_pauli(results),
        }
    result["stats"] = {"seed": pass_seed, "panels": stats}
    return [result]


def reconstruct_session(seed, session, passer, budget_s, min_passes=MIN_PASSES):
    wl.load_pqst()
    from pqst import ensembles, qcore, shadow  # called through module attributes

    mats = wl.random_density_matrices(seed, wl.RECON_STATES, wl.RECON_QUBITS)
    sets = ensembles.parse_ensemble_list(wl.RECON_SETS, wl.RECON_QUBITS)
    owner = gates.owner_index(wl.RECON_QUBITS)
    exact_reasons = [
        gates.exact_reconstruction(shadow.combine_pses(
            [shadow.ensemble_pse(qcore.DensityMatrix(m), e) for e in sets]), m)
        for m in mats]

    def op(k, op_seed):
        rho = qcore.DensityMatrix(mats[k])
        pses = [shadow.sampled_pse(rho, e, wl.RECON_SHOTS, qcore.spawn_rng(op_seed, j))
                for j, e in enumerate(sets)]
        est = shadow.combine_pses(pses)
        return est, pses, shadow.reconstruction_report(est, pses, wl.RECON_SHOTS, op_seed,
                                                       reference=rho)

    op(0, wl.derive_seed(seed, session, 1 << 20))  # warm-up, untimed
    _ready()

    passes, start = [], time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        longest = max((p["wall_s"] for p in passes), default=0.0)
        if len(passes) >= min_passes and elapsed + longest > budget_s:
            break
        index = len(passes)

        def body():
            ops = []
            for k in range(len(mats)):
                op_seed = wl.derive_seed(seed, session, index, k)
                _calibrate()
                t0 = time.perf_counter()
                try:
                    est, pses, report = op(k, op_seed)
                except Exception as exc:  # an op that raises counts as failed
                    ms = (time.perf_counter() - t0) * 1e3
                    ops.append({"name": f"state{k}", "ms": ms, "fidelity": None,
                                "reasons": [f"state{k}: {exc!r}"]})
                    continue
                ms = (time.perf_counter() - t0) * 1e3
                stderr = np.choose(owner, [p.stderr for p in pses])
                ops.append({
                    "name": f"state{k}", "ms": ms,
                    "reasons": exact_reasons[k]
                    + gates.sampled_reconstruction(est, mats[k], stderr),
                    "fidelity": report["fidelity_vs_reference"],
                })
            return ops

        passes.append(passer.run(body))
    return passes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=("mse_panels", "reconstruct_4q"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--session", type=int, required=True)
    ap.add_argument("--budget-s", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    passer = _PassTimer(bool(args.trace), Path(args.out), args.session)
    if args.workload == "mse_panels":
        passes = mse_session(args.seed, args.session, passer)
    else:
        passes = reconstruct_session(args.seed, args.session, passer, args.budget_s)
    passer.dump()
    print(json.dumps({
        "passes": passes,
        "setup_kernel_s": HOST_S[0],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wrappers_left": tracing.installed_wrappers(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
