#!/usr/bin/env python3
"""The pqst benchmark: one workload per run, timed from outside the package.

    python3 perfbench/run.py --workload mse_panels|reconstruct_4q|cli_cold
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every op's output is gated (see gates.py); a
gate that fails counts the op as failed. The second-to-last line of standard
output is a JSON report with the statistics, machine facts and per-pass
detail; the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from traced passes, which alternate with untraced passes so
that the tracing overhead is measured in the same run. Every time is scaled to
a reference host speed by the calibration kernel runs around it (hostspeed.py);
the report line keeps the unscaled values too. README.md in this
directory explains the workloads and the layer-to-end-to-end map.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from statistics import median

import gates
import hostspeed
import tracer as tracing
import workloads as wl

WORKLOADS = ("mse_panels", "reconstruct_4q", "cli_cold")
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10          # ops beyond the reported tail percentile
TAIL_BLOCK = {"mse_panels": 72, "reconstruct_4q": 48, "cli_cold": 32}
SETUP_REPEATS = 5         # cold `pqst --help` starts per cli_cold run
RECON_SESSIONS = 3
MSE_OPS_PER_PASS = len(wl.PANELS) * len(wl.METHODS)


# ---------------------------------------------------------------------------
# Child processes.

def _worker(workload, seed, session, traced, out, budget_s=0.0):
    """Run one worker session; set-up is timed from spawn to its READY line, less
    the kernel run the worker makes just before that line."""
    cmd = [sys.executable, str(wl.HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--session", str(session), "--trace", str(int(traced)),
           "--budget-s", f"{budget_s:.3f}", "--out", str(out)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=wl.child_env(),
                          cwd=wl.ROOT) as proc:
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {workload} session {session} exited with {code}")
    session_doc = json.loads(rest.strip().splitlines()[-1])
    session_doc["setup_s"] = setup_s - session_doc["setup_kernel_s"]
    return session_doc


def _cli(args, out, tag, traced=False):
    """Run the pqst CLI once through the launcher; wall time from spawn to exit,
    less the time the launcher spent on calibration."""
    meta_path, spans_path = out / f"{tag}.meta.json", out / f"{tag}.spans.json"
    cmd = [sys.executable, str(wl.HERE / "launch.py"), "--meta", str(meta_path)]
    if traced:
        cmd += ["--trace", str(spans_path)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--"] + list(args), capture_output=True, text=True,
                          env=wl.child_env(), cwd=wl.ROOT, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    wall -= meta.get("calibration_s", 0.0)
    if traced and spans_path.exists():
        doc = json.loads(spans_path.read_text())
        meta["segment"] = (doc["spans"], doc["counters"])
    return wall, proc, meta


# ---------------------------------------------------------------------------
# Workloads. Each returns setups with their speed factors, passes, peak RSS,
# leftover wrappers and stats. Each pass and op carries its `speed_factor`.

def _predicted_over(start, seconds, durations):
    return time.perf_counter() - start + max(durations, default=0.0) > seconds


def run_mse_panels(seed, seconds, trace, out):
    """One cold worker per pass, so ensemble caches start empty each pass."""
    kinds = (False, True) if trace else (False,) * (TAIL_BLOCK["mse_panels"] // MSE_OPS_PER_PASS)
    start, durations, sessions = time.perf_counter(), [], []
    while len(sessions) < len(kinds) or not _predicted_over(start, seconds, durations):
        t0 = time.perf_counter()
        sessions.append(_worker("mse_panels", seed, len(sessions),
                                kinds[len(sessions) % len(kinds)], out))
        durations.append(time.perf_counter() - t0)
    return _from_sessions(sessions)


def run_reconstruct_4q(seed, seconds, trace, out):
    """A few warm workers, each reconstructing the seed's states pass after pass."""
    n = 2 if trace else RECON_SESSIONS
    start, sessions, setup_guess = time.perf_counter(), [], 1.0
    for i in range(n):
        budget = (seconds - (time.perf_counter() - start)) / (n - i) - setup_guess
        sessions.append(_worker("reconstruct_4q", seed, i, trace and i % 2 == 1, out,
                                budget_s=max(budget, 0.0)))
        setup_guess = sessions[-1]["setup_s"]
    return _from_sessions(sessions)


def _from_sessions(sessions):
    passes = [p for s in sessions for p in s["passes"]]
    return {
        "setups": [s["setup_s"] for s in sessions],
        "setup_factors": [hostspeed.factor([s["setup_kernel_s"]]) for s in sessions],
        "passes": passes,
        "rss_mb": max(s["rss_mb"] for s in sessions),
        "wrappers_left": sum(s["wrappers_left"] for s in sessions),
        "stats": [p["stats"] for p in passes if "stats" in p],
    }


def run_cli_cold(seed, seconds, trace, out):
    """One fresh `pqst` process per op, cycling the fixed command list."""
    setups, setup_factors = [], []
    for i in range(SETUP_REPEATS):
        wall, proc, meta = _cli(["--help"], out, f"setup{i}")
        if proc.returncode != 0:
            raise RuntimeError(f"pqst --help exited with {proc.returncode}: {proc.stderr}")
        setups.append(wall)
        setup_factors.append(hostspeed.factor(meta["kernel_s"]))
    refs = {}
    for key, args in wl.CLI_REFERENCES.items():
        _, proc, _ = _cli(args, out, f"reference-{key}")
        refs[key] = gates.number("estimate", proc.stdout)

    min_cycles = 2 if trace else TAIL_BLOCK["cli_cold"] // len(tracing.CLI_COMMANDS)
    start, durations, passes, rss, wrappers = time.perf_counter(), [], [], [], 0
    stats = {"golden": [], "fidelity": [], "fidelity_over_one": 0, "estimates": []}
    while len(passes) < min_cycles or not _predicted_over(start, seconds, durations):
        cycle, traced = len(passes), bool(trace and len(passes) % 2 == 1)
        ops, children, kernels, calibration_s = [], [], [], 0.0
        t0 = time.perf_counter()
        for stem, args, csv_path in wl.cli_commands(seed, cycle, out):
            wall, proc, meta = _cli(args, out, f"c{cycle}-{stem}", traced)
            ref = refs.get(stem, refs.get("estimate"))
            reasons = gates.cli_output(stem, proc.returncode, proc.stdout, ref, csv_path,
                                       wl.BENCH_ROWS)
            # a child that died before writing its kernel times keeps its measured time
            mine = meta.get("kernel_s") or [hostspeed.REFERENCE_S]
            kernels += mine
            calibration_s += meta.get("calibration_s", 0.0)
            ops.append({"name": stem, "ms": wall * 1e3, "reasons": reasons,
                        "speed_factor": hostspeed.factor(mine)})
            if traced:
                children.append(meta)
                meta["command"] = stem
            else:
                rss.append(meta.get("rss_mb", 0.0))
            wrappers += meta.get("wrappers_left", 0)
            _cli_stats(stats, stem, proc.stdout, ref)
        passes.append({"traced": traced, "wall_s": time.perf_counter() - t0 - calibration_s,
                       "ops": ops, "speed_factor": hostspeed.factor(kernels)})
        if traced:
            passes[-1]["layers"] = tracing.layer_metrics(
                [c.pop("segment") for c in children if "segment" in c])
            passes[-1]["children"] = children
        durations.append(time.perf_counter() - t0)
    stats["references"] = refs
    return {"setups": setups, "setup_factors": setup_factors, "passes": passes,
            "rss_mb": max(rss, default=0.0),
            "wrappers_left": wrappers, "stats": stats}


def _cli_stats(stats, stem, stdout, ref):
    if stem == "validate":
        stats["golden"].append(gates.golden_count(stdout))
    elif stem.startswith("reconstruct"):
        f = gates.fidelity(stdout)
        stats["fidelity"].append({"command": stem, "fidelity": f})
        stats["fidelity_over_one"] += int(f is not None and f > 1.0)
    elif stem.startswith("estimate"):
        stats["estimates"].append({"command": stem, "estimate": gates.number("estimate", stdout),
                                   "stderr": gates.number("stderr", stdout), "exact": ref})


RUNNERS = {"mse_panels": run_mse_panels, "reconstruct_4q": run_reconstruct_4q,
           "cli_cold": run_cli_cold}


def statistics(workload, run) -> dict:
    """The run's statistics under the same keys for every workload (None where a
    workload does not produce one), followed by workload-specific detail."""
    stats = run["stats"]
    out = dict.fromkeys(("slopes", "mse_at_1e3", "pqst_below_pauli", "golden_count"))
    out["fidelity_over_one"] = 0
    if workload == "mse_panels":
        out["slopes"] = [{p: v["slopes"] for p, v in s["panels"].items()} for s in stats]
        out["mse_at_1e3"] = [{p: v["mse_at_1e3"] for p, v in s["panels"].items()}
                             for s in stats]
        out["pqst_below_pauli"] = all(v["pqst_below_pauli"] for s in stats
                                      for v in s["panels"].values())
        out["pass_seeds"] = [s["seed"] for s in stats]
    elif workload == "reconstruct_4q":
        fids = [o["fidelity"] for p in run["passes"] for o in p["ops"]
                if o["fidelity"] is not None]
        out["fidelity_over_one"] = sum(f > 1.0 for f in fids)
        out["fidelity_range"] = [min(fids, default=None), max(fids, default=None)]
    else:
        out["golden_count"] = stats["golden"]
        out["fidelity_over_one"] = stats["fidelity_over_one"]
        out.update(fidelities=stats["fidelity"], estimates=stats["estimates"],
                   references=stats["references"])
    return out


# ---------------------------------------------------------------------------
# Metrics.

def tail(values, block):
    """Highest percentile with TAIL_BEYOND ops beyond it, per block of `block` ops
    in run order; the median over complete blocks. Returns (ms, percentile)."""
    tails = []
    for b in range(0, len(values) - block + 1, block):
        chunk = sorted(values[b:b + block])
        tails.append(chunk[block - TAIL_BEYOND - 1])
    return median(tails), 100.0 * (block - TAIL_BEYOND) / block


def end_to_end(workload, run) -> tuple[dict, dict]:
    plain = [p for p in run["passes"] if not p["traced"]]
    times = [o["ms"] for p in plain for o in p["ops"]]
    tail_ms, pct = tail(times, TAIL_BLOCK[workload])
    metrics = {
        "setup_s": (median(run["setups"]), "s"),
        "wall_s": (median(p["wall_s"] for p in plain), "s"),
        "op_p50_ms": (median(times), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
    }
    detail = {"tail_percentile": pct, "tail_block_ops": TAIL_BLOCK[workload],
              "tail_blocks": len(times) // TAIL_BLOCK[workload], "timed_ops": len(times),
              "passes": len(plain)}
    return metrics, detail


def per_layer(run) -> tuple[dict, dict]:
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    layers = tracing.merge_passes([p["layers"] for p in traced])
    cli = tracing.cli_metrics([c for p in traced for c in p.get("children", [])])
    overhead = median(p["wall_s"] for p in traced) - median(p["wall_s"] for p in plain)
    metrics = {k: (v, _layer_unit(k)) for k, v in {**layers, **cli}.items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    detail = {"traced_passes": len(traced), "untraced_passes": len(plain),
              "overhead_s": overhead,
              "overhead_share": overhead / median(p["wall_s"] for p in plain)}
    return metrics, detail


def at_reference_speed(run) -> dict:
    """A copy of the run with every time at the reference host speed: each set-up
    and op by its own speed factor, a pass and its layers by the pass's."""
    passes = []
    for p in run["passes"]:
        f = p["speed_factor"]
        q = dict(p, wall_s=p["wall_s"] * f,
                 ops=[dict(o, ms=o["ms"] * o["speed_factor"]) for o in p["ops"]])
        if "layers" in p:
            q["layers"] = {k: v * f if _layer_unit(k) in ("s", "ms") else v
                           for k, v in p["layers"].items()}
        if "children" in p:
            q["children"] = [dict(c, import_ms=c["import_ms"] * f, main_ms=c["main_ms"] * f)
                             for c in p["children"]]
        passes.append(q)
    return dict(run, passes=passes,
                setups=[s * f for s, f in zip(run["setups"], run["setup_factors"])])


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def machine_facts(seed) -> dict:
    commit = None
    if (wl.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=wl.ROOT, env=dict(os.environ, GIT_DIR=str(wl.ROOT / ".git")))
        commit = proc.stdout.strip() or None
    import numpy
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "click": importlib.metadata.version("click"),
        "blas_threads": wl.THREAD_ENV, "git_commit": commit, "seed": seed,
        "platform": platform.platform(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        wl.check_checkout()
    except wl.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for tree in (wl.SRC, wl.HERE):  # cold starts then read bytecode, whatever the environment
        compileall.compile_dir(str(tree), quiet=1)

    out = wl.HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), out)

    ops = [o for p in run["passes"] for o in p["ops"]]
    failures = [r for o in ops for r in o["reasons"]]
    failed = sum(1 for o in ops if o["reasons"])
    scaled = at_reference_speed(run)
    if args.trace:
        (raw, _), (metrics, detail) = per_layer(run), per_layer(scaled)
    else:
        (raw, _), (metrics, detail) = (end_to_end(args.workload, run),
                                       end_to_end(args.workload, scaled))
    factors = [p["speed_factor"] for p in run["passes"]]
    detail.update(speed_factor=[min(factors), median(factors), max(factors)],
                  setup_speed_factors=run["setup_factors"],
                  unscaled={k: v for k, (v, _) in raw.items()})
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(args.seed), "detail": detail,
        "ops_failed": failed / len(ops), "failures": failures[:20],
        "wrappers_left": run["wrappers_left"],
        "statistics": statistics(args.workload, run),
        "setups_s": run["setups"],
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "speed_factor": p["speed_factor"],
                    "ops_ms": [round(o["ms"], 3) for o in p["ops"]]} for p in run["passes"]],
    }
    (out / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0 and run["wrappers_left"] == 0,
        "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
