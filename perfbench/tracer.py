"""Span tracing of the pqst package from outside, and per-layer aggregation.

A `Tracer` replaces every public function of the eight pqst modules, and every
function one pqst module imports from another with `from ... import`, by a
wrapper that records a span (name, start, end, parent). The wrapper is bound
at each name that refers to the function, so calls through any module see it.
Spans stay in memory until `dump` writes them once the traced process ends.

`layer_metrics` turns recorded spans and probe counters into the per-layer
metrics named in BENCHMARK.json. This module never imports pqst itself.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types
from statistics import median

MODULES = ("qcore", "operators", "ensembles", "channels", "shadow", "bench",
           "golden", "cli")
MARK = "__perfbench_span__"

# Functions whose return value (or arguments) feed a counter. Each probe runs
# after the span's end time is taken, so its cost lands in the caller's self time.
PROBES = {
    "shadow._cell_snapshots": lambda args, res: {"shadow.cells": len(res[0])},
    "bench.measurement_models": lambda args, res: {
        "bench.cells": sum(len(m.values) for m in res),
        "bench.distinct_values": sum(len(set(m.values.round(12).tolist())) for m in res),
    },
    "bench.mse_experiment": lambda args, res: {"bench.trials": sum(r.trials for r in res)},
    "qcore.fidelity_with_clip": lambda args, res: {"qcore.fidelity_over_one": int(res[0] > 1.0)},
    "golden.run_validation": lambda args, res: {
        "golden.checks_passed": sum(1 for _, ok, _ in res if ok)},
}


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


class Tracer:
    """Records spans of wrapped pqst calls; `install` and `uninstall` bracket a traced region."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []
        self._restore = []     # (owner, attribute, original)

    # -- recording ---------------------------------------------------------
    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if probe is not None:
                for key, value in probe(args, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        setattr(traced, MARK, name)
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around benchmark-side code."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    # -- installation ------------------------------------------------------
    def install(self):
        """Wrap every traced pqst function at each pqst name bound to it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {m: sys.modules[f"pqst.{m}"] for m in MODULES if f"pqst.{m}" in sys.modules}
        targets = {}  # id(original) -> span name
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not _is_function(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                imported_elsewhere = any(vars(other).get(attr) is obj
                                         for o, other in mods.items() if o != short)
                if not attr.startswith("_") or imported_elsewhere:
                    targets[id(obj)] = f"{short}.{attr}"
        wrappers = {}
        for mod in list(mods.values()) + [sys.modules["pqst"]]:
            for attr, obj in list(vars(mod).items()):
                name = targets.get(id(obj))
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._patch(mod, attr, wrappers[id(obj)])
        dm = mods["qcore"].DensityMatrix
        self._patch(dm, "__init__", self._wrap("qcore.DensityMatrix", dm.__init__))
        cli_main = getattr(mods.get("cli"), "main", None)
        for cmd_name, cmd in getattr(cli_main, "commands", {}).items():
            self._patch(cmd, "callback", self._wrap(f"cli.{cmd_name}", cmd.callback))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh,
                      separators=(",", ":"))


def installed_wrappers() -> int:
    """Number of tracing wrappers bound anywhere in the loaded pqst modules."""
    count = 0
    for m in MODULES + ("",):
        mod = sys.modules.get(f"pqst.{m}" if m else "pqst")
        if mod is None:
            continue
        for obj in vars(mod).values():
            count += hasattr(obj, MARK)
            if isinstance(obj, type):
                count += sum(hasattr(v, MARK) for v in vars(obj).values())
            count += hasattr(getattr(obj, "callback", None), MARK)
    return count


# ---------------------------------------------------------------------------
# Aggregation.

def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _outermost(spans, names):
    """Spans named in `names` that have no ancestor also named in `names`."""
    names = set(names)
    inside = [False] * len(spans)
    picked = []
    for i, (name, _, _, parent) in enumerate(spans):
        covered = parent >= 0 and inside[parent]
        inside[i] = covered or name in names
        if name in names and not covered:
            picked.append(spans[i])
    return picked


def _calls(spans, *names):
    names = set(names)
    return sum(1 for s in spans if s[0] in names)


def _seconds(spans, *names):
    return sum(end - start for _, start, end, _ in _outermost(spans, names))


ACTIVITY = ("operators.activity_of_indices", "operators.activity_of_element")
ENSEMBLE_BUILDERS = ("ensembles.zeta_A", "ensembles.zeta_union", "ensembles.zeta_x",
                     "ensembles.zeta_m_active", "ensembles.pauli_local_ensemble",
                     "ensembles.clifford_ensemble", "ensembles.mub_ensemble")

# The CLI invocations of the cli_cold workload, by metric stem.
CLI_COMMANDS = ("estimate_clifford", "estimate_mub", "estimate_pqst",
                "estimate_rotated_exact", "reconstruct_sampled", "reconstruct_exact",
                "bench", "validate")


def _concat(segments):
    """Join (spans, counters) segments, such as one per traced process, into one."""
    spans, counters = [], {}
    for seg_spans, seg_counters in segments:
        base = len(spans)
        spans.extend([n, s, e, p + base if p >= 0 else -1] for n, s, e, p in seg_spans)
        for key, value in seg_counters.items():
            counters[key] = counters.get(key, 0) + value
    return spans, counters


def layer_metrics(segments) -> dict:
    """Per-layer totals of one traced pass, from its (spans, counters) segments."""
    spans, counters = _concat(segments)
    selfs = self_times(spans)
    cells = counters.get("bench.cells", 0)
    return {
        "qcore.eigh_calls": _calls(spans, "qcore.jacobi_eigh"),
        "qcore.eigh_s": _seconds(spans, "qcore.jacobi_eigh"),
        "qcore.density_matrix_s": _seconds(spans, "qcore.DensityMatrix"),
        "qcore.fidelity_s": _seconds(spans, "qcore.fidelity_with_clip", "qcore.fidelity"),
        "qcore.spawn_rng_calls": _calls(spans, "qcore.spawn_rng"),
        "qcore.spawn_rng_s": _seconds(spans, "qcore.spawn_rng"),
        "qcore.fidelity_over_one": counters.get("qcore.fidelity_over_one", 0),
        "operators.activity_calls": len(_outermost(spans, ACTIVITY)),
        "operators.activity_s": _seconds(spans, *ACTIVITY),
        "ensembles.build_calls": len(_outermost(spans, ENSEMBLE_BUILDERS)),
        "ensembles.build_s": _seconds(spans, *ENSEMBLE_BUILDERS),
        "ensembles.clifford_group_s": _seconds(spans, "ensembles.enumerate_clifford_group"),
        "ensembles.isotropic_s": _seconds(spans, "ensembles.maximal_isotropic_subspaces"),
        "ensembles.stabilizer_bases_s": _seconds(spans, "ensembles.stabilizer_basis_unitaries"),
        "ensembles.mub_calls": _calls(spans, "ensembles.mub_ensemble"),
        "ensembles.mub_s": _seconds(spans, "ensembles.mub_ensemble"),
        "channels.forward_exact_calls": _calls(spans, "channels.forward_channel_exact"),
        "channels.forward_exact_s": _seconds(spans, "channels.forward_channel_exact"),
        "channels.per_site_inverse_calls": _calls(spans, "channels.per_site_pauli_inverse"),
        "shadow.sampled_pse_calls": _calls(spans, "shadow.sampled_pse"),
        "shadow.sampled_pse_s": _seconds(spans, "shadow.sampled_pse"),
        "shadow.cells": counters.get("shadow.cells", 0),
        "shadow.combine_s": _seconds(spans, "shadow.combine_pses"),
        "shadow.report_s": _seconds(spans, "shadow.reconstruction_report"),
        "bench.models_calls": _calls(spans, "bench.measurement_models"),
        "bench.models_s": _seconds(spans, "bench.measurement_models"),
        "bench.trial_loop_s": sum(t for s, t in zip(spans, selfs)
                                  if s[0] == "bench.mse_experiment"),
        "bench.trials": counters.get("bench.trials", 0),
        "bench.cells": cells,
        "bench.distinct_value_ratio": counters.get("bench.distinct_values", 0) / cells
        if cells else 0.0,
        "golden.validate_s": _seconds(spans, "golden.run_validation"),
        "golden.checks_passed": counters.get("golden.checks_passed", 0),
    }


def merge_passes(per_pass: list) -> dict:
    """Mean of each per-layer metric over traced passes (counts stay per pass)."""
    keys = per_pass[0].keys()
    return {k: sum(p[k] for p in per_pass) / len(per_pass) for k in keys}


def cli_metrics(children: list) -> dict:
    """Medians over traced CLI children: import time and in-process time per command."""
    out = {"cli.import_ms": median(c["import_ms"] for c in children) if children else 0.0}
    for stem in CLI_COMMANDS:
        times = [c["main_ms"] for c in children if c["command"] == stem]
        out[f"cli.{stem}_ms"] = median(times) if times else 0.0
    return out
