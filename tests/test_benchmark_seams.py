"""Every pqst attribute the benchmark worker calls, and every pqst name the
tracer keys a per-layer metric on, exists, so a refactor that renames or
deletes one fails here rather than as failed benchmark ops or a metric that
silently reads 0."""

import ast
import importlib
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
TRACER = WORKER.with_name("tracer.py")
# tracer keys whose functions are already gone from pqst; the benchmark's
# re-keying removes them, and no other name may join them
STALE_TRACER_KEYS = {"shadow._cell_snapshots", "channels.per_site_pauli_inverse",
                     "operators.activity_of_element"}
MODULES = ("bench", "shadow", "qcore", "ensembles")


def worker_attributes() -> set[tuple[str, str]]:
    tree = ast.parse(WORKER.read_text(), filename=str(WORKER))
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES}


def test_worker_attributes_exist_in_pqst():
    used = worker_attributes()
    assert {module for module, _ in used} == set(MODULES)
    missing = [f"{module}.{attr}" for module, attr in sorted(used)
               if not hasattr(importlib.import_module(f"pqst.{module}"), attr)]
    assert missing == []


def tracer_keys() -> dict[str, set[str]]:
    """The pqst names the tracer keys metrics on, read from its source without
    importing it: the name arguments of `_calls` and `_seconds`, the `PROBES`
    keys, and the `ACTIVITY` and `ENSEMBLE_BUILDERS` tuples."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    found = {"_calls": set(), "_seconds": set(), "PROBES": set(), "ACTIVITY": set(),
             "ENSEMBLE_BUILDERS": set()}

    def strings(nodes):
        return {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("_calls", "_seconds"):
            found[node.func.id] |= strings(node.args[1:])
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id in found:
            value = node.value
            found[node.targets[0].id] |= strings(value.keys if isinstance(value, ast.Dict)
                                                 else value.elts)
    return found


def test_tracer_keys_exist_in_pqst():
    found = tracer_keys()
    assert all(found.values()), found
    missing = set()
    for name in set().union(*found.values()):
        module, attr = name.split(".", 1)
        if not hasattr(importlib.import_module(f"pqst.{module}"), attr):
            missing.add(name)
    assert sorted(missing - STALE_TRACER_KEYS) == []
