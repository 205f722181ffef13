"""Every pqst attribute the benchmark worker calls exists, so a refactor that
renames or deletes one fails here rather than as failed benchmark ops."""

import ast
import importlib
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
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
