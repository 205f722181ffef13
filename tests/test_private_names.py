"""No module in src/pqst imports or reads an underscore name of another pqst module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pqst"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _pqst_module(node: ast.ImportFrom) -> str | None:
    """The pqst module an ImportFrom names ('' for the package), else None."""
    if node.level == 1:
        return node.module or ""
    if node.module == "pqst" or (node.module or "").startswith("pqst."):
        return node.module[len("pqst."):]
    return None


def private_reads(path: Path) -> list[str]:
    """`module: use` for each underscore name of another pqst module that `path`
    imports, or reads as an attribute of an imported pqst module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    here = path.stem
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name.startswith("pqst.") and a.asname}
        elif isinstance(node, ast.ImportFrom) and (source := _pqst_module(node)) is not None:
            for alias in node.names:
                if source == "":
                    modules.add(alias.asname or alias.name)
                elif source != here and _private(alias.name):
                    found.append(f"{here}: from .{source} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{here}: {node.value.id}.{node.attr}")
    return sorted(found)


def test_no_cross_module_private_names():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    assert [entry for path in files for entry in private_reads(path)] == []
