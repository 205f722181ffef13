"""Every public top-level function or class in src/pqst is reached by the program
or documented: some pqst module (its own included), a script or a perfbench
file refers to it, or the README names it in backticks. Tests do not count."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pqst"


def _click_command(node) -> bool:
    """A function decorated as a click command or group."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _referenced(tree) -> set[str]:
    """Names read, attributes read and names imported anywhere in `tree`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def unreached_names() -> list[str]:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    users = modules + sorted((ROOT / "scripts").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    referenced = set().union(*(_referenced(ast.parse(p.read_text())) for p in users))
    documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", (ROOT / "README.md").read_text()))
    found = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and not _click_command(node)
                    and node.name not in referenced | documented):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_every_public_name_is_reached_or_documented():
    assert unreached_names() == []
