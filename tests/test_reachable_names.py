"""Every public top-level function or class in src/pqst, and every public method,
property or `name = property(...)` of its classes, is reached by the program or
documented: some pqst module (its own included), a script or a perfbench file
reads it, or the README names it in backticks. Tests do not count."""

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
    """Names read, attributes read and names imported anywhere in `tree`; the
    target of an assignment is no reference."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def _members(cls) -> list[str]:
    """The public methods and properties of a class, `name = property(...)` included."""
    names = [node.name for node in cls.body if isinstance(node, ast.FunctionDef)]
    names += [target.id for node in cls.body if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
              and node.value.func.id == "property"
              for target in node.targets if isinstance(target, ast.Name)]
    return [name for name in names if not name.startswith("_")]


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
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found += [f"{path.stem}.{node.name}.{member}" for member in _members(node)
                          if member not in referenced | documented]
    return found


def test_every_public_name_is_reached_or_documented():
    assert unreached_names() == []
