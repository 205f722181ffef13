"""The eigen seam: `qcore.jacobi_eigh` is reached only from the two places
that decompose a matrix, the cached `DensityMatrix.decomposition` (the state,
once, on first read) and `fidelity_with_clip` (sqrt(rho) sigma sqrt(rho)), and
no module in src/pqst calls a numpy eigensolver. A third decomposition site
fails here, so swapping the solver stays a change to one function body."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pqst"
SOLVER = "jacobi_eigh"
SOLVER_USERS = ["qcore.DensityMatrix.decomposition", "qcore.fidelity_with_clip"]
NUMPY_SOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def references(path: Path, names, bare: bool = True) -> list[str]:
    """`scope: name` for each attribute or import of one of `names` in `path`,
    and each bare read if `bare`, with the scope as the dotted module, class
    and function path."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        elif bare and isinstance(node, ast.Name) and node.id in names:
            found.append(f"{scope}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append(f"{scope}: .{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend(f"{scope}: import {a.name}" for a in node.names
                         if a.name.rsplit(".", 1)[-1] in names)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def _package_references(names, bare=True) -> list[str]:
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    return sorted(entry for path in files for entry in references(path, names, bare))


def test_only_the_state_and_the_fidelity_reach_the_eigensolver():
    assert _package_references({SOLVER}) == [f"{user}: {SOLVER}" for user in SOLVER_USERS]


def test_no_module_calls_a_numpy_eigensolver():
    # bare names are local variables (ensembles has an `eig`); a solver is
    # reached as an attribute of numpy or by importing it
    assert _package_references(NUMPY_SOLVERS, bare=False) == []


def test_the_guard_sees_calls_imports_and_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "from numpy.linalg import eigvalsh\n"
                     "class A:\n"
                     "    def f(self, a):\n"
                     "        return np.linalg.eigh(a), jacobi_eigh(a)\n")
    assert references(probe, NUMPY_SOLVERS, bare=False) == \
        ["probe: import eigvalsh", "probe.A.f: .eigh"]
    assert references(probe, {SOLVER}) == [f"probe.A.f: {SOLVER}"]
