"""The package layout: the solver path never imports the theory module, and
one module makes the rank decision."""

import ast
from pathlib import Path

import pytest

import circumsolve

PACKAGE = Path(circumsolve.__file__).resolve().parent
SOLVER_PATH = ("linalg", "circumcenter", "solvers", "problems", "bench", "cli")


def _package_imports(module):
    """The circumsolve modules that ``module`` imports, by their short names."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    found.add(node.module.split(".")[0])
                else:  # from . import x
                    found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "circumsolve":
                parts = node.module.split(".")
                found.update([parts[1]] if len(parts) > 1 else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "circumsolve":
                    found.add(parts[1] if len(parts) > 1 else "circumsolve")
    return found


@pytest.mark.parametrize("module", SOLVER_PATH)
def test_the_solver_path_imports_only_the_solver_path(module):
    assert _package_imports(module) <= set(SOLVER_PATH)


def test_the_theory_module_is_outside_the_solver_path():
    assert "theory" in _package_imports("__init__")
    assert not (PACKAGE / "operators.py").exists()


def _names_geqp3(module):
    # code that fetches or calls LAPACK geqp3, not prose that mentions it
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in ("geqp3", "dgeqp3"):
            return True
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if isinstance(name, str) and "geqp3" in name:
            return True
    return False


def test_only_linalg_fetches_the_rank_revealing_qr():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py"))
    assert [m for m in modules if _names_geqp3(m)] == ["linalg"]
