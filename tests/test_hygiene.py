"""Source hygiene: every module of the package uses each name it imports, and only
the two recorders drive the simulator directly."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "latentlqr"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import anywhere in source and never read as a name.

    `import a.b` binds `a`; `from __future__ import ...` binds nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_guard_sees_unused_and_used_imports():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nx = np.zeros(c)\n"
    assert unused_imports(source) == ["d (line 3)", "os (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert unused_imports(source) == [], f"{module}.py imports names it never uses"


# The simulator's only direct callers: the general column recorder and the
# eval cost pass. Every other rollout goes through rollout_columns, where
# tracing and validation see it.
DRIVE_CALLERS = {"system.rollout_columns", "evaluate.trajectory_costs"}


def drive_users(module: str, source: str) -> set[str]:
    """module.name of each top-level definition that names or imports _drive
    (module.<module> for top-level statements); the definition itself does not count."""
    users = set()
    for node in ast.parse(source).body:
        for sub in ast.walk(node):
            if ((isinstance(sub, ast.Name) and sub.id == "_drive")
                    or (isinstance(sub, ast.Attribute) and sub.attr == "_drive")
                    or (isinstance(sub, ast.ImportFrom)
                        and any(alias.name == "_drive" for alias in sub.names))):
                users.add(f"{module}.{getattr(node, 'name', '<module>')}")
    return users


def test_the_guard_sees_every_use_of_drive():
    source = ("from .system import _drive as d\n"
              "def _drive(): pass\n"
              "def f(): system._drive(1)\n"
              "class C:\n    def g(self): return _drive\n"
              "def h(): rollout_columns()\n")
    assert drive_users("m", source) == {"m.<module>", "m.f", "m.C"}


def test_only_the_recorders_drive_the_simulator():
    users = set().union(*(drive_users(module, (PACKAGE / f"{module}.py").read_text())
                          for module in MODULES))
    assert users == DRIVE_CALLERS
