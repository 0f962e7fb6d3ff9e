"""Source hygiene: every module of the package uses each name it imports."""
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
