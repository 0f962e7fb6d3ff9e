"""Source hygiene: every module of the package uses each name it imports, only
the two recorders drive the simulator directly, and the learning modules read
no ground truth."""
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


# The learner meets the system only through the simulator, as the paper's
# does: of the spec it reads R and the dimensions (and hands spec on to
# rollout_columns), and it never emits or decodes an observation itself or
# asks a decoder class which candidate is the truth.
LEARNING_MODULES = ("phase1", "phase2", "phase3", "regression")
TRUTH_FIELDS = {"a", "b", "q", "sigma_w", "sigma_0"}
TRUTH_MAPS = {"emit", "decode_batch", "true_decoder"}
TRUTH_LABELS = {"contains_truth", "names"}


def truth_reads(source: str) -> list[str]:
    """'line: what' for each read of spec's truth fields, each use of an
    emission or true-decoder map, and each attribute read of a class's truth
    labels (a dataclass field declaring one is not a read)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
                node.attr in TRUTH_MAPS | TRUTH_LABELS
                or (node.attr in TRUTH_FIELDS and isinstance(node.value, ast.Name)
                    and node.value.id == "spec")):
            hits.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in TRUTH_MAPS:
            hits.append(f"{node.lineno}: {node.id}")
    return sorted(hits)


def test_the_guard_sees_every_read_of_the_truth():
    source = ("class C:\n    names: tuple = None\n    contains_truth: int = None\n"
              "def f(spec, emission, cls, y):\n"
              "    rollout_columns(spec, emission)\n"
              "    g = spec.r + spec.d_x + spec.d_u + other.a\n"
              "    h = spec.a + spec.sigma_w\n"
              "    return emission.decode_batch(y), true_decoder(y), cls.names, cls.contains_truth\n")
    assert truth_reads(source) == ["7: .a", "7: .sigma_w", "8: .contains_truth",
                                   "8: .decode_batch", "8: .names", "8: true_decoder"]


@pytest.mark.parametrize("module", LEARNING_MODULES)
def test_the_learner_reads_no_ground_truth(module):
    assert truth_reads((PACKAGE / f"{module}.py").read_text()) == [], \
        f"{module}.py reads the ground truth"
