"""The package runs on its declared runtime dependencies alone.

numpy is a test-only dependency (the tests' least-squares oracles use it), so
no module under src/flkit may import it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flkit"


def imported_packages(path: Path) -> set:
    """Top-level names of the absolute imports in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_src_does_not_import_numpy():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    assert [str(p.relative_to(SRC)) for p in modules if "numpy" in imported_packages(p)] == []
