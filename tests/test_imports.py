"""The package runs on the standard library alone, and imports what it uses.

numpy and scipy are test-only dependencies (the tests' least-squares and
correlation oracles use them), so no module under src/flkit may import them.
Importing the package loads no module of it, and loading a corpus loads only
the parser, the model and what reads the corpus's files. Every public function
and class has a caller outside the tests.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flkit"


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


def test_src_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"flkit"}
    outside = {
        str(p.relative_to(SRC)): sorted(imported_packages(p) - allowed)
        for p in sorted(SRC.rglob("*.py"))
    }
    assert {name: found for name, found in outside.items() if found} == {}


def test_cli_import_loads_no_numpy_or_scipy():
    code = (
        "import sys, flkit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def flkit_modules_after(code: str) -> list:
    """The flkit modules a fresh interpreter holds after running code from the repo root."""
    code += "; import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'flkit'))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    return ast.literal_eval(out.stdout)


def test_package_import_loads_no_module():
    assert flkit_modules_after("import flkit") == ["flkit"]


def test_corpus_load_loads_no_interpreter_family_or_combiner():
    assert flkit_modules_after("from flkit.corpus import load_corpus; load_corpus('corpus')") == [
        "flkit", "flkit.corpus", "flkit.irhist", "flkit.minilang", "flkit.minilang.parse", "flkit.model",
    ]


def referenced_names(path: Path) -> set:
    """The names, attributes and imported names that one module's code uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    used = set()
    for folder in ("src", "demos", "tools", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if not path.name.startswith("test_"):
                used |= referenced_names(path)
    public = {
        f"{path.relative_to(SRC)}:{node.name}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert len(public) > 50
    assert sorted(name for name in public if name.split(":")[1] not in used) == []


def test_version_matches_pyproject():
    import flkit

    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)[1] == flkit.__version__
