"""The runtime is the standard library: every absolute import under
src/regalg names a stdlib module, and the package declares no
dependencies.  The decision layer imports nothing from the family,
verification or command-line modules.  Every name the package exports
exists, and the export list is sorted."""

import ast
import re
import sys
from pathlib import Path

import regalg

ROOT = Path(__file__).resolve().parent.parent


def test_src_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "regalg").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)


DECISION_LAYER = ("core", "linalg", "starcalc", "invariants", "conjugacy")


def test_decision_layer_imports_no_families_verify_or_cli():
    for stem in DECISION_LAYER:
        path = ROOT / "src" / "regalg" / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                module = ".".join(filter(None, ("regalg" if node.level else "", node.module)))
                names = [f"{module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert not re.match(r"regalg\.(families|verify|cli)\b", name), (stem, name)


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_public_names_resolve_and_are_sorted():
    assert regalg.__all__ == sorted(regalg.__all__)
    assert [name for name in regalg.__all__ if not hasattr(regalg, name)] == []
