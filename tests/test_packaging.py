"""Packaging: every third-party module that liangflow imports is a declared dependency."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _imported_top_levels() -> set:
    """The top-level name of each absolute import in the package, at any depth."""
    names = set()
    for path in (ROOT / "src" / "liangflow").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    third_party = _imported_top_levels() - set(sys.stdlib_module_names) - {"liangflow"}
    assert {"numpy", "scipy"} <= third_party  # the walk reaches imports inside functions
    assert third_party <= declared, f"imported but not in dependencies: {third_party - declared}"
