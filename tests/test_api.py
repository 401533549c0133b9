"""The package root exports the documented API: the names the README lists and the demos import."""

import ast
import re
from pathlib import Path

import tlstar

ROOT = Path(__file__).resolve().parents[1]


def test_readme_lists_exactly_the_root_exports():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listing = text.split("The package root exports these", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", listing)) == sorted(tlstar.__all__)


def test_demos_import_only_root_exports():
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "tlstar":
                assert {alias.name for alias in node.names} <= set(tlstar.__all__), demo.name


def test_root_exports_resolve():
    assert all(hasattr(tlstar, name) for name in tlstar.__all__)
