"""The package root exports the documented API: the names the README lists and the demos import."""

import ast
import importlib
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


def test_tracer_hook_names_resolve():
    # The benchmark's tracer wraps each name in HOOKS in the module that calls
    # it; some of those imports (marked noqa) exist only for the tracer.
    tree = ast.parse((ROOT / "benchmarks" / "worker.py").read_text(encoding="utf-8"))
    hooks = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HOOKS"])
    names = [(module, name) for module, attrs in hooks.items() for name in attrs]
    assert names
    for module, name in names:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
