"""The benchmark in perfbench/ imports hydrochain names directly: each one it
imports must exist, so that deleting or renaming a public name breaks here and
not only in the benchmark's own smoke test."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def hydrochain_imports():
    """(file, module, name) of every `from hydrochain... import name`."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            module = node.module if isinstance(node, ast.ImportFrom) else None
            if module and module.split(".")[0] == "hydrochain":
                for alias in node.names:
                    yield path.name, module, alias.name


def test_perfbench_hydrochain_imports_resolve():
    imports = list(hydrochain_imports())
    assert len({module for _, module, _ in imports}) >= 5
    missing = [
        (file, f"{module}.{name}")
        for file, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
