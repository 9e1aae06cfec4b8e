"""The package imports only the standard library and its declared runtime dependencies."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_package_imports_only_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    allowed = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in declared}
    imported = set()
    for path in (ROOT / "src" / "pdtcoord").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names == allowed
