"""The package runs on the standard library alone."""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r"^dependencies\s*=.*$", project, re.M) == ["dependencies = []"]


def test_every_import_is_relative_or_stdlib():
    foreign = []
    for path in sorted((ROOT / "src" / "fragtile").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []
