"""Every name a package module imports is used there."""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# slices keeps linalg.inverse bound although it no longer calls it:
# perfbench's tracer wraps the name at every binding site, and
# perfbench/test_perfbench.py::test_wrappers_reach_every_binding_site looks
# for it in slices.  It goes when the tracer's linalg.inverse span does.
ALLOWED = {("slices", "inverse")}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no other node reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted((ROOT / "src" / "fragtile").glob("*.py")):
        if path.stem == "__init__":  # re-exports the public names
            continue
        unused += [
            (path.stem, name)
            for name in unused_imports(path.read_text())
            if (path.stem, name) not in ALLOWED
        ]
    assert unused == []


def test_the_check_sees_an_unused_name():
    source = "from math import ceil, floor\nimport os.path\nprint(ceil(1))\n"
    assert unused_imports(source) == ["floor", "os"]
