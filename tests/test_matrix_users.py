"""The Fraction Matrix type stays out of the layers that run on integer rows,
and keeps only the members that the commands and perfbench/ read."""
from __future__ import annotations

import ast
from pathlib import Path

import fragtile
from fragtile import Matrix

ROOT = Path(__file__).resolve().parent.parent

# The package modules that may name Matrix, each for a surface that
# perfbench/ reads; facets, slices and render must not name it.
ALLOWED = {
    # Defines Matrix.  The tracer wraps Matrix.mat_vec and linalg.det, solve
    # and inverse, which take and return a Matrix.
    "linalg",
    # parse_matrix returns a Matrix (perfbench/workloads.py and run.py parse
    # through it), and format_matrix writes one (perfbench/make_corpus.py).
    "cli",
    # Decomposition.m and Fragment.s, which fragment_matrix assembles: read by
    # perfbench/checks.py's Oracle and by perfbench/make_corpus.py.
    "fragments",
    # TilingEngine.m_inv, read by the tracer's candidate_count beside
    # candidate_box.
    "tiling",
    # Re-exports Matrix: perfbench/make_corpus.py imports it from fragtile.
    "__init__",
}


def names_matrix(source: str) -> bool:
    """True when the module imports, reads or annotates with Matrix."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "Matrix":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "Matrix":
            return True
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            (alias.asname or alias.name).rpartition(".")[2] == "Matrix" for alias in node.names
        ):
            return True
        if isinstance(node, ast.ClassDef) and node.name == "Matrix":
            return True
    return False


def test_matrix_stays_in_the_modules_perfbench_reads_it_through():
    users = {
        path.stem for path in (ROOT / "src" / "fragtile").glob("*.py") if names_matrix(path.read_text())
    }
    assert users == ALLOWED


def test_the_check_sees_every_form():
    assert names_matrix("from .linalg import Matrix\n")
    assert names_matrix("from . import linalg\nx = linalg.Matrix\n")
    assert names_matrix("from __future__ import annotations\ndef f(m: Matrix): pass\n")
    assert names_matrix("class Matrix:\n    pass\n")
    assert not names_matrix("class MatrixParseError(Exception):\n    '''Matrix'''\n")


def test_matrix_keeps_only_the_members_commands_and_perfbench_read():
    # Tests build any other shape through conftest.matrix_from_columns and
    # conftest.identity_matrix.
    public = {name for name in dir(Matrix) if not name.startswith("_")}
    assert public == {"from_rows", "row", "row_list", "mat_vec", "rows", "cols"}
    assert all(name in vars(Matrix) for name in ("__eq__", "__hash__", "__repr__"))


def test_render_takes_its_window_without_a_config_type():
    assert "RenderConfig" not in fragtile.__all__
    assert not hasattr(fragtile.render, "RenderConfig")
