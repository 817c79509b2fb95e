"""The mutation table in tests/mutants.py stays applicable to src/."""
from __future__ import annotations

from mutants import MUTANTS, ROOT, SRC


def test_each_old_text_occurs_once():
    for mutant in MUTANTS:
        text = (SRC / "fragtile" / f"{mutant.module}.py").read_text()
        assert text.count(mutant.old) == 1, mutant.old
        assert mutant.new != mutant.old


def test_each_mutated_module_compiles():
    # A row whose new text is not valid Python would only show up as an
    # error in the runner, not as a killed mutant.
    for mutant in MUTANTS:
        path = SRC / "fragtile" / f"{mutant.module}.py"
        compile(path.read_text().replace(mutant.old, mutant.new), path, "exec")


def test_each_named_test_is_defined():
    # A node id's file exists and defines its last name; a parameter id,
    # such as a golden case's name, appears in that file as a string.
    for mutant in MUTANTS:
        assert mutant.tests
        for node in mutant.tests:
            path, *names = node.split("::")
            source = (ROOT / path).read_text()
            name, _, param = names[-1].partition("[") if names else ("", "", "")
            assert not names or f"def {name}(" in source, node
            assert not param or f'"{param[:-1]}"' in source, node
