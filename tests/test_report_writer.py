"""cli.run is the one writer of stdout: the command handlers return their
reports and print nothing, so an error leaves no partial report behind."""
from __future__ import annotations

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "fragtile" / "cli.py"


def writers(source: str) -> list[str]:
    """Top-level functions that call print or name sys.stdout; "<module>"
    for such code outside any function."""
    found = set()
    for node in ast.parse(source).body:
        owner = node.name if isinstance(node, ast.FunctionDef) else "<module>"
        for sub in ast.walk(node):
            prints = (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "print"
            )
            stdout = (
                isinstance(sub, ast.Attribute)
                and sub.attr == "stdout"
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "sys"
            )
            if prints or stdout:
                found.add(owner)
    return sorted(found)


def test_run_is_the_only_writer():
    assert writers(CLI.read_text()) == ["run"]


def test_the_check_sees_every_writer():
    source = (
        "import sys\n"
        "def cmd_a(args):\n    print('x')\n"
        "def cmd_b(args):\n    out = sys.stdout\n    out.write('y')\n"
        "def cmd_c(args):\n    return [['ok']], 0\n"
        "def run(argv):\n    sys.stdout.write('z')\n"
        "if __name__ == '__main__':\n    print(run([]))\n"
    )
    assert writers(source) == ["<module>", "cmd_a", "cmd_b", "run"]
