"""cli.run is the one writer of stdout: the command handlers return their
reports and print nothing, so an error leaves no partial report behind.  It
is also the one loader of the matrix file: each handler gets the fragment
set that run built.  And argparse reads every flag value by its grammar, so
the handlers get values, not text to parse."""
from __future__ import annotations

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "fragtile" / "cli.py"


def owners(source: str, found) -> list[str]:
    """Top-level functions with a node that found accepts; "<module>" for
    such a node outside any function."""
    return sorted({
        node.name if isinstance(node, ast.FunctionDef) else "<module>"
        for node in ast.parse(source).body
        if any(found(sub) for sub in ast.walk(node))
    })


def calls(sub, name: str) -> bool:
    return isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == name


def writes(sub) -> bool:
    """A call of print, or a use of sys.stdout."""
    stdout = (
        isinstance(sub, ast.Attribute)
        and sub.attr == "stdout"
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "sys"
    )
    return calls(sub, "print") or stdout


def writers(source: str) -> list[str]:
    return owners(source, writes)


def loaders(source: str) -> list[str]:
    return owners(source, lambda sub: calls(sub, "_load_fs"))


def uses_any(names):
    """A call of, or any other reference to, one of the names."""
    return lambda sub: isinstance(sub, ast.Name) and sub.id in names


def flag_parsers(source: str) -> list[str]:
    """The cmd_* handlers, _direction and _collection that use a grammar:
    _rational, _integer, or a function that uses one of them."""
    numeric = {"_rational", "_integer"}
    grammars = numeric | set(owners(source, uses_any(numeric)))
    return [
        name
        for name in owners(source, uses_any(grammars))
        if name.startswith("cmd_") or name in ("_direction", "_collection")
    ]


def test_run_is_the_only_writer():
    assert writers(CLI.read_text()) == ["run"]


def test_run_is_the_only_loader():
    assert loaders(CLI.read_text()) == ["run"]


def test_handlers_parse_no_flag_value():
    assert flag_parsers(CLI.read_text()) == []


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


def test_the_check_sees_every_loader():
    source = (
        "def _load_fs(args):\n    return args\n"
        "def cmd_a(args):\n    fs = _load_fs(args)\n    return fs\n"
        "def cmd_b(args, fs):\n    return [['ok']], 0\n"
        "def run(argv):\n    return handler(argv, _load_fs(argv))\n"
    )
    assert loaders(source) == ["cmd_a", "run"]


def test_the_check_sees_every_flag_parser():
    source = (
        "def _vector(text):\n    return tuple(map(_rational, text.split(',')))\n"
        "def parse_matrix(text):\n    return _integer(text)\n"
        "def _direction(args, fs):\n    return _vector(args.w)\n"
        "def _collection(args, fs):\n    return args.tau, args.z\n"
        "def cmd_a(args, fs):\n    return [('{}', _rational(args.reach))], 0\n"
        "def _count(text):\n    return max(1, _integer(text))\n"
        "def cmd_b(args, fs):\n    return [('{}', _count(args.samples))], 0\n"
        "def cmd_c(args, fs):\n    return [('{}', args.point)], 0\n"
    )
    assert flag_parsers(source) == ["_direction", "cmd_a", "cmd_b"]
