"""Golden stdout and exit codes of every subcommand.

Each file under ``tests/golden/`` holds one command's exit code on its first
line ("exit=N") followed by its exact stdout.  The files were recorded once
and are the output contract: refactors must keep them byte-identical.  Error
cases pin exit code 2 and an empty stdout; their messages go to stderr and
are not part of the contract.  The benchmark's seed-0
command lists are held to the same rule: each command's stdout must match
the sha256 digest recorded in ``perfbench/digests.json``.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from conftest import invoke

GOLDEN = Path(__file__).resolve().parent / "golden"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

MATRICES = {
    "K": "1 1\n1 2\n-1 3\n",
    "L": "1 1\n1 2\n1 5\n",
    "M": "2 2\n3 2 -4 1\n1 0 2 2\n2 0 -1 1\n0 1 -2 3\n",
    "q3r2-1": "2 1\n0 3/2 3\n-1 1/3 3\n1/2 -3/2 -1\n",
    "cover13": "1 3\n3 -1 1 0\n1 2 2 -1\n0 -3 -3 2\n3 -2 0 1\n",
    "slice13": "1 2\n-1 1 0\n2 3 -3\n0 3 2\n",
    "bad-parse": "1 1\n1 1/0\n2 3\n",
    "r1k2": "1 2\n1 0 0\n0 1 0\n0 0 1\n",
}

# name: (command, matrix, options).  A matrix of None passes no --matrix.
CASES = {
    "fragments-K": ("fragments", "K", ()),
    "fragments-L": ("fragments", "L", ()),
    "fragments-M": ("fragments", "M", ()),
    "fragments-q3r2-1": ("fragments", "q3r2-1", ()),
    "fragments-cover13": ("fragments", "cover13", ()),
    "laplace-K": ("laplace", "K", ()),
    "laplace-M": ("laplace", "M", ()),
    "laplace-q3r2-1": ("laplace", "q3r2-1", ()),
    "laplace-slice13": ("laplace", "slice13", ()),
    "coverage-K": ("coverage", "K", ("--point", "1/3,-2/7", "--seed", "3")),
    "coverage-L": ("coverage", "L", ("--point", "2,3", "--w", "1,2")),
    "coverage-M-worked": ("coverage", "M", ("--point", "-2,1,-1/2,-1/2", "--w", "1,1,1,1")),
    "coverage-M-seeded": ("coverage", "M", ("--point", "1/2,-3/4,5/3,0", "--seed", "11")),
    "coverage-q3r2-1": ("coverage", "q3r2-1", ("--point", "1/5,2/9,-1/3")),
    "verify-K": ("verify", "K", ("--samples", "60", "--seed", "5")),
    "verify-L": ("verify", "L", ("--samples", "60", "--w", "1,2")),
    "verify-M": ("verify", "M", ("--samples", "40", "--seed", "9")),
    "verify-q3r2-1": ("verify", "q3r2-1", ("--samples", "40", "--seed", "1")),
    "facets-K-gamma": ("facets", "K", ("--gamma", "1,2", "--seed", "2")),
    # r = 1: the empty value names tau = {}, the only tau collection.
    "facets-K-tau-empty": ("facets", "K", ("--tau", "", "--w", "1,1")),
    "facets-M-tau": ("facets", "M", ("--tau", "2", "--w", "1,1,1,1")),
    "facets-M-gamma-z": ("facets", "M", ("--gamma", "1,2,4", "--z", "1,0,-1,2")),
    "facets-q3r2-1-tau": ("facets", "q3r2-1", ("--tau", "3", "--seed", "4")),
    "facets-cover13-gamma": ("facets", "cover13", ("--gamma", "2,3")),
    "double-cover-K-gamma": ("double-cover", "K", ("--gamma", "1,2", "--samples", "30")),
    "double-cover-K-tau-empty": ("double-cover", "K", ("--tau", "", "--samples", "50")),
    "double-cover-M-tau": ("double-cover", "M", ("--tau", "4", "--samples", "25", "--seed", "2")),
    "double-cover-M-gamma-z": (
        "double-cover", "M", ("--gamma", "1,3,4", "--z", "0,1,0,-1", "--samples", "25", "--w", "1,1,1,1"),
    ),
    "double-cover-q3r2-1-tau": ("double-cover", "q3r2-1", ("--tau", "1", "--samples", "25", "--seed", "6")),
    "double-cover-q3r2-1-gamma": ("double-cover", "q3r2-1", ("--gamma", "1,2,3", "--samples", "25")),
    "double-cover-cover13-gamma": ("double-cover", "cover13", ("--gamma", "2,3", "--samples", "100")),
    # r = 1: tau {} fails 44 of 50 samples, the other recorded cover13 witness.
    "double-cover-cover13-tau-empty": ("double-cover", "cover13", ("--tau", "", "--samples", "50")),
    "crossing-K": ("crossing", "K", ("--samples", "3", "--seed", "2", "--w", "1,1", "--reach", "5")),
    "crossing-L-point": ("crossing", "L", ("--point", "-1/2,1/3", "--reach", "4", "--seed", "6")),
    "crossing-M": ("crossing", "M", ("--samples", "1", "--reach", "2", "--seed", "3")),
    "crossing-q3r2-1": ("crossing", "q3r2-1", ("--samples", "1", "--reach", "2")),
    # Starts on a tile boundary: the w-rules decide the start, which is
    # scanned as given; a degenerate crossing moves the ray by the seeded
    # jitter instead (resamples=1).
    "crossing-M-lattice-start": ("crossing", "M", ("--point", "0,0,0,0", "--reach", "2")),
    "crossing-K-jittered": ("crossing", "K", ("--point", "0,0", "--w", "1,1", "--reach", "3")),
    "crossing-M-jittered": ("crossing", "M", ("--point", "1,0,0,0", "--w", "1,1,1,1", "--reach", "2")),
    "slice-K": ("slice", "K", ("--samples", "15", "--seed", "2")),
    "slice-L": ("slice", "L", ("--samples", "10")),
    "slice-M": ("slice", "M", ("--samples", "5", "--w", "1,1,1,1")),
    "slice-slice13": ("slice", "slice13", ("--samples", "4")),
    # Bottom blocks outside the coprime case: q3r2-1's is rational (g = 1/2),
    # cover13's integer with minors of gcd g = 2.
    "slice-q3r2-1": ("slice", "q3r2-1", ("--samples", "3")),
    "slice-cover13": ("slice", "cover13", ("--samples", "10")),
    "render-K": ("render", "K", ("--window", "-3,3,-3,3")),
    "render-L": ("render", "L", ()),
    "render-M-slice": ("render", "M", ("--window", "-2,2,-2,2", "--seed", "1")),
    "render-q3r2-1-slice": ("render", "q3r2-1", ()),
    # Error exits (code 2).
    "error-missing-file": ("laplace", "missing", ()),
    "error-parse": ("fragments", "bad-parse", ()),
    "error-unknown-command": ("frobnicate", "K", ()),
    "error-no-matrix": ("laplace", None, ()),
    "error-non-generic-w": ("coverage", "M", ("--point", "0,0,0,0", "--w", "1,2,1,1")),
    "error-w-length": ("verify", "M", ("--w", "1,1", "--samples", "5")),
    "error-missing-point": ("coverage", "M", ()),
    "error-malformed-point": ("coverage", "K", ("--point", "1,x")),
    "error-point-length": ("coverage", "M", ("--point", "1,2")),
    "error-tau-and-gamma": ("facets", "M", ("--tau", "2", "--gamma", "1,2,3")),
    "error-no-collection": ("double-cover", "M", ("--samples", "5")),
    "error-tau-size": ("facets", "M", ("--tau", "1,2")),
    "error-z-length": ("facets", "M", ("--tau", "1", "--z", "0,0")),
    "error-samples-not-int": ("verify", "K", ("--samples", "many")),
    "error-reach-malformed": ("crossing", "K", ("--reach", "1/0", "--samples", "1")),
    "error-reach-zero": ("crossing", "K", ("--reach", "0", "--samples", "1")),
    "error-render-dimensions": ("render", "r1k2", ()),
    "error-render-window": ("render", "K", ("--window", "1,1,0,2")),
}


def run_case(name: str, tmp_path: Path) -> str:
    command, matrix, options = CASES[name]
    for key, text in MATRICES.items():
        (tmp_path / f"{key}.txt").write_text(text)
    argv = [command]
    if matrix is not None:
        argv += ["--matrix", str(tmp_path / f"{matrix}.txt")]
    code, out, _ = invoke(argv + list(options))
    return f"exit={code}\n{out}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path):
    expected = (GOLDEN / f"{name}.out").read_text()
    assert run_case(name, tmp_path) == expected


def test_error_cases_write_nothing_on_stdout():
    errors = sorted(GOLDEN.glob("error-*.out"))
    assert len(errors) == sum(name.startswith("error-") for name in CASES)
    assert [path.name for path in errors if path.read_text() != "exit=2\n"] == []


@pytest.mark.parametrize("workload", ["dense", "wide", "oneshot"])
def test_perfbench_digests(workload):
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    commands = workloads.WORKLOADS[workload](0)
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[workload]
    assert len(commands) == len(recorded)
    changed = [
        " ".join(cmd.argv)
        for cmd, digest in zip(commands, recorded)
        if hashlib.sha256(invoke(list(cmd.argv))[1].encode()).hexdigest() != digest
    ]
    assert changed == []
