"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import Bench, parse_args  # noqa: E402

# Counters that depend only on the inputs, never on the machine.
MACHINE_FREE = [
    "tiling.candidates",
    "tiling.hits",
    "tiling.engine_builds",
    "tiling.tiles_at_calls",
    "slices.translates",
    "slices.families",
    "fragments.count",
    "render.polygons",
]
# Commands of each workload the counter test runs, to keep it short.
PREFIX = {"dense": 14, "wide": 3, "oneshot": 150}


def traced_counts(workload: str, seed: int) -> dict:
    bench = Bench(parse_args(["--workload", workload, "--seed", str(seed)]))
    bench.commands = bench.commands[: PREFIX[workload]]
    record = bench.run_pass(traced=True)
    assert all(o != "failed" for o in record["outcomes"]), record["failures"]
    counts = {key: record["layers"][key] for key in MACHINE_FREE}
    for report in record["reports"]:
        for key, value in report.items():
            counts[key] = counts.get(key, 0) + value
    return counts


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counters_repeat_exactly(workload):
    first = traced_counts(workload, 3)
    assert first == traced_counts(workload, 3)
    assert first["tiling.candidates"] >= first["tiling.hits"] > 0


def test_commands_follow_the_seed():
    for build in workloads.WORKLOADS.values():
        assert build(5) == build(5)
        assert build(5) != build(6)


def test_wrappers_reach_every_binding_site():
    from fragtile import cli, facets, slices, tiling

    originals = (cli.crossing_check, facets.TilingEngine.tiles_at, slices.inverse, cli.parse_matrix)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.crossing_check.__wrapped__ is originals[0]
        assert tiling.TilingEngine.tiles_at.__wrapped__ is originals[1]
        assert slices.inverse.__wrapped__ is originals[2]
        assert cli.parse_matrix.__wrapped__ is originals[3]
        assert cli.verify_constancy is not tiling.verify_constancy.__wrapped__
    finally:
        t.uninstall()
    assert (cli.crossing_check, facets.TilingEngine.tiles_at, slices.inverse, cli.parse_matrix) == originals


def test_oracle_agrees_with_engine_and_sees_every_tile():
    from fragtile import TilingEngine, choose_generic_direction, decompose, fragment_set

    dims, m = workloads.load_matrix("M")
    fs = fragment_set(decompose(m, dims))
    w = choose_generic_direction(fs, 0)
    oracle = checks.Oracle(fs, w)
    engine = TilingEngine(fs, w)
    for p in workloads.verify_points(m, 11, 5):
        found, _ = engine.tiles_at(p)
        expected = sorted((tile.sigma, tile.z) for tile, _ in found)
        assert oracle.tiles(p) == expected
        assert oracle.volume(p) > tracer.candidate_count(engine, p)


def test_outcomes():
    assert checks.outcome(0, "f=1 pass=true", None) == "ok"
    assert checks.outcome(2, "", None) == "failed"
    assert checks.outcome(None, "", None) == "failed"
    assert checks.outcome(1, "samples=4 redraws=0 failures=4 pass=false", "cover-degenerate-gamma") == "known"
    assert checks.outcome(1, "samples=4 redraws=0 failures=3 pass=false", "cover-degenerate-gamma") == "failed"
    window = "offset_classes=13 expected_classes=15 FAIL\ncoverage_pass=true pass=false"
    assert checks.outcome(1, window, "slice-window") == "known"
    assert checks.outcome(1, window.replace("coverage_pass=true", "coverage_pass=false"), "slice-window") == "failed"
