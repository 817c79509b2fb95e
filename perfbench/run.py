"""fragtile benchmark: run one workload and print its metrics with units.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` and
``fragtile.cli.run`` is called in-process: one caller, one thread, each
command started after the previous one returned (a closed loop).  A *pass*
is the workload's command list (see ``workloads.py``); passes repeat until
the next one would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes; traced passes wrap the public functions of every
layer (``tracer.py``) and report per-layer times and counts, plus the
tracing overhead.  Both check every command's verdict, compare tile location
on a subsample of query points with an independent widened-box scan, and, at
seed 0, compare each command's stdout with the digest recorded at the seed
commit.  The last line of stdout is one JSON object; everything else is a
readable report, and the full record goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DIGEST_SEED = 0
SETUP_REPS = 3
# The CPU this runs on can change speed by up to 2x for seconds to minutes
# at a time, driven by load outside this process.  Every timing is therefore
# taken against a calibration kernel (``_kernel``) run just before and just
# after it, and reported in reference seconds: raw seconds * CAL_REF_S / the
# kernel's time.  CAL_REF_S only fixes the scale: 2 ms is about the kernel's
# time on the 2-core Intel Xeon (CPython 3.11.7) this benchmark was tuned on.
CAL_REF_S = 0.002
CAL_REPEATS = 2
# Widened-box candidates the oracle may scan per run, smallest boxes first.
ORACLE_BUDGET = 400_000
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics reported in the JSON line: the ones every workload
# exercises, plus counters.  Layer times that are zero on some workload are
# printed in the report and kept in the output record.
PER_LAYER_UNITS = {
    "cli.parse_s": "s",
    "fragments.build_s": "s",
    "tiling.certify_s": "s",
    "tiling.engine_build_s": "s",
    "tiling.tiles_at_s": "s",
    "linalg.mat_vec_s": "s",
    "linalg.det_s": "s",
    "linalg.solve_s": "s",
    "linalg.inverse_s": "s",
    "trace.overhead_s": "s",
    "tiling.tiles_at_calls": "count",
    "tiling.candidates": "count",
    "tiling.hits": "count",
    "tiling.candidates_per_hit": "ratio",
    "tiling.boundary_redraws": "count",
    "tiling.engine_builds": "count",
    "linalg.mat_vec_calls": "count",
    "linalg.det_calls": "count",
    "linalg.solve_calls": "count",
    "linalg.inverse_calls": "count",
    "fragments.count": "count",
    "fragments.degenerate": "count",
    "facets.crossings": "count",
    "facets.resamples": "count",
    "facets.cover_redraws": "count",
    "slices.translates": "count",
    "slices.families": "count",
    "render.polygons": "count",
    "render.bytes": "count",
}
# Inclusive span time per metric: the outermost spans of the group.
INCLUSIVE = {
    "cli.parse_s": {"cli.parse"},
    "fragments.build_s": {"fragments.decompose", "fragments.build"},
    "tiling.certify_s": {"tiling.certify", "tiling.choose_direction"},
    "tiling.engine_build_s": {"tiling.engine_build"},
    "linalg.mat_vec_s": {"linalg.mat_vec"},
    "linalg.det_s": {"linalg.det"},
    "linalg.solve_s": {"linalg.solve"},
    "linalg.inverse_s": {"linalg.inverse"},
    "facets.crossing_s": {"facets.crossing"},
    "facets.double_cover_s": {"facets.double_cover"},
    "facets.partition_s": {"facets.collection", "facets.partition"},
    "slices.layout_s": {"slices.layout"},
    "render.svg_s": {"render.svg"},
}
CALLS = {
    "tiling.tiles_at_calls": "tiling.tiles_at",
    "tiling.engine_builds": "tiling.engine_build",
    "linalg.mat_vec_calls": "linalg.mat_vec",
    "linalg.det_calls": "linalg.det",
    "linalg.solve_calls": "linalg.solve",
    "linalg.inverse_calls": "linalg.inverse",
}
EXTRAS = {
    "tiling.candidates": ("tiling.tiles_at", "candidates"),
    "tiling.hits": ("tiling.tiles_at", "hits"),
    "tiling.boundary_incidences": ("tiling.tiles_at", "boundary"),
    "fragments.count": ("fragments.build", "fragments"),
    "fragments.degenerate": ("fragments.build", "degenerate"),
    "slices.translates": ("slices.layout", "translates"),
    "slices.families": ("slices.layout", "families"),
    "render.polygons": ("render.svg", "polygons"),
    "render.bytes": ("render.svg", "bytes"),
}
LAYERS = ("cli", "fragments", "linalg", "tiling", "facets", "slices", "render")


_CAL_ROWS = [[(3 * i + 7 * j) % 11 - 5 for j in range(5)] for i in range(5)]
_CAL_TEXT = "# kernel\n2 3\n" + "\n".join(" ".join(f"{x}/{1 + (x % 3)}" for x in row) for row in _CAL_ROWS) + "\n"
_CAL_TOKEN = re.compile(r"\S+")


def _kernel():
    """A fixed imitation of one short CLI invocation: build and run an
    argument parser, tokenize a matrix text, take Fraction determinants
    (Bareiss) and a mat-vec, and scan a small integer box."""
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c", "d"):
        p = sub.add_parser(name)
        for flag in ("--u", "--v", "--w", "--x", "--y", "--z"):
            p.add_argument(flag, default=None)
    parser.parse_args(["b", "--u=1", "--w=2"])
    rows = [[Fraction(t.group()) for t in _CAL_TOKEN.finditer(line)] for line in _CAL_TEXT.splitlines()[2:]]
    for shift in range(5):
        m = [row[shift:] + row[:shift] for row in rows]
        prev = Fraction(1)
        for c in range(4):
            if m[c][c] == 0:
                break
            for r in range(c + 1, 5):
                for k in range(c + 1, 5):
                    m[r][k] = (m[r][k] * m[c][c] - m[r][c] * m[c][k]) / prev
            prev = m[c][c]
    v = tuple(Fraction(i + 1, 2**31 - i) for i in range(5))
    tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows)
    h = [[x * 3 for x in row] for row in _CAL_ROWS]
    hits = 0
    for z in product(range(-1, 2), repeat=4):
        for i in range(5):
            num = 40 - sum(h[i][j] * z[j] for j in range(4))
            if num < 0 or num > 80:
                break
        else:
            hits += 1
    return hits


def calibrate() -> float:
    """Best of CAL_REPEATS timings of the calibration kernel, in seconds."""
    best = float("inf")
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def speed_factors(cals: list[float]) -> list[float]:
    """Reference seconds per raw second for each interval between two
    consecutive calibrations."""
    return [CAL_REF_S * 2 / (a + b) for a, b in zip(cals, cals[1:])]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="fragtile benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_record(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit_id(),
    }


def commit_id() -> str:
    """HEAD of the enclosing git checkout, read from .git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    def __init__(self, args):
        from fragtile.cli import run as cli_run

        import checks
        import tracer
        import workloads

        self.args = args
        self.cli_run = cli_run
        self.checks = checks
        self.tracer_mod = tracer
        self.workloads = workloads
        self.commands = workloads.WORKLOADS[args.workload](args.seed)
        self.matrices = list(dict.fromkeys(c.matrix for c in self.commands))
        self.tracer = tracer.Tracer()
        self.tracing = False

    # -- measurement ---------------------------------------------------
    def setup_times(self) -> list[float]:
        """parse + fragment family + direction + engine build, summed over
        the workload's matrices, SETUP_REPS times."""
        from fragtile import TilingEngine, choose_generic_direction, decompose, fragment_set
        from fragtile.cli import parse_matrix

        texts = [self.workloads.matrix_path(name).read_text() for name in self.matrices]
        totals = []
        for _ in range(SETUP_REPS):
            gc.collect()
            raw = []
            cals = [calibrate()]
            for text in texts:
                start = time.perf_counter()
                dims, m = parse_matrix(text)
                fs = fragment_set(decompose(m, dims))
                TilingEngine(fs, choose_generic_direction(fs, self.args.seed))
                raw.append(time.perf_counter() - start)
                cals.append(calibrate())
            totals.append(sum(t * f for t, f in zip(raw, speed_factors(cals))))
        return totals

    def invoke(self, index: int, argv) -> tuple[float, int | None, str]:
        out = io.StringIO()
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if self.tracing:
                    self.tracer.command = index
                    code = self.tracer.span("cli.run", self.cli_run, list(argv))
                else:
                    code = self.cli_run(list(argv))
        except Exception as exc:  # an operation that raises counts as failed
            code = None
            out.write(f"\nraised {exc!r}")
        return time.perf_counter() - start, code, out.getvalue()

    def run_pass(self, traced: bool) -> dict:
        first_span = len(self.tracer.spans)
        if traced:
            self.tracer.install()
            self.tracing = True
        gc.collect()
        results = []
        cals = [calibrate()]
        start = time.perf_counter()
        try:
            for index, cmd in enumerate(self.commands):
                results.append(self.invoke(index, cmd.argv))
                cals.append(calibrate())
        finally:
            raw_wall = time.perf_counter() - start
            if traced:
                self.tracing = False
                self.tracer.uninstall()
        factors = speed_factors(cals)
        latencies = [lat * f for (lat, _, _), f in zip(results, factors)]
        record = {
            "traced": traced,
            "wall": sum(latencies),
            "raw_wall": raw_wall,
            "latencies": latencies,
            "verdicts": [(code, hashlib.sha256(out.encode()).hexdigest()) for _, code, out in results],
            "outcomes": [self.checks.outcome(code, out, cmd.known) for cmd, (_, code, out) in zip(self.commands, results)],
            "reports": [self.checks.report_counts(cmd.name, out) for cmd, (_, _, out) in zip(self.commands, results)],
        }
        record["failures"] = [
            f"{' '.join(cmd.argv)} -> exit {code}: {out.strip().splitlines()[-1] if out.strip() else ''}"
            for cmd, (_, code, out), o in zip(self.commands, results, record["outcomes"])
            if o == "failed"
        ]
        if traced:
            record["layers"] = self.layer_metrics(self.tracer.spans[first_span:], factors)
        return record

    def run_passes(self) -> list[dict]:
        """Passes until the next one would end after --seconds; with tracing,
        untraced and traced passes alternate, at least one of each."""
        passes = []
        start = time.perf_counter()
        while True:
            traced = bool(self.args.trace) and len(passes) % 2 == 1
            passes.append(self.run_pass(traced))
            elapsed = time.perf_counter() - start
            needed = 2 if self.args.trace else 1
            next_wall = max(p["raw_wall"] for p in passes[-2:])
            if len(passes) >= needed and elapsed + next_wall > self.args.seconds:
                return passes

    # -- per-layer aggregation -----------------------------------------
    def layer_metrics(self, spans, factors) -> dict:
        """Per-layer times (reference seconds) and counts of one traced pass."""
        T = self.tracer_mod
        spans = [
            s[: T.START] + [s[T.START] * factors[s[T.CMD]], s[T.END] * factors[s[T.CMD]],
                            s[T.COVER] * factors[s[T.CMD]], s[T.EXTRA]]
            for s in spans
        ]
        own = T.self_times(spans)
        base = spans[0][T.SID] if spans else 0
        by_id = {s[T.SID]: s for s in spans}

        def outermost(span, group):
            parent = span[T.PARENT]
            while parent >= base:
                anc = by_id[parent]
                if anc[T.NAME] in group:
                    return False
                parent = anc[T.PARENT]
            return True

        out: dict[str, float] = {}
        for metric, group in INCLUSIVE.items():
            out[metric] = sum(
                s[T.END] - s[T.START] for s in spans if s[T.NAME] in group and outermost(s, group)
            )
        for metric, name in CALLS.items():
            out[metric] = sum(1 for s in spans if s[T.NAME] == name)
        for metric, (name, key) in EXTRAS.items():
            out[metric] = sum(s[T.EXTRA][key] for s in spans if s[T.NAME] == name and s[T.EXTRA])
        out["tiling.tiles_at_s"] = sum(o for s, o in zip(spans, own) if s[T.NAME] == "tiling.tiles_at")
        # crossing_check time minus its tiles_at and engine-build children.
        crossing_children = sum(
            s[T.COVER] - s[T.START]
            for s in spans
            if s[T.NAME] in ("tiling.tiles_at", "tiling.engine_build")
            and s[T.PARENT] >= base
            and by_id[s[T.PARENT]][T.NAME] == "facets.crossing"
        )
        out["facets.crossing_self_s"] = out["facets.crossing_s"] - crossing_children
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                o for s, o in zip(spans, own) if s[T.NAME].split(".", 1)[0] == layer
            )
        per_matrix: dict[str, list[int]] = {}
        for s in spans:
            if s[T.NAME] == "tiling.tiles_at" and s[T.EXTRA]:
                acc = per_matrix.setdefault(self.commands[s[T.CMD]].matrix, [0, 0])
                acc[0] += s[T.EXTRA]["candidates"]
                acc[1] += s[T.EXTRA]["hits"]
        out["per_matrix"] = per_matrix
        return out

    # -- correctness ---------------------------------------------------
    def oracle_check(self) -> dict:
        """Engine tile location against the widened-box oracle on the first
        sample point of each verify command and each coverage --point."""
        from fragtile import TilingEngine, choose_generic_direction, decompose, fragment_set

        queries = []
        for cmd in self.commands:
            if cmd.name not in ("verify", "coverage"):
                continue
            dims, m = self.workloads.load_matrix(cmd.matrix)
            fs = fragment_set(decompose(m, dims))
            seed = int(cmd.option("--seed"))
            w = choose_generic_direction(fs, seed)
            if cmd.name == "verify":
                point = self.workloads.verify_points(m, seed, 1)[0]
            else:
                point = tuple(Fraction(x) for x in cmd.option("--point").split(","))
            oracle = self.checks.Oracle(fs, w)
            queries.append((oracle.volume(point), cmd.matrix, fs, w, point, oracle))
        # Smallest box first, but every matrix's smallest point before any
        # matrix's second one, so the budget spreads over the matrices.
        queries.sort(key=lambda q: q[0])
        seen: Counter = Counter()
        ranked = []
        for query in queries:
            ranked.append((seen[query[1]], query[0], query))
            seen[query[1]] += 1
        queries = [query for *_, query in sorted(ranked, key=lambda r: r[:2])]
        checked: Counter = Counter()
        mismatches, scanned = [], 0
        for volume, name, fs, w, point, oracle in queries:
            if scanned + volume > ORACLE_BUDGET:
                continue
            scanned += volume
            found, _ = TilingEngine(fs, w).tiles_at(point)
            engine = sorted((tile.sigma, tile.z) for tile, _ in found)
            checked[name] += 1
            if engine != oracle.tiles(point):
                mismatches.append(f"{name} at {','.join(map(str, point))}")
        return {
            "points": len(queries),
            "checked": sum(checked.values()),
            "matrices": len(checked),
            "scanned": scanned,
            "mismatches": mismatches,
        }

    def digest_check(self, verdicts) -> dict | None:
        if self.args.seed != DIGEST_SEED:
            return None
        recorded = json.loads((HERE / "digests.json").read_text()).get(self.args.workload, [])
        digests = [digest for _, digest in verdicts]
        changed = [
            " ".join(cmd.argv) for cmd, now, then in zip(self.commands, digests, recorded) if now != then
        ]
        if len(recorded) != len(digests):
            changed.append(f"{len(recorded)} recorded digests for {len(digests)} commands")
        return {"commands": len(digests), "changed": changed}


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(commands_per_pass: int) -> int:
    """Highest percentile with at least ten invocations of one pass beyond it."""
    for q in TAIL_PERCENTILES:
        if commands_per_pass * (100 - q) / 100 >= 10:
            return q
    return TAIL_PERCENTILES[-1]


def rate(passes, commands, unit_key: str, command: str):
    work = sum(r.get(unit_key, 0) for p in passes for r in p["reports"])
    busy = sum(
        lat for p in passes for cmd, lat in zip(commands, p["latencies"]) if cmd.name == command
    )
    return (work / busy if busy else None), work, busy


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fragtile
    except ImportError as exc:
        print(f"error: cannot import fragtile from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(fragtile.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: fragtile imported from {fragtile.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    bench = Bench(args)
    record = run_record(args)
    setups = bench.setup_times()
    passes = bench.run_passes()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    oracle = bench.oracle_check()

    commands = bench.commands
    verdicts = passes[0]["verdicts"]
    problems = []
    if any(p["verdicts"] != verdicts for p in passes):
        problems.append("verdicts or stdout differ between passes" + (" (traced vs untraced)" if args.trace else ""))
    for p in passes:
        problems.extend(p["failures"])
    if oracle["mismatches"]:
        problems.append(f"oracle mismatch: {oracle['mismatches']}")
    digests = bench.digest_check(verdicts)
    if digests and digests["changed"]:
        problems.append(f"stdout changed from the seed commit: {digests['changed']}")

    outcomes = Counter(o for p in passes for o in p["outcomes"])
    attempted = sum(outcomes.values())
    failed = outcomes["failed"]
    report_totals = Counter()
    for r in passes[0]["reports"]:
        report_totals.update(r)

    lines = [
        "run " + " ".join(f"{k}={json.dumps(v) if isinstance(v, str) and ' ' in v else v}" for k, v in record.items()),
        f"passes={len(passes)} commands_per_pass={len(commands)} matrices={len(bench.matrices)}",
    ]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    walls = [p["wall"] for p in untraced]
    latencies = [lat for p in untraced for lat in p["latencies"]]
    q_tail = tail_percentile(len(commands))
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "cmd_p50_s": statistics.median(latencies),
        "cmd_tail_s": quantile(latencies, q_tail),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "wall_s": f"median wall of one pass over {len(walls)} untraced passes",
        "setup_s": f"median of {SETUP_REPS} set-ups of {len(bench.matrices)} matrices",
        "cmd_p50_s": f"p50 of {len(latencies)} invocations",
        "cmd_tail_s": f"p{q_tail} of {len(latencies)} invocations ({len(commands)} per pass)",
        "peak_rss_mb": "peak resident set of this process",
    }
    for metric, unit in END_TO_END_UNITS.items():
        lines.append(f"{metric:<22} {end_to_end[metric]:>14.6f} {unit:<6} {notes[metric]}")
    for metric, key, command in (
        ("verify_samples_per_s", "verify_samples", "verify"),
        ("crossing_rays_per_s", "crossing_rays", "crossing"),
        ("cover_samples_per_s", "cover_samples", "double-cover"),
    ):
        value, work, busy = rate(untraced, commands, key, command)
        if value is not None:
            lines.append(f"{metric:<22} {value:>14.3f} {'1/s':<6} {work} {key} in {busy:.3f} s of {command}")
    lines.append(
        f"{'failed_share':<22} {failed / attempted:>14.6f} {'ratio':<6} {failed} failed of {attempted} attempted; "
        f"{outcomes['known']} recorded discrepancies (NOTES.md)"
    )
    lines.append(
        f"oracle: {oracle['checked']} of {oracle['points']} query points on {oracle['matrices']} matrices checked "
        f"({oracle['scanned']} widened-box candidates), {len(oracle['mismatches'])} mismatches"
    )
    if digests is None:
        lines.append(f"stdout digests: compared only at seed {DIGEST_SEED}")
    else:
        lines.append(f"stdout digests: {digests['commands'] - len(digests['changed'])} of {digests['commands']} match the seed commit")
    lines.append("report counters per pass: " + " ".join(f"{k}={v}" for k, v in sorted(report_totals.items())))

    result = {"run": record, "end_to_end": end_to_end, "report_counters": dict(report_totals),
              "oracle": oracle, "digests": digests, "problems": problems,
              "passes": [{k: p[k] for k in ("traced", "wall", "raw_wall", "latencies")} for p in passes]}
    metrics = {m: {"value": end_to_end[m], "unit": u} for m, u in END_TO_END_UNITS.items()}

    if args.trace:
        layers = [p["layers"] for p in traced]
        if any(layer_counts(l) != layer_counts(layers[0]) for l in layers):
            problems.append("per-layer counts differ between traced passes")
        layer = {}
        for key, value in layers[0].items():
            if key == "per_matrix":
                continue
            values = [l[key] for l in layers]
            layer[key] = statistics.median(values) if key.endswith("_s") else value
        layer.update({k: report_totals.get(k, 0) for k in ("tiling.boundary_redraws", "facets.crossings", "facets.resamples", "facets.cover_redraws")})
        layer["tiling.candidates_per_hit"] = layer["tiling.candidates"] / layer["tiling.hits"] if layer["tiling.hits"] else 0.0
        traced_wall = statistics.median(p["wall"] for p in traced)
        layer["trace.overhead_s"] = traced_wall - end_to_end["wall_s"]
        lines.append(f"traced passes={len(traced)} traced wall_s={traced_wall:.6f} untraced wall_s={end_to_end['wall_s']:.6f}")
        for key in sorted(layer):
            unit = "s" if key.endswith("_s") else "ratio" if key.endswith("per_hit") else "count"
            shown = "" if key in PER_LAYER_UNITS else "  (report only)"
            lines.append(f"{key:<30} {layer[key]:>16.6f} {unit}{shown}")
        for name, (cands, hits) in sorted(layers[0]["per_matrix"].items()):
            lines.append(f"matrix {name:<10} tiling.candidates={cands} tiling.hits={hits} "
                         f"tiling.candidates_per_hit={cands / hits if hits else 0:.1f}")
        result["per_layer"] = layer
        result["per_matrix"] = layers[0]["per_matrix"]
        metrics = {m: {"value": layer[m], "unit": u} for m, u in PER_LAYER_UNITS.items()}

    correct = not problems
    for problem in problems:
        lines.append(f"PROBLEM {problem}")
    lines.append(f"correct={'true' if correct else 'false'}")
    print("\n".join(lines))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    if args.trace:
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for span in bench_spans(bench):
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_counts(layer: dict) -> dict:
    return {k: v for k, v in layer.items() if not k.endswith("_s")}


def bench_spans(bench):
    T = bench.tracer_mod
    tracer = bench.tracer
    origin = tracer.spans[0][T.START] if tracer.spans else 0.0
    for s in tracer.spans:
        yield {
            "id": s[T.SID], "parent": s[T.PARENT], "command": s[T.CMD], "name": s[T.NAME],
            "start": round(s[T.START] - origin, 7), "end": round(s[T.END] - origin, 7),
        }


if __name__ == "__main__":
    sys.exit(main())
