"""foliage-link benchmark: seeded CLI workloads, checked outputs, end-to-end
and per-layer metrics.

    python3 perfbench/run.py --workload scenario_batch --seed 1 --seconds 20 --trace 0

One caller in one process drives ``foliage_link.cli.run`` in a closed loop:
each call waits for the previous one, as a planning script would. The run
repeats whole rounds of the workload's operations, as many as fill about
``--seconds`` on the reference host (a fixed count for a given ``--seconds``,
so every run of the same code attempts the same operations), checks every
output against the numpy oracle, and prints one JSON line last:

* ``--trace 0``: the end-to-end metrics listed in BENCHMARK.json.
* ``--trace 1``: the per-layer metrics. Half the rounds run untraced, then
  the same operations run with span wrappers installed; the difference is
  reported as ``trace.overhead_share``. Spans are written to
  ``.perfbench/trace-<workload>-seed<n>.jsonl``.

The line before the last holds the detail: environment, input property
shares, per-kind latency, failure reasons and the workload's named metrics.
``--quick`` shrinks every input for a smoke test. See perfbench/README.md.

Op times and set-up times are CPU seconds (user + system) of the process
that does the work. The program is single-threaded and CPU-bound, so on an
unshared CPU they equal its wall time; on a shared VM the wall clock also
counts the time the hypervisor takes the vCPU away, which swings by up to
a third from one second to the next and is not the program's. Wall times
are kept in the detail record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import oracle
import spans
import workloads
from spans import CHILD, END, NAME, OP, START, TIMED_CALLS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SPAWNS = 7
IMPORTTIME_SPAWNS = 3
MICRO_REPEATS = 5
MODULES = ("cli", "scenario", "sweep", "budget", "propagation")


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Result:
    op: workloads.Op
    seconds: float  # CPU time of this process (user + system) during the call
    wall: float
    failure: str | None

    @property
    def known_miss(self) -> bool:
        return (self.op.known_miss and self.failure is not None
                and self.failure.startswith(oracle.MISSED_WINDOW))


def load_program() -> dict:
    """Import the package from this checkout's ``src`` and nowhere else."""
    package = SRC / "foliage_link"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no foliage_link package under {SRC}")
    sys.path.insert(0, str(SRC))
    import foliage_link.cli  # noqa: F401

    if Path(sys.modules["foliage_link"].__file__).resolve().parent != package.resolve():
        raise BenchmarkError("foliage_link was imported from outside this checkout")
    return {f"foliage_link.{m}": sys.modules[f"foliage_link.{m}"] for m in MODULES}


def environment() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
    }


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def spawn(code: str, flags: tuple = ()) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run a fresh interpreter to the end: its CPU time, wall time and result."""
    cpu, start = children_cpu(), perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    return children_cpu() - cpu, perf_counter() - start, proc


def measure_setup(argv: list[str]) -> tuple[list[float], list[float]]:
    """CPU and wall times of fresh interpreters that import the CLI and run one small op."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); from foliage_link import cli; "
            f"sys.exit(cli.run({argv!r}))")
    cpu, wall = [], []
    for _ in range(SETUP_SPAWNS):
        cpu_s, wall_s, proc = spawn(code)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up op failed: {proc.stderr.decode()[-300:]}")
        cpu.append(cpu_s)
        wall.append(wall_s)
    return cpu, wall


def import_breakdown() -> dict:
    """numpy's and the whole package's share of ``import foliage_link.cli``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import foliage_link.cli"
    numpy_s, package_s = [], []
    for _ in range(IMPORTTIME_SPAWNS):
        *_, proc = spawn(code, ("-X", "importtime"))
        numpy_us = package_us = 0
        for line in proc.stderr.decode().splitlines():
            if not line.startswith("import time:") or line.count("|") != 2:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.strip() == "numpy":
                numpy_us = int(cumulative)
            if name.startswith(" foliage_link"):  # top level only: one space, no indent
                package_us += int(cumulative)
        numpy_s.append(numpy_us / 1e6)
        package_s.append(package_us / 1e6)
    return {"numpy": statistics.median(numpy_s), "package": statistics.median(package_s)}


def run_op(cli, op: workloads.Op) -> Result:
    """Time one call (CPU and wall) and check its output.

    An output byte-identical to one the oracle already passed for this op is
    not checked again.
    """
    op.out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        cpu, start = process_time(), perf_counter()
        try:
            rc = cli.run(op.argv)
        except Exception as exc:  # a crash fails this op; the run goes on and reports it
            return Result(op, process_time() - cpu, perf_counter() - start, f"raised {exc!r}")
        cpu, wall = process_time() - cpu, perf_counter() - start
    text = op.out.read_text(encoding="utf-8") if op.out.exists() else None
    digest = hashlib.sha256(f"{rc}\0{text}\0{err.getvalue()}".encode()).digest()
    if digest in op.verified:
        return Result(op, cpu, wall, None)
    failure = op.check(rc, text, err.getvalue())
    if failure is None:
        op.verified.add(digest)
    return Result(op, cpu, wall, failure)


def rounds_for(wl: workloads.Workload, seconds: float) -> int:
    """Rounds that take about ``seconds`` on the reference host, at least one."""
    return max(1, round(seconds / wl.round_s))


def run_rounds(cli, wl: workloads.Workload, rounds: int,
               tracer: spans.Tracer | None = None) -> list[Result]:
    results: list[Result] = []
    for _ in range(rounds):
        for op in wl.round:
            if tracer is not None:
                tracer.op = len(results)
            results.append(run_op(cli, op))
    return results


def warm_up(cli, wl: workloads.Workload) -> list[Result]:
    """Small ops that fill lazy caches; checked, but not timed."""
    return [run_op(cli, op) for op in wl.warmup]


def pct(values: list[float], q: float) -> float:
    """The q-th percentile (nearest rank above), 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(np.ceil(q / 100 * len(ordered))) - 1)]


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kind_stats(results: list[Result]) -> dict:
    stats = {}
    for kind in sorted({r.op.kind for r in results}):
        ms = [r.seconds * 1e3 for r in results if r.op.kind == kind]
        stats[kind] = {"n": len(ms), "p50_ms": p50(ms), "p90_ms": pct(ms, 90),
                       "p95_ms": pct(ms, 95), "mean_ms": mean(ms)}
    return stats


def named_metrics(wl: workloads.Workload, results: list[Result]) -> dict:
    """The workload's own figures, named as a user of that command would."""
    if wl.name == "scenario_batch":
        return {"csv_nodes_per_s": (items_per_s(results, {"csv"}), "1/s"),
                "json_nodes_per_s": (items_per_s(results, {"json"}), "1/s")}
    if wl.name == "sweep_dense":
        return {"points_per_s": (items_per_s(results, workloads.SWEEP_VARS), "1/s")}
    cover = {"delta", "height"}
    return {
        "solves_per_s": (items_per_s(results, {"range", "delta", "height"}), "1/s"),
        "range_solve_p50_ms": (p50([r.seconds * 1e3 for r in results if r.op.kind == "range"]), "ms"),
        "cover_solve_p50_ms": (p50([r.seconds * 1e3 for r in results if r.op.kind in cover]), "ms"),
        "cover_solve_p95_ms": (pct([r.seconds * 1e3 for r in results if r.op.kind in cover], 95), "ms"),
    }


def items_per_s(results: list[Result], kinds) -> float:
    """Work completed per CPU second of op time, over every op of the given kinds."""
    chosen = [r for r in results if r.op.kind in kinds]
    return sum(r.op.items for r in chosen) / sum(r.seconds for r in chosen)


def end_to_end(wl: workloads.Workload, results: list[Result], setup: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "items_per_s": (items_per_s(results, {op.kind for op in wl.round}), "1/s"),
    }


def micro_timings(prop, samples) -> dict:
    """Per-call microseconds of the propagation functions on the workload's inputs."""
    d, delta, f = (list(map(float, a)) for a in samples)
    d_f = [a * b * 1000.0 for a, b in zip(d, delta)]
    d_fsp = [a * (1.0 - b) for a, b in zip(d, delta)]
    geometry, split, weissberger = prop.LinkGeometry, prop.foliage_split, prop.weissberger_loss
    free_space, total = prop.free_space_loss, prop.total_loss
    geometries = [geometry(d_km=a, delta=b) for a, b in zip(d, delta)]
    loops = {
        "link_geometry": lambda: [geometry(d_km=a, delta=b) for a, b in zip(d, delta)],
        "foliage_split": lambda: [split(a, b) for a, b in zip(d, delta)],
        "weissberger_loss": lambda: [weissberger(c, x) for c, x in zip(f, d_f)],
        "free_space_loss": lambda: [free_space(x, c) for x, c in zip(d_fsp, f)],
        "total_loss": lambda: [total(g, c) for g, c in zip(geometries, f)],
    }
    timings = {}
    for name, loop in loops.items():
        runs = []
        for _ in range(MICRO_REPEATS):
            start = perf_counter()
            loop()
            runs.append(perf_counter() - start)
        timings[f"propagation.{name}_us"] = (statistics.median(runs) / len(d) * 1e6, "us")
    return timings


def per_layer(wl, tracer: spans.Tracer, traced: list[Result], overhead: float,
              imports: dict, micro: dict) -> dict:
    dur, own, loss_calls = {}, {}, {}
    for s in tracer.spans:
        dur.setdefault(s[NAME], []).append(s[END] - s[START])
        own.setdefault(s[NAME], []).append(s[END] - s[START] - s[CHILD])
        loss_calls.setdefault(s[NAME], []).append(s[TIMED_CALLS])

    def span_mean(table, fn):
        return mean(table.get(f"foliage_link.cli.{fn}", []))

    def by_kind(fn, kind):
        return mean(s[END] - s[START] for s in tracer.spans
                    if s[NAME] == f"foliage_link.cli.{fn}" and traced[s[OP]].op.kind == kind)

    m = {
        "setup.import_numpy_s": (imports["numpy"], "s"),
        "setup.import_foliage_link_s": (imports["package"], "s"),
        "cli.run_s": (span_mean(dur, "run"), "s"),
        "cli.self_s": (span_mean(own, "run"), "s"),
        "cli.build_parser_s": (span_mean(dur, "build_parser"), "s"),
        "scenario.parse_s": (span_mean(dur, "parse_scenario"), "s"),
        "scenario.evaluate_s": (span_mean(dur, "evaluate_scenario"), "s"),
        "scenario.evaluate_self_s": (span_mean(own, "evaluate_scenario"), "s"),
        "scenario.emit_csv_s": (span_mean(dur, "emit_csv"), "s"),
        "scenario.emit_json_s": (span_mean(dur, "emit_json"), "s"),
    }
    scenario = wl.name == "scenario_batch"
    props = wl.properties
    m["scenario.nodes"] = (props["nodes"] if scenario else 0, "count")
    m["scenario.error_rows"] = (round(props["full_cover_share"] * props["nodes"]) if scenario else 0, "count")
    m["scenario.link_ok"] = (round(props["link_ok_share"] * props["nodes"]) if scenario else 0, "count")
    m["sweep.run_sweep_s"] = (span_mean(dur, "run_sweep"), "s")
    m["sweep.self_s"] = (span_mean(own, "run_sweep"), "s")
    for var in workloads.SWEEP_VARS:
        m[f"sweep.{var.replace('-', '_')}_call_s"] = (by_kind("run_sweep", var), "s")
    m["sweep.points"] = (props["points_per_sweep"] if wl.name == "sweep_dense" else 0, "count")

    for solver in ("max_range", "max_foliage_factor", "max_foliage_height"):
        ms = [x * 1e3 for x in dur.get(f"foliage_link.cli.{solver}", [])]
        m[f"budget.{solver}_p50_ms"] = (p50(ms), "ms")
        m[f"budget.{solver}_p95_ms"] = (pct(ms, 95), "ms")
    cover_spans = ("foliage_link.cli.max_foliage_factor", "foliage_link.cli.max_foliage_height")
    m["budget.range_loss_evals"] = (mean(loss_calls.get("foliage_link.cli.max_range", [])), "count")
    m["budget.cover_loss_evals"] = (mean(c for n in cover_spans for c in loss_calls.get(n, [])), "count")
    solved = [(s, traced[s[OP]].op.result) for s in tracer.spans
              if s[NAME].startswith("foliage_link.cli.max_") and traced[s[OP]].op.result]
    cover = [(s, r) for s, r in solved if s[NAME] in cover_spans]
    m["budget.iterations"] = (mean(r["iterations"] for _, r in solved), "count")
    m["budget.scan_evals"] = (mean(s[TIMED_CALLS] - r["iterations"] - 1 for s, r in cover), "count")
    m["budget.all_feasible_share"] = (mean(r["all_feasible"] for _, r in cover), "ratio")
    m["budget.converged_share"] = (mean(r["converged"] for _, r in solved), "ratio")

    losses = sum(v for k, v in tracer.calls.items() if k.endswith(".total_loss"))
    checks = sum(v for k, v in tracer.calls.items() if not k.endswith(".total_loss"))
    m["propagation.total_loss_calls"] = (losses / len(traced), "count")
    m["propagation.total_loss_s"] = (sum(tracer.timed_s.values()) / len(traced), "s")
    m["propagation.checks_per_loss"] = (checks / losses if losses else 0.0, "ratio")
    m.update(micro)
    m["trace.overhead_share"] = (overhead, "ratio")
    return m


def as_metrics(table: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, for a smoke test")
    args = parser.parse_args(argv)

    try:
        modules = load_program()
    except (BenchmarkError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    cli = modules["foliage_link.cli"]
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, work, args.quick)
        detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "quick": args.quick, "env": env, "inputs": wl.properties}
        if args.trace:
            imports = import_breakdown()
            warm = warm_up(cli, wl)
            rounds = rounds_for(wl, args.seconds / 2)
            untraced = run_rounds(cli, wl, rounds)
            tracer = spans.Tracer()
            tracer.install(modules)
            try:
                traced = run_rounds(cli, wl, rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            base = sum(r.seconds for r in untraced)
            overhead = sum(r.seconds for r in traced) / base - 1.0
            micro = micro_timings(modules["foliage_link.propagation"], wl.samples)
            results = untraced + traced
            metrics = per_layer(wl, tracer, traced, overhead, imports, micro)
            trace_file = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl"
            tracer.write(trace_file)
            detail["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            setup, setup_wall = measure_setup(wl.setup_argv)
            warm = warm_up(cli, wl)
            results = run_rounds(cli, wl, rounds_for(wl, args.seconds))
            metrics = end_to_end(wl, results, setup)
            detail["setup_spawns_cpu_s"] = setup
            detail["setup_spawns_wall_s"] = setup_wall
        checked = warm + results
        failed = [r for r in checked if r.failure]
        unexpected = [r for r in failed if not r.known_miss]
        detail.update({
            "ops": len(results),
            "rounds": len(results) // len(wl.round),
            "op_cpu_seconds": sum(r.seconds for r in results),
            "op_wall_seconds": sum(r.wall for r in results),
            "kinds": kind_stats(results),
            "named": as_metrics({**named_metrics(wl, results),
                                 "error_rate": (len(failed) / len(checked), "ratio")}),
            "known_misses": sum(r.known_miss for r in checked),
            "failures": sorted({f"{r.op.kind}: {r.failure}" for r in failed})[:10],
        })
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": as_metrics(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
