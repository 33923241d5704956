"""Seeded workload generators.

Each builder turns a seed into one round of CLI operations, the checks for
their outputs and the shares of the input properties the program's work
depends on. Continuous draws are stratified (one draw per equal slice of the
range, then shuffled), so two seeds give different inputs with nearly the
same mix of cheap and costly cases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

FREQS_MHZ = (433.0, 868.0, 915.0, 2400.0, 5800.0)
SENSITIVITY_DBM = -137.0
DELTA_CAP = 0.95
MAST_M = 30.0

# (rc, output text or None, captured stderr) -> failure reason or None
Check = Callable[[int, "str | None", str], "str | None"]


@dataclass
class Op:
    kind: str  # csv/json, the swept variable, or range/delta/height
    argv: list[str]
    items: int  # nodes, sweep points or solves the op completes
    out: Path
    check: Check
    known_miss: bool = False  # a peak-window budget the cover scan steps over
    # last parsed solve output; the program is deterministic, so every round
    # of the same op parses to the same result
    result: dict = field(default_factory=dict)
    verified: set = field(default_factory=set)  # digests of outputs that passed the check


@dataclass
class Workload:
    name: str
    round: list[Op]
    warmup: list[Op]
    setup_argv: list[str]
    properties: dict
    # wall seconds of one full-size round on the reference host (README,
    # baseline); a run does the whole rounds that fill its --seconds there
    round_s: float
    # (d_km, delta, f_mhz) drawn from the workload's own inputs, all below full
    # cover, for timing the microsecond-scale propagation functions directly
    samples: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)


def stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    return rng.permutation(lo + (np.arange(n) + rng.random(n)) * (hi - lo) / n)


def log_stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    return np.exp(stratified(rng, n, np.log(lo), np.log(hi)))


def _expect_ok(parse: Callable[[str], "str | None"]) -> Check:
    def check(rc, text, stderr):
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[:200]}"
        return parse(text)
    return check


def _sample(rng, arrays, n=20_000):
    size = len(arrays[0])
    pick = rng.choice(size, size=min(n, size), replace=False)
    return tuple(np.asarray(a, dtype=float)[pick] for a in arrays)


# ---------------------------------------------------------------- scenario

REGIME_SHARES = {"zero": 0.10, "linear": 0.25, "power": 0.35, "extrapolated": 0.295, "full": 0.005}
RADIO = {
    "tx_power_dbm": 14.0,
    "tx_gain_dbi": 2.0,
    "rx_gain_dbi": 2.0,
    "rx_sensitivity_dbm": -137.0,
    "required_margin_db": 10.0,
}


def _scenario_doc(rng, n: int):
    counts = {k: int(round(v * n)) for k, v in REGIME_SHARES.items()}
    counts["power"] += n - sum(counts.values())
    target = rng.permutation(np.repeat(list(counts), list(counts.values())))
    d = log_stratified(rng, n, 0.05, 20.0)
    deep = (target == "extrapolated") & (d < 0.45)  # 400 m of cover needs a longer path
    d[deep] = log_stratified(rng, int(deep.sum()), 0.45, 20.0)
    u = rng.random(n)
    d_m = d * 1000.0
    delta = np.select(
        [target == "zero", target == "linear", target == "power", target == "extrapolated"],
        [
            np.zeros(n),
            np.minimum(0.999, 14.0 / d_m) * (1.0 - u),
            14.0 / d_m + (np.minimum(0.999, 400.0 / d_m) - 14.0 / d_m) * (1.0 - u),
            400.0 / d_m + (0.999 - 400.0 / d_m) * u,
        ],
        default=1.0,
    )
    by_height = np.zeros(n, dtype=bool)
    by_height[rng.permutation(n)[: n // 2]] = True
    nodes, effective = [], np.empty(n)
    for i in range(n):
        node = {"id": f"n{i:06d}", "d_km": float(d[i])}
        if by_height[i]:
            h_f = float(delta[i] * MAST_M)
            node["h_f_m"] = h_f
            effective[i] = h_f / MAST_M
        else:
            node["delta"] = float(delta[i])
            effective[i] = float(delta[i])
        nodes.append(node)
    doc = {
        "name": "benchmark-farm",
        "frequency_mhz": 868.0,
        "base_height_m": MAST_M,
        "radio": RADIO,
        "nodes": nodes,
    }
    return doc, d, effective


def scenario_batch(seed: int, work: Path, quick: bool) -> Workload:
    rng = np.random.default_rng(seed)
    n = 2_000 if quick else 100_000
    doc, d, delta = _scenario_doc(rng, n)
    path = work / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    full = delta >= 1.0
    expect = oracle.ScenarioOracle([nd["id"] for nd in doc["nodes"]], d, delta, full, 868.0, RADIO)
    props = expect.properties()
    props["by_height_share"] = sum("h_f_m" in nd for nd in doc["nodes"]) / n
    props["link_ok_share"] = expect.link_ok_count() / n

    def ops(file: Path, expected: oracle.ScenarioOracle, items: int) -> list[Op]:
        def check_csv(text):
            rows, reason = oracle.read_csv(text, oracle.REPORT_COLUMNS)
            return reason or expected.check(rows, None)

        def check_json(text):
            objects, reason = oracle.read_json(text)
            if reason:
                return reason
            if not isinstance(objects, list):
                return "JSON output is not an array"
            return expected.check(None, objects)

        made = []
        for fmt, parse in (("csv", check_csv), ("json", check_json)):
            out = work / f"out.{fmt}"
            argv = ["scenario", "--file", str(file), "--format", fmt, "--out", str(out)]
            made.append(Op(fmt, argv, items, out, _expect_ok(parse)))
        return made

    small_doc, small_d, small_delta = _scenario_doc(np.random.default_rng(seed + 1), 20)
    small = work / "scenario_small.json"
    small.write_text(json.dumps(small_doc), encoding="utf-8")
    small_expect = oracle.ScenarioOracle(
        [nd["id"] for nd in small_doc["nodes"]], small_d, small_delta, small_delta >= 1.0, 868.0, RADIO
    )
    ok = ~full
    return Workload(
        name="scenario_batch",
        round=ops(path, expect, n),
        warmup=ops(small, small_expect, 20),
        setup_argv=["scenario", "--file", str(small), "--format", "csv", "--out", str(work / "setup.csv")],
        properties=props,
        round_s=12.0,
        samples=_sample(rng, (d[ok], delta[ok], np.full(int(ok.sum()), 868.0))),
    )


# ------------------------------------------------------------------- sweep

SWEEP_VARS = ("delta", "foliage-height", "distance", "frequency-mhz")


def _sweep_op(var, params, steps, out) -> Op:
    p = params
    argv = ["sweep", "--var", var, "--start", repr(p["start"]), "--stop", repr(p["stop"]),
            "--steps", str(steps)]
    if var in ("delta", "foliage-height", "frequency-mhz"):
        argv += ["--d-km", repr(p["d_km"])]
    if var == "foliage-height":
        argv += ["--h-m", repr(p["h_m"])]
    if var in ("distance", "frequency-mhz"):
        argv += ["--delta", repr(p["delta"])]
    if var != "frequency-mhz":
        argv += ["--f-mhz", repr(p["f_mhz"])]
    argv += ["--format", "csv", "--out", str(out)]

    def parse(text):
        return oracle.check_sweep(text, var, p["start"], p["stop"], steps, p.get("d_km"),
                                  p.get("f_mhz"), p.get("delta"), p.get("h_m"))
    return Op(var, argv, steps, out, _expect_ok(parse))


def _sweep_grid(var, p, steps):
    x = np.linspace(p["start"], p["stop"], steps)
    ones = np.ones(steps)
    if var == "delta":
        return p["d_km"] * ones, x, p["f_mhz"] * ones
    if var == "foliage-height":
        return p["d_km"] * ones, x / p["h_m"], p["f_mhz"] * ones
    if var == "distance":
        return x, p["delta"] * ones, p["f_mhz"] * ones
    return p["d_km"] * ones, p["delta"] * ones, x


def sweep_dense(seed: int, work: Path, quick: bool) -> Workload:
    rng = np.random.default_rng(seed)
    steps = 2_000 if quick else 100_000
    freq = rng.permutation(FREQS_MHZ)
    dist = log_stratified(rng, 3, 0.05, 10.0)
    params = {
        "delta": {"start": 0.0, "stop": DELTA_CAP, "d_km": float(dist[0]),
                  "f_mhz": float(freq[0])},
        "foliage-height": {"start": 0.0, "stop": float(rng.uniform(20.0, 29.9)), "h_m": MAST_M,
                           "d_km": float(dist[1]), "f_mhz": float(freq[1])},
        "distance": {"start": 0.05, "stop": float(rng.uniform(10.0, 30.0)),
                     "delta": float(rng.uniform(0.05, 0.9)), "f_mhz": float(freq[2])},
        "frequency-mhz": {"start": 400.0, "stop": 6000.0, "d_km": float(dist[2]),
                          "delta": float(rng.uniform(0.05, 0.9))},
    }
    grids = [_sweep_grid(v, params[v], steps) for v in SWEEP_VARS]
    d, delta, f = (np.concatenate(parts) for parts in zip(*grids))
    d_f = delta * d * 1000.0
    regime = oracle.regime_of(d_f)
    props = {
        "points_per_sweep": steps,
        "params": params,
        "regime_share": {r: float(np.mean(regime == r)) for r in ("zero", "linear", "power")},
        "extrapolated_share": float(np.mean(d_f > oracle.VALIDATED_MAX_M)),
        "full_cover_share": 0.0,
    }
    return Workload(
        name="sweep_dense",
        round=[_sweep_op(v, params[v], steps, work / "sweep.csv") for v in SWEEP_VARS],
        warmup=[_sweep_op(v, params[v], 50, work / "sweep.csv") for v in SWEEP_VARS],
        setup_argv=["sweep", "--var", "delta", "--start", "0", "--stop", "0.5", "--steps", "2",
                    "--d-km", "2", "--f-mhz", "868", "--format", "csv",
                    "--out", str(work / "setup.csv")],
        properties=props,
        round_s=14.0,
        samples=_sample(rng, (d, delta, f)),
    )


# ------------------------------------------------------------------ solves

# shares of the cover (delta and height) solves, by what the budget makes
# the solver do
COVER_CASES = {
    "early_frontier": 0.25,  # frontier below delta 0.3: a short scan
    "mid_frontier": 0.25,
    "deep_frontier": 0.15,  # frontier past delta 0.9, beyond the preset's 0.905 peak
    "all_feasible": 0.22,  # budget above the peak: the full 10k-point scan
    "no_solution": 0.10,  # budget below the loss at delta 0: exit 1, correct
    "peak_window": 0.03,  # peak - U(1e-7, 1e-6) dB at 5 km, 868 MHz: known miss
}
PEAK_WINDOW_GEOMETRY = (5.0, 868.0)


def _solve_argv(kind, tx, d_km, f_mhz, out, delta=None):
    argv = ["budget", "--solve", kind, "--tx-dbm", repr(tx), "--sensitivity-dbm",
            repr(SENSITIVITY_DBM), "--f-mhz", repr(f_mhz)]
    if kind == "range":
        argv += ["--delta", repr(delta)]
    else:
        argv += ["--d-km", repr(d_km)]
    if kind == "height":
        argv += ["--h-m", repr(MAST_M)]
    return argv + ["--format", "json", "--out", str(out)]


def _range_op(d_star, delta, f, out) -> Op:
    tx = float(oracle.total_db(d_star, delta, f)) + SENSITIVITY_DBM
    budget = oracle.solver_budget(tx, SENSITIVITY_DBM)

    def parse(text):
        result, reason = oracle.parse_solve(text, "range")
        op.result = result or {}
        return reason or oracle.check_range_solve(result, budget, delta, f)
    op = Op("range", _solve_argv("range", tx, None, f, out, delta), 1, out, _expect_ok(parse))
    return op


def _cover_op(kind, case, target_budget, curve: oracle.CoverCurve, out) -> Op:
    tx = float(target_budget) + SENSITIVITY_DBM
    budget = oracle.solver_budget(tx, SENSITIVITY_DBM)
    h_m = MAST_M if kind == "height" else None
    expect_no_solution = float(curve.loss(0.0)) > budget + oracle.SOLVER_LOSS_TOL_DB

    def check(rc, text, stderr):
        op.result = {}
        if expect_no_solution:
            if rc == 1 and stderr.startswith("error: even delta = 0") and text is None:
                return None
            return f"expected NoSolution (exit 1), got exit {rc}"
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[:200]}"
        result, reason = oracle.parse_solve(text, kind)
        op.result = result or {}
        return reason or oracle.check_cover_solve(result, kind, budget, curve, h_m)
    argv = _solve_argv(kind, tx, curve.d_km, curve.f_mhz, out)
    op = Op(kind, argv, 1, out, check, known_miss=case == "peak_window")
    return op


def _case_counts(n: int) -> dict:
    counts = {case: max(1, int(round(share * n))) for case, share in COVER_CASES.items()}
    counts["mid_frontier"] += n - sum(counts.values())
    return counts


def _cover_ops(rng, kind, n, out, cases_out) -> list[Op]:
    made = []
    for case, count in _case_counts(n).items():
        freqs = [FREQS_MHZ[i % len(FREQS_MHZ)] for i in rng.permutation(count)]
        if case == "peak_window":
            curve = oracle.CoverCurve(*PEAK_WINDOW_GEOMETRY, DELTA_CAP)
            for gap in stratified(rng, count, 1e-7, 1e-6):
                made.append(_cover_op(kind, case, curve.peak_loss() - gap, curve, out))
                cases_out.append(case)
            continue
        dists = log_stratified(rng, count, 3.0, 20.0) if case == "deep_frontier" else \
            log_stratified(rng, count, 0.3, 10.0)
        lo, hi = {"early_frontier": (0.02, 0.3), "mid_frontier": (0.3, 0.9),
                  "deep_frontier": (0.9, 0.948)}.get(case, (0.0, 1.0))
        fracs = stratified(rng, count, 0.0, 1.0)
        for d, f, u in zip(dists, freqs, fracs):
            d = float(d)
            curve = oracle.CoverCurve(d, f, DELTA_CAP)
            x_peak = max(curve.peaks, key=lambda p: p[1])[0]
            if case == "deep_frontier":
                while x_peak < 0.93 and d < 200.0:  # the peak moves deeper on longer paths
                    d *= 1.5
                    curve = oracle.CoverCurve(d, f, DELTA_CAP)
                    x_peak = max(curve.peaks, key=lambda p: p[1])[0]
            if case == "all_feasible":
                budget = curve.peak_loss() + 0.01 + 2.99 * u
            elif case == "no_solution":
                budget = float(curve.loss(0.0)) - 0.5 - 9.5 * u
            else:
                budget = float(curve.loss(min(lo + (hi - lo) * u, 0.98 * x_peak)))
            made.append(_cover_op(kind, case, budget, curve, out))
            cases_out.append(case)
    return made


def solve_mix(seed: int, work: Path, quick: bool) -> Workload:
    rng = np.random.default_rng(seed)
    per_kind = 10 if quick else 100
    out = work / "solve.json"
    d_star = log_stratified(rng, per_kind, 0.05, 50.0)
    deltas = np.where(np.arange(per_kind) % 10 == 0, 0.0, stratified(rng, per_kind, 0.02, 0.9))
    ops = [_range_op(float(d), float(dl), FREQS_MHZ[i % len(FREQS_MHZ)], out)
           for i, (d, dl) in enumerate(zip(d_star, deltas))]
    cases = ["range"] * per_kind
    ops += _cover_ops(rng, "delta", per_kind, out, cases)
    ops += _cover_ops(rng, "height", per_kind, out, cases)
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    cases = [cases[i] for i in order]
    n = len(ops)
    props = {
        "solves_per_round": n,
        "kind_share": {k: sum(op.kind == k for op in ops) / n for k in ("range", "delta", "height")},
        "case_share": {c: cases.count(c) / n for c in ["range", *COVER_CASES]},
        "frequency_share": {str(f): sum(f"{f!r}" in op.argv for op in ops) / n for f in FREQS_MHZ},
    }
    # the solvers evaluate each (d, f) along its cover-factor scan
    geo = [(float(op.argv[op.argv.index("--d-km") + 1]), float(op.argv[op.argv.index("--f-mhz") + 1]))
           for op in ops if op.kind != "range"]
    grid = np.linspace(0.0, DELTA_CAP, 100)
    d = np.repeat([g[0] for g in geo], grid.size)
    f = np.repeat([g[1] for g in geo], grid.size)
    delta = np.tile(grid, len(geo))
    warm = work / "warm.json"
    return Workload(
        name="solve_mix",
        round=ops,
        warmup=[_range_op(2.0, 0.5, 868.0, warm),
                _cover_op("delta", "early", float(oracle.total_db(2.0, 0.05, 868.0)),
                          oracle.CoverCurve(2.0, 868.0, DELTA_CAP), warm)],
        setup_argv=_solve_argv("range", -3.0, None, 868.0, work / "setup.json", 0.5),
        properties=props,
        round_s=11.5,
        samples=_sample(rng, (d, delta, f)),
    )


BUILDERS = {"scenario_batch": scenario_batch, "sweep_dense": sweep_dense, "solve_mix": solve_mix}
