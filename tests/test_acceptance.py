"""Acceptance suite: the nine shipping criteria, each at its pinned tolerance.

Each criterion is one test that prints a single PASS/FAIL line (shown with
``pytest -s``; pytest -v shows the same verdict per test). Reference dB
values were frozen from a 50-digit independent evaluation of the model
formulas.

Criterion 8 contains a deliberate red: its definition asserts a strictly
increasing total-loss column across the bundled cover-factor sweep, but the
model's total-loss curve peaks at cover factor ~0.905, inside the swept
range, so the last five rows descend. The assertion is kept as defined
rather than weakened; the failure message carries the analysis.
"""

import csv
import io
import json
import math
import random

import pytest

from foliage_link import (
    DomainError,
    LinkGeometry,
    ParseError,
    RadioConfig,
    SchemaError,
    delta_bounds,
    emit_csv,
    emit_json,
    emit_scenario,
    evaluate_scenario,
    foliage_split,
    max_foliage_factor,
    max_range,
    parse_scenario,
    preset,
    run_sweep,
    total_loss,
    weissberger_loss,
)
from foliage_link.cli import run


def _verdict(name: str, failures: list[str]) -> None:
    print(f"[{'PASS' if not failures else 'FAIL'}] {name}")
    assert not failures, f"{name}: " + "; ".join(failures)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _total(d_km: float, delta: float, f_mhz: float) -> float:
    return total_loss(LinkGeometry(d_km=d_km, delta=delta), f_mhz).l_total_db


def oracle_total_grid(d_km, delta, f_mhz):
    """The loss formulas rebuilt in numpy, independent of the package path."""
    import numpy as np
    d_f = np.asarray(delta, dtype=float) * np.asarray(d_km, dtype=float) * 1000.0
    f_ghz = np.asarray(f_mhz, dtype=float) / 1000.0
    foliage = np.where(
        d_f <= 0,
        0.0,
        np.where(
            d_f <= 14.0,
            0.45 * f_ghz**0.284 * d_f,
            1.33 * f_ghz**0.284 * np.maximum(d_f, 1e-300) ** 0.588,
        ),
    )
    fsp = (
        32.45
        + 20.0 * np.log10(np.asarray(d_km, dtype=float) * (1.0 - np.asarray(delta, dtype=float)))
        + 20.0 * np.log10(np.asarray(f_mhz, dtype=float))
    )
    return foliage + fsp


def test_criterion_1_no_foliage_baseline():
    failures: list[str] = []
    breakdown = total_loss(LinkGeometry(d_km=2, delta=0.0), 2400)
    _check(
        failures,
        abs(breakdown.l_total_db - 106.0748247) <= 1e-4,
        f"total {breakdown.l_total_db} not within 1e-4 of 106.0748247",
    )
    _check(failures, breakdown.l_foliage_db == 0.0, "foliage term must be 0 dB")
    _verdict("criterion 1: no-foliage baseline", failures)


def test_criterion_2_heavy_foliage_case():
    failures: list[str] = []
    breakdown = total_loss(LinkGeometry(d_km=2, delta=0.95), 2400)
    _check(failures, abs(breakdown.split.d_fsp_m - 100.0) <= 1e-6, "d_fsp != 100 m")
    _check(failures, abs(breakdown.split.d_f_m - 1900.0) <= 1e-6, "d_f != 1900 m")
    _check(
        failures,
        abs(breakdown.l_fsp_db - 80.05422483) <= 1e-4,
        f"L_fsp {breakdown.l_fsp_db} not within 1e-4 of 80.05422483",
    )
    _check(
        failures,
        abs(breakdown.l_foliage_db - 144.4570531) <= 1e-2,
        f"L_foliage {breakdown.l_foliage_db} not within 1e-2 of 144.4570531",
    )
    _check(
        failures,
        abs(breakdown.l_total_db - 224.5112779) <= 1e-2,
        f"total {breakdown.l_total_db} not within 1e-2 of 224.5112779",
    )
    _verdict("criterion 2: heavy-foliage case", failures)


def test_criterion_3_ratio_check():
    failures: list[str] = []
    ratio = _total(2, 0.95, 2400) / _total(2, 0.0, 2400)
    _check(failures, 2.10 <= ratio <= 2.13, f"ratio {ratio} outside [2.10, 2.13]")
    _verdict("criterion 3: heavy/baseline ratio", failures)


def test_criterion_4_height_case():
    failures: list[str] = []
    breakdown = total_loss(LinkGeometry(d_km=2, h_m=30, h_f_m=15), 2400)
    _check(failures, breakdown.split.delta == 0.5, "delta must be exactly 0.5")
    _check(
        failures,
        abs(breakdown.l_foliage_db - 99.04479) <= 1e-2,
        f"L_foliage {breakdown.l_foliage_db} not within 1e-2 of 99.04479",
    )
    _check(
        failures,
        abs(breakdown.l_total_db - 199.0990144) <= 1e-2,
        f"total {breakdown.l_total_db} not within 1e-2 of 199.0990144",
    )
    ratio = breakdown.l_total_db / _total(2, 0.0, 2400)
    _check(
        failures,
        abs(ratio - 1.876967649) <= 1e-4,
        f"ratio {ratio} not within 1e-4 of 1.876967649",
    )
    _verdict("criterion 4: height-derived case", failures)


def test_criterion_5_delta_bounds_arithmetic():
    failures: list[str] = []
    bounds = delta_bounds(0.01, 1, 0.5)
    _check(failures, bounds.alpha_low_min == 0.02, "alpha_low_min must equal 0.02 exactly")
    _check(
        failures,
        abs(bounds.alpha_high_max - 2 / 3) <= 1e-12,
        f"alpha_high_max {bounds.alpha_high_max} not within 1e-12 of 2/3",
    )
    _verdict("criterion 5: cover-factor band arithmetic", failures)


def test_criterion_6_property_suite():
    failures: list[str] = []
    rng = random.Random(20260810)

    # (a) split conservation over 1e5 random valid inputs
    worst = 0.0
    for _ in range(100_000):
        d_km = rng.uniform(1e-3, 50.0)
        delta = rng.random()
        split = foliage_split(d_km, delta)
        rel = abs(split.d_f_m + split.d_fsp_m - d_km * 1000.0) / (d_km * 1000.0)
        worst = max(worst, rel)
    _check(failures, worst <= 1e-9, f"split conservation worst rel error {worst}")

    # (b) foliage loss monotone in depth and frequency. Cross-branch pairs
    # clear the model's documented discontinuity window just above 14 m
    # (the power branch dips below the linear value until ~14.09 m).
    for _ in range(5_000):
        f = rng.uniform(150.0, 6000.0)
        bucket = rng.randrange(3)
        if bucket == 0:
            d1 = rng.uniform(1e-6, 14.0)
            d2 = rng.uniform(d1, 14.0)
        elif bucket == 1:
            d1 = rng.uniform(14.000001, 450.0)
            d2 = rng.uniform(d1, 450.0)
        else:
            d1, d2 = rng.uniform(1e-6, 14.0), rng.uniform(14.1, 450.0)
        if d2 <= d1:
            continue
        if not weissberger_loss(f, d1).loss_db < weissberger_loss(f, d2).loss_db:
            failures.append(f"not monotone in depth at f={f}, d=({d1}, {d2})")
            break
    for _ in range(5_000):
        d = rng.uniform(1e-3, 1000.0)
        f1 = rng.uniform(100.0, 6000.0)
        f2 = f1 * rng.uniform(1.000001, 3.0)
        if not weissberger_loss(f1, d).loss_db < weissberger_loss(f2, d).loss_db:
            failures.append(f"not monotone in frequency at d={d}, f=({f1}, {f2})")
            break

    # (c) branch-boundary jump below 0.5%
    for f in (433, 868, 2400, 5800):
        linear_side = weissberger_loss(f, 14.0).loss_db
        power_side = weissberger_loss(f, math.nextafter(14.0, 15.0)).loss_db
        jump = abs(linear_side - power_side) / linear_side
        _check(failures, jump < 0.005, f"boundary jump {jump} at f={f} exceeds 0.5%")

    # (d) zero depth is exactly 0 dB
    for _ in range(1_000):
        f = rng.uniform(1.0, 10_000.0)
        _check(failures, weissberger_loss(f, 0.0).loss_db == 0.0, f"nonzero loss at f={f}")
        if failures:
            break

    _verdict("criterion 6: model property suite", failures)


def test_criterion_7_solver_oracle_equivalence():
    import numpy as np
    failures: list[str] = []
    rng = random.Random(31)

    # parameter box chosen so total loss is strictly increasing in the cover
    # factor up to 0.76 (the curve's turn-down lies above that for every
    # corner of the box), keeping the feasibility frontier unique
    guard = oracle_total_grid(0.8, np.arange(0.0, 0.76, 1e-3), 800.0)
    assert np.all(np.diff(guard) > 0), "frontier-uniqueness guard violated"

    for trial in range(100):
        d_true = rng.uniform(0.8, 4.0)
        delta_true = rng.uniform(0.05, 0.75)
        f = rng.uniform(800.0, 5800.0)
        budget = _total(d_true, delta_true, f)
        radio = RadioConfig(budget, 0.0, 0.0, 0.0)

        range_result = max_range(radio, delta_true, f)
        if abs(range_result.value - d_true) > 1e-6:
            failures.append(
                f"trial {trial}: max_range {range_result.value} vs d {d_true}"
            )
            break
        d_grid = np.arange(d_true - 0.02, d_true + 0.02, 1e-4)
        feasible = oracle_total_grid(d_grid, delta_true, f) <= budget
        oracle_d = d_grid[np.nonzero(feasible)[0][-1]]
        if abs(range_result.value - oracle_d) > 1.01e-4:
            failures.append(f"trial {trial}: max_range off the grid oracle")
            break

        factor_result = max_foliage_factor(radio, d_true, f)
        if abs(factor_result.value - delta_true) > 1e-6:
            failures.append(
                f"trial {trial}: max_foliage_factor {factor_result.value} "
                f"vs delta {delta_true}"
            )
            break
        delta_grid = np.arange(0.0, 0.95, 1e-4)
        infeasible = np.nonzero(oracle_total_grid(d_true, delta_grid, f) > budget)[0]
        oracle_delta = delta_grid[infeasible[0] - 1] if infeasible.size else 0.95
        if abs(factor_result.value - oracle_delta) > 1.01e-4:
            failures.append(f"trial {trial}: max_foliage_factor off the grid oracle")
            break

    _verdict("criterion 7: solver-oracle equivalence (100 random triples)", failures)


def test_criterion_8_figure_reproduction(capsys):
    failures: list[str] = []

    code = run(["sweep", "--preset", "figure3", "--format", "csv"])
    out = capsys.readouterr().out
    _check(failures, code == 0, f"figure3 sweep exited {code}")
    rows = list(csv.DictReader(io.StringIO(out)))
    first, last = rows[0], rows[-1]
    _check(
        failures,
        abs(float(first["l_total_db"]) - 106.0748247) <= 1e-4,
        "figure3 first row does not match the no-foliage baseline",
    )
    _check(
        failures,
        abs(float(last["l_total_db"]) - 224.5112779) <= 1e-2
        and abs(float(last["l_fsp_db"]) - 80.05422483) <= 1e-4
        and abs(float(last["l_foliage_db"]) - 144.4570531) <= 1e-2,
        "figure3 last row does not match the heavy-foliage case",
    )
    fsp = [float(row["l_fsp_db"]) for row in rows]
    _check(
        failures,
        all(a > b for a, b in zip(fsp, fsp[1:])),
        "l_fsp_db not strictly decreasing",
    )
    # Defined as strictly increasing across all rows, but the model's total
    # curve peaks at cover factor ~0.905 (rows x=0.91..0.95 descend:
    # 226.012 -> 226.009 -> ... -> 224.511 dB), so this check cannot pass
    # without changing the model or the sweep. Kept as defined.
    total = [float(row["l_total_db"]) for row in rows]
    descents = [
        (rows[i]["x"], rows[i + 1]["x"])
        for i in range(len(total) - 1)
        if total[i] >= total[i + 1]
    ]
    _check(
        failures,
        not descents,
        f"l_total_db not strictly increasing; descending row pairs at x = {descents}",
    )

    code = run(["sweep", "--preset", "figure4", "--format", "csv"])
    out = capsys.readouterr().out
    _check(failures, code == 0, f"figure4 sweep exited {code}")
    rows4 = list(csv.DictReader(io.StringIO(out)))
    end = rows4[-1]
    _check(failures, float(end["x"]) == 15.0, "figure4 must end at h_f = 15 m")
    _check(
        failures,
        abs(float(end["l_total_db"]) - 199.0990144) <= 1e-2,
        "figure4 endpoint does not match the height-derived case",
    )
    _verdict("criterion 8: figure reproduction sweeps", failures)


SCENARIO_DOC = json.dumps(
    {
        "name": "acceptance",
        "frequency_mhz": 2400,
        "base_height_m": 30,
        "radio": {
            "tx_power_dbm": 14,
            "tx_gain_dbi": 2,
            "rx_gain_dbi": 2,
            "rx_sensitivity_dbm": -137,
            "required_margin_db": 10,
        },
        "nodes": [
            {"id": "clear", "d_km": 2, "delta": 0},
            {"id": "heavy", "d_km": 2, "delta": 0.95},
            {"id": "half", "d_km": 2, "h_f_m": 15},
        ],
    }
)


def _invalid_documents() -> list[tuple[str, type[Exception]]]:
    base = json.loads(SCENARIO_DOC)

    def variant(mutate) -> str:
        doc = json.loads(SCENARIO_DOC)
        mutate(doc)
        return json.dumps(doc)

    def drop_freq(doc):
        del doc["frequency_mhz"]

    def unknown_field(doc):
        doc["comment"] = "?"

    def both_sources(doc):
        doc["nodes"][0] = {"id": "x", "d_km": 2, "delta": 0.5, "h_f_m": 15}

    def no_source(doc):
        doc["nodes"][0] = {"id": "x", "d_km": 2}

    def delta_too_big(doc):
        doc["nodes"][0] = {"id": "x", "d_km": 2, "delta": 1.2}

    def negative_distance(doc):
        doc["nodes"][0] = {"id": "x", "d_km": -1, "delta": 0.5}

    def duplicate_id(doc):
        doc["nodes"] = [
            {"id": "x", "d_km": 2, "delta": 0.5},
            {"id": "x", "d_km": 1, "delta": 0.2},
        ]

    def radio_missing(doc):
        del doc["radio"]["rx_sensitivity_dbm"]

    def negative_margin(doc):
        doc["radio"]["required_margin_db"] = -1

    assert base  # canned template stays valid
    return [
        ("{ not json", ParseError),
        (variant(drop_freq), SchemaError),
        (variant(unknown_field), SchemaError),
        (variant(both_sources), SchemaError),
        (variant(no_source), SchemaError),
        (variant(delta_too_big), DomainError),
        (variant(negative_distance), DomainError),
        (variant(duplicate_id), SchemaError),
        (variant(radio_missing), SchemaError),
        (variant(negative_margin), DomainError),
    ]


def test_criterion_9_io_round_trips():
    failures: list[str] = []

    # scenario parse -> emit -> parse fixed point
    scenario = parse_scenario(SCENARIO_DOC)
    emitted = emit_scenario(scenario)
    reparsed = parse_scenario(emitted)
    _check(failures, reparsed == scenario, "parse(emit(s)) != s")
    _check(failures, emit_scenario(reparsed) == emitted, "emit is not a fixed point")

    # CSV numeric fields re-parse bit-exactly (sweep table and node reports)
    table = run_sweep(preset("figure3"))
    for parsed, row in zip(csv.DictReader(io.StringIO(emit_csv(table))), table.rows):
        for name in ("x", "delta", "d_f_m", "d_fsp_m", "l_foliage_db", "l_fsp_db", "l_total_db"):
            if float(parsed[name]) != getattr(row, name):
                failures.append(f"sweep CSV field {name} not bit-exact")
                break
    reports = evaluate_scenario(scenario)
    for parsed, report in zip(csv.DictReader(io.StringIO(emit_csv(reports))), reports):
        for name in ("delta", "l_total_db", "margin_db", "required_tx_dbm"):
            if float(parsed[name]) != getattr(report, name):
                failures.append(f"report CSV field {name} not bit-exact")
                break
    _check(
        failures,
        json.loads(emit_json(reports))[1]["l_total_db"] == reports[1].l_total_db,
        "JSON emission lost precision",
    )

    # ten canned invalid documents, each mapped to its designated error class
    for index, (document, error) in enumerate(_invalid_documents()):
        try:
            parse_scenario(document)
        except error:
            continue
        except Exception as exc:  # noqa: BLE001 - classify the mismatch
            failures.append(f"invalid doc {index} raised {type(exc).__name__}, wanted {error.__name__}")
        else:
            failures.append(f"invalid doc {index} was accepted, wanted {error.__name__}")

    _verdict("criterion 9: I/O round trips and validation", failures)
