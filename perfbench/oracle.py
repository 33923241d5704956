"""Independent numpy oracle for the loss model, and the output checkers.

The formulas follow the acceptance suite's ``oracle_total_grid``: the
Weissberger foliage term plus free-space loss over the unobstructed
remainder, evaluated with numpy rather than through the package.

Tolerance: numpy ``log10`` and ``**`` differ from ``math`` by one ulp on a
few percent of inputs, and the oracle multiplies in a different order than
the package. ``close`` therefore allows 1e-9 dB plus 1e-12 relative. A wrong
branch moves a loss by decibels and a wrong constant (32.4478 for 32.45) by
2e-3 dB, both far outside that bound.

Every check returns ``None`` when the output is right, or a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

FSPL_CONSTANT_DB = 32.45
LINEAR_MAX_M = 14.0
VALIDATED_MAX_M = 400.0
ABS_TOL_DB = 1e-9
REL_TOL = 1e-12
SOLVER_LOSS_TOL_DB = 1e-6  # the solvers' documented loss tolerance
SOLVER_DELTA_TOL = 1e-9
SOLVER_D_TOL_KM = 1e-7

REPORT_COLUMNS = [
    "id", "delta", "d_f_m", "d_fsp_m", "l_foliage_db", "l_fsp_db", "l_total_db",
    "regime", "validity", "margin_db", "required_tx_dbm", "link_ok",
]
SWEEP_COLUMNS = [
    "x", "delta", "d_f_m", "d_fsp_m", "l_foliage_db", "l_fsp_db", "l_total_db",
    "regime", "validity",
]
# A cover solve that reports every cover factor feasible while a narrow
# window above the budget lies between two of its scan points.
MISSED_WINDOW = "all_feasible, but"

SOLVE_KEYS = ["solve", "value", "achieved_loss_db", "iterations", "converged", "all_feasible"]


def foliage_db(d_f_m, f_mhz):
    d_f = np.asarray(d_f_m, dtype=float)
    f_ghz = np.asarray(f_mhz, dtype=float) / 1000.0
    return np.where(
        d_f <= 0,
        0.0,
        np.where(
            d_f <= LINEAR_MAX_M,
            0.45 * f_ghz**0.284 * d_f,
            1.33 * f_ghz**0.284 * np.maximum(d_f, 1e-300) ** 0.588,
        ),
    )


def fsp_db(d_fsp_km, f_mhz):
    return (
        FSPL_CONSTANT_DB
        + 20.0 * np.log10(np.asarray(d_fsp_km, dtype=float))
        + 20.0 * np.log10(np.asarray(f_mhz, dtype=float))
    )


def total_db(d_km, delta, f_mhz):
    """Total loss on arrays of cover factor below 1."""
    d_km = np.asarray(d_km, dtype=float)
    delta = np.asarray(delta, dtype=float)
    return foliage_db(delta * d_km * 1000.0, f_mhz) + fsp_db(d_km * (1.0 - delta), f_mhz)


def regime_of(d_f_m):
    d_f = np.asarray(d_f_m, dtype=float)
    return np.where(d_f <= 0, "zero", np.where(d_f <= LINEAR_MAX_M, "linear", "power"))


def validity_of(d_f_m):
    return np.where(np.asarray(d_f_m, dtype=float) > VALIDATED_MAX_M, "extrapolated", "in_domain")


def close(got, want) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.abs(got - want) <= ABS_TOL_DB + REL_TOL * np.abs(want)


def _first_bad(mask: np.ndarray) -> int | None:
    bad = np.flatnonzero(~mask)
    return int(bad[0]) if bad.size else None


def _check_split(cols: dict, d_km, delta, label: str) -> str | None:
    d_m = d_km * 1000.0
    for name, want in (("delta", delta), ("d_f_m", delta * d_m), ("d_fsp_m", (1.0 - delta) * d_m)):
        row = _first_bad(close(cols[name], want))
        if row is not None:
            return f"{label} row {row}: {name} {float(cols[name][row])!r} differs from the oracle"
    return None


def _check_losses(cols: dict, f_mhz, label: str) -> str | None:
    """Loss terms, regime and validity against the oracle at the emitted split.

    The emitted split has already matched the oracle, so a row that sits on
    a branch boundary to within an ulp is judged on the branch its own depth
    selects.
    """
    want_f = foliage_db(cols["d_f_m"], f_mhz)
    want_fsp = fsp_db(cols["d_fsp_m"] / 1000.0, f_mhz)
    for name, want in (
        ("l_foliage_db", want_f),
        ("l_fsp_db", want_fsp),
        ("l_total_db", want_f + want_fsp),
    ):
        row = _first_bad(close(cols[name], want))
        if row is not None:
            return f"{label} row {row}: {name} {float(cols[name][row])!r} vs oracle {float(want[row])!r}"
    for name, want in (("regime", regime_of(cols["d_f_m"])), ("validity", validity_of(cols["d_f_m"]))):
        row = _first_bad(np.asarray(cols[name]) == want)
        if row is not None:
            return f"{label} row {row}: {name} {cols[name][row]!r}, oracle says {want[row]!r}"
    return None


# ---------------------------------------------------------------- scenario


class ScenarioOracle:
    """Expected per-node reports of one generated scenario."""

    def __init__(self, ids, d_km, delta, full, f_mhz, radio):
        self.ids = list(ids)
        self.d_km = np.asarray(d_km, dtype=float)
        self.delta = np.asarray(delta, dtype=float)
        self.full = np.asarray(full, dtype=bool)
        self.f_mhz = float(f_mhz)
        self.radio = radio  # dict with the five RadioConfig fields

    def properties(self) -> dict:
        """Shares of the input properties the evaluation path depends on."""
        ok = ~self.full
        d_f = self.delta * self.d_km * 1000.0
        regime = regime_of(d_f[ok])
        n = len(self.ids)
        return {
            "nodes": n,
            "full_cover_share": float(self.full.mean()),
            "regime_share": {r: float(np.sum(regime == r) / n) for r in ("zero", "linear", "power")},
            "extrapolated_share": float(np.sum(d_f[ok] > VALIDATED_MAX_M) / n),
        }

    def check(self, rows: list[list[str]] | None, objects: list[dict] | None) -> str | None:
        """Check CSV rows (header removed) or parsed JSON objects."""
        n = len(self.ids)
        got = len(rows) if rows is not None else len(objects)
        if got != n:
            return f"{got} report rows for {n} nodes"
        if rows is not None:
            if any(len(r) != len(REPORT_COLUMNS) for r in rows):
                return "a CSV row has the wrong number of cells"
            raw = dict(zip(REPORT_COLUMNS, zip(*rows)))
            empty = ""
            truth = {"true": True, "false": False}
            link_ok = [truth.get(v) for v in raw["link_ok"]]
        else:
            for i, obj in enumerate(objects):
                keys = list(obj)
                want = REPORT_COLUMNS + (["error"] if self.full[i] else [])
                if keys != want:
                    return f"json row {i}: keys {keys} != {want}"
            raw = {name: [obj[name] for obj in objects] for name in REPORT_COLUMNS}
            empty = None
            link_ok = [v if isinstance(v, bool) else None for v in raw["link_ok"]]
        if list(raw["id"]) != self.ids:
            return "report ids are not the node ids in input order"
        if any(v is None for v in link_ok):
            return "link_ok is not a boolean"
        link_ok = np.array(link_ok)
        err = np.flatnonzero(self.full)
        err_cols = ("l_foliage_db", "l_fsp_db", "l_total_db", "regime", "validity",
                    "margin_db", "required_tx_dbm")
        for i in err:
            if any(raw[c][i] != empty for c in err_cols) or link_ok[i]:
                return f"row {i}: full-cover node is not an error row"
            if objects is not None and "delta = 1" not in objects[i]["error"]:
                return f"row {i}: full-cover error message {objects[i]['error']!r}"
        ok = ~self.full
        if objects is not None:
            for c in ("delta", "d_f_m", "d_fsp_m", "l_foliage_db", "l_fsp_db", "l_total_db",
                      "margin_db", "required_tx_dbm"):
                for i in np.flatnonzero(ok):
                    if type(raw[c][i]) is not float:
                        return f"json row {i}: {c} is not a float"
        cols = {}
        for c in ("delta", "d_f_m", "d_fsp_m"):
            cols[c] = np.array(raw[c], dtype=float)
        for c in ("l_foliage_db", "l_fsp_db", "l_total_db", "margin_db", "required_tx_dbm"):
            cols[c] = np.array([raw[c][i] for i in np.flatnonzero(ok)], dtype=float)
        for c in ("regime", "validity"):
            cols[c] = np.array([raw[c][i] for i in np.flatnonzero(ok)], dtype=object)
        # full-cover rows keep their split, so it is compared on every row
        reason = _check_split(cols, self.d_km, self.delta, "report")
        if reason:
            return reason
        sub = {c: (cols[c][ok] if c in ("delta", "d_f_m", "d_fsp_m") else cols[c]) for c in cols}
        reason = _check_losses(sub, self.f_mhz, "evaluated")
        if reason:
            return reason
        r = self.radio
        loss = sub["l_total_db"]
        margin = self.margin(loss)
        required = loss + r["rx_sensitivity_dbm"] - r["tx_gain_dbi"] - r["rx_gain_dbi"] + r["required_margin_db"]
        for c, want in (("margin_db", margin), ("required_tx_dbm", required)):
            row = _first_bad(close(sub[c], want))
            if row is not None:
                return f"evaluated row {row}: {c} {float(sub[c][row])!r} vs oracle {float(want[row])!r}"
        want_ok = margin >= r["required_margin_db"]
        undecided = np.abs(margin - r["required_margin_db"]) <= ABS_TOL_DB
        row = _first_bad((link_ok[ok] == want_ok) | undecided)
        if row is not None:
            return f"evaluated row {row}: link_ok {link_ok[ok][row]} vs oracle {want_ok[row]}"
        return None

    def margin(self, loss):
        r = self.radio
        return r["tx_power_dbm"] + r["tx_gain_dbi"] + r["rx_gain_dbi"] - loss - r["rx_sensitivity_dbm"]

    def link_ok_count(self) -> int:
        ok = ~self.full
        margin = self.margin(total_db(self.d_km[ok], self.delta[ok], self.f_mhz))
        return int(np.sum(margin >= self.radio["required_margin_db"]))


def reject_constant(token: str):
    raise ValueError(f"non-finite literal {token}")


def read_csv(text: str, header: list[str]) -> tuple[list[list[str]] | None, str | None]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return None, f"CSV header {rows[0] if rows else None} != {header}"
    if not text.endswith("\n") or "\r" in text:
        return None, "CSV line endings are not LF"
    return rows[1:], None


def read_json(text: str):
    """Parse emitted JSON the strict way: NaN and Infinity literals are errors."""
    try:
        return json.loads(text, parse_constant=reject_constant), None
    except ValueError as exc:
        return None, f"JSON output does not re-parse: {exc}"


# ------------------------------------------------------------------- sweep


def check_sweep(text: str, var: str, start: float, stop: float, steps: int,
                d_km: float, f_mhz: float, delta: float | None, h_m: float | None) -> str | None:
    rows, reason = read_csv(text, SWEEP_COLUMNS)
    if reason:
        return reason
    if len(rows) != steps:
        return f"{len(rows)} sweep rows for {steps} steps"
    raw = dict(zip(SWEEP_COLUMNS, zip(*rows)))
    cols = {c: np.array(raw[c], dtype=float) for c in SWEEP_COLUMNS[:7]}
    cols["regime"] = np.array(raw["regime"], dtype=object)
    cols["validity"] = np.array(raw["validity"], dtype=object)
    x = np.linspace(start, stop, steps)
    row = _first_bad(close(cols["x"], x))
    if row is not None:
        return f"sweep row {row}: x {cols['x'][row]!r} is not the grid point {x[row]!r}"
    d = np.full(steps, d_km)
    f = np.full(steps, f_mhz)
    if var == "delta":
        dl = x
    elif var == "foliage-height":
        dl = x / h_m
    elif var == "distance":
        d, dl = x, np.full(steps, delta)
    else:
        f, dl = x, np.full(steps, delta)
    return _check_split(cols, d, dl, f"{var} sweep") or _check_losses(cols, f, f"{var} sweep")


# ------------------------------------------------------------------ solves


def solver_budget(tx_dbm: float, sens_dbm: float) -> float:
    """The budget the package derives from the CLI flags (gains and margin 0)."""
    return tx_dbm + 0.0 + 0.0 - sens_dbm - 0.0


class CoverCurve:
    """Total loss against cover factor at one distance and frequency.

    On each Weissberger branch the total is concave in the cover factor, so
    the set above any level is at most one interval per branch. Peaks come
    from a grid refined around its best point; level crossings from a grid
    refined on the rising side of the branch that first exceeds the level.
    """

    GRID = 4001

    def __init__(self, d_km: float, f_mhz: float, cap: float):
        self.d_km, self.f_mhz, self.cap = d_km, f_mhz, cap
        edge = LINEAR_MAX_M / (1000.0 * d_km)
        self.branches = [(0.0, min(edge, cap))] + ([(edge, cap)] if edge < cap else [])
        self.peaks = [self._peak(lo, hi) for lo, hi in self.branches]

    def loss(self, delta):
        return total_db(self.d_km, delta, self.f_mhz)

    def _grid(self, lo, hi, open_lo):
        g = np.linspace(lo, hi, self.GRID)
        return g[1:] if open_lo else g

    def _peak(self, lo, hi) -> tuple[float, float]:
        open_lo = lo > 0.0  # the power branch starts just above its edge
        a, b = lo, hi
        for _ in range(4):
            g = self._grid(a, b, open_lo and a == lo)
            v = self.loss(g)
            i = int(np.argmax(v))
            step = (b - a) / (self.GRID - 1)
            a, b = max(lo, g[i] - step), min(hi, g[i] + step)
        g = self._grid(a, b, open_lo and a == lo)
        v = self.loss(g)
        i = int(np.argmax(v))
        return float(g[i]), float(v[i])

    def peak_loss(self) -> float:
        return max(p[1] for p in self.peaks)

    def first_above(self, level: float) -> tuple[float, int] | None:
        """Smallest cover factor in [0, cap] whose loss exceeds ``level``, and its branch."""
        for branch, ((lo, _), (x_peak, l_peak)) in enumerate(zip(self.branches, self.peaks)):
            if l_peak <= level:
                continue
            open_lo = lo > 0.0
            a, b = lo, x_peak
            for _ in range(5):
                g = self._grid(a, b, open_lo and a == lo)
                j = int(np.flatnonzero(self.loss(g) > level)[0])
                if j == 0:
                    return float(g[0]), branch
                a, b = float(g[j - 1]), float(g[j])
            return b, branch
        return None


def check_cover_solve(out: dict, solve: str, budget: float, curve: CoverCurve,
                      h_m: float | None) -> str | None:
    """A delta or height solve: feasible, and on the first frontier."""
    scale = h_m if solve == "height" else 1.0
    value = out["value"] / scale
    if out["all_feasible"]:
        if abs(value - curve.cap) > 1e-12:
            return f"all_feasible result {value} is not the cap {curve.cap}"
        peak = curve.peak_loss()
        if peak > budget + ABS_TOL_DB:
            return (f"{MISSED_WINDOW} the loss peaks at {peak!r} dB, "
                    f"{peak - budget:.3g} dB above the budget {budget!r}")
        return None
    first = curve.first_above(budget + ABS_TOL_DB)
    if first is None:
        return f"frontier {value!r} reported, but no cover factor exceeds {budget!r} dB"
    # The solver may stop anywhere its loss is within tolerance of the
    # budget, but only on the rising side of the first interval above it.
    lo, _ = curve.first_above(budget - SOLVER_LOSS_TOL_DB - ABS_TOL_DB)
    hi = curve.first_above(budget + SOLVER_LOSS_TOL_DB + ABS_TOL_DB)
    upper = hi[0] if hi is not None and hi[1] == first[1] else curve.peaks[first[1]][0]
    if not lo - 2 * SOLVER_DELTA_TOL <= value <= upper:
        return f"cover factor {value!r} is not on the first frontier [{lo!r}, {upper!r}]"
    return _check_achieved(out, curve.loss(value), budget)


def check_range_solve(out: dict, budget: float, delta: float, f_mhz: float) -> str | None:
    """A range solve: feasible, and where the loss meets the budget."""
    d = out["value"]
    at, beyond = total_db([d, d + 1.01 * SOLVER_D_TOL_KM], delta, f_mhz)
    if at > budget + SOLVER_LOSS_TOL_DB + ABS_TOL_DB:
        return f"range {d!r} km loses {float(at)!r} dB, above the budget {budget!r}"
    if beyond < budget - SOLVER_LOSS_TOL_DB - ABS_TOL_DB:
        return f"range {d!r} km is short of the frontier: {float(beyond)!r} dB just beyond it"
    if out["all_feasible"]:
        return "range solve flagged all_feasible"
    return _check_achieved(out, at, budget)


def _check_achieved(out: dict, want_loss, budget: float) -> str | None:
    if not close(out["achieved_loss_db"], want_loss):
        return f"achieved_loss_db {out['achieved_loss_db']!r} vs oracle {float(want_loss)!r}"
    gap = abs(abs(out["achieved_loss_db"] - budget) - SOLVER_LOSS_TOL_DB)
    if gap > ABS_TOL_DB and out["converged"] != (abs(out["achieved_loss_db"] - budget) <= SOLVER_LOSS_TOL_DB):
        return f"converged={out['converged']} disagrees with the achieved loss"
    return None


def parse_solve(text: str, solve: str) -> tuple[dict | None, str | None]:
    out, reason = read_json(text)
    if reason:
        return None, reason
    if not isinstance(out, dict) or list(out) != SOLVE_KEYS:
        return None, f"solve output keys {list(out) if isinstance(out, dict) else out!r}"
    if out["solve"] != solve:
        return None, f"solve {out['solve']!r} != {solve!r}"
    if type(out["value"]) is not float or type(out["achieved_loss_db"]) is not float:
        return None, "value or achieved_loss_db is not a float"
    if not (math.isfinite(out["value"]) and math.isfinite(out["achieved_loss_db"])):
        return None, "non-finite solve output"
    if type(out["iterations"]) is not int or out["iterations"] < 0:
        return None, f"iterations {out['iterations']!r}"
    if type(out["converged"]) is not bool or type(out["all_feasible"]) is not bool:
        return None, "converged or all_feasible is not a boolean"
    return out, None
