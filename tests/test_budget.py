"""Tests for budget arithmetic and the inverse solvers.

Round-trip cases feed the solver a budget computed by the forward model
and expect the generating parameter back; grid oracles are rebuilt from
the raw formulas in numpy, independent of the solver's search.
"""

import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foliage_link
from foliage_link import (
    BracketExceeded,
    DeltaOutOfRange,
    InvalidRadioConfig,
    LinkGeometry,
    NonPositiveHeight,
    NoSolution,
    RadioConfig,
    link_margin,
    max_foliage_factor,
    max_foliage_height,
    max_loss_budget,
    max_range,
    required_tx_power,
    total_loss,
)
from foliage_link.budget import _power_peak
from foliage_link.propagation import _LossCore

import solver_digest

# mpmath-frozen forward values
TOTAL_D2_DELTA0 = 106.07482474751174
TOTAL_D2_DELTA095 = 224.51127789911881
TOTAL_D2_DELTA05 = 199.09901440038047
# first feasibility frontier for a budget equal to the delta=0.95 loss: the
# loss curve crosses the budget on its way up well before the cap
FRONTIER_FOR_CAP_BUDGET = 0.8395133019247811


def radio_with_budget(budget_db: float) -> RadioConfig:
    return RadioConfig(
        tx_power_dbm=budget_db, tx_gain_dbi=0.0, rx_gain_dbi=0.0, rx_sensitivity_dbm=0.0
    )


def forward_total(d_km: float, delta: float, f_mhz: float) -> float:
    return total_loss(LinkGeometry(d_km=d_km, delta=delta), f_mhz).l_total_db


def oracle_total_grid(d_km, delta, f_mhz):
    """Model formulas rebuilt in numpy; independent of the package internals."""
    import numpy as np
    d_f = np.asarray(delta) * np.asarray(d_km) * 1000.0
    f_ghz = np.asarray(f_mhz) / 1000.0
    foliage = np.where(
        d_f <= 0,
        0.0,
        np.where(
            d_f <= 14.0,
            0.45 * f_ghz**0.284 * d_f,
            1.33 * f_ghz**0.284 * np.maximum(d_f, 1e-300) ** 0.588,
        ),
    )
    fsp = 32.45 + 20 * np.log10(np.asarray(d_km) * (1 - np.asarray(delta))) + 20 * np.log10(f_mhz)
    return foliage + fsp


class TestRadioConfig:
    def test_negative_margin(self):
        with pytest.raises(InvalidRadioConfig):
            RadioConfig(14, 0, 0, -137, required_margin_db=-1)

    def test_non_finite(self):
        with pytest.raises(InvalidRadioConfig):
            RadioConfig(float("nan"), 0, 0, -137)
        with pytest.raises(InvalidRadioConfig):
            RadioConfig(14, 0, 0, float("-inf"))


class TestBudgetArithmetic:
    def test_link_margin(self):
        radio = RadioConfig(14, 0, 0, -137)
        assert link_margin(radio, 224.5112779) == pytest.approx(-73.5112779, abs=1e-9)
        assert link_margin(radio, 0) == 151
        gains = RadioConfig(14, 2, 2, -137)
        assert link_margin(gains, 106.0748247) == pytest.approx(48.9251753, abs=1e-9)

    def test_required_tx_power(self):
        radio = RadioConfig(0, 0, 0, -137)
        assert required_tx_power(radio, 224.5112779) == pytest.approx(87.5112779, abs=1e-9)
        assert required_tx_power(radio, 0) == -137
        other = RadioConfig(0, 3, 3, -120, required_margin_db=10)
        assert required_tx_power(other, 106.0748247) == pytest.approx(-9.9251753, abs=1e-9)

    def test_max_loss_budget(self):
        assert max_loss_budget(RadioConfig(14, 0, 0, -137)) == 151
        assert max_loss_budget(RadioConfig(14, 0, 0, -137, required_margin_db=10)) == 141
        assert max_loss_budget(RadioConfig(20, 6, 6, -110)) == 142

    def test_margin_plus_loss_is_constant(self):
        radio = RadioConfig(17, 2, 3, -120, required_margin_db=5)
        rng = random.Random(11)
        reference = link_margin(radio, 0.0)
        for _ in range(200):
            loss = rng.uniform(0, 300)
            assert link_margin(radio, loss) + loss == pytest.approx(reference, abs=1e-9)

    def test_required_tx_inverts_margin(self):
        rng = random.Random(12)
        for _ in range(200):
            radio = RadioConfig(
                0.0,
                rng.uniform(-5, 15),
                rng.uniform(-5, 15),
                rng.uniform(-150, -80),
                required_margin_db=rng.uniform(0, 30),
            )
            loss = rng.uniform(50, 250)
            tx = required_tx_power(radio, loss)
            closed = RadioConfig(
                tx, radio.tx_gain_dbi, radio.rx_gain_dbi, radio.rx_sensitivity_dbm,
                radio.required_margin_db,
            )
            assert link_margin(closed, loss) == pytest.approx(
                radio.required_margin_db, abs=1e-9
            )


class TestMaxRange:
    def test_inverts_no_foliage_reference(self):
        result = max_range(radio_with_budget(TOTAL_D2_DELTA0), 0.0, 2400)
        assert result.converged
        assert result.value == pytest.approx(2.0, abs=1e-6)
        assert result.achieved_loss_db == pytest.approx(TOTAL_D2_DELTA0, abs=1e-6)

    def test_inverts_heavy_foliage_reference(self):
        result = max_range(radio_with_budget(TOTAL_D2_DELTA095), 0.95, 2400)
        assert result.converged
        assert result.value == pytest.approx(2.0, abs=1e-6)

    def test_round_trip_self_consistency(self):
        budget = forward_total(1.0, 0.3, 868)
        result = max_range(radio_with_budget(budget), 0.3, 868)
        assert result.value == pytest.approx(1.0, abs=1e-6)

    def test_budget_equal_to_the_loss_at_10_cm(self):
        """The bracket's near end meets a budget of exactly its loss, with no iteration."""
        loss = forward_total(1e-4, 0.3, 868)
        result = max_range(RadioConfig(0.0, 0.0, 0.0, -loss), 0.3, 868)
        assert (result.value, result.achieved_loss_db, result.iterations) == (1e-4, loss, 0)
        assert result.converged

    def test_no_solution(self):
        with pytest.raises(NoSolution):
            max_range(radio_with_budget(-500.0), 0.2, 2400)

    def test_bracket_exceeded(self):
        # at 1000 km and 20% cover the model already loses ~2390 dB
        with pytest.raises(BracketExceeded):
            max_range(radio_with_budget(3000.0), 0.2, 2400)

    def test_delta_domain(self):
        with pytest.raises(DeltaOutOfRange):
            max_range(radio_with_budget(150.0), 1.0, 2400)

    def test_agrees_with_grid_oracle(self):
        import numpy as np
        rng = random.Random(13)
        for _ in range(20):
            d_true = rng.uniform(0.8, 4.0)
            delta = rng.uniform(0.05, 0.75)
            f = rng.uniform(800, 5800)
            budget = forward_total(d_true, delta, f)
            result = max_range(radio_with_budget(budget), delta, f)
            assert result.value == pytest.approx(d_true, abs=1e-6)
            grid = np.arange(d_true - 0.02, d_true + 0.02, 1e-4)
            feasible = oracle_total_grid(grid, delta, f) <= budget
            oracle_d = grid[np.nonzero(feasible)[0][-1]]
            assert abs(result.value - oracle_d) <= 1.01e-4


class TestMaxFoliageFactor:
    def test_first_frontier_for_cap_budget(self):
        # a budget equal to the loss at the cap is already exceeded between
        # ~0.84 and ~0.94 (the curve peaks near 0.905), so the solver stops
        # at the first frontier rather than skipping to the cap
        result = max_foliage_factor(radio_with_budget(TOTAL_D2_DELTA095), 2.0, 2400)
        assert result.converged
        assert not result.all_feasible
        assert result.value == pytest.approx(FRONTIER_FOR_CAP_BUDGET, abs=1e-6)

    def test_all_feasible_above_peak(self):
        # the curve's maximum over [0, 0.95] is ~226.023 dB; anything above
        # that budget admits every scanned point
        result = max_foliage_factor(radio_with_budget(227.0), 2.0, 2400)
        assert result.all_feasible
        assert result.converged
        assert result.value == 0.95

    def test_baseline_budget_pins_delta_to_zero(self):
        result = max_foliage_factor(radio_with_budget(TOTAL_D2_DELTA0), 2.0, 2400)
        assert result.value == pytest.approx(0.0, abs=1e-6)
        assert not result.all_feasible

    def test_no_solution(self):
        with pytest.raises(NoSolution):
            max_foliage_factor(radio_with_budget(TOTAL_D2_DELTA0 - 1.0), 2.0, 2400)

    def test_cap_domain(self):
        with pytest.raises(DeltaOutOfRange):
            max_foliage_factor(radio_with_budget(150.0), 2.0, 2400, delta_cap=1.0)

    def test_cap_zero(self):
        """A cap of 0, like any cover factor short of full cover, asks about the open path."""
        result = max_foliage_factor(radio_with_budget(150.0), 2.0, 2400, delta_cap=0.0)
        assert result == (0.0, total_loss(LinkGeometry(2.0, delta=0.0), 2400).l_total_db, 0,
                          True, True)
        assert max_foliage_height(radio_with_budget(150.0), 2.0, 30.0, 2400, 0.0).value == 0.0
        with pytest.raises(NoSolution):  # the budget is checked before the cap is reached
            max_foliage_factor(radio_with_budget(TOTAL_D2_DELTA0 - 1.0), 2.0, 2400, delta_cap=0.0)

    def test_round_trip_unique_frontier(self):
        import numpy as np
        rng = random.Random(14)
        for _ in range(20):
            d = rng.uniform(0.8, 4.0)
            delta_true = rng.uniform(0.05, 0.75)
            f = rng.uniform(800, 5800)
            budget = forward_total(d, delta_true, f)
            result = max_foliage_factor(radio_with_budget(budget), d, f)
            assert result.value == pytest.approx(delta_true, abs=1e-6)
            grid = np.arange(0.0, 0.95, 1e-4)
            infeasible = oracle_total_grid(d, grid, f) > budget
            hits = np.nonzero(infeasible)[0]
            oracle_delta = grid[hits[0] - 1] if hits.size else 0.95
            assert abs(result.value - oracle_delta) <= 1.01e-4


class TestMaxFoliageHeight:
    def test_inverts_height_reference(self):
        result = max_foliage_height(radio_with_budget(TOTAL_D2_DELTA05), 2.0, 30.0, 2400)
        assert result.value == pytest.approx(15.0, abs=1e-5)

    def test_baseline_budget_gives_zero_height(self):
        result = max_foliage_height(radio_with_budget(TOTAL_D2_DELTA0), 2.0, 30.0, 2400)
        assert result.value == pytest.approx(0.0, abs=1e-5)

    def test_cap_scales_with_height(self):
        result = max_foliage_height(radio_with_budget(500.0), 2.0, 30.0, 2400)
        assert result.all_feasible
        assert result.value == pytest.approx(28.5, rel=1e-12)

    def test_bad_height(self):
        with pytest.raises(NonPositiveHeight):
            max_foliage_height(radio_with_budget(150.0), 2.0, 0.0, 2400)


class TestCoverSolverShape:
    """The cover solver finds each branch's peak analytically; these cases sit
    where a uniform scan or a rounded branch edge would go wrong."""

    def test_narrow_peak_window_is_found(self):
        import numpy as np
        # at 5 km and 868 MHz the loss peaks near delta = 0.92516; 5e-7 dB
        # below the peak the infeasible window is only ~5e-5 wide
        grid = np.linspace(0.92, 0.93, 100_001)
        losses = oracle_total_grid(5.0, grid, 868.0)
        peak_delta, peak_loss = grid[np.argmax(losses)], losses.max()
        budget = peak_loss - 5e-7
        result = max_foliage_factor(radio_with_budget(budget), 5.0, 868)
        assert not result.all_feasible
        assert result.converged
        assert peak_delta - 1e-4 < result.value < peak_delta
        assert forward_total(5.0, result.value, 868) == pytest.approx(budget, abs=1e-6)

    def test_linear_branch_maximum_at_the_14_m_edge(self):
        # on a 50 m path the linear branch still rises at its 14 m edge, and
        # 14 / 50 * 50 rounds to just above 14 m, onto the power branch. A
        # budget between the power-branch start and the linear edge value is
        # first exceeded just below the edge.
        d_km, f = 0.05, 2400
        edge = 0.28
        assert edge * 50.0 > 14.0
        while edge * 50.0 > 14.0:
            edge = math.nextafter(edge, 0.0)
        linear_top = forward_total(d_km, edge, f)
        power_start = forward_total(d_km, math.nextafter(edge, 1.0), f)
        assert power_start < linear_top
        budget = 0.5 * (power_start + linear_top)
        result = max_foliage_factor(radio_with_budget(budget), d_km, f)
        assert not result.all_feasible
        assert result.converged
        assert 0.27 < result.value <= edge
        breakdown = total_loss(LinkGeometry(d_km=d_km, delta=result.value), f)
        assert breakdown.foliage.regime.value == "linear"

    def test_power_peak_matches_a_bisection_on_its_slope(self):
        """``_power_peak`` is within the 1e-11 relative its docstring states.

        The reference bisects to adjacent floats on the sign of the total's
        slope, ``0.588 c delta^-0.412 - 20 / ln 10 / (1 - delta)``, written
        from the model rather than from the solver's ratio. Stopping Newton's
        method at a step of 1e-5 instead of 1e-7 puts peaks off by up to
        1.3e-9 relative.
        """

        def slope(delta, c):
            return 0.588 * c * delta**-0.412 - 20.0 / math.log(10.0) / (1.0 - delta)

        rng = random.Random(20261020)
        interior = 0
        for _ in range(20_000):
            start = rng.uniform(1e-4, 0.9)
            l_start = rng.uniform(1.0, 400.0)  # foliage loss at start, on the power branch
            cap = rng.uniform(start + 1e-3, 0.999)
            c = l_start / start**0.588
            if slope(cap, c) >= 0.0:
                expected = cap
            elif slope(start, c) <= 0.0:
                expected = start
            else:
                interior += 1
                lo, hi = start, cap
                mid = 0.5 * (lo + hi)
                while lo < mid < hi:
                    if slope(mid, c) > 0.0:
                        lo = mid
                    else:
                        hi = mid
                    mid = 0.5 * (lo + hi)
                expected = lo
            peak = _power_peak(start, l_start, cap)
            assert abs(peak - expected) <= 1e-11 * expected, (start, l_start, cap)
        assert interior > 2000

    @pytest.mark.parametrize(
        "budget, d_km, f",
        [
            (TOTAL_D2_DELTA0, 2.0, 2400),  # frontier at delta = 0
            (TOTAL_D2_DELTA05, 2.0, 2400),  # frontier on the power branch
            (TOTAL_D2_DELTA095, 2.0, 2400),  # first of two frontiers
            (227.0, 2.0, 2400),  # all feasible
            (77.0, 0.05, 2400),  # frontier on the linear branch
            (265.2910212, 5.0, 868),  # just under the peak
        ],
    )
    def test_loss_evaluations_per_solve_are_bounded(self, monkeypatch, budget, d_km, f):
        # every evaluation goes through the one core the solve builds
        calls = []
        real = _LossCore.at

        def counting(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(_LossCore, "at", counting)
        max_foliage_factor(radio_with_budget(budget), d_km, f)
        assert 0 < len(calls) <= 100

    def test_cli_import_leaves_numpy_out(self):
        """Nor ``dataclasses``, nor the ``inspect`` it imports: every record is a named tuple."""
        src = str(Path(foliage_link.__file__).resolve().parent.parent)
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import foliage_link.cli; "
            "print([name in sys.modules for name in ('numpy', 'dataclasses', 'inspect')])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[False, False, False]"

    def test_cli_sweeps_leave_numpy_out(self):
        src = str(Path(foliage_link.__file__).resolve().parent.parent)
        code = (
            f"import io, sys; sys.path.insert(0, {src!r}); import foliage_link.cli as cli; "
            "sys.stdout = io.StringIO(); "
            "codes = [cli.run(['sweep', '--preset', 'figure3', '--format', 'csv']), "
            "cli.run(['sweep', '--var', 'distance', '--start', '0.1', '--stop', '5', "
            "'--steps', '50', '--delta', '0.3', '--f-mhz', '868'])]; "
            "sys.stdout = sys.__stdout__; print(codes, 'numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0] False"


class TestSolversMatchScalarPath:
    """The solvers bisect through the hoisted loss core; the loss they report
    must equal ``total_loss`` at the value they return, bit for bit."""

    @pytest.mark.parametrize(
        "budget, delta, f",
        [(130.0, 0.0, 868), (151.0, 0.3, 868), (140.0, 0.9, 2400), (200.0, 0.5, 433)],
    )
    def test_range(self, budget, delta, f):
        result = max_range(radio_with_budget(budget), delta, f)
        assert result.iterations > 0
        assert result.achieved_loss_db == forward_total(result.value, delta, f)

    @pytest.mark.parametrize(
        "budget, d_km, f",
        [
            (TOTAL_D2_DELTA05, 2.0, 2400),
            (TOTAL_D2_DELTA095, 2.0, 2400),
            (227.0, 2.0, 2400),
            (77.0, 0.05, 2400),
            (265.2910212, 5.0, 868),
        ],
    )
    def test_cover_and_height(self, budget, d_km, f):
        radio = radio_with_budget(budget)
        factor = max_foliage_factor(radio, d_km, f)
        assert factor.achieved_loss_db == forward_total(d_km, factor.value, f)
        height = max_foliage_height(radio, d_km, 30.0, f)
        assert (height.value, height.achieved_loss_db) == (
            factor.value * 30.0, factor.achieved_loss_db
        )

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        budget=st.floats(60.0, 400.0),
        d_km=st.floats(1e-3, 300.0),
        delta=st.floats(0.0, 0.99),
        f=st.floats(10.0, 1e5),
    )
    def test_random_solves(self, budget, d_km, delta, f):
        radio = radio_with_budget(budget)
        for solve, x_of in (
            (lambda: max_range(radio, delta, f),
             lambda value: (value, delta)),
            (lambda: max_foliage_factor(radio, d_km, f),
             lambda value: (d_km, value)),
        ):
            try:
                result = solve()
            except (NoSolution, BracketExceeded):
                continue
            at_d, at_delta = x_of(result.value)
            expected = total_loss(LinkGeometry(d_km=at_d, delta=at_delta), f)
            assert result.achieved_loss_db == expected.l_total_db


class TestSolverDigest:
    """Every outcome of ``tests/solver_digest.py``'s seeded draws, on any Python."""

    def test_digest_of_2000_draws(self):
        hexdigest, outcomes = solver_digest.digest(2000)
        assert hexdigest == "b77015ecae2b2e8f0671425d4482b6995120a67a1b7fbe6ec2dbf90dfb62a2d0"
        assert [counts["unconverged"] for counts, _ in outcomes.values()] == [0, 0, 0]
