"""End-to-end tests of the command-line frontend via its run() entry point."""

import argparse
import csv
import io
import json
import os
import platform
import random
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from foliage_link import FoliageLinkError, LinkGeometry, SweepSpec, SweepVariable, cli
from foliage_link import NodeReport, SweepRow, evaluate_scenario, parse_scenario, run_sweep
from foliage_link import render as render_module
from foliage_link import scenario as scenario_module
from foliage_link import sweep as sweep_module
from foliage_link.cli import run
from foliage_link.render import Batch, render_blocks
from foliage_link.scenario import _REPORT_WIDTH, REPORT_COLUMNS
from foliage_link.sweep import SWEEP_COLUMNS

import argv_check
import render_digest

FORMATS = ("table", "csv", "json")

TOTAL_D2_DELTA0 = 106.07482474751174
TOTAL_D2_DELTA095 = 224.51127789911881
TOTAL_D2_DELTA05 = 199.09901440038047


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env() -> dict:
    """The environment of a child interpreter that imports this checkout's package, its
    stdout block-buffered when it is a pipe, as a shell starts it."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}


class TestLoss:
    def test_heavy_foliage_table(self, capsys):
        code, out, err = invoke(
            capsys, "loss", "--d-km", "2", "--f-mhz", "2400", "--delta", "0.95"
        )
        assert code == 0 and err == ""
        assert "224.5112779" in out
        assert "l_total_db" in out
        assert "extrapolated" in out

    def test_heights_match_delta_to_printed_precision(self, capsys):
        code_h, out_h, _ = invoke(
            capsys, "loss", "--d-km", "2", "--f-mhz", "2400", "--h-m", "30", "--h-f-m", "15"
        )
        code_d, out_d, _ = invoke(
            capsys, "loss", "--d-km", "2", "--f-mhz", "2400", "--delta", "0.5"
        )
        assert code_h == code_d == 0
        assert out_h == out_d

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys, "loss", "--d-km", "2", "--f-mhz", "2400", "--delta", "0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["l_total_db"] == pytest.approx(TOTAL_D2_DELTA0, rel=1e-12)
        assert payload["regime"] == "zero"

    def test_csv_format(self, capsys):
        code, out, _ = invoke(
            capsys, "loss", "--d-km", "2", "--f-mhz", "2400", "--delta", "0.5",
            "--format", "csv",
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["l_total_db"]) == pytest.approx(TOTAL_D2_DELTA05, rel=1e-12)

    def test_full_cover_exits_1(self, capsys):
        code, out, err = invoke(
            capsys, "loss", "--d-km", "2", "--f-mhz", "2400", "--delta", "1"
        )
        assert code == 1 and out == ""
        assert "free-space" in err

    def test_missing_delta_source_exits_2(self, capsys):
        code, _, err = invoke(capsys, "loss", "--d-km", "2", "--f-mhz", "2400")
        assert code == 2
        assert "usage" in err

    def test_conflicting_delta_source_exits_2(self, capsys):
        code, _, _ = invoke(
            capsys, "loss", "--d-km", "2", "--f-mhz", "2400",
            "--delta", "0.5", "--h-m", "30", "--h-f-m", "15",
        )
        assert code == 2

    def test_domain_error_exits_1(self, capsys):
        code, _, err = invoke(
            capsys, "loss", "--d-km", "2", "--f-mhz", "2400", "--delta", "1.5"
        )
        assert code == 1
        assert "delta" in err


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert invoke(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "fly")[0] == 2

    def test_help_exits_0(self, capsys):
        assert invoke(capsys, "--help")[0] == 0

    def test_output_is_deterministic(self, capsys):
        first = invoke(capsys, "sweep", "--preset", "figure4", "--format", "csv")
        second = invoke(capsys, "sweep", "--preset", "figure4", "--format", "csv")
        assert first == second


SWEEP_DELTA = ["sweep", "--var", "delta", "--start", "0", "--stop", "0.9", "--steps", "5"]
SWEEP_HEIGHT = ["sweep", "--var", "foliage-height", "--start", "0", "--stop", "20", "--steps", "5"]
RADIO_FLAGS = ["--tx-dbm", "14", "--sensitivity-dbm", "-137"]


class TestErrorLines:
    """Each refusal's exit code and the ``error:`` or ``usage error:`` line it prints first."""

    @pytest.mark.parametrize("argv, line", [
        (["loss", "--f-mhz", "868", "--delta", "0.3"], "--d-km is required here"),
        ([*SWEEP_DELTA, "--f-mhz", "868"], "--d-km is required for a delta sweep"),
        ([*SWEEP_HEIGHT, "--d-km", "2", "--f-mhz", "868"],
         "--d-km and --h-m are required for a foliage-height sweep"),
        ([*SWEEP_DELTA, "--d-km", "2"], "--f-mhz is required here"),
        (["budget", "--solve", "delta", *RADIO_FLAGS, "--f-mhz", "868"],
         "--d-km is required for --solve delta"),
    ])
    def test_usage_error_exits_2(self, capsys, argv, line):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.partition("\n")[0] == f"usage error: {line}"

    def test_delta_cap_out_of_range_exits_1(self, capsys):
        code, out, err = invoke(capsys, "budget", "--solve", "delta", *RADIO_FLAGS, "--d-km", "2",
                                "--f-mhz", "868", "--delta-cap", "1.5")
        message = "error: delta_cap must lie in [0, 1), short of full cover, got 1.5\n"
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_distance_sweep_stop_beyond_meters_exits_1(self, capsys, fmt):
        code, out, err = invoke(capsys, "sweep", "--var", "distance", "--start", "1",
                                "--stop", "1e306", "--steps", "3", "--delta", "0.5",
                                "--f-mhz", "868", "--format", fmt)
        assert (code, out, err) == (
            1, "", "error: stop must be > 0 and finite in meters, got 1e+306\n"
        )

    @pytest.mark.parametrize("spec, argv, line", [
        (lambda: SweepSpec(SweepVariable.DELTA, 0.5, 3, LinkGeometry(2.0, delta=-0.1), 868.0),
         ["--var", "delta", "--start", "-0.1", "--stop", "0.5", "--d-km", "2", "--f-mhz", "868"],
         "delta must lie in [0, 1], got -0.1"),
        (lambda: SweepSpec(SweepVariable.FOLIAGE_HEIGHT, 5.0, 3,
                           LinkGeometry(2.0, h_m=30.0, h_f_m=-1.0), 868.0),
         ["--var", "foliage-height", "--start", "-1", "--stop", "5", "--d-km", "2", "--h-m", "30",
          "--f-mhz", "868"],
         "h_f_m must lie in [0, h_m=30.0], got -1.0"),
        (lambda: SweepSpec(SweepVariable.DISTANCE, 5.0, 3, LinkGeometry(-1.0, delta=0.3), 868.0),
         ["--var", "distance", "--start", "-1", "--stop", "5", "--delta", "0.3", "--f-mhz", "868"],
         "d_km must be > 0 and finite in meters, got -1.0"),
        (lambda: SweepSpec(SweepVariable.FREQUENCY_MHZ, 900.0, 3,
                           LinkGeometry(2.0, delta=0.3), -5.0),
         ["--var", "frequency-mhz", "--start", "-5", "--stop", "900", "--d-km", "2",
          "--delta", "0.3"],
         "f_mhz must be > 0 and finite, got -5.0"),
    ])
    def test_bad_first_point_gets_its_rule(self, capsys, spec, argv, line):
        """A sweep starts at its base link, so the rule of the swept value refuses a bad start
        in the same words through the API and through ``--start``."""
        with pytest.raises(FoliageLinkError) as raised:
            spec()
        assert str(raised.value) == line
        code, out, err = invoke(capsys, "sweep", *argv, "--steps", "3")
        assert (code, out, err) == (1, "", f"error: {line}\n")

    @pytest.mark.parametrize("document, line", [
        ([], "scenario: top level must be an object, got []"),
        ({"name": "o", "frequency_mhz": 868, "base_height_m": 0, "radio": {}, "nodes": []},
         "scenario: base_height_m must lie in (0, inf), got 0.0"),
        ({"name": "o", "frequency_mhz": 868, "base_height_m": 30, "radio": [], "nodes": []},
         "scenario: field 'radio' must be an object, got []"),
    ])
    def test_scenario_document_error_exits_1(self, capsys, tmp_path, document, line):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code, out, err = invoke(capsys, "scenario", "--file", str(path))
        assert (code, out, err) == (1, "", f"error: {line}\n")


class TestParserBuiltOnlyWhenNeeded:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_usage_line_is_argparse_own(self, capsys, command):
        code, out, _ = invoke(capsys, command, "--help")
        assert code == 0
        assert cli._subparser(command).format_usage() == out.partition("\n\n")[0] + "\n"

    def test_canonical_argv_never_builds_the_parser(self):
        src = str(Path(cli.__file__).resolve().parent.parent)
        code = (
            f"import io, sys; sys.path.insert(0, {src!r}); import foliage_link.cli as cli; "
            "built = []; build = cli.build_parser; "
            "cli.build_parser = lambda: built.append(1) or build(); "
            "sys.stdout = io.StringIO(); "
            "codes = [cli.run(['loss', '--d-km', '2', '--delta', '0.5', '--f-mhz', '2400']), "
            "cli.run(['budget', '--solve', 'delta', '--tx-dbm', '14', '--sensitivity-dbm', "
            "'-137', '--d-km', '2', '--f-mhz', '868', '--format', 'json']), "
            "cli.run(['bounds', '--delta-min', '0.1', '--delta-max', '0.9', '--sigma', '0.5'])]; "
            "canonical = len(built); "
            "codes.append(cli.run(['loss', '--d-km=2', '--delta', '0.5', '--f-mhz', '2400'])); "
            "sys.stdout = sys.__stdout__; print(codes, canonical, len(built))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        # only the argv argparse has to read, "--d-km=2", builds the parser
        assert proc.stdout.strip() == "[0, 0, 0, 0] 0 1"


class TestSweep:
    def test_figure3_csv_endpoints(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "--preset", "figure3", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 96
        assert float(rows[0]["l_total_db"]) == pytest.approx(TOTAL_D2_DELTA0, rel=1e-12)
        assert float(rows[-1]["x"]) == 0.95
        assert float(rows[-1]["l_total_db"]) == pytest.approx(TOTAL_D2_DELTA095, rel=1e-12)

    def test_figure4_csv_endpoint(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "--preset", "figure4", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 16
        assert float(rows[-1]["l_total_db"]) == pytest.approx(TOTAL_D2_DELTA05, rel=1e-12)

    def test_custom_sweep(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--var", "delta", "--start", "0", "--stop", "0.5",
            "--steps", "3", "--d-km", "2", "--f-mhz", "2400", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["x"] for row in rows] == [0.0, 0.25, 0.5]
        assert rows[-1]["l_total_db"] == pytest.approx(TOTAL_D2_DELTA05, rel=1e-12)

    def test_preset_conflicts_with_var(self, capsys):
        code, _, _ = invoke(
            capsys, "sweep", "--preset", "figure3", "--var", "delta",
            "--start", "0", "--stop", "0.5", "--steps", "3",
        )
        assert code == 2

    def test_incomplete_custom_sweep(self, capsys):
        assert invoke(capsys, "sweep", "--var", "delta", "--start", "0")[0] == 2

    def test_invalid_spec_exits_1(self, capsys):
        code, out, err = invoke(
            capsys, "sweep", "--var", "delta", "--start", "0", "--stop", "1",
            "--steps", "3", "--d-km", "2", "--f-mhz", "2400",
        )
        assert (code, out, err) == (
            1, "", "error: stop must lie in [0, 1), short of full cover, got 1.0\n"
        )

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_point_error_names_its_x(self, capsys, fmt):
        # the free-space segment of the first path rounds to 0 km
        code, out, err = invoke(
            capsys, "sweep", "--var", "distance", "--start", "5e-324", "--stop", "1",
            "--steps", "2", "--delta", "0.5", "--f-mhz", "868", "--format", fmt,
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: distance sweep failed at x = 5e-324: "
            "d_km=5e-324 at delta=0.5 leaves a free-space segment of 0 km\n"
        )

    def test_table_format(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "--preset", "figure4")
        assert code == 0
        assert out.startswith("x")
        assert "199.0990144" in out


class TestBudget:
    def test_solve_range(self, capsys):
        code, out, _ = invoke(
            capsys, "budget", "--solve", "range",
            "--tx-dbm", f"{TOTAL_D2_DELTA0!r}", "--sensitivity-dbm", "0",
            "--delta", "0", "--f-mhz", "2400", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2.0, abs=1e-6)
        assert payload["converged"] is True

    def test_solve_delta_all_feasible(self, capsys):
        code, out, _ = invoke(
            capsys, "budget", "--solve", "delta",
            "--tx-dbm", "227", "--sensitivity-dbm", "0",
            "--d-km", "2", "--f-mhz", "2400", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 0.95
        assert payload["all_feasible"] is True

    def test_solve_height(self, capsys):
        code, out, _ = invoke(
            capsys, "budget", "--solve", "height",
            "--tx-dbm", f"{TOTAL_D2_DELTA05!r}", "--sensitivity-dbm", "0",
            "--d-km", "2", "--h-m", "30", "--f-mhz", "2400", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(15.0, abs=1e-5)

    def test_infeasible_budget_exits_1(self, capsys):
        code, _, err = invoke(
            capsys, "budget", "--solve", "delta",
            "--tx-dbm", "20", "--sensitivity-dbm", "-60",
            "--d-km", "2", "--f-mhz", "2400",
        )
        assert code == 1
        assert "budget" in err

    def test_missing_geometry_exits_2(self, capsys):
        code, _, _ = invoke(
            capsys, "budget", "--solve", "height",
            "--tx-dbm", "14", "--sensitivity-dbm", "-137", "--f-mhz", "2400",
        )
        assert code == 2


class TestBounds:
    def test_reference_band(self, capsys):
        code, out, _ = invoke(
            capsys, "bounds", "--delta-min", "0.01", "--delta-max", "1", "--sigma", "0.5"
        )
        assert code == 0
        assert "0.0200000" in out
        assert "0.6666667" in out

    def test_json(self, capsys):
        code, out, _ = invoke(
            capsys, "bounds", "--delta-min", "0.01", "--delta-max", "1",
            "--sigma", "0.5", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["alpha_low_min"] == 0.02
        assert payload["alpha_high_max"] == pytest.approx(2 / 3, abs=1e-12)

    def test_empty_band_exits_1(self, capsys):
        code, _, err = invoke(
            capsys, "bounds", "--delta-min", "0.4", "--delta-max", "0.5", "--sigma", "0.5"
        )
        assert code == 1
        assert "band" in err


class TestScenarioCommand:
    def make_file(self, tmp_path, nodes=None):
        if nodes is None:
            nodes = [
                {"id": "heavy", "d_km": 2, "delta": 0.95},
                {"id": "half", "d_km": 2, "h_f_m": 15},
            ]
        doc = {
            "name": "orchard",
            "frequency_mhz": 2400,
            "base_height_m": 30,
            "radio": {
                "tx_power_dbm": 14,
                "tx_gain_dbi": 0,
                "rx_gain_dbi": 0,
                "rx_sensitivity_dbm": -137,
                "required_margin_db": 0,
            },
            "nodes": nodes,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_json_output(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "scenario", "--file", self.make_file(tmp_path), "--format", "json"
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["id"] for r in reports] == ["heavy", "half"]
        assert reports[0]["l_total_db"] == pytest.approx(TOTAL_D2_DELTA095, rel=1e-12)
        assert reports[1]["l_total_db"] == pytest.approx(TOTAL_D2_DELTA05, rel=1e-12)

    def test_csv_output(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "scenario", "--file", self.make_file(tmp_path), "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["link_ok"] == "false"

    def test_table_output(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "scenario", "--file", self.make_file(tmp_path))
        assert code == 0
        assert "heavy" in out

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_empty_nodes_exit_0(self, capsys, tmp_path, fmt):
        path = self.make_file(tmp_path, nodes=[])
        code, out, err = invoke(capsys, "scenario", "--file", path, "--format", fmt)
        assert (code, err) == (0, "")
        header = PINNED_OUTPUT["scenario", fmt].partition("\n")[0] + "\n"
        assert out == ("[]\n" if fmt == "json" else header)

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "scenario", "--file", str(tmp_path / "nope.json"))
        assert code == 1
        assert "nope.json" in err

    def test_invalid_document_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}', encoding="utf-8")
        code, _, err = invoke(capsys, "scenario", "--file", str(path))
        assert code == 1
        assert "missing field" in err

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_lone_surrogate_id_exits_1(self, capsys, tmp_path, fmt, to_file):
        path = self.make_file(tmp_path, nodes=[{"id": "\ud800", "d_km": 2, "delta": 0.5}])
        target = tmp_path / "out.txt"
        argv = ["scenario", "--file", path, "--format", fmt]
        code, out, err = invoke(capsys, *argv, *(["--out", str(target)] if to_file else []))
        assert (code, out) == (1, "")
        assert err == "error: nodes[0]: field 'id' holds a lone surrogate, got '\\ud800'\n"
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_deep_nesting_exits_1(self, capsys, tmp_path, fmt):
        path = tmp_path / "deep.json"
        path.write_text('{"name": "x", "nodes": ' + "[" * 100_000 + "]" * 100_000 + "}",
                        encoding="utf-8")
        code, out, err = invoke(capsys, "scenario", "--file", str(path), "--format", fmt)
        assert (code, out, err) == (1, "", "error: JSON nesting is too deep to parse\n")

    def test_non_utf8_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = invoke(capsys, "scenario", "--file", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: not UTF-8 at byte 0: ")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_non_utf8_offset_counts_from_the_file_start(self, capsys, tmp_path):
        """Past a text read's 8 KiB chunk, in a file and through a pipe, which a text read
        decodes chunk by chunk."""
        data = b'{"name": "' + b"a" * 200_000 + b'\xff"}'
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        message = "not UTF-8 at byte 200010: invalid start byte\n"
        assert invoke(capsys, "scenario", "--file", str(path)) == (1, "", f"error: {path}: {message}")
        proc = subprocess.run([sys.executable, "-m", "foliage_link.cli", "scenario", "--file",
                               "/dev/stdin"], input=data, capture_output=True, env=child_env(),
                              timeout=60)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.decode() == f"error: /dev/stdin: {message}"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_parse_error_lines_under_any_line_ending(self, capsys, tmp_path, newline):
        """Line endings are translated as a text-mode read translates them."""
        path = tmp_path / "bad.json"
        path.write_bytes(newline.join(["{", '  "name": "x",', '  "nodes": [}']).encode())
        assert invoke(capsys, "scenario", "--file", str(path)) == (
            1, "", "error: malformed JSON at line 3 column 13: Expecting value\n")

    def test_a_file_over_the_cap_writes_nothing(self, capsys, tmp_path, monkeypatch):
        path = self.make_file(tmp_path)
        size = Path(path).stat().st_size
        monkeypatch.setattr(cli, "_MAX_SCENARIO_BYTES", size)
        code, _, err = invoke(capsys, "scenario", "--file", path)
        assert (code, err) == (0, "")
        monkeypatch.setattr(cli, "_MAX_SCENARIO_BYTES", size - 1)
        message = f"error: {path}: over the {size - 1}-byte scenario file cap\n"
        target = tmp_path / "out.txt"
        target.write_bytes(b"old bytes\n")
        for fmt in FORMATS:
            argv = ["scenario", "--file", path, "--format", fmt]
            assert invoke(capsys, *argv, "--out", str(target)) == (1, "", message)
            assert target.read_bytes() == b"old bytes\n"
            assert invoke(capsys, *argv) == (1, "", message)

    def test_carriage_return_id_reads_back(self, capsys, tmp_path):
        path = self.make_file(tmp_path, nodes=[{"id": "cr\rlf", "d_km": 2, "delta": 0.5}])
        code, out, err = invoke(capsys, "scenario", "--file", path, "--format", "csv")
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert len(rows) == 2
        assert rows[1][0] == "cr\rlf"

    #: documents that break more than one rule, and the error each must report
    ERROR_ORDER = {
        "bad node before a duplicate": (
            {}, [{"id": "a", "d_km": 2, "delta": 0.5}, {"id": "b", "d_km": 2, "delta": 1.5},
                 {"id": "a", "d_km": 3, "delta": 0.5}],
            "node 'b': delta must lie in [0, 1], got 1.5",
        ),
        "bad node after a duplicate": (
            {}, [{"id": "a", "d_km": 2, "delta": 0.5}, {"id": "a", "d_km": 3, "h_f_m": 9.0},
                 {"id": "b", "d_km": 2, "h_f_m": 31.0}],
            "node 'b': h_f_m must lie in [0, h_m=30.0], got 31.0",
        ),
        "duplicate once every node is valid": (
            {}, [{"id": "a", "d_km": 2, "delta": 0.5}, {"id": "b", "d_km": 2, "delta": 1},
                 {"id": "a", "d_km": 3, "h_f_m": 9}],
            "scenario: duplicate node id 'a'",
        ),
        "bad head and a bad node": (
            {"frequency_mhz": -868}, [{"id": "a", "d_km": -2, "delta": 0.5}],
            "scenario: frequency_mhz must be > 0",
        ),
        "lone surrogate after a duplicate": (
            {}, [{"id": "a", "d_km": 2, "delta": 0.5}, {"id": "a", "d_km": 2, "delta": 0.5},
                 {"id": "\ud800", "d_km": 2, "delta": 0.5}],
            "nodes[2]: field 'id' holds a lone surrogate",
        ),
    }

    @pytest.mark.parametrize("case", sorted(ERROR_ORDER))
    def test_error_order_matches_parse_scenario(self, capsys, tmp_path, case):
        head, nodes, message = self.ERROR_ORDER[case]
        path = Path(self.make_file(tmp_path, nodes=nodes))
        path.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")), **head}),
                        encoding="utf-8")
        with pytest.raises(FoliageLinkError) as raised:
            parse_scenario(path.read_text(encoding="utf-8"))
        assert message in str(raised.value)
        for fmt in ("table", "csv", "json"):
            code, out, err = invoke(capsys, "scenario", "--file", str(path), "--format", fmt)
            assert (code, out, err) == (1, "", f"error: {raised.value}\n"), fmt


BUDGET_RADIO = ["--tx-dbm", "14", "--sensitivity-dbm", "-137", "--f-mhz", "868"]


class TestIgnoredFlags:
    """A flag the command would not use is a usage error that names it."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["budget", "--solve", "delta", "--d-km", "2", "--delta", "0.3"], "--delta"),
            (["budget", "--solve", "delta", "--d-km", "2", "--h-m", "30"], "--h-m"),
            (["budget", "--solve", "delta", "--d-km", "2", "--h-f-m", "15"], "--h-f-m"),
            (["budget", "--solve", "height", "--d-km", "2", "--h-m", "30", "--delta", "0.3"],
             "--delta"),
            (["budget", "--solve", "height", "--d-km", "2", "--h-m", "30", "--h-f-m", "15"],
             "--h-f-m"),
            (["budget", "--solve", "range", "--delta", "0.3", "--d-km", "9"], "--d-km"),
            (["sweep", "--preset", "figure2", "--d-km", "5"], "--d-km"),
            (["sweep", "--preset", "figure3", "--delta", "0.3"], "--delta"),
            (["sweep", "--preset", "figure4", "--h-m", "20"], "--h-m"),
            (["sweep", "--preset", "figure4", "--h-f-m", "5"], "--h-f-m"),
            (["sweep", "--preset", "figure2", "--f-mhz", "868"], "--f-mhz"),
            (["sweep", "--var", "delta", "--start", "0", "--stop", "0.5", "--steps", "3",
              "--d-km", "2", "--f-mhz", "868", "--h-m", "30"], "--h-m"),
            (["sweep", "--var", "foliage-height", "--start", "0", "--stop", "5", "--steps", "3",
              "--d-km", "2", "--h-m", "30", "--f-mhz", "868", "--delta", "0.3"], "--delta"),
            (["sweep", "--var", "distance", "--start", "1", "--stop", "5", "--steps", "3",
              "--delta", "0.3", "--f-mhz", "868", "--d-km", "2"], "--d-km"),
            (["sweep", "--var", "frequency-mhz", "--start", "400", "--stop", "900", "--steps", "3",
              "--d-km", "2", "--delta", "0.3", "--f-mhz", "868"], "--f-mhz"),
            (["budget", "--solve", "range", "--delta", "0.3", "--delta-cap", "0.3"],
             "--delta-cap"),
        ],
    )
    def test_is_a_usage_error(self, capsys, argv, flag):
        if argv[0] == "budget":
            argv = [*argv, *BUDGET_RADIO]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: {flag} does not apply to ")
        assert "usage:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--preset", "figure2", "--format", "csv"],
            [*SWEEP_DELTA, "--d-km", "2", "--f-mhz", "868"],
            [*SWEEP_HEIGHT, "--d-km", "2", "--h-m", "30", "--f-mhz", "868"],
            ["sweep", "--var", "distance", "--start", "1", "--stop", "5", "--steps", "3",
             "--delta", "0.3", "--f-mhz", "868"],
            ["sweep", "--var", "frequency-mhz", "--start", "400", "--stop", "900", "--steps", "3",
             "--d-km", "2", "--delta", "0.3"],
        ],
    )
    def test_sweep_has_no_delta_cap(self, capsys, argv):
        """A sweep has no cover-factor cap: argparse refuses the flag as unknown."""
        code, out, err = invoke(capsys, *argv, "--delta-cap", "0.2")
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --delta-cap 0.2\n")

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_names_every_flag_as_declared(self, command):
        """The flag named is its dest, dashed: the inverse of ``_dest`` for every declared flag."""
        for flag, _ in cli._COMMANDS[command][1]:
            args = argparse.Namespace(command=command, **{cli._dest(flag): "given"})
            with pytest.raises(cli._UsageError, match=f"^{flag} does not apply to here$"):
                cli._reject_unused(args, (cli._dest(flag),), "here")

    def test_prints_the_subcommand_usage(self, capsys):
        """Under a usage error of ``run``'s own goes the usage block argparse
        prints above an error of the same subcommand."""
        argv = ["budget", "--solve", "range", "--delta", "0.5", *BUDGET_RADIO]
        code, _, err = invoke(capsys, *argv, "--delta-cap", "0.3")
        assert code == 2
        head, _, usage = err.partition("\n")
        assert head == "usage error: --delta-cap does not apply to --solve range"
        assert usage.startswith("usage: foliage-link budget [-h] --solve {range,delta,height}")
        code, _, argparse_err = invoke(capsys, *argv, "--delta-cap", "low")
        assert code == 2
        assert usage == argparse_err.partition("foliage-link budget: error: ")[0]

    @pytest.mark.parametrize(
        "argv, unknown",
        [
            (["sweep", "--preset", "figure2", "--delta-cap", "0.1"], "--delta-cap 0.1"),
            (["loss", "--d-km", "2", "--delta", "0", "--f-mhz", "2400", "--foo", "1"], "--foo 1"),
            (["loss", "--d-km", "2", "--foo", "1", "--delta", "0", "--f-mhz", "2400"], "--foo 1"),
        ],
    )
    def test_unknown_flag_prints_the_subcommand_usage(self, capsys, argv, unknown):
        """argparse's own refusal of a flag the subcommand lacks, under that subcommand's usage."""
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: foliage-link {argv[0]} ")
        assert err == (f"{cli._subparser(argv[0]).format_usage()}foliage-link {argv[0]}: error: "
                       f"unrecognized arguments: {unknown}\n")

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["budget", "--solve", "delta", "--d-km", "2"], 0.5),
            (["budget", "--solve", "height", "--d-km", "2", "--h-m", "30"], 15.0),
        ],
    )
    def test_delta_cap_caps_a_cover_solve(self, capsys, argv, value):
        code, out, err = invoke(capsys, *argv, "--tx-dbm", "227", "--sensitivity-dbm", "0",
                                "--f-mhz", "2400", "--delta-cap", "0.5", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == value

    def test_delta_sweep_stops_anywhere_short_of_full_cover(self, capsys):
        """A delta sweep reaches the cover factors a foliage-height sweep does."""
        common = ["--steps", "2", "--d-km", "2", "--f-mhz", "868", "--format", "csv"]
        height = invoke(capsys, "sweep", "--var", "foliage-height", "--start", "0",
                        "--stop", "29.9", "--h-m", "30", *common)
        delta = invoke(capsys, "sweep", "--var", "delta", "--start", "0",
                       "--stop", "0.9966666666666666", *common)
        assert (height[0], height[2], delta[0], delta[2]) == (0, "", 0, "")
        # every column but x, the swept value
        rows = [line.partition(",")[2] for line in delta[1].splitlines()]
        assert rows == [line.partition(",")[2] for line in height[1].splitlines()]
        assert delta[1].splitlines()[-1].startswith("0.9966666666666666,0.9966666666666666,")


class TestFiniteFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["loss", "--d-km", "inf", "--f-mhz", "2400", "--delta", "0.5"],
            ["loss", "--d-km", "2", "--f-mhz", "inf", "--delta", "0.5"],
            ["loss", "--d-km", "2", "--f-mhz", "2400", "--h-m", "30", "--h-f-m", "nan"],
            [
                "sweep", "--var", "distance", "--start", "0.1", "--stop", "inf",
                "--steps", "3", "--delta", "0.5", "--f-mhz", "2400",
            ],
            [
                "budget", "--solve", "height", "--tx-dbm", "14", "--sensitivity-dbm", "-137",
                "--d-km", "2", "--h-m", "30", "--f-mhz", "2400", "--delta-cap", "nan",
            ],
            [
                "budget", "--solve", "delta", "--tx-dbm", "14", "--sensitivity-dbm", "-137",
                "--d-km", "inf", "--f-mhz", "2400",
            ],
            [
                "budget", "--solve", "range", "--tx-dbm", "14", "--tx-gain=-inf",
                "--sensitivity-dbm", "-137", "--delta", "0.5", "--f-mhz", "2400",
            ],
            ["bounds", "--delta-min", "0.1", "--delta-max", "0.9", "--sigma", "NaN"],
        ],
    )
    def test_non_finite_value_is_a_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert "must be a finite number" in err
        assert "usage:" in err

    def test_non_number_message_unchanged(self, capsys):
        code, _, err = invoke(capsys, "loss", "--d-km", "two", "--f-mhz", "2400", "--delta", "0")
        assert code == 2
        assert "argument --d-km: invalid float value: 'two'" in err


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = invoke(
            capsys, "sweep", "--preset", "figure4", "--format", "csv",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        rows = list(csv.DictReader(io.StringIO(target.read_text(encoding="utf-8"))))
        assert len(rows) == 16

    def test_unwritable_out_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, out, err = invoke(capsys, "loss", "--d-km", "2", "--delta", "0.5",
                                "--f-mhz", "2400", "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(target) in err
        assert err.count("\n") == 1

    def test_out_to_a_directory_exits_1(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "budget", "--solve", "range", "--delta", "0.5",
                                *BUDGET_RADIO, "--format", "json", "--out", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(tmp_path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("target", ["directory", "missing-dir/out.json"])
    def test_out_error_is_what_open_raises(self, capsys, tmp_path, target):
        """The descriptor path reports a bad ``--out`` as a file object would."""
        path = tmp_path if target == "directory" else tmp_path / target
        with pytest.raises(OSError) as raised:
            open(path, "wb", buffering=0)
        code, out, err = invoke(capsys, "budget", "--solve", "range", "--delta", "0.5",
                                *BUDGET_RADIO, "--format", "json", "--out", str(path))
        assert (code, out, err) == (1, "", f"error: {raised.value}\n")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_out_of_many_blocks_matches_stdout(self, capsys, tmp_path, fmt):
        """12,000 points go out in three blocks of ``render._BLOCK_ROWS``, to stdout and to
        ``--out`` alike."""
        assert 2 * render_module._BLOCK_ROWS < 12000 <= 3 * render_module._BLOCK_ROWS
        argv = ["sweep", "--var", "distance", "--start", "0.1", "--stop", "20", "--steps",
                "12000", "--delta", "0.3", "--f-mhz", "868", "--format", fmt]
        code, text, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert (len(json.loads(text)) if fmt == "json" else text.count("\n") - 1) == 12000
        target = tmp_path / "sweep.out"
        assert invoke(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("fmt", ["table", "csv"])  # JSON escapes non-ASCII text
    def test_multibyte_text_across_block_edges(self, capsys, tmp_path, monkeypatch, fmt):
        """Blocks of 2 nodes, each piece encoded alone, change no byte of multibyte ids."""
        nodes = [{"id": f"é✓€𝄞{i}", "d_km": 2.0, "delta": 0.5} for i in range(5)]
        path = TestScenarioCommand().make_file(tmp_path, nodes)
        argv = ["scenario", "--file", path, "--format", fmt]
        text = invoke(capsys, *argv)[1]
        assert "é✓€𝄞4" in text
        monkeypatch.setattr(render_module, "_BLOCK_ROWS", 2)
        assert invoke(capsys, *argv)[1] == text
        target = tmp_path / "out.txt"
        assert invoke(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == text.encode("utf-8")

    def test_non_ascii_id_survives_csv_out(self, capsys, tmp_path):
        ids = ["é", "✓ node", "𝄞", "a,é"]
        nodes = [{"id": node_id, "d_km": 2.0, "delta": 0.5} for node_id in ids]
        path = TestScenarioCommand().make_file(tmp_path, nodes)
        target = tmp_path / "out.csv"
        code, out, err = invoke(capsys, "scenario", "--file", path, "--format", "csv",
                                "--out", str(target))
        assert (code, out, err) == (0, "", "")
        rows = list(csv.DictReader(io.StringIO(target.read_text(encoding="utf-8"))))
        assert [row["id"] for row in rows] == ids

    def test_short_writes_lose_no_byte(self, tmp_path, monkeypatch):
        """Block pieces of multibyte text, each written through a descriptor that takes at
        most three bytes per write."""
        write = os.write
        monkeypatch.setattr(cli.os, "write", lambda fd, data: write(fd, data[:3]))
        cells = [f"é✓€𝄞 {i}" for i in range(50)]
        pieces = list(render_blocks(Batch(("id",), 1, {}, [cells[:20], cells[20:]]), "csv"))
        assert len(pieces) == 3
        target = tmp_path / "out.csv"
        cli._write_out(pieces, str(target))
        assert target.read_bytes() == "".join(pieces).encode("utf-8")


    @pytest.mark.parametrize("fmt", ["table", "csv"])  # JSON escapes non-ASCII text
    def test_stdout_is_utf8_as_out_is(self, capsys, tmp_path, fmt):
        """The command writes UTF-8 to stdout whatever encoding the environment names."""
        path = TestScenarioCommand().make_file(tmp_path, [{"id": "café-中", "d_km": 2.0,
                                                           "delta": 0.5}])
        target = tmp_path / "out.txt"
        argv = ["scenario", "--file", path, "--format", fmt]
        assert invoke(capsys, *argv, "--out", str(target)) == (0, "", "")
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONIOENCODING": "ascii",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "foliage_link.cli", *argv],
                              capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == target.read_bytes()
        assert "café-中".encode("utf-8") in proc.stdout


class TestCutShort:
    """``main`` in a child process: a run whose reader goes away exits 141 and writes nothing
    to stderr, and an interrupted one writes one line and exits 130, with no traceback."""

    SCENARIO_NODES = [{"id": f"n{i}", "d_km": 2.0, "delta": 0.5} for i in range(5000)]

    def argv(self, tmp_path, command: str) -> list[str]:
        """A command whose output fills a pipe many times over."""
        if command == "scenario":
            return ["scenario", "--file", TestScenarioCommand().make_file(tmp_path,
                                                                           self.SCENARIO_NODES)]
        return ["sweep", "--var", "delta", "--start", "0", "--stop", "0.95", "--steps",
                "1000000", "--d-km", "2", "--f-mhz", "2400"]

    @pytest.mark.parametrize("dev", [False, True])
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("command", ["sweep", "scenario"])
    def test_closed_pipe_exits_141_in_silence(self, tmp_path, command, fmt, dev):
        argv = [sys.executable, *["-X", "dev"] * dev, "-m", "foliage_link.cli",
                *self.argv(tmp_path, command), "--format", fmt]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env())
        assert proc.stdout.readline()
        proc.stdout.close()  # as ``head -1`` does
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_record_to_a_closed_pipe_exits_141_in_silence(self, fmt):
        """A one-record command's text waits in stdout's buffer, so the reader is found gone
        only when it is flushed."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        argv = [sys.executable, "-X", "dev", "-m", "foliage_link.cli", "loss", "--d-km", "2",
                "--delta", "0.5", "--f-mhz", "868", "--format", fmt]
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=child_env(),
                                  timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_interrupt_exits_130_with_one_line(self, tmp_path):
        # a parent that ignores SIGINT, as a shell's background job does, passes that on to
        # its children; this child starts with SIGINT at its default, as a command typed at
        # a terminal does, so that the interpreter raises KeyboardInterrupt
        argv = [sys.executable, "-m", "foliage_link.cli", *self.argv(tmp_path, "sweep")]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env(),
                                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        assert proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (130, b"interrupted\n")


class TestFsplConstantEnv:
    def test_default_constant(self, capsys, monkeypatch):
        # no environment variable sets the constant
        monkeypatch.setenv("FOLIAGE_LINK_FSPL_CONST", "32.5")
        code, out, _ = invoke(
            capsys, "loss", "--d-km", "1", "--f-mhz", "1", "--delta", "0"
        )
        assert code == 0
        assert "32.4500000" in out


PINNED_SCENARIO = {
    "name": "orchard",
    "frequency_mhz": 2400,
    "base_height_m": 30,
    "radio": {
        "tx_power_dbm": 14,
        "tx_gain_dbi": 0,
        "rx_gain_dbi": 0,
        "rx_sensitivity_dbm": -137,
        "required_margin_db": 0,
    },
    "nodes": [
        {"id": "near", "d_km": 0.5, "delta": 0.02},
        {"id": "half", "d_km": 2, "h_f_m": 15},
        {"id": "closed", "d_km": 2, "delta": 1},
    ],
}

PINNED_ARGV = {
    "loss": ["loss", "--d-km", "2", "--f-mhz", "2400", "--delta", "0.95"],
    "budget": [
        "budget", "--solve", "delta", "--tx-dbm", "14", "--sensitivity-dbm", "-137",
        "--d-km", "2", "--f-mhz", "2400",
    ],
    "budget-range": [
        "budget", "--solve", "range", "--tx-dbm", "14", "--sensitivity-dbm", "-137",
        "--delta", "0.3", "--f-mhz", "868",
    ],
    "budget-height": [
        "budget", "--solve", "height", "--tx-dbm", "14", "--sensitivity-dbm", "-137",
        "--d-km", "2", "--h-m", "30", "--f-mhz", "2400",
    ],
    "bounds": ["bounds", "--delta-min", "0.2", "--delta-max", "0.8", "--sigma", "0.5"],
    "sweep": [
        "sweep", "--var", "delta", "--start", "0", "--stop", "0.9", "--steps", "3",
        "--d-km", "2", "--f-mhz", "2400",
    ],
}

PINNED_OUTPUT = {
    ("loss", "table"): (
        "delta         0.9500000\n"
        "d_f_m         1900.0000000\n"
        "d_fsp_m       100.0000000\n"
        "l_foliage_db  144.4570531\n"
        "l_fsp_db      80.0542248\n"
        "l_total_db    224.5112779\n"
        "regime        power\n"
        "validity      extrapolated\n"
    ),
    ("loss", "csv"): (
        "delta,d_f_m,d_fsp_m,l_foliage_db,l_fsp_db,l_total_db,regime,validity\n"
        "0.95,1900.0,100.00000000000009,144.45705306488668,80.05422483423212,224.5112778991188,power,extrapolated\n"
    ),
    ("loss", "json"): (
        "{\n"
        "  \"delta\": 0.95,\n"
        "  \"d_f_m\": 1900.0,\n"
        "  \"d_fsp_m\": 100.00000000000009,\n"
        "  \"l_foliage_db\": 144.45705306488668,\n"
        "  \"l_fsp_db\": 80.05422483423212,\n"
        "  \"l_total_db\": 224.5112778991188,\n"
        "  \"regime\": \"power\",\n"
        "  \"validity\": \"extrapolated\"\n"
        "}\n"
    ),
    ("budget", "table"): (
        "solve             delta\n"
        "value             0.1366950\n"
        "achieved_loss_db  151.0000000\n"
        "iterations        3\n"
        "converged         true\n"
        "all_feasible      false\n"
    ),
    ("budget", "csv"): (
        "solve,value,achieved_loss_db,iterations,converged,all_feasible\n"
        "delta,0.1366949582082093,150.99999999995288,3,true,false\n"
    ),
    ("budget", "json"): (
        "{\n"
        "  \"solve\": \"delta\",\n"
        "  \"value\": 0.1366949582082093,\n"
        "  \"achieved_loss_db\": 150.99999999995288,\n"
        "  \"iterations\": 3,\n"
        "  \"converged\": true,\n"
        "  \"all_feasible\": false\n"
        "}\n"
    ),
    ("budget-range", "table"): (
        "solve             range\n"
        "value             2.0943479\n"
        "achieved_loss_db  151.0000000\n"
        "iterations        5\n"
        "converged         true\n"
        "all_feasible      false\n"
    ),
    ("budget-range", "csv"): (
        "solve,value,achieved_loss_db,iterations,converged,all_feasible\n"
        "range,2.094347863077191,151.0000000001353,5,true,false\n"
    ),
    ("budget-range", "json"): (
        "{\n"
        "  \"solve\": \"range\",\n"
        "  \"value\": 2.094347863077191,\n"
        "  \"achieved_loss_db\": 151.0000000001353,\n"
        "  \"iterations\": 5,\n"
        "  \"converged\": true,\n"
        "  \"all_feasible\": false\n"
        "}\n"
    ),
    ("budget-height", "table"): (
        "solve             height\n"
        "value             4.1008487\n"
        "achieved_loss_db  151.0000000\n"
        "iterations        3\n"
        "converged         true\n"
        "all_feasible      false\n"
    ),
    ("budget-height", "csv"): (
        "solve,value,achieved_loss_db,iterations,converged,all_feasible\n"
        "height,4.100848746246279,150.99999999995288,3,true,false\n"
    ),
    ("budget-height", "json"): (
        "{\n"
        "  \"solve\": \"height\",\n"
        "  \"value\": 4.100848746246279,\n"
        "  \"achieved_loss_db\": 150.99999999995288,\n"
        "  \"iterations\": 3,\n"
        "  \"converged\": true,\n"
        "  \"all_feasible\": false\n"
        "}\n"
    ),
    ("bounds", "table"): (
        "delta_min       0.2000000\n"
        "delta_max       0.8000000\n"
        "sigma           0.5000000\n"
        "alpha_low_min   0.4000000\n"
        "alpha_high_max  0.5333333\n"
    ),
    ("bounds", "csv"): (
        "delta_min,delta_max,sigma,alpha_low_min,alpha_high_max\n"
        "0.2,0.8,0.5,0.4,0.5333333333333333\n"
    ),
    ("bounds", "json"): (
        "{\n"
        "  \"delta_min\": 0.2,\n"
        "  \"delta_max\": 0.8,\n"
        "  \"sigma\": 0.5,\n"
        "  \"alpha_low_min\": 0.4,\n"
        "  \"alpha_high_max\": 0.5333333333333333\n"
        "}\n"
    ),
    ("sweep", "table"): (
        "x              delta          d_f_m          d_fsp_m        l_foliage_db   l_fsp_db       l_total_db     regime         validity     \n"
        "0.0000000      0.0000000      0.0000000      2000.0000000   0.0000000      106.0748247    106.0748247    zero           in_domain    \n"
        "0.4500000      0.4500000      900.0000000    1100.0000000   93.0949728     100.8820785    193.9770513    power          extrapolated \n"
        "0.9000000      0.9000000      1800.0000000   200.0000000    139.9367768    86.0748247     226.0116016    power          extrapolated \n"
    ),
    ("sweep", "csv"): (
        "x,delta,d_f_m,d_fsp_m,l_foliage_db,l_fsp_db,l_total_db,regime,validity\n"
        "0.0,0.0,0.0,2000.0,0.0,106.07482474751174,106.07482474751174,zero,in_domain\n"
        "0.45,0.45,900.0,1100.0,93.09497275378318,100.88207853739661,193.9770512911798,power,extrapolated\n"
        "0.9,0.9,1800.0,199.99999999999994,139.93677684505,86.07482474751174,226.01160159256173,power,extrapolated\n"
    ),
    ("sweep", "json"): (
        "[\n"
        "  {\n"
        "    \"x\": 0.0,\n"
        "    \"delta\": 0.0,\n"
        "    \"d_f_m\": 0.0,\n"
        "    \"d_fsp_m\": 2000.0,\n"
        "    \"l_foliage_db\": 0.0,\n"
        "    \"l_fsp_db\": 106.07482474751174,\n"
        "    \"l_total_db\": 106.07482474751174,\n"
        "    \"regime\": \"zero\",\n"
        "    \"validity\": \"in_domain\"\n"
        "  },\n"
        "  {\n"
        "    \"x\": 0.45,\n"
        "    \"delta\": 0.45,\n"
        "    \"d_f_m\": 900.0,\n"
        "    \"d_fsp_m\": 1100.0,\n"
        "    \"l_foliage_db\": 93.09497275378318,\n"
        "    \"l_fsp_db\": 100.88207853739661,\n"
        "    \"l_total_db\": 193.9770512911798,\n"
        "    \"regime\": \"power\",\n"
        "    \"validity\": \"extrapolated\"\n"
        "  },\n"
        "  {\n"
        "    \"x\": 0.9,\n"
        "    \"delta\": 0.9,\n"
        "    \"d_f_m\": 1800.0,\n"
        "    \"d_fsp_m\": 199.99999999999994,\n"
        "    \"l_foliage_db\": 139.93677684505,\n"
        "    \"l_fsp_db\": 86.07482474751174,\n"
        "    \"l_total_db\": 226.01160159256173,\n"
        "    \"regime\": \"power\",\n"
        "    \"validity\": \"extrapolated\"\n"
        "  }\n"
        "]\n"
    ),
    ("scenario", "table"): (
        "id             delta          d_f_m          d_fsp_m        l_foliage_db   l_fsp_db       l_total_db     regime         validity       margin_db      required_tx_dbm  link_ok      \n"
        "near           0.0200000      10.0000000     490.0000000    5.7702218      93.8581464     99.6283682     linear         in_domain      51.3716318     -37.3716318    true         \n"
        "half           0.5000000      1000.0000000   1000.0000000   99.0447896     100.0542248    199.0990144    power          extrapolated   -48.0990144    62.0990144     false        \n"
        "closed         1.0000000      2000.0000000   0.0000000      -              -              -              -              -              -              -              false        \n"
    ),
    ("scenario", "csv"): (
        "id,delta,d_f_m,d_fsp_m,l_foliage_db,l_fsp_db,l_total_db,regime,validity,margin_db,required_tx_dbm,link_ok\n"
        "near,0.02,10.0,490.0,5.770221789588252,93.85814643480239,99.62836822439064,linear,in_domain,51.37163177560936,-37.37163177560936,true\n"
        "half,0.5,1000.0,1000.0,99.04478956614834,100.05422483423212,199.09901440038044,power,extrapolated,-48.09901440038044,62.09901440038044,false\n"
        "closed,1.0,2000.0,0.0,,,,,,,,false\n"
    ),
    ("scenario", "json"): (
        "[\n"
        "  {\n"
        "    \"id\": \"near\",\n"
        "    \"delta\": 0.02,\n"
        "    \"d_f_m\": 10.0,\n"
        "    \"d_fsp_m\": 490.0,\n"
        "    \"l_foliage_db\": 5.770221789588252,\n"
        "    \"l_fsp_db\": 93.85814643480239,\n"
        "    \"l_total_db\": 99.62836822439064,\n"
        "    \"regime\": \"linear\",\n"
        "    \"validity\": \"in_domain\",\n"
        "    \"margin_db\": 51.37163177560936,\n"
        "    \"required_tx_dbm\": -37.37163177560936,\n"
        "    \"link_ok\": true\n"
        "  },\n"
        "  {\n"
        "    \"id\": \"half\",\n"
        "    \"delta\": 0.5,\n"
        "    \"d_f_m\": 1000.0,\n"
        "    \"d_fsp_m\": 1000.0,\n"
        "    \"l_foliage_db\": 99.04478956614834,\n"
        "    \"l_fsp_db\": 100.05422483423212,\n"
        "    \"l_total_db\": 199.09901440038044,\n"
        "    \"regime\": \"power\",\n"
        "    \"validity\": \"extrapolated\",\n"
        "    \"margin_db\": -48.09901440038044,\n"
        "    \"required_tx_dbm\": 62.09901440038044,\n"
        "    \"link_ok\": false\n"
        "  },\n"
        "  {\n"
        "    \"id\": \"closed\",\n"
        "    \"delta\": 1.0,\n"
        "    \"d_f_m\": 2000.0,\n"
        "    \"d_fsp_m\": 0.0,\n"
        "    \"l_foliage_db\": null,\n"
        "    \"l_fsp_db\": null,\n"
        "    \"l_total_db\": null,\n"
        "    \"regime\": null,\n"
        "    \"validity\": null,\n"
        "    \"margin_db\": null,\n"
        "    \"required_tx_dbm\": null,\n"
        "    \"link_ok\": false,\n"
        "    \"error\": \"delta = 1 leaves no free-space segment; the free-space loss term is undefined\"\n"
        "  }\n"
        "]\n"
    ),
}


#: a scenario whose node ids CSV has to quote
QUOTED_SCENARIO = {
    **PINNED_SCENARIO,
    "frequency_mhz": 868,
    "nodes": [
        {"id": "row,12", "d_km": 1, "delta": 0.1},
        {"id": 'say "hi"', "d_km": 2, "h_f_m": 15},
    ],
}
QUOTED_CSV = (
    "id,delta,d_f_m,d_fsp_m,l_foliage_db,l_fsp_db,l_total_db,regime,validity,margin_db,required_tx_dbm,link_ok\n"
    '"row,12",0.1,100.0,900.0,19.159811979714675,90.30524469231634,109.46505667203101,power,in_domain,41.53494332796899,-27.53494332796899,true\n'
    '"say ""hi""",0.5,1000.0,1000.0,74.19783664405293,91.22039450352985,165.4182311475828,power,extrapolated,-14.418231147582787,28.418231147582787,false\n'
)


class TestPinnedOutput:
    """Exact stdout of every format for each subcommand.

    The scenario includes a full-cover node, which renders as ``-`` table
    cells, empty CSV cells, JSON ``null`` and the JSON-only ``error`` key.
    A second scenario has node ids that CSV quotes.
    """

    @pytest.mark.parametrize("command, fmt", sorted(PINNED_OUTPUT))
    def test_bytes(self, capsys, tmp_path, command, fmt):
        if command == "scenario":
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(PINNED_SCENARIO), encoding="utf-8")
            argv = ["scenario", "--file", str(path)]
        else:
            argv = PINNED_ARGV[command]
        code, out, err = invoke(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == PINNED_OUTPUT[command, fmt]

    def test_quoted_ids_csv(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(QUOTED_SCENARIO), encoding="utf-8")
        code, out, err = invoke(capsys, "scenario", "--file", str(path), "--format", "csv")
        assert (code, err) == (0, "")
        assert out == QUOTED_CSV


class _Text(float):
    def __str__(self):
        return "own,text"


class TestCsvQuoting:
    """The quoting rule pinned as literal text: ``csv.writer`` raises on Python 3.10 for a
    field that holds a comma and a NUL, so it cannot be the reference here."""

    @pytest.mark.parametrize("value, text", [
        ("a,\x00b", '"a,\x00b"'),
        (SweepVariable.DELTA, "delta"),  # a str subclass by its own text
        (_Text(1.5), '"own,text"'),  # a float subclass by its __str__
        (b"a,b", '"b\'a,b\'"'),  # by str()
    ])
    def test_cell(self, value, text):
        assert render_module._csv_cell(value) == text

    def test_nul_id_exits_0_quoted(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        doc = {**QUOTED_SCENARIO, "nodes": [{"id": "a,\u0000b", "d_km": 1, "delta": 0.1}]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = invoke(capsys, "scenario", "--file", str(path), "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == '"a,\x00b",' + QUOTED_CSV.splitlines()[1].split(",", 2)[2]


class TestRenderDigest:
    """Every table, CSV and JSON byte of ``tests/render_digest.py``'s seeded cases, on any Python."""

    def test_digest_of_300_points(self):
        digests = dict(render_digest.digest(300))
        assert digests["all"] == "450ba761a49aa2ac2461eb395c997ae28092bff8516432dfeffe5cb8bdff4e7a"


class TestScenarioBlocks:
    """``scenario`` checks the whole document, then evaluates, renders and writes it
    ``render._BLOCK_ROWS`` nodes at a time: where a block ends changes no byte, and no
    byte is written, nor ``--out`` opened, before every node is checked."""

    @staticmethod
    def one_block(doc) -> list:
        """The document's report cells at the default block size: one block, or none."""
        blocks = list(scenario_module._scenario_batch(doc).blocks)
        assert len(blocks) <= 1
        return blocks[0] if blocks else []

    @pytest.mark.parametrize("nodes", [0, 1, 13, 300])
    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_block_edges_change_no_byte(self, tmp_path, monkeypatch, rows, nodes):
        """``render_digest``'s documents: ids that CSV quotes and JSON escapes, error rows."""
        path = tmp_path / "scenario.json"
        text = json.dumps(render_digest._scenario(random.Random(nodes), nodes))
        path.write_text(text, encoding="utf-8")
        target = tmp_path / "out"
        one_block = {}
        for fmt in FORMATS:  # a block is converted in place as it is written: one per format
            cells = self.one_block(scenario_module._load(text))
            one_block[fmt] = "".join(render_blocks(Batch(REPORT_COLUMNS, _REPORT_WIDTH, {}, [cells]), fmt))
        monkeypatch.setattr(render_module, "_BLOCK_ROWS", rows)
        for fmt in FORMATS:
            code = run(["scenario", "--file", str(path), "--format", fmt, "--out", str(target)])
            assert (code, target.read_bytes()) == (0, one_block[fmt].encode("utf-8")), fmt

    @pytest.mark.parametrize("nodes", [0, 1, 13, 300])
    def test_records_at_any_block_size(self, monkeypatch, nodes):
        """``evaluate_scenario`` builds its records from the batch the CLI writes."""
        text = json.dumps(render_digest._scenario(random.Random(nodes), nodes))
        scenario = parse_scenario(text)
        reports = evaluate_scenario(scenario)
        assert len(reports) == nodes and all(type(report) is NodeReport for report in reports)
        for rows in (1, 7):
            monkeypatch.setattr(render_module, "_BLOCK_ROWS", rows)
            assert evaluate_scenario(scenario) == reports, rows

    def test_blocks_hold_block_rows_nodes(self, monkeypatch):
        doc = render_digest._scenario(random.Random(13), 13)
        cells = self.one_block(doc)
        monkeypatch.setattr(render_module, "_BLOCK_ROWS", 7)
        blocks = list(scenario_module._scenario_batch(doc).blocks)
        assert [len(block) for block in blocks] == [7 * _REPORT_WIDTH, 6 * _REPORT_WIDTH]
        assert blocks[0] + blocks[1] == cells

    def test_digest_of_300_points_in_blocks_of_7(self, monkeypatch):
        monkeypatch.setattr(render_module, "_BLOCK_ROWS", 7)
        digests = dict(render_digest.digest(300))
        assert digests["all"] == "450ba761a49aa2ac2461eb395c997ae28092bff8516432dfeffe5cb8bdff4e7a"

    LAST_NODES = {
        "out of domain": {"id": "last", "d_km": 2.0, "delta": 1.5},
        "repeated id": {"id": "n1", "d_km": 3.0, "h_f_m": 9.0},
    }

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("last", sorted(LAST_NODES))
    def test_bad_last_node_writes_nothing(self, capsys, tmp_path, monkeypatch, last, fmt):
        """The bad node sits past the first block: its error still comes before any byte."""
        monkeypatch.setattr(render_module, "_BLOCK_ROWS", 2)
        nodes = [{"id": f"n{i}", "d_km": 2.0, "delta": 0.5} for i in range(5)]
        path = TestScenarioCommand().make_file(tmp_path, [*nodes, self.LAST_NODES[last]])
        with pytest.raises(FoliageLinkError) as raised:
            parse_scenario(Path(path).read_text(encoding="utf-8"))
        message = {"out of domain": "node 'last': delta must lie in [0, 1], got 1.5",
                   "repeated id": "scenario: duplicate node id 'n1'"}[last]
        assert str(raised.value) == message
        target = tmp_path / "out.txt"
        target.write_bytes(b"old bytes\n")
        argv = ["scenario", "--file", path, "--format", fmt]
        assert invoke(capsys, *argv, "--out", str(target)) == (1, "", f"error: {message}\n")
        assert target.read_bytes() == b"old bytes\n"
        assert invoke(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_out_over_its_own_file(self, capsys, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(render_module, "_BLOCK_ROWS", 2)
        nodes = [{"id": f"n{i}", "d_km": 1.0 + i, "delta": 0.1 * i} for i in range(5)]
        path = TestScenarioCommand().make_file(tmp_path, nodes)
        argv = ["scenario", "--file", path, "--format", fmt]
        code, report, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert invoke(capsys, *argv, "--out", path) == (0, "", "")
        assert Path(path).read_bytes() == report.encode("utf-8")

    def test_out_opens_at_the_first_piece(self, tmp_path):
        target = tmp_path / "out"

        def pieces():
            assert not target.exists()
            yield "head\n"
            assert target.read_bytes() == b"head\n"
            yield "rows\n"

        cli._write_out(pieces(), str(target))
        assert target.read_bytes() == b"head\nrows\n"

    def test_failure_after_the_first_piece_keeps_what_was_written(self, tmp_path):
        target = tmp_path / "out"
        target.write_bytes(b"old bytes\n")

        def pieces():
            yield "head\n"
            raise OSError("no space left")

        with pytest.raises(OSError, match="no space left"):
            cli._write_out(pieces(), str(target))
        assert target.read_bytes() == b"head\n"


SWEEP_ARGV = {
    "delta": ["--var", "delta", "--start", "0.1", "--stop", "0.95", "--steps", "30",
              "--d-km", "2", "--f-mhz", "2400"],
    "foliage-height": ["--var", "foliage-height", "--start", "0", "--stop", "29", "--steps",
                       "30", "--d-km", "2", "--h-m", "30", "--f-mhz", "2400"],
    "distance": ["--var", "distance", "--start", "0.05", "--stop", "20", "--steps", "30",
                 "--delta", "0.3", "--f-mhz", "868"],
    "frequency-mhz": ["--var", "frequency-mhz", "--start", "400", "--stop", "6000", "--steps",
                      "30", "--d-km", "2", "--delta", "0.5"],
}


class TestSweepBlocks:
    """``sweep`` evaluates, renders and writes ``render._BLOCK_ROWS`` points at a time, after
    checking the one point that fails if any does: where a block ends changes no byte, and a
    sweep that fails writes nothing."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("variable", sorted(SWEEP_ARGV))
    def test_block_edges_change_no_byte(self, capsys, monkeypatch, variable, fmt):
        argv = ["sweep", *SWEEP_ARGV[variable], "--format", fmt]
        code, one_block, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        for rows in (1, 2, 7):
            monkeypatch.setattr(render_module, "_BLOCK_ROWS", rows)
            assert invoke(capsys, *argv) == (0, one_block, ""), rows

    SPECS = {
        "delta": SweepSpec("delta", 0.95, 30, LinkGeometry(2.0, delta=0.1), 2400.0),
        "foliage_height": SweepSpec("foliage_height", 29.0, 30,
                                    LinkGeometry(2.0, h_m=30.0, h_f_m=0.0), 2400.0),
        "distance": SweepSpec("distance", 20.0, 30, LinkGeometry(0.05, delta=0.3), 868.0),
        "frequency_mhz": SweepSpec("frequency_mhz", 6000.0, 30, LinkGeometry(2.0, delta=0.5),
                                   400.0),
    }

    @pytest.mark.parametrize("variable", sorted(SPECS))
    def test_blocks_hold_block_rows_points(self, monkeypatch, variable):
        spec = self.SPECS[variable]
        batch = sweep_module._sweep_batch(spec)
        fixed, (one_block,) = batch.fixed, batch.blocks
        monkeypatch.setattr(render_module, "_BLOCK_ROWS", 7)
        in_blocks = sweep_module._sweep_batch(spec)
        blocks = list(in_blocks.blocks)
        width = len(SWEEP_COLUMNS) - len(fixed)
        assert (in_blocks.columns, in_blocks.width, in_blocks.fixed) == (SWEEP_COLUMNS, width, fixed)
        assert [len(block) for block in blocks] == [7 * width] * 4 + [2 * width]
        assert sum(blocks, []) == one_block

    @pytest.mark.parametrize("variable", sorted(SPECS))
    def test_rows_at_any_block_size(self, monkeypatch, variable):
        """``run_sweep`` builds its rows from the batch the CLI writes."""
        spec = self.SPECS[variable]
        rows = run_sweep(spec).rows
        assert len(rows) == spec.steps and all(type(row) is SweepRow for row in rows)
        for size in (1, 7):
            monkeypatch.setattr(render_module, "_BLOCK_ROWS", size)
            assert run_sweep(spec).rows == rows, size

    #: a failing sweep's argv and message, as the sweep built whole gave it: the first point
    #: fails in the distance and frequency sweeps, a middle one in the other two
    FAILING = {
        "delta": (["--var", "delta", "--start", "0", "--stop", "0.95", "--steps", "100",
                   "--d-km", "5e-324", "--f-mhz", "2400"],
                  "delta sweep failed at x = 0.5085858585858586: d_km=5e-324 at "
                  "delta=0.5085858585858586 leaves a free-space segment of 0 km"),
        "foliage-height": (["--var", "foliage-height", "--start", "0", "--stop", "29",
                            "--steps", "50", "--d-km", "5e-324", "--h-m", "30",
                            "--f-mhz", "2400"],
                           "foliage_height sweep failed at x = 15.387755102040817: d_km=5e-324 "
                           "at delta=0.5129251700680272 leaves a free-space segment of 0 km"),
        "distance": (["--var", "distance", "--start", "5e-324", "--stop", "1", "--steps", "10",
                      "--delta", "0.5", "--f-mhz", "868"],
                     "distance sweep failed at x = 5e-324: d_km=5e-324 at delta=0.5 leaves a "
                     "free-space segment of 0 km"),
        "frequency-mhz": (["--var", "frequency-mhz", "--start", "400", "--stop", "6000",
                           "--steps", "10", "--d-km", "5e-324", "--delta", "0.5"],
                          "frequency_mhz sweep failed at x = 400.0: d_km=5e-324 at delta=0.5 "
                          "leaves a free-space segment of 0 km"),
    }

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("rows", [1, 2, 7, None])
    @pytest.mark.parametrize("variable", sorted(FAILING))
    def test_failing_sweep_writes_nothing(self, capsys, tmp_path, monkeypatch, variable, rows,
                                          fmt):
        if rows is not None:
            monkeypatch.setattr(render_module, "_BLOCK_ROWS", rows)
        argv, message = self.FAILING[variable]
        argv = ["sweep", *argv, "--format", fmt]
        target = tmp_path / "out.txt"
        target.write_bytes(b"old bytes\n")
        assert invoke(capsys, *argv, "--out", str(target)) == (1, "", f"error: {message}\n")
        assert target.read_bytes() == b"old bytes\n"
        assert invoke(capsys, *argv) == (1, "", f"error: {message}\n")


class TestWorkCount:
    """``tests/work_count.py`` counts the same opcodes in two runs. No count is pinned: counts
    differ between Python versions."""

    def test_two_runs_count_alike(self):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, str(Path(__file__).with_name("work_count.py")),
                "cli/loss/", "cli/bounds/csv", "api/total_loss"]
        runs = [subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
                for _ in range(2)]
        assert [(proc.returncode, proc.stderr) for proc in runs] == [(0, "")] * 2
        assert runs[0].stdout == runs[1].stdout
        header, *lines = runs[0].stdout.splitlines()
        assert header.startswith(f"# {platform.python_implementation()} "
                                 f"{platform.python_version()}, PYTHONHASHSEED=0")
        names = [line.split()[0] for line in lines]
        assert names == ["cli/loss/table", "cli/loss/csv", "cli/loss/json", "cli/bounds/csv",
                         "api/total_loss"]
        assert all(int(line.split()[1]) > 0 for line in lines)


class TestArgvCorpus:
    """``tests/argv_check.py``'s check, on every Python the suite runs under: wherever the
    table parser accepts an argv, argparse gives the same ``Namespace``."""

    @pytest.mark.parametrize("name", ["render_digest", "README", "malformed"])
    def test_table_parser_agrees_with_argparse(self, name):
        accepted, _, mismatched = argv_check.check(argv_check.sources()[name])
        assert mismatched == []
        if name == "malformed":
            assert accepted == 0


class TestFastParse:
    """Canonical argvs are parsed from the grammar table, as argparse parses them."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("command", sorted(PINNED_ARGV) + ["scenario"])
    def test_pinned_argv_takes_the_fast_path(self, command, fmt):
        argv = PINNED_ARGV.get(command, ["scenario", "--file", "orchard.json"]) + ["--format", fmt]
        fast = cli._fast_parse(argv)
        assert fast is not None
        assert vars(fast) == vars(cli._parser().parse_args(argv))

    @pytest.mark.parametrize("argv", argv_check.readme_argvs(), ids=" ".join)
    def test_readme_example_takes_the_fast_path(self, argv):
        fast = cli._fast_parse(argv)
        assert fast is not None
        assert vars(fast) == vars(cli._parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["budget", "--solve", "range", "--tx-dbm", "14", "--sensitivity-dbm", "-120.5",
             "--delta", "0.3", "--f-mhz", "868"],
            ["loss", "--d-km", "2", "--delta", "-.5", "--f-mhz", "868"],
        ],
    )
    def test_negative_decimal_takes_the_fast_path(self, argv):
        """argparse takes ``-120.5`` and ``-.5`` as values, and so does the table parser."""
        fast = cli._fast_parse(argv)
        assert fast is not None
        assert vars(fast) == vars(cli._parser().parse_args(argv))

    def test_readme_examples_found(self):
        assert {argv[0] for argv in argv_check.readme_argvs()} == set(cli._option_tables())

    def test_argparse_alone_gives_the_same_results(self, capsys, monkeypatch):
        argvs = [
            *(PINNED_ARGV[command] + ["--format", fmt] for command in sorted(PINNED_ARGV)
              for fmt in FORMATS),
            ["loss", "--d-km", "two", "--delta", "0", "--f-mhz", "2400"],  # argparse's error
            ["loss", "--d-km", "2", "--f-mhz", "2400"],  # a usage error of run's own
            ["sweep", "--preset", "figure2", "--d-km", "5"],  # an unused --d-km
            ["sweep", "--preset", "figure2", "--delta-cap", "0.1"],  # a flag sweep lacks
        ]
        expected = [invoke(capsys, *argv) for argv in argvs]
        assert [code for code, _, _ in expected[-4:]] == [2, 2, 2, 2]
        monkeypatch.setattr(cli, "_fast_parse", lambda argv: None)
        assert [invoke(capsys, *argv) for argv in argvs] == expected

    def test_grammar_holds_only_what_the_table_parser_mirrors(self):
        """Every flag is a long option that stores one value; ``action=`` or ``nargs=`` fails here."""
        for _, flags in cli._COMMANDS.values():
            for flag, keywords in flags:
                assert re.match(r"--[a-z]", flag), flag
                assert set(keywords) <= {"type", "choices", "default", "required", "help",
                                         "metavar"}, flag
