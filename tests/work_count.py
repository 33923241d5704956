"""Exact counts of the Python opcodes each of the package's operations runs.

Run it on two checkouts to show what a change costs in interpreted work:

    PYTHONPATH=src python tests/work_count.py [PREFIX ...]

Each op runs twice in one process, and the second call is counted: every
bytecode instruction of every Python frame it enters, through
``sys.settrace`` with ``frame.f_trace_opcodes`` set, or from Python 3.12
through ``sys.monitoring``. The first call fills the caches a long-lived
process would already hold. The script runs itself again under
``PYTHONHASHSEED=0``, so that string hashing, and with it any order that
hashing sets, is the same in every run. With PREFIXes it counts only the ops
whose names start with one of them. It prints a header line that names the
Python, then one line per op, its name and its count:

* ``cli/COMMAND/FORMAT``: ``foliage_link.cli.run`` with ``--out`` to a
  temporary file, in ``table``, ``csv`` and ``json``, for ``loss`` (the
  paper's 2 km, 2400 MHz link at delta 0.95), each ``budget --solve``,
  ``bounds``, a 2,000-point sweep of each variable and a 2,000-node
  scenario;
* ``cli/scenario-blocks/FORMAT`` and ``cli/sweep-blocks/FORMAT``: the same
  scenario, and the 2,000-point cover-factor sweep, with
  ``foliage_link.render._BLOCK_ROWS`` at 500, so that each goes out in four
  blocks and the cost of a block shows beside ``cli/scenario/FORMAT`` and
  ``cli/sweep-delta/FORMAT``;
* ``setup/WORKLOAD``: the set-up op each workload of ``perfbench`` spawns a
  fresh interpreter for, whose CPU time is its ``setup_s``;
* ``api/NAME``: the scalar API, ``LinkGeometry``, ``total_loss``, the three
  solvers, and ``parse_scenario`` and ``evaluate_scenario`` of the
  2,000-node document;
* ``import/foliage_link.cli``: the first import of the CLI, in a fresh
  interpreter that finds no cached bytecode.

The scenario documents are drawn with the standard ``random`` module, so
their counts differ from those of ``perfbench``'s numpy-made documents of
the same size.

Blind spot: only Python bytecode is counted. Work done in C is not: float
formatting, the ``%`` operator, ``json.loads``, file I/O, and the compiling
of source on import. A count backs a timing; it never replaces one. Counts
also differ between Python versions, which is why the header names it and no
count is pinned by a test.
"""

# Only modules that every interpreter has loaded at start-up are imported up
# here: the import count's child runs this file, and a module imported before
# its count would be counted as already loaded.
import os
import sys


def count(call) -> int:
    """The opcodes that ``call()`` runs, in every Python frame it enters.

    From Python 3.12 they are ``sys.monitoring``'s instruction events: there
    ``sys.settrace`` misses the opcodes of the first traced run of a process
    (3.12) or of a code object (3.13), and so most of what an import runs.
    """
    opcodes = 0

    def tick(*_):
        nonlocal opcodes
        opcodes += 1

    def local(frame, event, arg):
        if event == "opcode":
            tick()
        return local

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    monitoring = getattr(sys, "monitoring", None)
    if monitoring is None:
        sys.settrace(trace)
    else:
        tool, events = monitoring.PROFILER_ID, monitoring.events.INSTRUCTION
        monitoring.use_tool_id(tool, "work_count")
        monitoring.register_callback(tool, events, tick)
        monitoring.set_events(tool, events)
    try:
        call()
    finally:
        if monitoring is None:
            sys.settrace(None)
        else:
            monitoring.set_events(tool, 0)
            monitoring.free_tool_id(tool)
    return opcodes


def _scenario(rng, nodes: int) -> dict:
    """A scenario document of ``nodes`` nodes at 868 MHz under a 30 m mast.

    A tenth of the nodes are clear of foliage and one in 200 is under full
    cover (an error row); half the others give their cover as a foliage height.
    """
    doc_nodes = []
    for i in range(nodes):
        node = {"id": f"n{i:06d}", "d_km": 10 ** rng.uniform(-1.3, 1.3)}
        delta = 1.0 if i % 200 == 199 else 0.0 if i % 10 == 0 else rng.uniform(0.0, 0.999)
        if i % 2:
            node["h_f_m"] = delta * 30.0
        else:
            node["delta"] = delta
        doc_nodes.append(node)
    return {
        "name": "work-count",
        "frequency_mhz": 868.0,
        "base_height_m": 30.0,
        "radio": {"tx_power_dbm": 14.0, "tx_gain_dbi": 2.0, "rx_gain_dbi": 2.0,
                  "rx_sensitivity_dbm": -137.0, "required_margin_db": 10.0},
        "nodes": doc_nodes,
    }


#: nodes or points per block of the ``cli/scenario-blocks/`` and ``cli/sweep-blocks/`` ops
_SMALL_BLOCK_ROWS = 500


def _cli_ops(tmp: str):
    """``(name, argv)`` of each CLI op, ``--out`` included; writes the scenario files."""
    import json
    import random

    rng = random.Random(20261020)
    files = {}
    for name, nodes in (("scenario", 2000), ("setup", 20)):
        files[name] = os.path.join(tmp, f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as file:
            json.dump(_scenario(rng, nodes), file)
    radio = ["--tx-dbm", "14", "--sensitivity-dbm", "-137"]
    commands = {
        "loss": ["loss", "--d-km", "2", "--delta", "0.95", "--f-mhz", "2400"],
        "budget-range": ["budget", "--solve", "range", *radio, "--delta", "0.5",
                         "--f-mhz", "868"],
        "budget-delta": ["budget", "--solve", "delta", *radio, "--d-km", "2", "--f-mhz", "2400"],
        "budget-height": ["budget", "--solve", "height", *radio, "--d-km", "2", "--h-m", "30",
                          "--f-mhz", "2400"],
        "bounds": ["bounds", "--delta-min", "0.01", "--delta-max", "1", "--sigma", "0.5"],
        "sweep-delta": ["sweep", "--var", "delta", "--start", "0", "--stop", "0.95",
                        "--steps", "2000", "--d-km", "2", "--f-mhz", "2400"],
        "sweep-foliage-height": ["sweep", "--var", "foliage-height", "--start", "0",
                                 "--stop", "15", "--steps", "2000", "--d-km", "2",
                                 "--h-m", "30", "--f-mhz", "2400"],
        "sweep-distance": ["sweep", "--var", "distance", "--start", "0.5", "--stop", "5",
                           "--steps", "2000", "--delta", "0.3", "--f-mhz", "868"],
        "sweep-frequency-mhz": ["sweep", "--var", "frequency-mhz", "--start", "400",
                                "--stop", "6000", "--steps", "2000", "--d-km", "2",
                                "--delta", "0.3"],
        "scenario": ["scenario", "--file", files["scenario"]],
    }
    out = ["--out", os.path.join(tmp, "out")]
    # run at _SMALL_BLOCK_ROWS by main
    commands["scenario-blocks"] = commands["scenario"]
    commands["sweep-blocks"] = commands["sweep-delta"]
    for command, argv in commands.items():
        for fmt in ("table", "csv", "json"):
            yield f"cli/{command}/{fmt}", [*argv, "--format", fmt, *out]
    # perfbench/workloads.py's set-up ops, the scenario one on a document of this script
    yield "setup/scenario_batch", ["scenario", "--file", files["setup"], "--format", "csv", *out]
    yield "setup/sweep_dense", ["sweep", "--var", "delta", "--start", "0", "--stop", "0.5",
                                "--steps", "2", "--d-km", "2", "--f-mhz", "868",
                                "--format", "csv", *out]
    yield "setup/solve_mix", ["budget", "--solve", "range", "--tx-dbm", "-3.0",
                              "--sensitivity-dbm", "-137.0", "--f-mhz", "868.0",
                              "--delta", "0.5", "--format", "json", *out]


def _api_ops(scenario_path: str):
    """``(name, call)`` of each scalar API op."""
    from functools import partial

    from foliage_link import (
        LinkGeometry,
        RadioConfig,
        evaluate_scenario,
        max_foliage_factor,
        max_foliage_height,
        max_range,
        parse_scenario,
        total_loss,
    )

    with open(scenario_path, encoding="utf-8") as file:
        text = file.read()
    radio = RadioConfig(14.0, 0.0, 0.0, -137.0)
    yield "api/LinkGeometry", partial(LinkGeometry, 2.0, delta=0.95)
    yield "api/total_loss", partial(total_loss, LinkGeometry(2.0, delta=0.95), 2400.0)
    yield "api/max_range", partial(max_range, radio, 0.5, 868.0)
    yield "api/max_foliage_factor", partial(max_foliage_factor, radio, 2.0, 2400.0)
    yield "api/max_foliage_height", partial(max_foliage_height, radio, 2.0, 30.0, 2400.0)
    yield "api/parse_scenario", partial(parse_scenario, text)
    yield "api/evaluate_scenario", partial(evaluate_scenario, parse_scenario(text))


def _import_count() -> int:
    """The opcodes of ``import foliage_link.cli`` in a fresh interpreter with no cached bytecode."""
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory() as prefix:
        # -B and an empty cache prefix: the source is compiled, and nothing is written back
        env = {**os.environ, "PYTHONPYCACHEPREFIX": prefix}
        child = subprocess.run([sys.executable, "-B", __file__, "--count-import"], env=env,
                               capture_output=True, text=True, check=True)
    return int(child.stdout)


def main(prefixes: list[str]) -> None:
    import platform
    import tempfile
    from functools import partial

    from foliage_link import cli, render

    block_rows = render._BLOCK_ROWS

    def wanted(name: str) -> bool:
        return not prefixes or name.startswith(tuple(prefixes))

    print(f"# {platform.python_implementation()} {platform.python_version()}, "
          "PYTHONHASHSEED=0: opcodes of the second call")
    with tempfile.TemporaryDirectory() as tmp:
        ops = [(name, partial(cli.run, argv)) for name, argv in _cli_ops(tmp)]
        ops += _api_ops(os.path.join(tmp, "scenario.json"))
        for name, call in ops:
            if wanted(name):
                blocks = name.startswith(("cli/scenario-blocks/", "cli/sweep-blocks/"))
                render._BLOCK_ROWS = _SMALL_BLOCK_ROWS if blocks else block_rows
                result = call()  # the first call, uncounted
                if name.startswith(("cli/", "setup/")) and result != 0:
                    sys.exit(f"{name} exited {result}")
                print(f"{name:31} {count(call):>10}", flush=True)
    if wanted("import/foliage_link.cli"):
        print(f"{'import/foliage_link.cli':31} {_import_count():>10}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--count-import"]:
        print(count(lambda: __import__("foliage_link.cli")))
    elif os.environ.get("PYTHONHASHSEED") != "0":
        import subprocess

        env = {**os.environ, "PYTHONHASHSEED": "0"}
        sys.exit(subprocess.run([sys.executable, *sys.argv], env=env).returncode)
    else:
        main(sys.argv[1:])
