"""SHA-256 digest of the CLI's table, CSV and JSON output over seeded inputs.

Run it on two checkouts to show that a rendering change changes no byte:

    PYTHONPATH=src python tests/render_digest.py [POINTS]

Each case runs ``foliage_link.cli.run`` with ``--out`` and hashes the file it
writes, in ``table``, ``csv`` and ``json``:

* one seeded sweep of each variable, POINTS points each (default 20,000),
  and three sweeps whose constant columns take edge values: frequency sweeps
  at a cover factor of 0 and 2,500 m deep in foliage, and a distance sweep
  at a cover factor of 0;
* a seeded scenario of POINTS nodes that holds full-cover error rows and ids
  that CSV has to quote (commas, double quotes, carriage returns, newlines)
  or that JSON has to escape (backslashes, control and non-ASCII characters);
* seeded single-record ``loss``, ``budget`` and ``bounds`` outputs;
* the scenario written back by ``emit_scenario(parse_scenario(text))``.

It prints one line per case, then the digest of all of them.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from foliage_link import emit_scenario, parse_scenario
from foliage_link.cli import run

#: ids that CSV quotes or JSON escapes; the scenario cycles through them
ODD_IDS = ("row,12", 'say "hi"', "cr\rlf", "two\nlines", "back\\slash", "tab\tbell\x07",
           "é✓𝄞", " lead", "True", "")


def _cases(rng: random.Random, points: int):
    f_mhz = lambda: repr(rng.choice((433.0, 868.0, 915.0, 2400.0, 5800.0)))  # noqa: E731
    d_km = lambda: repr(10 ** rng.uniform(-1.3, 1.3))  # noqa: E731
    delta = lambda: repr(rng.uniform(0.05, 0.9))  # noqa: E731
    steps = str(points)
    yield "sweep-delta", ["sweep", "--var", "delta", "--start", "0", "--stop",
                          repr(rng.uniform(0.5, 0.95)), "--steps", steps,
                          "--d-km", d_km(), "--f-mhz", f_mhz()]
    yield "sweep-foliage-height", ["sweep", "--var", "foliage-height", "--start", "0",
                                   "--stop", repr(rng.uniform(10, 29.9)), "--steps", steps,
                                   "--d-km", d_km(), "--h-m", "30", "--f-mhz", f_mhz()]
    yield "sweep-distance", ["sweep", "--var", "distance", "--start", "0.05",
                             "--stop", repr(rng.uniform(10, 30)), "--steps", steps,
                             "--delta", delta(), "--f-mhz", f_mhz()]
    yield "sweep-frequency-mhz", ["sweep", "--var", "frequency-mhz", "--start", "400",
                                  "--stop", "6000", "--steps", steps,
                                  "--d-km", d_km(), "--delta", delta()]
    # sweeps whose constant columns take edge values: a zero regime, a foliage
    # depth of 2,500 m (extrapolated) and a cover factor of 0
    yield "sweep-frequency-delta-0", ["sweep", "--var", "frequency-mhz", "--start", "400",
                                      "--stop", "6000", "--steps", steps,
                                      "--d-km", "2", "--delta", "0"]
    yield "sweep-frequency-deep", ["sweep", "--var", "frequency-mhz", "--start", "400",
                                   "--stop", "6000", "--steps", steps,
                                   "--d-km", "5", "--delta", "0.5"]
    yield "sweep-distance-delta-0", ["sweep", "--var", "distance", "--start", "0.05",
                                     "--stop", "20", "--steps", steps,
                                     "--delta", "0", "--f-mhz", "868"]
    yield "scenario", None
    for i in range(20):
        yield f"loss-{i}", ["loss", "--d-km", d_km(), "--delta", delta(), "--f-mhz", f_mhz()]
    for i, solve in enumerate(("range", "delta", "height") * 5):
        argv = ["budget", "--solve", solve, "--tx-dbm", repr(rng.uniform(-10, 30)),
                "--sensitivity-dbm", repr(rng.uniform(-150, -90)), "--f-mhz", f_mhz()]
        argv += ["--delta", delta()] if solve == "range" else ["--d-km", d_km()]
        if solve == "height":
            argv += ["--h-m", "30"]
        yield f"budget-{i}-{solve}", argv
    for i in range(10):
        yield f"bounds-{i}", ["bounds", "--delta-min", repr(rng.uniform(0.0, 0.3)),
                              "--delta-max", repr(rng.uniform(0.6, 1.0)),
                              "--sigma", repr(rng.uniform(0.0, 0.3))]


def _scenario(rng: random.Random, nodes: int) -> dict:
    doc_nodes = []
    for i in range(nodes):
        node_id = f"n{i}" if i % 7 else f"{ODD_IDS[i // 7 % len(ODD_IDS)]}{i}"
        node = {"id": node_id, "d_km": 10 ** rng.uniform(-1.3, 1.3)}
        if i % 97 == 0:
            node["delta"] = 1.0  # full cover: an error row
        elif i % 2:
            node["h_f_m"] = rng.uniform(0.0, 30.0)
        else:
            node["delta"] = rng.uniform(0.0, 0.999)
        doc_nodes.append(node)
    return {
        "name": "digest",
        "frequency_mhz": 868.0,
        "base_height_m": 30.0,
        "radio": {"tx_power_dbm": 14.0, "tx_gain_dbi": 2.0, "rx_gain_dbi": 2.0,
                  "rx_sensitivity_dbm": -137.0, "required_margin_db": 10.0},
        "nodes": doc_nodes,
    }


def digest(points: int, seed: int = 20261018):
    rng = random.Random(seed)
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for name, argv in _cases(rng, points):
            if argv is None:
                path = Path(tmp) / "scenario.json"
                path.write_text(json.dumps(_scenario(rng, points)), encoding="utf-8")
                argv = ["scenario", "--file", str(path)]
                document = emit_scenario(parse_scenario(path.read_text(encoding="utf-8")))
                sha = hashlib.sha256(document.encode())
                total.update(sha.digest())
                yield "scenario-document", sha.hexdigest()
            sha = hashlib.sha256()
            for fmt in ("table", "csv", "json"):
                code = run([*argv, "--format", fmt, "--out", str(out)])
                text = out.read_bytes() if code == 0 else b""
                sha.update(f"{fmt} {code} {len(text)}\n".encode() + text)
            total.update(sha.digest())
            yield name, sha.hexdigest()
    yield "all", total.hexdigest()


if __name__ == "__main__":
    points = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    for name, hexdigest in digest(points):
        print(f"{name:24} {hexdigest}")
