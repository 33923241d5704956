"""SHA-256 digest of every inverse-solver outcome over seeded random draws.

Run it on two checkouts to show that a solver refactor changes no result:

    PYTHONPATH=src python tests/solver_digest.py [DRAWS]

Each draw (default 20,000) is a random radio, cover factor, distance,
frequency, cover-factor cap and antenna height, and goes through
``max_range``, ``max_foliage_factor`` and ``max_foliage_height``. The digest
covers each result's ``value`` and ``achieved_loss_db`` as exact hex floats,
``iterations``, ``converged`` and ``all_feasible``, or the raised error's type
and message.
"""

import hashlib
import random
import sys

from foliage_link import (
    FoliageLinkError,
    RadioConfig,
    max_foliage_factor,
    max_foliage_height,
    max_range,
)


def digest(draws: int, seed: int = 20261018) -> str:
    rng = random.Random(seed)
    sha = hashlib.sha256()

    def record(solve, *args, **kwargs):
        try:
            r = solve(*args, **kwargs)
        except FoliageLinkError as exc:
            line = f"{type(exc).__name__}:{exc}"
        else:
            line = (f"{r.value.hex()} {r.achieved_loss_db.hex()} {r.iterations} "
                    f"{r.converged} {r.all_feasible}")
        sha.update(line.encode() + b"\n")

    for _ in range(draws):
        radio = RadioConfig(
            tx_power_dbm=rng.uniform(-10, 40),
            tx_gain_dbi=rng.uniform(0, 15),
            rx_gain_dbi=rng.uniform(0, 15),
            rx_sensitivity_dbm=rng.uniform(-150, -80),
            required_margin_db=rng.uniform(0, 20),
        )
        delta = 0.0 if rng.random() < 0.1 else rng.uniform(0, 0.999)
        d_km = 10 ** rng.uniform(-3, 2)
        f_mhz = 10 ** rng.uniform(2, 4.5)
        cap = rng.uniform(0.01, 0.999)
        h_m = rng.uniform(1, 60)
        record(max_range, radio, delta, f_mhz)
        record(max_foliage_factor, radio, d_km, f_mhz, cap)
        record(max_foliage_height, radio, d_km, h_m, f_mhz, cap)
    return sha.hexdigest()


if __name__ == "__main__":
    draws = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    print(draws, digest(draws))
