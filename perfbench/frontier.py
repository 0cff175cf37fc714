"""Seeded unit set for the ``frontier-wide`` workload.

The units are universities of widely different sizes: each draws a
size, splits it over three staff ranks and a funding budget, and turns
a concave function of its inputs into three outputs, shrunk by a
random inefficiency.  A handful of units get no inefficiency at all,
so the frontier is spanned by a known small set while most units lie
well inside it.  Only the standard library is used, so the inputs do
not depend on the numpy version under test.
"""

from __future__ import annotations

import math
import random

INPUT_LABELS = ("FP", "AP", "RF", "PR")
OUTPUT_LABELS = ("PU", "PC", "SS")
N_UNITS = 250
N_FRONTIER = 6


def generate(seed: int, n_units: int = N_UNITS) -> dict:
    """Return ``{"input_labels", "output_labels", "units"}`` where each
    unit is ``[dmu_id, inputs, outputs]`` with values rounded to 1e-6."""
    rng = random.Random(seed)
    frontier = set(rng.sample(range(n_units), N_FRONTIER))
    units = []
    for k in range(n_units):
        size = math.exp(rng.gauss(0.0, 0.7)) * 20.0
        shares = [rng.uniform(0.85, 1.15) for _ in range(3)]
        total = sum(shares)
        staff = [size * s / total for s in shares]
        funding = size * rng.uniform(10.0, 20.0)
        inputs = staff + [funding]
        # Concave in size, so scale efficiency varies across units.
        base = (0.5 * staff[0] + 0.35 * staff[1] + 0.15 * staff[2]) ** 0.85
        base *= (funding / size) ** 0.15
        eff = 1.0 if k in frontier else math.exp(-0.08 - abs(rng.gauss(0.0, 0.3)))
        outputs = [
            base * eff * rng.uniform(0.93, 1.07) * scale
            for scale in (3.0, 1.2, 4.0)
        ]
        units.append([
            f"D{k + 1:03d}",
            [round(v, 6) for v in inputs],
            [round(v, 6) for v in outputs],
        ])
    return {
        "input_labels": list(INPUT_LABELS),
        "output_labels": list(OUTPUT_LABELS),
        "units": units,
    }
