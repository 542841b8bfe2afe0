"""Host reference kernel: a fixed pure-Python plus numpy workload.

Run as a script, it prints the milliseconds of each of three repeats as
a JSON list.  The work never changes, so a slower reading means a
slower host phase, not a slower program.  ``run.py`` runs it in a child
process, so its memory stays out of the benchmark's ``rss_peak_mb``.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np


def calibrate(repeats: int = 3):
    """Milliseconds of the reference kernel, per repeat."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        rng = random.Random(12345)
        table = {}
        for i in range(100_000):
            key = rng.randrange(50_000)
            table[key] = table.get(key, 0) + i
        sorted(table.items())
        array = np.random.default_rng(12345).integers(0, 1 << 30, 1 << 19)
        np.sort(array).cumsum()
        np.unique(array % 65_536, return_counts=True)
        times.append((time.perf_counter() - start) * 1000.0)
    return times


if __name__ == "__main__":
    print(json.dumps(calibrate()))
