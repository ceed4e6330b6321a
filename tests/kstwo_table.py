"""Frozen scipy values for test_kstwo_sf_equals_scipy_bit_for_bit, and their generator.

kstwo_table.json holds, as float.hex() strings:

* "kstwo_sf": scipy's kstwo.sf(d, n), clipped to [0, 1], at each of the
  test's 2,640 points (n, d), in the order points() gives them;
* "smirnov": scipy.special.smirnov(n, x) at every (n, x) that
  kstail.kstwo_sf asks for at those points, on its smirnov branch;

with the numpy and scipy versions that computed them.  The test serves the
recorded smirnov values to kstail and compares its results with the
recorded kstwo.sf values; at the threshold points it also calls the
installed kstwo.sf, so a table that no longer matches scipy shows.

Regenerate the table, about a minute on a 2-core x86-64 machine, with

    PYTHONPATH=src python tests/kstwo_table.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TABLE = Path(__file__).with_name("kstwo_table.json")
SIZES = (141, 5_001, 10**4, 99_999, 10**5, 10**5 + 1, 250_000, 5 * 10**6)


def threshold_points(n: int) -> list[float]:
    """The 30 points at and next to every threshold of kstwo_sf's branches at n.

    Pelz-Good has its own: q underflows below z = d sqrt(n) = 0.0417.
    """
    edges = [0.5 / n, 1.0 / n, (n - 1) / n, 0.5, 1.0, (1.4 / n) ** (2 / 3),
             0.041743441416853426 / math.sqrt(n)]
    edges += [math.sqrt(c / n) for c in (2.2, 18.0, 370.0)]
    return [float(x) for e in edges for x in (np.nextafter(e, 0.0), e, np.nextafter(e, 2.0))]


def points() -> list[tuple[int, float]]:
    """Per n in SIZES, its threshold points, then 300 log-uniform ones over [1 / 4n, 1]."""
    rng = np.random.default_rng(17)
    return [
        (n, d)
        for n in SIZES
        for d in threshold_points(n) + np.exp(rng.uniform(math.log(0.25 / n), 0.0, 300)).tolist()
    ]


def _rows(rows: list) -> str:
    return "[\n" + ",\n".join("  " + json.dumps(row) for row in rows) + "\n]"


def write_table() -> None:
    """Compute the table with the installed numpy and scipy and write it to TABLE."""
    import scipy
    from scipy import special
    from scipy.stats import kstwo

    from cvtrust import kstail

    # Both sides ask scipy.special.smirnov for the same (n, x) on the smirnov
    # branch, where its O(n) sum dominates the time; each value is computed
    # once and handed to both.
    smirnov, computed = special.smirnov, {}

    def smirnov_once(n, x):
        key = (int(n), float(x))
        if key not in computed:
            computed[key] = smirnov(n, x)
        return computed[key]

    special.smirnov = kstail.smirnov = smirnov_once
    try:
        sf = []
        for n, d in points():
            sf.append([n, d.hex(), float(np.clip(kstwo.sf(d, n), 0.0, 1.0)).hex()])
            kstail.kstwo_sf(d, n)
    finally:
        special.smirnov = kstail.smirnov = smirnov
    recorded = [[n, x.hex(), float(v).hex()] for (n, x), v in sorted(computed.items())]
    TABLE.write_text(
        "{\n"
        f'"numpy": {json.dumps(np.__version__)},\n'
        f'"scipy": {json.dumps(scipy.__version__)},\n'
        f'"kstwo_sf": {_rows(sf)},\n'
        f'"smirnov": {_rows(recorded)}\n'
        "}\n"
    )


if __name__ == "__main__":
    write_table()
