"""The benchmark's workloads: CLI invocations, expected exit codes and checks.

One pass of a workload runs its operations in order through
cvtrust.cli.main; each operation is one CLI invocation.  The program's
inputs are fixed per workload; the benchmark seed, together with the pass
and operation index, picks the cells and rows that the costlier checks
re-derive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import checks
from .checks import Grid, ScanSpec

# The Monte Carlo seed handed to the program is fixed, so that every run
# does the same work: the cost of kstwo.sf depends on the drawn KS
# statistic, and across seeds 0-7 a four-cell sabotaged mc-large sweep took
# 4.3 to 6.0 s.  At seed 0 every faithful sweep here passes and every sabotaged
# mc-large cell is rejected.
MC_SEED = 0

MC_LARGE_GRID = Grid(amplitudes=(3.0,), n_phases=1, eta_ds=(0.7,), nus=(1e-2,))
MC_SMALL_GRID = Grid(n_phases=1)
MC_LARGE_SAMPLES = 5 * 10**5
MC_SMALL_SAMPLES = 10**4
SCAN_SAMPLE_ROWS = 1000


@dataclass(frozen=True)
class Op:
    """One CLI invocation; check(report, csv_text, rng) returns failures."""

    name: str
    argv: tuple[str, ...]
    expected_exit: int
    check: Callable[[dict, str, np.random.Generator], list[str]]


def _tv_cells(grid: Grid, rng: np.random.Generator) -> list[int]:
    """Four noisy homodyne and four noisy heterodyne cells, picked by rng."""
    cells = grid.cells()
    return [
        int(i)
        for kind in (checks.HOMODYNE, checks.HETERODYNE)
        for i in rng.choice(
            [i for i, c in enumerate(cells) if c.nu > 0 and c.kind == kind], 4, replace=False
        )
    ]


def _analytic_grid() -> list[Op]:
    grid = Grid()
    return [
        Op(
            "verify-faithful",
            ("verify",),
            0,
            lambda report, text, rng: checks.check_analytic_faithful(report, text, grid),
        ),
        Op(
            "verify-skip-rescale",
            ("verify", "--sabotage", "skip-rescale"),
            1,
            lambda report, text, rng: checks.check_analytic_skip_rescale(
                report, text, grid, _tv_cells(grid, rng)
            ),
        ),
    ]


def _mc_argv(grid: Grid, samples: int) -> tuple[str, ...]:
    return (
        "verify", "--mode", "mc", "--mc-samples", str(samples), "--seed", str(MC_SEED),
        *grid.flags(),
    )


def _mc_large() -> list[Op]:
    argv = _mc_argv(MC_LARGE_GRID, MC_LARGE_SAMPLES)
    return [
        Op(
            "verify-mc-faithful",
            argv,
            0,
            lambda report, text, rng: checks.check_mc_faithful(
                report, MC_LARGE_GRID, MC_LARGE_SAMPLES
            ),
        ),
        Op(
            "verify-mc-skip-rescale",
            argv + ("--sabotage", "skip-rescale"),
            1,
            lambda report, text, rng: checks.check_mc_skip_rescale(
                report, MC_LARGE_GRID, MC_LARGE_SAMPLES
            ),
        ),
    ]


def _mc_small() -> list[Op]:
    return [
        Op(
            "verify-mc-faithful",
            _mc_argv(MC_SMALL_GRID, MC_SMALL_SAMPLES),
            0,
            lambda report, text, rng: checks.check_mc_faithful(
                report, MC_SMALL_GRID, MC_SMALL_SAMPLES
            ),
        )
    ]


def _scan_op(spec: ScanSpec) -> Op:
    n = spec.losses().size
    return Op(
        f"scan-{spec.protocol}",
        ("scan", *spec.flags()),
        0,
        lambda report, text, rng: checks.check_scan(
            report, text, spec, rng.choice(n, SCAN_SAMPLE_ROWS, replace=False)
        ),
    )


def _scan_fine() -> list[Op]:
    return [_scan_op(ScanSpec("heterodyne")), _scan_op(ScanSpec("hybrid"))]


WORKLOADS: dict[str, Callable[[], list[Op]]] = {
    "analytic-grid": _analytic_grid,
    "mc-large": _mc_large,
    "mc-small": _mc_small,
    "scan-fine": _scan_fine,
}
