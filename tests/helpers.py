"""Test-only helpers that call the engine, kept out of the package.

Unlike oracles.py, whose checks share no arithmetic with the engine, these
are thin uses of it: the 32-cell Monte Carlo grid that criterion 4 and the
equivalence tests sweep, the exact total variation of one pair of outcome
densities, one row of equivalence._tv_rows, and the text of a report's two
files.
"""

from __future__ import annotations

import io

from cvtrust.detectors import OutcomeDensity
from cvtrust.equivalence import SweepConfig, _tv_rows, default_alpha_grid, default_spec_grid


def reduced_mc_config(
    seed: int = 0, mc_samples: int = 10**6, sabotage: str = "none", nu: float = 1e-2
) -> SweepConfig:
    """A 32-cell grid sized for Monte Carlo sweeps.

    Eight amplitudes (moduli 1 and 3, four phases each) against four
    specs (eta_d 0.7 and 0.9, both kinds) at a single noise product.
    """
    return SweepConfig(
        alphas=default_alpha_grid(amplitudes=(1.0, 3.0), n_phases=4),
        specs=default_spec_grid(eta_ds=(0.7, 0.9), nus=(nu,)),
        mc_samples=mc_samples,
        seed=seed,
        sabotage=sabotage,
    )


def _tv_distance(d1: OutcomeDensity, d2: OutcomeDensity) -> float:
    """Exact total variation between two outcome densities: one row of _tv_rows."""
    return float(_tv_rows(d1.mean[None], d1.variance, d2.mean[None], d2.variance)[0])


def report_texts(report) -> tuple[str, str]:
    """The JSON and CSV texts that report.write_reports writes."""
    json_fh, csv_fh = io.StringIO(), io.StringIO()
    report.write_reports(json_fh, csv_fh)
    return json_fh.getvalue(), csv_fh.getvalue()
