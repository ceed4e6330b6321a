"""Gaussian quantum optics engine and trusted-noise calculus.

The package reduces noisy quadrature detectors (efficiency eta_d, thermal
noise nbar) to noiseless detectors of reduced efficiency eta_e whose
outcomes are rescaled by r, and provides the verification and key-rate
tooling built on that reduction.  The names below are the ones the CLI
and the README example use; everything else is reached through its
module.  Importing the package loads no numpy: only the verification lab
and calibrate --samples work on arrays, and the lab's four names import
their module on first access.
"""

from .channel import ChannelSpec, scenario_params
from .detectors import DetectorSpec
from .keyrate import RateParams, ScanConfig, reference_rate, run_scan
from .rescaling import noise_figure_from_vacuum_variance, rescale_plan, rescale_plan_limit

__version__ = "0.1.0"

_LAB = ("SweepConfig", "analytic_sweep", "default_sweep_config", "monte_carlo_sweep")


def __getattr__(name: str):
    if name in _LAB:
        from . import equivalence

        return getattr(equivalence, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ChannelSpec",
    "DetectorSpec",
    "RateParams",
    "ScanConfig",
    "SweepConfig",
    "analytic_sweep",
    "default_sweep_config",
    "monte_carlo_sweep",
    "noise_figure_from_vacuum_variance",
    "reference_rate",
    "rescale_plan",
    "rescale_plan_limit",
    "run_scan",
    "scenario_params",
]
