"""Reduction of noisy detectors to rescaled lossy detectors.

A noisy quadrature detector (efficiency eta_d, thermal photon number nbar)
produces, on every Gaussian input, the same outcome statistics as a pure
loss of transmittance eta_e followed by an ideal detector whose outcome is
multiplied by r.  The parameters are

    homodyne:    r^2 = 1 + 2 nbar (1 - eta_d)
    heterodyne:  r^2 = 1 + nbar (1 - eta_d)
    both:        eta_e = eta_d / r^2

so eta_e * r^2 = eta_d holds identically.  Only the product
nu = nbar (1 - eta_d) enters, which keeps the reduction meaningful in the
high-efficiency limit eta_d -> 1 with nu held fixed.

All noise quantities here are expressed through nu; the excess outcome
variance in units of 4x quadrature variance is 2 nu for homodyne and nu per
component for heterodyne.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .detectors import HETERODYNE, HOMODYNE, KINDS, DetectorSpec, checked_nu

NOISE_FACTOR = {HOMODYNE: 2.0, HETERODYNE: 1.0}

VACUUM_VARIANCE_FLOOR = {HOMODYNE: 0.25, HETERODYNE: 0.5}


class CalibrationFailed(ValueError):
    """A finite vacuum-probe variance below the floor: a failed calibration, not bad input."""


@dataclass(frozen=True)
class RescalePlan:
    """Parameters of the equivalent loss-then-rescale detector.

    Attributes:
        kind: "homodyne" or "heterodyne".
        eta_d: Efficiency of the detector being replaced.
        nbar: Thermal photon number of the detector being replaced, or
            None for a plan built directly in the eta_d -> 1 limit.
        nu: The noise product nbar (1 - eta_d).
        r: Outcome rescale factor, r >= 1; r and eta_e are derived, not given.
        eta_e: Reduced efficiency of the loss stage, eta_e = eta_d / r^2.
    """

    kind: str
    eta_d: float
    nbar: float | None
    nu: float
    r: float = field(init=False)
    eta_e: float = field(init=False)

    def __post_init__(self) -> None:
        r_squared = self.r_squared
        if not math.isfinite(r_squared):
            raise ValueError(f"noise product nu = {self.nu} makes the {self.kind} r^2 overflow")
        eta_e = self.eta_d / r_squared
        if eta_e == 0.0:
            raise ValueError(
                f"eta_d = {self.eta_d!r} at noise product nu = {self.nu} underflows "
                f"to zero {self.kind} reduced efficiency"
            )
        object.__setattr__(self, "r", math.sqrt(r_squared))
        object.__setattr__(self, "eta_e", eta_e)

    @property
    def r_squared(self) -> float:
        """r^2, recomputed as 1 plus the exact excess to avoid cancellation."""
        return 1.0 + self.r_squared_excess

    @property
    def r_squared_excess(self) -> float:
        """The excess r^2 - 1, exactly 2 nu (homodyne) or nu (heterodyne)."""
        return NOISE_FACTOR[self.kind] * self.nu

    def to_json_dict(self) -> dict:
        return asdict(self)


def _nu_of_r_squared(r_squared: float, kind: str) -> float:
    """The noise product whose plan has this r^2: nu = (r^2 - 1) / NOISE_FACTOR[kind]."""
    return (r_squared - 1.0) / NOISE_FACTOR[kind]


def rescale_plan(spec: DetectorSpec) -> RescalePlan:
    """Reduce a noisy detector to its equivalent rescaled lossy detector.

    Args:
        spec: The detector to reduce.

    Returns:
        The plan (r, eta_e) with eta_e * r^2 = eta_d.

    Raises:
        ValueError: If r^2 overflows or eta_e underflows to zero.
    """
    return RescalePlan(spec.kind, spec.eta_d, spec.nbar, spec.noise_product)


def rescale_plan_limit(nu: float, kind: str) -> RescalePlan:
    """Rescale plan in the high-efficiency limit eta_d -> 1 at fixed nu.

    The thermal photon number diverges in this limit, so the plan keeps
    only the noise product: r^2 = 1 + 2 nu (homodyne) or 1 + nu
    (heterodyne) and eta_e = 1 / r^2.

    Args:
        nu: The noise product, nu >= 0.
        kind: "homodyne" or "heterodyne".

    Raises:
        ValueError: If nu is negative or not finite, or r^2 overflows.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return RescalePlan(kind, 1.0, None, checked_nu(nu))


def noise_figure_from_vacuum_variance(variance: float, kind: str) -> float:
    """Infer nu from the outcome variance of a vacuum probe.

    With a vacuum input, a noisy homodyne detector shows per-outcome
    variance (1 + 2 nu)/4 and a noisy heterodyne detector shows
    (1 + nu)/2 per component: r^2 = var / floor, so nu = (4 var - 1) / 2
    (homodyne) or 2 var - 1 (heterodyne).

    Args:
        variance: Measured outcome variance (per component for
            heterodyne), in raw outcome units before any rescaling.
        kind: "homodyne" or "heterodyne".

    Raises:
        CalibrationFailed: If the variance is below the vacuum floor (1/4
            for homodyne, 1/2 for heterodyne), which no physical detector of
            this family can produce.
        ValueError: If the variance is not a finite number, or is so large
            that nu overflows.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    variance = float(variance)
    if not math.isfinite(variance):
        raise ValueError(f"vacuum-probe variance {variance} is not a finite number")
    floor = VACUUM_VARIANCE_FLOOR[kind]
    if variance < floor:
        raise CalibrationFailed(f"vacuum-probe variance {variance} is below the {kind} floor {floor}")
    nu = _nu_of_r_squared(variance / floor, kind)  # variance / floor >= 1, so nu >= +0.0
    if not math.isfinite(nu):
        raise ValueError(
            f"vacuum-probe variance {variance} is too large: its noise product overflows"
        )
    return nu


@dataclass(frozen=True)
class DetectorAdjustment:
    """How to bring one detector down to the shared reduced efficiency.

    Either remedy alone reaches eta_e_min, at every eta_d, eta_d = 1 included.

    Attributes:
        spec: The original detector.
        base_plan: Its rescale plan before adjustment.
        added_loss: Transmittance of an extra passive loss placed in front
            of the detector (1.0 means none is needed); it scales eta_d and
            leaves the noise product nu unchanged.
        added_noise_nu: Increase of nu by a centered Gaussian of variance
            outcome_noise_variance added to each raw outcome component (0.0
            means none is needed); r^2 becomes eta_d / eta_e_min.
    """

    spec: DetectorSpec
    base_plan: RescalePlan
    added_loss: float
    added_noise_nu: float

    @property
    def outcome_noise_variance(self) -> float:
        """Variance of the synthetic outcome noise, per real component."""
        return self.added_noise_nu / 2.0


@dataclass(frozen=True)
class HarmonizationResult:
    """Shared reduced efficiency for a set of detectors.

    Attributes:
        eta_e_min: The smallest reduced efficiency among the detectors;
            every adjustment targets this value.
        adjustments: One DetectorAdjustment per input detector, in order.
    """

    eta_e_min: float
    adjustments: tuple[DetectorAdjustment, ...]


def harmonize(specs: list[DetectorSpec] | tuple[DetectorSpec, ...]) -> HarmonizationResult:
    """Equalize the reduced efficiency across a set of detectors.

    Detectors with eta_e above the minimum are degraded to it, never the
    other way around.  For each detector the result carries both remedies:
    an extra front loss of transmittance eta_e_min / eta_e, and an extra
    Gaussian outcome noise raising the noise product to the nu whose
    r^2 = eta_d / eta_e_min.  The noise remedy needs no thermal photon
    number, so it exists at eta_d = 1 too.

    Args:
        specs: One or more detectors.

    Returns:
        The common eta_e_min together with per-detector adjustments.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("harmonize requires at least one detector")
    plans = [rescale_plan(s) for s in specs]
    eta_e_min = min(plan.eta_e for plan in plans)
    adjustments = []
    for spec, plan in zip(specs, plans):
        added_loss, added_noise_nu = 1.0, 0.0
        if plan.eta_e != eta_e_min:
            added_loss = eta_e_min / plan.eta_e
            added_noise_nu = _nu_of_r_squared(spec.eta_d / eta_e_min, spec.kind) - plan.nu
        adjustments.append(DetectorAdjustment(spec, plan, added_loss, added_noise_nu))
    return HarmonizationResult(eta_e_min=eta_e_min, adjustments=tuple(adjustments))
