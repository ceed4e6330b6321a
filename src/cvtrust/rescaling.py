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
from dataclasses import dataclass

from .detectors import HETERODYNE, HOMODYNE, KINDS, DetectorSpec

NOISE_FACTOR = {HOMODYNE: 2.0, HETERODYNE: 1.0}

VACUUM_VARIANCE_FLOOR = {HOMODYNE: 0.25, HETERODYNE: 0.5}


def _checked_nu(nu: float) -> float:
    """The noise product nu = nbar (1 - eta_d) as a float, range-checked."""
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0:
        raise ValueError("nu must be a finite non-negative number")
    return nu


@dataclass(frozen=True)
class RescalePlan:
    """Parameters of the equivalent loss-then-rescale detector.

    Attributes:
        kind: "homodyne" or "heterodyne".
        eta_d: Efficiency of the detector being replaced.
        nbar: Thermal photon number of the detector being replaced, or
            None for a plan built directly in the eta_d -> 1 limit.
        nu: The noise product nbar (1 - eta_d).
        r: Outcome rescale factor, r >= 1.
        eta_e: Reduced efficiency of the loss stage, eta_e = eta_d / r^2.
    """

    kind: str
    eta_d: float
    nbar: float | None
    nu: float
    r: float
    eta_e: float

    @property
    def r_squared(self) -> float:
        """r^2, recomputed as 1 plus the exact excess to avoid cancellation."""
        return 1.0 + self.r_squared_excess

    @property
    def r_squared_excess(self) -> float:
        """The excess r^2 - 1, exactly 2 nu (homodyne) or nu (heterodyne)."""
        return NOISE_FACTOR[self.kind] * self.nu

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "eta_d": self.eta_d,
            "nbar": self.nbar,
            "nu": self.nu,
            "r": self.r,
            "eta_e": self.eta_e,
        }


def rescale_plan(spec: DetectorSpec) -> RescalePlan:
    """Reduce a noisy detector to its equivalent rescaled lossy detector.

    Args:
        spec: The detector to reduce.

    Returns:
        The plan (r, eta_e) with eta_e * r^2 = eta_d.
    """
    nu = spec.noise_product
    r_squared = 1.0 + NOISE_FACTOR[spec.kind] * nu
    return RescalePlan(
        kind=spec.kind,
        eta_d=spec.eta_d,
        nbar=spec.nbar,
        nu=nu,
        r=math.sqrt(r_squared),
        eta_e=spec.eta_d / r_squared,
    )


def rescale_plan_limit(nu: float, kind: str) -> RescalePlan:
    """Rescale plan in the high-efficiency limit eta_d -> 1 at fixed nu.

    The thermal photon number diverges in this limit, so the plan keeps
    only the noise product: r^2 = 1 + 2 nu (homodyne) or 1 + nu
    (heterodyne) and eta_e = 1 / r^2.

    Args:
        nu: The noise product, nu >= 0.
        kind: "homodyne" or "heterodyne".
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    nu = _checked_nu(nu)
    r_squared = 1.0 + NOISE_FACTOR[kind] * nu
    return RescalePlan(
        kind=kind,
        eta_d=1.0,
        nbar=None,
        nu=nu,
        r=math.sqrt(r_squared),
        eta_e=1.0 / r_squared,
    )


def noise_figure_from_vacuum_variance(variance: float, kind: str) -> float:
    """Infer nu from the outcome variance of a vacuum probe.

    With a vacuum input, a noisy homodyne detector shows per-outcome
    variance (1 + 2 nu)/4 and a noisy heterodyne detector shows
    (1 + nu)/2 per component, so

        homodyne:    nu = (4 var - 1) / 2
        heterodyne:  nu = 2 var - 1

    Args:
        variance: Measured outcome variance (per component for
            heterodyne), in raw outcome units before any rescaling.
        kind: "homodyne" or "heterodyne".

    Raises:
        ValueError: If the variance is below the vacuum floor (1/4 for
            homodyne, 1/2 for heterodyne), which no physical detector of
            this family can produce, or so large that nu overflows.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    variance = float(variance)
    floor = VACUUM_VARIANCE_FLOOR[kind]
    if not math.isfinite(variance) or variance < floor:
        raise ValueError(
            f"vacuum-probe variance {variance} is below the {kind} floor {floor}"
        )
    if kind == HOMODYNE:
        nu = (4.0 * variance - 1.0) / 2.0
    else:
        nu = 2.0 * variance - 1.0
    return _checked_nu(max(nu, 0.0))


@dataclass(frozen=True)
class DetectorAdjustment:
    """How to bring one detector down to the shared reduced efficiency.

    Two interchangeable remedies are provided; either alone reaches the
    target.

    Attributes:
        spec: The original detector.
        base_plan: Its rescale plan before adjustment.
        added_loss: Transmittance of an extra passive loss placed in front
            of the detector (1.0 means no loss is needed).  Front loss
            leaves the noise product nu unchanged and scales eta_d.
        added_noise_nu: Increase of the noise product achieved by adding a
            centered Gaussian of variance added_noise_nu / 2 per outcome
            component to the raw outcomes (0.0 means no noise is needed).
        loss_adjusted_spec: The detector seen after the added loss, or
            None when eta_d = 1 makes the thermal photon number diverge.
        noise_adjusted_spec: The detector equivalent to the original plus
            added outcome noise, or None in the same limit.
    """

    spec: DetectorSpec
    base_plan: RescalePlan
    added_loss: float
    added_noise_nu: float
    loss_adjusted_spec: DetectorSpec | None
    noise_adjusted_spec: DetectorSpec | None

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


def _spec_with_noise_product(kind: str, eta_d: float, nu: float) -> DetectorSpec | None:
    if nu == 0.0:
        return DetectorSpec(kind, eta_d, 0.0)
    if eta_d >= 1.0:
        return None
    return DetectorSpec(kind, eta_d, nu / (1.0 - eta_d))


def harmonize(specs: list[DetectorSpec] | tuple[DetectorSpec, ...]) -> HarmonizationResult:
    """Equalize the reduced efficiency across a set of detectors.

    Detectors with eta_e above the minimum are degraded to it, never the
    other way around.  For each detector the result carries both remedies:
    an extra front loss of transmittance eta_e_min / eta_e, and an extra
    Gaussian outcome noise raising the noise product to the value that
    yields eta_e_min at the detector's own eta_d.

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
        if plan.eta_e == eta_e_min:
            added_loss = 1.0
            added_noise_nu = 0.0
            loss_spec = spec
            noise_spec = spec
        else:
            added_loss = eta_e_min / plan.eta_e
            target_nu = (spec.eta_d / eta_e_min - 1.0) / NOISE_FACTOR[spec.kind]
            added_noise_nu = target_nu - plan.nu
            loss_spec = _spec_with_noise_product(
                spec.kind, spec.eta_d * added_loss, plan.nu
            )
            noise_spec = _spec_with_noise_product(spec.kind, spec.eta_d, target_nu)
        adjustments.append(
            DetectorAdjustment(
                spec=spec,
                base_plan=plan,
                added_loss=added_loss,
                added_noise_nu=added_noise_nu,
                loss_adjusted_spec=loss_spec,
                noise_adjusted_spec=noise_spec,
            )
        )
    return HarmonizationResult(eta_e_min=eta_e_min, adjustments=tuple(adjustments))
