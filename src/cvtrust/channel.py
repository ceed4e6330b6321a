"""Phase-invariant Gaussian channel and per-scenario effective parameters.

The transmission line is a pure loss of transmittance eta followed by an
isotropic Gaussian random displacement adding eta * xi0 / 4 to each
quadrature variance, so a coherent input beta leaves with mean
sqrt(eta) beta and per-quadrature variance (1 + eta xi0) / 4.

Effective channel parameters (t_eff, xi_eff) summarize what a key-rate
evaluator sees in each detector-accounting scenario, a SCENARIO_TABLE entry
that picks one of the receiver's RescalePlans and folds it to (gain, noise):
t_eff = eta gain and xi_eff = t_eff xi0 + noise, so homodyne on a coherent
carrier sees (1 + xi_eff) / 4.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .rescaling import RescalePlan

IDEAL = "ideal"
TRUSTED = "trusted"
UNTRUSTED = "untrusted"


def _shared_detector(plans: tuple[RescalePlan, ...]) -> RescalePlan:
    """The first plan, once every plan's detector shares its (eta_d, nbar)."""
    if len({(p.eta_d, p.nbar) for p in plans}) > 1:
        raise ValueError(
            "the untrusted scenario needs all detectors to share "
            "(eta_d, nbar); got mixed parameters"
        )
    return plans[0]


# scenario: (pick(plans) -> plan | None, fold(plan) -> (gain, noise)); gain 1, noise 0 exact.
SCENARIO_TABLE = {
    IDEAL: (lambda plans: None, lambda plan: (1.0, 0.0)),
    TRUSTED: (lambda plans: min(plans, key=lambda p: p.eta_e), lambda plan: (plan.eta_e, 0.0)),
    UNTRUSTED: (_shared_detector, lambda plan: (plan.eta_d, 2.0 * plan.nu)),
}
SCENARIOS = tuple(SCENARIO_TABLE)


@dataclass(frozen=True)
class ChannelSpec:
    """A lossy fiber with excess noise.

    Attributes:
        eta: Transmittance, 0 < eta <= 1: a float, or a tuple of
            transmittances (from any iterable of them) that scenario_params
            evaluates in one call.
        xi0: Input-referred excess noise, xi0 >= 0; the displacement stage
            contributes eta * xi0 at the channel output.
    """

    eta: float | tuple[float, ...]
    xi0: float = 0.0

    def __post_init__(self) -> None:
        scalar = isinstance(self.eta, numbers.Real)
        eta = float(self.eta) if scalar else tuple(map(float, self.eta))
        xi0 = float(self.xi0)
        if not all(0.0 < e <= 1.0 for e in ((eta,) if scalar else eta)):
            raise ValueError("channel transmittance must satisfy 0 < eta <= 1")
        if not math.isfinite(xi0) or xi0 < 0:
            raise ValueError("xi0 must be a finite non-negative number")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "xi0", xi0)


def scenario_params(
    channel: ChannelSpec,
    plan: RescalePlan | None = None,
    scenario: str = IDEAL,
) -> tuple[float | tuple[float, ...], float | tuple[float, ...]]:
    """Fold channel and detector into effective rate-evaluator parameters.

    ideal: the detector is perfect, (t, xi) = (eta, eta xi0).

    trusted: detector noise is calibrated away by the loss-then-rescale
    reduction; the plan's reduced efficiency joins the transmittance,
    (t, xi) = (eta eta_e, eta eta_e xi0).

    untrusted: detector loss and noise are attributed to the channel,
    (t, xi) = (eta eta_d, eta eta_d xi0 + 2 nu), nu = nbar (1 - eta_d).

    Args:
        channel: The transmission line; a float eta is folded as a 1-tuple
            and unwrapped, so a tuple eta's results equal scalar calls.
        plan: The detector's RescalePlan, which the fold reads, not
            rebuilds; required for the trusted and untrusted scenarios.
        scenario: One of "ideal", "trusted", "untrusted".

    Returns:
        (t_eff, xi_eff): effective transmittance and effective excess
        noise in additive outcome-variance units; ValueError if one overflows.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if plan is None and scenario != IDEAL:
        raise ValueError(f"the {scenario} scenario requires a detector's rescale plan")
    gain, noise = SCENARIO_TABLE[scenario][1](plan)
    scalar = isinstance(channel.eta, float)
    t_effs = tuple(eta * gain for eta in ((channel.eta,) if scalar else channel.eta))
    xi_effs = tuple(t * channel.xi0 + noise for t in t_effs)
    if not math.isfinite(max(xi_effs)):
        raise ValueError(f"the {scenario} scenario's excess noise xi_eff overflows")
    return (t_effs[0], xi_effs[0]) if scalar else (t_effs, xi_effs)
