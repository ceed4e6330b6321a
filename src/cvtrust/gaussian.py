"""Single-mode Gaussian states and the Gaussian maps built on them.

Conventions
-----------
Quadratures are x = (a + a^dag)/2 and p = -i(a - a^dag)/2, so the vacuum
state has variance 1/4 in each quadrature and a coherent state |alpha>
has mean (Re alpha, Im alpha).  Mean vectors are ordered (x, p).

Every state here is phase-insensitive: coherent probes and the loss and
thermal-loss maps that act on them keep the covariance a multiple of the
identity, v I.  A state is therefore held as its mean and the one
quadrature variance v.

All operations return new states; states themselves are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

VACUUM_VARIANCE = 0.25


@dataclass(frozen=True, eq=False)
class GaussianState:
    """First and second moments of a phase-insensitive single-mode state.

    Attributes:
        mean: Quadrature mean vector (x, p).
        variance: Variance of each quadrature, positive and finite; the
            covariance matrix is variance * I.  The vacuum has 1/4.
    """

    mean: np.ndarray
    variance: float

    def __post_init__(self) -> None:
        import numpy as np

        mean = np.array(self.mean, dtype=float)
        if mean.shape != (2,):
            raise ValueError("mean must be the quadrature vector (x, p)")
        variance = float(self.variance)
        if not (math.isfinite(variance) and variance > 0):
            raise ValueError("quadrature variance must be positive and finite")
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)


def coherent_state(alpha: complex) -> GaussianState:
    """Return the coherent state with amplitude alpha.

    The mean is (Re alpha, Im alpha) and the variance is the vacuum's 1/4.
    """
    alpha = complex(alpha)
    return GaussianState((alpha.real, alpha.imag), VACUUM_VARIANCE)


def thermal_loss_channel(state: GaussianState, eta: float, nbar: float) -> GaussianState:
    """Mix the mode with a thermal environment and discard the environment.

    The mode passes a beam splitter of transmittance eta whose other input
    is a thermal state with mean photon number nbar.  On moments this is
    mean -> sqrt(eta) mean and variance -> eta variance + (1 - eta) (2 nbar + 1)/4.

    Args:
        state: Input state.
        eta: Transmittance, 0 < eta <= 1.
        nbar: Mean photon number of the environment, nbar >= 0.
    """
    eta = float(eta)
    nbar = float(nbar)
    if not 0.0 < eta <= 1.0:
        raise ValueError("transmittance must satisfy 0 < eta <= 1")
    if not math.isfinite(nbar) or nbar < 0:
        raise ValueError("nbar must be a finite non-negative number")
    env_variance = (2.0 * nbar + 1.0) * VACUUM_VARIANCE
    scale = math.sqrt(eta)
    variance = (scale * scale) * state.variance + (1.0 - eta) * env_variance
    return GaussianState(scale * state.mean, variance)


def loss_channel(state: GaussianState, eta: float) -> GaussianState:
    """Apply pure loss of transmittance eta.

    Equivalent to mixing with the vacuum: mean -> sqrt(eta) mean and
    variance -> eta variance + (1 - eta)/4.
    """
    return thermal_loss_channel(state, eta, 0.0)
