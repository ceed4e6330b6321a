"""Single-mode Gaussian states and the Gaussian maps built on them.

Conventions
-----------
Quadratures are x = (a + a^dag)/2 and p = -i(a - a^dag)/2, so the vacuum
state has variance 1/4 in each quadrature and a coherent state |alpha>
has mean (Re alpha, Im alpha).  Mean vectors are ordered (x, p).

Every state here is phase-insensitive: coherent probes, thermal states
and the loss, thermal-loss and isotropic displacement maps that act on
them all keep the covariance a multiple of the identity, v I.  A state is
therefore held as its mean and the one quadrature variance v.

All operations return new states; states themselves are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        mean = np.array(self.mean, dtype=float)
        if mean.shape != (2,):
            raise ValueError("mean must be the quadrature vector (x, p)")
        variance = float(self.variance)
        if not (math.isfinite(variance) and variance > 0):
            raise ValueError("quadrature variance must be positive and finite")
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)

    @property
    def cov(self) -> np.ndarray:
        """The 2 x 2 covariance matrix, variance * I."""
        return self.variance * np.eye(2)

    def is_physical(self, tol: float = 1e-12) -> bool:
        """Check the uncertainty relation variance >= 1/4 up to tol."""
        return self.variance >= VACUUM_VARIANCE - tol


def vacuum_state() -> GaussianState:
    """Return the vacuum: zero mean, variance 1/4."""
    return GaussianState(np.zeros(2), VACUUM_VARIANCE)


def coherent_state(alpha: complex) -> GaussianState:
    """Return the coherent state with amplitude alpha.

    The mean is (Re alpha, Im alpha) and the variance is the vacuum's 1/4.
    """
    alpha = complex(alpha)
    return GaussianState((alpha.real, alpha.imag), VACUUM_VARIANCE)


def thermal_state(nbar: float) -> GaussianState:
    """Return the thermal state with mean photon number nbar.

    Its variance is (2 nbar + 1)/4; nbar = 0 reproduces the vacuum.
    """
    nbar = float(nbar)
    if not math.isfinite(nbar) or nbar < 0:
        raise ValueError("nbar must be a finite non-negative number")
    return GaussianState(np.zeros(2), (2.0 * nbar + 1.0) * VACUUM_VARIANCE)


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


def random_displacement(state: GaussianState, v: float) -> GaussianState:
    """Apply an isotropic Gaussian random displacement.

    The displacement is drawn from a centered symmetric Gaussian that adds
    v/4 to each quadrature variance, leaving the mean unchanged; v = 0 is
    the identity.

    Args:
        state: Input state.
        v: Added variance in units of 4x quadrature variance, v >= 0.
    """
    v = float(v)
    if not math.isfinite(v) or v < 0:
        raise ValueError("displacement variance v must be finite and non-negative")
    return GaussianState(state.mean, state.variance + v * VACUUM_VARIANCE)
