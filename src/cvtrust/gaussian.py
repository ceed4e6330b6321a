"""Single-mode Gaussian states and the Gaussian maps built on them.

Conventions
-----------
Quadratures are x = (a + a^dag)/2 and p = -i(a - a^dag)/2, so the vacuum
state has variance 1/4 in each quadrature and a coherent state |alpha>
has mean (Re alpha, Im alpha).  Mean vectors and covariance matrices are
ordered (x, p).

All operations return new states; states themselves are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VACUUM_VARIANCE = 0.25

# The symplectic form [[0, 1], [-1, 0]]: [x, p] = (i/2) Omega_{xp}.
_OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _readonly(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class GaussianState:
    """First and second moments of a single-mode Gaussian state.

    Attributes:
        mean: Quadrature mean vector (x, p).
        cov: Symmetric 2 x 2 covariance matrix in the same ordering.
            The vacuum has cov = I/4.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (2,):
            raise ValueError("mean must be the quadrature vector (x, p)")
        if cov.shape != (2, 2):
            raise ValueError("cov must be a 2 x 2 matrix")
        if not np.array_equal(cov, cov.T):
            raise ValueError("covariance matrix must be symmetric")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(cov))

    def is_physical(self, tol: float = 1e-12) -> bool:
        """Check the uncertainty relation cov + (i/4) Omega >= 0 up to tol."""
        eigenvalues = np.linalg.eigvalsh(self.cov + 0.25j * _OMEGA)
        return bool(eigenvalues.min() >= -tol)


def vacuum_state() -> GaussianState:
    """Return the vacuum: zero mean, covariance I/4."""
    return GaussianState(np.zeros(2), VACUUM_VARIANCE * np.eye(2))


def coherent_state(alpha: complex) -> GaussianState:
    """Return the coherent state with amplitude alpha.

    The mean is (Re alpha, Im alpha) and the covariance is the vacuum's I/4.
    """
    alpha = complex(alpha)
    mean = np.array([alpha.real, alpha.imag])
    return GaussianState(mean, VACUUM_VARIANCE * np.eye(2))


def thermal_state(nbar: float) -> GaussianState:
    """Return the thermal state with mean photon number nbar.

    Its covariance is ((2 nbar + 1)/4) I; nbar = 0 reproduces the vacuum.
    """
    nbar = float(nbar)
    if not math.isfinite(nbar) or nbar < 0:
        raise ValueError("nbar must be a finite non-negative number")
    variance = (2.0 * nbar + 1.0) * VACUUM_VARIANCE
    return GaussianState(np.zeros(2), variance * np.eye(2))


def thermal_loss_channel(state: GaussianState, eta: float, nbar: float) -> GaussianState:
    """Mix the mode with a thermal environment and discard the environment.

    The mode passes a beam splitter of transmittance eta whose other input
    is a thermal state with mean photon number nbar.  On moments this is
    mean -> sqrt(eta) mean and cov -> eta cov + (1 - eta) (2 nbar + 1)/4 I.

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
    cov = (scale * scale) * state.cov
    added = (1.0 - eta) * env_variance
    cov[0, 0] += added
    cov[1, 1] += added
    return GaussianState(scale * state.mean, cov)


def loss_channel(state: GaussianState, eta: float) -> GaussianState:
    """Apply pure loss of transmittance eta.

    Equivalent to mixing with the vacuum: mean -> sqrt(eta) mean and
    cov -> eta cov + ((1 - eta)/4) I.
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
    cov = np.array(state.cov)
    added = v * VACUUM_VARIANCE
    cov[0, 0] += added
    cov[1, 1] += added
    return GaussianState(state.mean, cov)
