"""Quadrature detector models and their closed-form outcome densities.

A detector is described by its efficiency eta_d and the mean photon number
nbar of the thermal noise mixed in at the efficiency beam splitter.  For
Gaussian input states every measurement here produces a Gaussian outcome
density, so densities are represented by their parameters rather than by
samples: a single real outcome for homodyne, the pair (Re, Im) of the
complex outcome for heterodyne.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    VACUUM_VARIANCE,
    GaussianState,
    loss_channel,
    thermal_loss_channel,
)
from .jsontext import real_number

HOMODYNE = "homodyne"
HETERODYNE = "heterodyne"
KINDS = (HOMODYNE, HETERODYNE)


@dataclass(frozen=True)
class DetectorSpec:
    """A noisy quadrature detector.

    Attributes:
        kind: "homodyne" or "heterodyne".
        eta_d: Detector efficiency, 0 < eta_d <= 1.
        nbar: Mean photon number of the thermal noise mixed in at the
            efficiency beam splitter, nbar >= 0.
    """

    kind: str
    eta_d: float
    nbar: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        eta_d = float(real_number("eta_d", self.eta_d))
        nbar = float(real_number("nbar", self.nbar))
        if not 0.0 < eta_d <= 1.0:
            raise ValueError("detector efficiency must satisfy 0 < eta_d <= 1")
        if not math.isfinite(nbar) or nbar < 0:
            raise ValueError("nbar must be a finite non-negative number")
        object.__setattr__(self, "eta_d", eta_d)
        object.__setattr__(self, "nbar", nbar)

    @property
    def noise_product(self) -> float:
        """The combination nbar (1 - eta_d) that fixes the outcome noise."""
        return self.nbar * (1.0 - self.eta_d)

    @classmethod
    def from_noise_product(
        cls,
        kind: str,
        eta_d: float,
        nu: float | None = None,
        two_nu: float | None = None,
    ) -> "DetectorSpec":
        """Build a spec from eta_d and the noise product nbar (1 - eta_d).

        Exactly one of nu = nbar (1 - eta_d) or two_nu = 2 nbar (1 - eta_d)
        must be given.  eta_d must be strictly below 1 unless the product
        is zero.
        """
        if (nu is None) == (two_nu is None):
            raise ValueError("exactly one of nu and two_nu must be given")
        nu = float(two_nu) / 2.0 if two_nu is not None else float(nu)
        if not math.isfinite(nu) or nu < 0:
            raise ValueError("noise product must be finite and non-negative")
        eta_d = float(eta_d)
        if nu == 0.0:
            return cls(kind, eta_d, 0.0)
        if eta_d >= 1.0:
            raise ValueError(
                "a nonzero noise product requires eta_d < 1; "
                "use the limit form of the rescale plan instead"
            )
        return cls(kind, eta_d, nu / (1.0 - eta_d))


@dataclass(frozen=True, eq=False)
class OutcomeDensity:
    """Gaussian outcome density whose components share one variance.

    Coherent inputs through the phase-insensitive maps of this package
    give nothing else: a real outcome, or the (Re, Im) components of a
    complex outcome with equal variances and no correlation.

    Attributes:
        mean: Outcome mean, shape (1,) for a real outcome or (2,) for the
            (Re, Im) components of a complex outcome.
        variance: Variance of each component, positive and finite.
    """

    mean: np.ndarray
    variance: float

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float, ndmin=1)
        if mean.shape not in ((1,), (2,)):
            raise ValueError("outcome mean must have one or two components")
        variance = float(self.variance)
        if not (math.isfinite(variance) and variance > 0):
            raise ValueError("outcome variance must be positive and finite")
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)

    @property
    def ndim(self) -> int:
        return self.mean.size

    def pdf(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the density.

        Args:
            points: Shape (m,) for a real outcome.  For a complex outcome
                either a complex array of shape (m,) or a real array of
                shape (m, 2).

        Returns:
            Density values, shape (m,).
        """
        pts = np.asarray(points)
        if np.iscomplexobj(pts):
            pts = np.column_stack([pts.real, pts.imag])
        d = np.asarray(pts, dtype=float).reshape(-1, self.ndim) - self.mean
        z = np.sum(d * d, axis=1) / self.variance
        norm = (2.0 * math.pi * self.variance) ** (self.ndim / 2.0)
        return np.exp(-0.5 * z) / norm

    def scaled(self, factor: float) -> "OutcomeDensity":
        """Pushforward under outcome -> factor * outcome.

        The density of the scaled outcome has mean factor * mean and
        variance factor^2 * variance (the Jacobian is absorbed by the
        parameter change).
        """
        factor = float(factor)
        if not math.isfinite(factor) or factor == 0:
            raise ValueError("scale factor must be finite and nonzero")
        return OutcomeDensity(factor * self.mean, (factor * factor) * self.variance)


def ideal_homodyne_density(state: GaussianState) -> OutcomeDensity:
    """Outcome density of ideal x-quadrature homodyne detection.

    For a Gaussian state this is the normal density with the state's
    x mean and x variance.
    """
    return OutcomeDensity(state.mean[:1], state.variance)


def ideal_heterodyne_density(state: GaussianState) -> OutcomeDensity:
    """Outcome density of ideal heterodyne (double homodyne) detection.

    The complex outcome has the state's quadrature means and variance
    variance + 1/4 per component; one vacuum unit enters through the
    simultaneous measurement of both quadratures.
    """
    return OutcomeDensity(state.mean, state.variance + VACUUM_VARIANCE)


def _ideal_density(state: GaussianState, kind: str) -> OutcomeDensity:
    if kind == HOMODYNE:
        return ideal_homodyne_density(state)
    if kind == HETERODYNE:
        return ideal_heterodyne_density(state)
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def noisy_measurement_density(state: GaussianState, spec: DetectorSpec) -> OutcomeDensity:
    """Outcome density of a noisy detector applied to a Gaussian state.

    The input is mixed with a thermal state of mean photon number
    spec.nbar on a beam splitter of transmittance spec.eta_d, the other
    output port is discarded, and an ideal measurement of spec.kind is
    performed on what remains.
    """
    mixed = thermal_loss_channel(state, spec.eta_d, spec.nbar)
    return _ideal_density(mixed, spec.kind)


def rescaled_lossy_density(
    state: GaussianState, kind: str, eta_e: float, r: float
) -> OutcomeDensity:
    """Outcome density of the loss-then-rescale detector model.

    The input passes a pure loss of transmittance eta_e, an ideal
    measurement of the given kind produces lambda', and the reported
    outcome is lambda = r * lambda'.  The returned density is the
    pushforward of the ideal post-loss density under that rescale.

    Args:
        state: Input state.
        kind: "homodyne" or "heterodyne".
        eta_e: Transmittance of the loss stage, 0 < eta_e <= 1.
        r: Outcome rescale factor, r >= 1.
    """
    r = float(r)
    if not math.isfinite(r) or r < 1.0:
        raise ValueError("rescale factor must satisfy r >= 1")
    lossy = loss_channel(state, eta_e)
    return _ideal_density(lossy, kind).scaled(r)


def sample_outcomes(
    density: OutcomeDensity, n: int, seed: int, stream: int = 0
) -> np.ndarray:
    """Draw n outcomes from a Gaussian outcome density.

    Streams with the same seed but different stream ids are statistically
    independent, and every (seed, stream) pair is reproducible across
    runs.

    Args:
        density: The outcome density to sample.
        n: Number of draws, n >= 1.
        seed: Base seed shared by all streams of one experiment.
        stream: Stream id, giving an independent substream per id.

    Returns:
        Float array of shape (n, density.ndim), one column per component.
    """
    n = int(n)
    if n < 1:
        raise ValueError("sample count must be at least 1")
    rng = np.random.default_rng((int(seed), int(stream)))
    # z is named so that it is freed on return, not scaled in place: that early
    # free lifts glibc's mmap threshold, and a Monte Carlo cell's KS arrays then
    # reuse the heap (scaled in place, a cell peaked 22 more bytes per draw).
    z = rng.standard_normal((n, density.ndim))
    return math.sqrt(density.variance) * z + density.mean
