"""Independent oracles for the closed-form densities and channel moments.

Nothing here calls the Gaussian engine or shares its moment arithmetic:
from cvtrust the oracles take only DetectorSpec and the kind constants,
which test_oracles_import_no_engine_code checks.  Two oracles integrate
Gaussian mixtures of coherent states by 2-d quadrature, and validate the
noisy-detector densities and the channel's output moments; a third
dilates the thermal-loss channel into a two-mode beam splitter.
gaussian_pdf evaluates an outcome density from its mean and variance, so
the engine's densities can be compared with the quadrature tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cvtrust.detectors import HOMODYNE, DetectorSpec


def gaussian_pdf(density, points: np.ndarray) -> np.ndarray:
    """Evaluate a Gaussian outcome density from its mean and variance.

    Args:
        density: Anything with a mean of shape (1,) or (2,) and a variance
            shared by its components, such as an OutcomeDensity.
        points: Shape (m,) for a real outcome.  For a complex outcome
            either a complex array of shape (m,) or a real array of
            shape (m, 2).

    Returns:
        Density values, shape (m,).
    """
    ndim = density.mean.size
    pts = np.asarray(points)
    if np.iscomplexobj(pts):
        pts = np.column_stack([pts.real, pts.imag])
    d = np.asarray(pts, dtype=float).reshape(-1, ndim) - density.mean
    z = np.sum(d * d, axis=1) / density.variance
    norm = (2.0 * math.pi * density.variance) ** (ndim / 2.0)
    return np.exp(-0.5 * z) / norm


@dataclass(frozen=True, eq=False)
class OracleTable:
    """Numerically integrated outcome density on a fixed outcome grid.

    Attributes:
        points: Outcome grid, real shape (m,) or complex shape (m,).
        density: Density values on the grid.
        error_estimate: Sup-norm change at the last quadrature refinement.
    """

    points: np.ndarray
    density: np.ndarray
    error_estimate: float


def gaussian_weight_nodes(
    var_component: float, n_nodes: int, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre nodes for a centered isotropic complex Gaussian.

    Returns complex nodes and weights such that sum(w_i f(z_i))
    approximates the integral of f against a Gaussian with the given
    variance per real component, truncated at the given radius.
    """
    if var_component <= 0:
        raise ValueError("variance per component must be positive")
    x, w = np.polynomial.legendre.leggauss(int(n_nodes))
    u = radius * x
    w1 = (
        radius
        * w
        * np.exp(-0.5 * u * u / var_component)
        / math.sqrt(2.0 * math.pi * var_component)
    )
    nodes = (u[:, None] + 1j * u[None, :]).ravel()
    weights = np.outer(w1, w1).ravel()
    return nodes, weights


def _mixture_density(
    points: np.ndarray,
    shifted_means: np.ndarray,
    weights: np.ndarray,
    kind: str,
    chunk: int = 8192,
) -> np.ndarray:
    out = np.zeros(points.shape[0])
    for start in range(0, shifted_means.size, chunk):
        mu = shifted_means[start : start + chunk]
        w = weights[start : start + chunk]
        if kind == HOMODYNE:
            d = np.asarray(points, dtype=float)[:, None] - mu.real[None, :]
            comp = math.sqrt(2.0 / math.pi) * np.exp(-2.0 * d * d)
        else:
            d = np.asarray(points, dtype=complex)[:, None] - mu[None, :]
            comp = np.exp(-(d.real**2 + d.imag**2)) / math.pi
        out += comp @ w
    return out


def mixture_quadrature_oracle(
    alpha: complex,
    spec: DetectorSpec,
    grid: np.ndarray,
    target_error: float = 1e-9,
    start_nodes: int = 48,
    max_nodes: int = 384,
) -> OracleTable:
    """Noisy-detector outcome density by direct 2-d quadrature.

    The detector's thermal noise is expanded as a Gaussian mixture of
    coherent states over the complex plane; the density on the outcome
    grid is the quadrature sum of the known coherent-state outcome
    densities.  Nothing here touches the Gaussian engine, so the
    result is an independent check of the closed-form densities.

    Node counts double from start_nodes until two consecutive tables
    differ by less than target_error in sup norm.

    Args:
        alpha: Coherent amplitude of the probe.
        spec: The noisy detector; needs nbar > 0 and eta_d < 1.
        grid: Outcome points, real for homodyne and complex for
            heterodyne.
        target_error: Sup-norm convergence target.
        start_nodes: Nodes per dimension at the first refinement level.
        max_nodes: Hard cap on nodes per dimension.

    Raises:
        RuntimeError: If the refinement cap is hit before convergence;
            the message carries the achieved error estimate.
    """
    if spec.nbar <= 0:
        raise ValueError("the oracle requires nbar > 0; the mixture is degenerate")
    if spec.eta_d >= 1.0:
        raise ValueError("the oracle requires eta_d < 1; the mixture is degenerate")
    grid = np.asarray(grid)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("outcome grid must be a nonempty 1-d array")
    alpha = complex(alpha)
    radius = 6.0 * math.sqrt(spec.nbar)
    carrier = math.sqrt(spec.eta_d) * alpha
    leak = math.sqrt(1.0 - spec.eta_d)
    previous = None
    estimate = math.inf
    n = int(start_nodes)
    while n <= max_nodes:
        betas, weights = gaussian_weight_nodes(spec.nbar / 2.0, n, radius)
        table = _mixture_density(grid, carrier + leak * betas, weights, spec.kind)
        if previous is not None:
            estimate = float(np.abs(table - previous).max())
            if estimate <= target_error:
                return OracleTable(points=grid, density=table, error_estimate=estimate)
        previous = table
        n *= 2
    raise RuntimeError(
        f"oracle quadrature did not converge to {target_error:g}; "
        f"achieved error estimate {estimate:g} at {max_nodes} nodes per dimension"
    )


def channel_moment_oracle(
    beta: complex, eta: float, xi0: float, n_nodes: int = 160
) -> dict[str, np.ndarray]:
    """Output moments of the noisy channel by 2-d quadrature.

    The channel output for a coherent input is a Gaussian-displaced
    mixture of coherent states; its quadrature means and variances are
    integrated numerically over the displacement, independently of the
    Gaussian engine.

    Args:
        beta: Coherent input amplitude.
        eta: Channel transmittance, 0 < eta <= 1.
        xi0: Input-referred excess noise; eta * xi0 must be positive.
        n_nodes: Quadrature nodes per dimension.

    Returns:
        {"mean": array (x, p), "variance": array (x, p)}.
    """
    if not 0.0 < float(eta) <= 1.0:
        raise ValueError("channel transmittance must satisfy 0 < eta <= 1")
    v = float(eta) * float(xi0)
    if v <= 0:
        raise ValueError("the oracle requires eta * xi0 > 0; the mixture is degenerate")
    gammas, weights = gaussian_weight_nodes(v / 4.0, n_nodes, radius=6.0 * math.sqrt(v))
    mu = math.sqrt(eta) * complex(beta) + gammas
    mean = np.array([np.sum(weights * mu.real), np.sum(weights * mu.imag)])
    second = np.array(
        [
            np.sum(weights * (mu.real**2 + 0.25)),
            np.sum(weights * (mu.imag**2 + 0.25)),
        ]
    )
    return {"mean": mean, "variance": second - mean * mean}


def beam_splitter_dilation_oracle(
    alpha: complex, eta: float, nbar: float
) -> dict[str, np.ndarray]:
    """Thermal-loss output moments by beam-splitter dilation.

    The coherent state alpha and a thermal state of mean photon number
    nbar enter the two ports of a beam splitter of transmittance eta; the
    4x4 symplectic matrix acts on the joint (x_1, p_1, x_2, p_2) moments
    and the environment port is discarded.  This is the physical picture
    behind the closed-form thermal_loss_channel, built without it.

    Returns:
        {"mean": array (x, p), "cov": 2 x 2 array} of the kept mode.
    """
    eta, nbar = float(eta), float(nbar)
    if not 0.0 < eta <= 1.0:
        raise ValueError("beam splitter transmittance must satisfy 0 < eta <= 1")
    if not math.isfinite(nbar) or nbar < 0:
        raise ValueError("nbar must be a finite non-negative number")
    c, s = math.sqrt(eta), math.sqrt(1.0 - eta)
    mix = np.array([[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]])
    alpha = complex(alpha)
    mean = mix @ np.array([alpha.real, alpha.imag, 0.0, 0.0])
    cov = mix @ np.diag([0.25, 0.25, (2 * nbar + 1) / 4, (2 * nbar + 1) / 4]) @ mix.T
    return {"mean": mean[:2], "cov": cov[:2, :2]}
