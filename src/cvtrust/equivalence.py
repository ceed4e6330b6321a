"""Verification lab for the noise-to-loss detector reduction.

Two routes check that a noisy detector and its rescaled lossy counterpart
are indistinguishable on coherent inputs:

* analytic sweeps compare the closed-form Gaussian outcome densities
  parameter by parameter, and by their exact total-variation distance,
  over a grid of amplitudes and detector specs;
* Monte Carlo sweeps draw outcomes from both models and apply two-sample
  Kolmogorov-Smirnov tests with a Holm correction across the grid.

Independent oracles are included.  Two integrate Gaussian mixtures of
coherent states by 2-d quadrature, sharing no covariance arithmetic with
the Gaussian engine, and validate the closed-form densities and channel
moments; a third dilates the thermal-loss channel into a two-mode beam
splitter.  Deliberate sabotage modes de-tune the rescale step so the
machinery's ability to catch a wrong reduction can be tested.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr
from scipy.stats import ks_2samp, kstwo, ncx2

from .detectors import (
    HETERODYNE,
    HOMODYNE,
    KINDS,
    DetectorSpec,
    OutcomeDensity,
    noisy_measurement_density,
    rescaled_lossy_density,
    sample_outcomes,
)
from .gaussian import coherent_state
from .rescaling import rescale_plan

SABOTAGE_MODES = ("none", "skip-rescale", "scale-r")

CSV_COLUMNS = (
    "alpha_re",
    "alpha_im",
    "kind",
    "eta_d",
    "nbar",
    "mean_gap",
    "var_gap",
    "ks_stat",
    "pass",
)


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """Grid and tolerances for an equivalence sweep.

    Attributes:
        alphas: Coherent amplitudes to probe.
        specs: Detector specs to probe; cells are the product of the two
            grids, spec-major.
        mc_samples: Draws per model per cell for Monte Carlo sweeps.
        seed: Base RNG seed; each cell uses its own substreams.
        param_tol: Analytic pass threshold on mean and variance gaps.
        tv_tol: Analytic pass threshold on the total-variation distance
            between the two outcome densities, computed in closed form.
        ks_alpha: Family-wise level of the Holm-corrected KS tests.
        sabotage: "none" for faithful comparison, "skip-rescale" to drop
            the outcome rescale, "scale-r" to inflate r by 1 percent.
    """

    alphas: tuple[complex, ...]
    specs: tuple[DetectorSpec, ...]
    mc_samples: int = 0
    seed: int = 0
    param_tol: float = 1e-12
    tv_tol: float = 1e-9
    ks_alpha: float = 0.01
    sabotage: str = "none"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(complex(a) for a in self.alphas))
        object.__setattr__(self, "specs", tuple(self.specs))
        if not self.alphas:
            raise ValueError("alpha grid must not be empty")
        if not self.specs:
            raise ValueError("spec grid must not be empty")
        if self.sabotage not in SABOTAGE_MODES:
            raise ValueError(f"sabotage must be one of {SABOTAGE_MODES}")
        if int(self.mc_samples) < 0:
            raise ValueError("mc_samples must be non-negative")
        object.__setattr__(self, "mc_samples", int(self.mc_samples))
        object.__setattr__(self, "seed", int(self.seed))
        for name in ("param_tol", "tv_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.ks_alpha < 1.0:
            raise ValueError("ks_alpha must lie strictly between 0 and 1")

    @property
    def n_cells(self) -> int:
        return len(self.alphas) * len(self.specs)

    def to_json_dict(self) -> dict:
        return {
            "schema": "cvtrust/verify-config/1",
            "alphas": [[a.real, a.imag] for a in self.alphas],
            "specs": [
                {"kind": s.kind, "eta_d": s.eta_d, "nbar": s.nbar} for s in self.specs
            ],
            "mc_samples": self.mc_samples,
            "seed": self.seed,
            "param_tol": self.param_tol,
            "tv_tol": self.tv_tol,
            "ks_alpha": self.ks_alpha,
            "sabotage": self.sabotage,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepConfig":
        data = dict(data)
        schema = data.pop("schema", "cvtrust/verify-config/1")
        if schema != "cvtrust/verify-config/1":
            raise ValueError(f"unsupported sweep config schema {schema!r}")
        try:
            alphas = tuple(complex(re, im) for re, im in data.pop("alphas"))
            specs = tuple(
                DetectorSpec(s["kind"], s["eta_d"], s["nbar"])
                for s in data.pop("specs")
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed sweep config: {exc}") from exc
        known = {"mc_samples", "seed", "param_tol", "tv_tol", "ks_alpha", "sabotage"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
        return cls(alphas=alphas, specs=specs, **data)


@dataclass(frozen=True)
class CellResult:
    """Comparison outcome for one (alpha, spec) grid cell."""

    alpha: complex
    spec: DetectorSpec
    mean_gap: float
    var_gap: float
    tv_estimate: float
    ks_statistic: float | None
    ks_pvalue: float | None
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "alpha_re": self.alpha.real,
            "alpha_im": self.alpha.imag,
            "kind": self.spec.kind,
            "eta_d": self.spec.eta_d,
            "nbar": self.spec.nbar,
            "mean_gap": self.mean_gap,
            "var_gap": self.var_gap,
            "tv_estimate": self.tv_estimate,
            "ks_stat": self.ks_statistic,
            "ks_pvalue": self.ks_pvalue,
            "pass": self.passed,
        }


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Result of one sweep over the full grid."""

    mode: str
    config: SweepConfig
    cells: tuple[CellResult, ...]
    passed: bool

    @property
    def worst_mean_gap(self) -> float:
        return max(c.mean_gap for c in self.cells)

    @property
    def worst_var_gap(self) -> float:
        return max(c.var_gap for c in self.cells)

    @property
    def worst_tv(self) -> float:
        return max(c.tv_estimate for c in self.cells)

    @property
    def n_rejections(self) -> int:
        return sum(not c.passed for c in self.cells)

    def to_json_dict(self) -> dict:
        stats = [c.ks_statistic for c in self.cells if c.ks_statistic is not None]
        pvals = [c.ks_pvalue for c in self.cells if c.ks_pvalue is not None]
        return {
            "schema": "cvtrust/verify-report/1",
            "mode": self.mode,
            "config": self.config.to_json_dict(),
            "summary": {
                "cells": len(self.cells),
                "passed": self.passed,
                "rejections": self.n_rejections,
                "worst_mean_gap": self.worst_mean_gap,
                "worst_var_gap": self.worst_var_gap,
                "worst_tv": self.worst_tv,
                "max_ks_stat": max(stats) if stats else None,
                "min_ks_pvalue": min(pvals) if pvals else None,
            },
            "cells": [c.to_json_dict() for c in self.cells],
        }

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for c in self.cells:
            writer.writerow(
                [
                    repr(c.alpha.real),
                    repr(c.alpha.imag),
                    c.spec.kind,
                    repr(c.spec.eta_d),
                    repr(c.spec.nbar),
                    repr(c.mean_gap),
                    repr(c.var_gap),
                    "" if c.ks_statistic is None else repr(c.ks_statistic),
                    str(c.passed).lower(),
                ]
            )
        return buf.getvalue()


def default_alpha_grid(
    amplitudes: tuple[float, ...] = (0.0, 1.0, 3.0, 5.0), n_phases: int = 8
) -> tuple[complex, ...]:
    """Amplitude-by-phase grid of coherent amplitudes."""
    phases = [2.0 * math.pi * k / n_phases for k in range(n_phases)]
    return tuple(
        amp * complex(math.cos(ph), math.sin(ph)) for amp in amplitudes for ph in phases
    )


def default_spec_grid(
    eta_ds: tuple[float, ...] = (0.5, 0.7, 0.9, 1.0 - 1e-6),
    nus: tuple[float, ...] = (0.0, 1e-4, 1e-3, 1e-2),
    kinds: tuple[str, ...] = KINDS,
) -> tuple[DetectorSpec, ...]:
    """Detector grid parameterized by efficiency and noise product."""
    return tuple(
        DetectorSpec.from_noise_product(kind, eta_d, nu=nu)
        for kind in kinds
        for eta_d in eta_ds
        for nu in nus
    )


def default_sweep_config(**overrides) -> SweepConfig:
    """The full analytic verification grid (32 amplitudes x 32 specs)."""
    base = SweepConfig(alphas=default_alpha_grid(), specs=default_spec_grid())
    return replace(base, **overrides) if overrides else base


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


def _iter_cells(config: SweepConfig):
    index = 0
    for spec in config.specs:
        for alpha in config.alphas:
            yield index, alpha, spec
            index += 1


def _sabotaged_r(r: float, sabotage: str) -> float:
    if sabotage == "skip-rescale":
        return 1.0
    if sabotage == "scale-r":
        return r * 1.01
    return r


def _relative_gap(a: np.ndarray, b: np.ndarray, floor: float) -> float:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    gaps = [
        0.0 if x == y else float(abs(x - y)) / max(floor, abs(x), abs(y))
        for x, y in zip(a, b)
    ]
    return float(max(gaps))


_HERMITE_NODES, _HERMITE_WEIGHTS = np.polynomial.hermite_e.hermegauss(64)
_HERMITE_WEIGHTS = _HERMITE_WEIGHTS / math.sqrt(2.0 * math.pi)
# A disk whose radius exceeds this many node spans of the wider density
# takes the chord route in _tv_distance.
_WIDE_DISK = 1.5


def _normal_mass(lo, hi):
    """Standard normal probability of (lo, hi), taken in the thinner tail."""
    return np.where(lo > 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))


def _tv_distance(d1: OutcomeDensity, d2: OutcomeDensity) -> float:
    """Exact total variation between two 1-d or isotropic 2-d Gaussians.

    These are the only outcome densities coherent inputs produce.  In
    units of the narrower density's standard deviation the pair is
    N(0, 1) against N(delta, s^2) with s^2 = 1 + a >= 1, and the total
    variation is the mass the narrower density gains on the region where
    it dominates:

    * equal variances: erf(|delta| / (2 sqrt 2));
    * 1-d: the interval between the two crossing points, as normal-CDF
      differences;
    * isotropic 2-d: a disk, as differences of noncentral chi-square
      CDFs with two degrees of freedom.  When a << |delta| the disk is
      so wide that those CDFs cancel to their rounding error (or return
      NaN); its exact chord masses, which then vary smoothly, are
      integrated across the perpendicular coordinate by 64-node
      Gauss-Hermite quadrature.

    Identical parameters give exactly 0.0.  Pairs whose Bhattacharyya
    coefficient, an upper bound on 1 - TV, lies below exp(-40) give 1.0,
    the correctly rounded value; this also keeps far-apart means from
    overflowing.

    Raises:
        ValueError: For a 2-d density whose covariance is not a multiple
            of the identity.
    """
    if np.array_equal(d1.mean, d2.mean) and np.array_equal(d1.cov, d2.cov):
        return 0.0
    for d in (d1, d2):
        if d.ndim == 2 and not (d.cov[0, 1] == 0.0 and d.cov[0, 0] == d.cov[1, 1]):
            raise ValueError("closed-form total variation needs isotropic 2-d densities")
    if d1.cov[0, 0] > d2.cov[0, 0]:
        d1, d2 = d2, d1
    v1 = d1.cov[0, 0]
    a = (d2.cov[0, 0] - v1) / v1
    s = math.sqrt(1.0 + a)
    delta = math.dist(d2.mean, d1.mean) / math.sqrt(v1)
    if delta * delta / (4.0 * (2.0 + a)) > 40.0:
        return 1.0
    if a == 0.0:
        return math.erf(delta / (2.0 * math.sqrt(2.0)))
    log_s2 = math.log1p(a)
    if d1.ndim == 1:
        delta = float(d2.mean[0] - d1.mean[0]) / math.sqrt(v1)
        # Crossing points: roots of a z^2 + 2 delta z - delta^2 - s^2 log s^2,
        # in the cancellation-free form.
        root = s * math.sqrt(delta * delta + a * log_s2)
        q = -(delta + math.copysign(root, delta))
        lo, hi = sorted((q / a, -(delta * delta + s * s * log_s2) / q))
        tv = _normal_mass(lo, hi) - _normal_mass((lo - delta) / s, (hi - delta) / s)
    else:
        # The narrower density dominates inside the disk centred at
        # -delta / a of squared radius s^2 (delta^2 + 2 a log s^2) / a^2.
        nc = (delta / a) ** 2
        radius2 = s * s * (nc + 2.0 * log_s2 / a)
        if radius2 <= (_WIDE_DISK * s * _HERMITE_NODES[-1]) ** 2:
            tv = ncx2.cdf(radius2, 2, nc) - ncx2.cdf(radius2 / (s * s), 2, nc * s * s)
        else:
            # A wide disk: the noncentral CDFs cancel to their rounding
            # error, so integrate the exact chord masses along delta over
            # the perpendicular coordinate y instead.
            def chord_mass(y, shift, scale):
                half = np.sqrt(s * s * (delta * delta + 2.0 * a * log_s2) - (a * y) ** 2)
                hi = (delta * delta + 2.0 * s * s * log_s2 - a * y * y) / (half + delta)
                lo = -(half + delta) / a
                return _normal_mass((lo - shift) / scale, (hi - shift) / scale)

            u = _HERMITE_NODES
            gained = chord_mass(u, 0.0, 1.0) - chord_mass(s * u, delta, s)
            tv = _HERMITE_WEIGHTS @ gained
    return min(1.0, max(0.0, float(tv)))


# scipy's ks_2samp computes exact p-values up to this many draws per sample.
_KS_EXACT_MAX_N = 10_000


def _ks_two_sample(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Two-sided two-sample KS statistic and p-value, equal to ks_2samp's.

    Up to 10^4 draws per sample scipy's exact p-value is used as is.
    Above that, the statistic is read off the merge ranks of the two
    sorted samples, with each empirical CDF counted to the end of every
    group of equal values, and the p-value is scipy's asymptotic one,
    kstwo.sf(d, round(n1 n2 / (n1 + n2))).
    """
    n1, n2 = len(xs), len(ys)
    if max(n1, n2) <= _KS_EXACT_MAX_N:
        result = ks_2samp(xs, ys)
        return float(result.statistic), float(result.pvalue)
    merged = np.concatenate([np.sort(xs), np.sort(ys)])
    order = np.argsort(merged, kind="stable")
    values = merged[order]
    ends = np.append(np.flatnonzero(values[1:] != values[:-1]), values.size - 1)
    below_x = np.cumsum(order < n1)[ends]
    diffs = below_x / n1 - (ends + 1 - below_x) / n2
    d = max(float(diffs.max()), float(-diffs.min()))
    m, n = sorted((float(n1), float(n2)), reverse=True)
    pvalue = float(np.clip(kstwo.sf(d, np.round(m * n / (m + n))), 0.0, 1.0))
    return d, pvalue


def holm_rejections(pvalues: list[float], alpha: float) -> set[int]:
    """Indices rejected by the Holm step-down procedure at level alpha."""
    m = len(pvalues)
    order = np.argsort(pvalues, kind="stable")
    rejected: set[int] = set()
    for rank, idx in enumerate(order):
        if pvalues[idx] <= alpha / (m - rank):
            rejected.add(int(idx))
        else:
            break
    return rejected


def analytic_sweep(config: SweepConfig) -> EquivalenceReport:
    """Compare closed-form densities of both detector models over the grid.

    Each cell passes when the relative mean gap, the relative variance
    gap and the total-variation distance between the noisy-detector
    density and the (possibly sabotaged) rescaled lossy density fall
    within the configured tolerances.  The distance is exact; its
    report field keeps the name tv_estimate.
    """
    cells = []
    for _, alpha, spec in _iter_cells(config):
        plan = rescale_plan(spec)
        state = coherent_state(alpha)
        noisy = noisy_measurement_density(state, spec)
        r_used = _sabotaged_r(plan.r, config.sabotage)
        equivalent = rescaled_lossy_density(state, spec.kind, plan.eta_e, r_used)
        mean_gap = _relative_gap(noisy.mean, equivalent.mean, floor=1.0)
        var_gap = _relative_gap(noisy.cov, equivalent.cov, floor=0.0)
        tv = _tv_distance(noisy, equivalent)
        passed = bool(
            mean_gap <= config.param_tol
            and var_gap <= config.param_tol
            and tv <= config.tv_tol
        )
        cells.append(
            CellResult(
                alpha=alpha,
                spec=spec,
                mean_gap=mean_gap,
                var_gap=var_gap,
                tv_estimate=tv,
                ks_statistic=None,
                ks_pvalue=None,
                passed=passed,
            )
        )
    return EquivalenceReport(
        mode="analytic",
        config=config,
        cells=tuple(cells),
        passed=all(c.passed for c in cells),
    )


def monte_carlo_sweep(config: SweepConfig) -> EquivalenceReport:
    """Compare sampled outcomes of both detector models over the grid.

    Per cell, mc_samples outcomes are drawn from the noisy detector and
    divided by r (the division is dropped or de-tuned under sabotage),
    another mc_samples are drawn from the lossy ideal detector, and the
    two samples are KS-tested per outcome component.  Cell p-values are
    Bonferroni-combined across components and a Holm correction at level
    ks_alpha decides rejections across the grid.
    """
    if config.mc_samples < 10**4:
        raise ValueError("Monte Carlo sweeps require mc_samples >= 10^4")
    raw: list[tuple] = []
    pvalues: list[float] = []
    for index, alpha, spec in _iter_cells(config):
        plan = rescale_plan(spec)
        state = coherent_state(alpha)
        noisy = noisy_measurement_density(state, spec)
        lossy_ideal = rescaled_lossy_density(state, spec.kind, plan.eta_e, 1.0)
        factor = 1.0 / _sabotaged_r(plan.r, config.sabotage)
        a = factor * sample_outcomes(noisy, config.mc_samples, config.seed, 2 * index)
        b = sample_outcomes(lossy_ideal, config.mc_samples, config.seed, 2 * index + 1)
        if np.iscomplexobj(a):
            pairs = [(a.real, b.real), (a.imag, b.imag)]
        else:
            pairs = [(a, b)]
        stats, pvals = [], []
        for xs, ys in pairs:
            stat, pval = _ks_two_sample(xs, ys)
            stats.append(stat)
            pvals.append(pval)
        pvalue = min(1.0, len(pairs) * min(pvals))
        mean_gap = _relative_gap(
            [float(np.mean(xs)) for xs, _ in pairs],
            [float(np.mean(ys)) for _, ys in pairs],
            floor=1.0,
        )
        var_gap = _relative_gap(
            [float(np.var(xs, ddof=1)) for xs, _ in pairs],
            [float(np.var(ys, ddof=1)) for _, ys in pairs],
            floor=0.0,
        )
        raw.append((alpha, spec, mean_gap, var_gap, max(stats), pvalue))
        pvalues.append(pvalue)
    rejected = holm_rejections(pvalues, config.ks_alpha)
    cells = tuple(
        CellResult(
            alpha=alpha,
            spec=spec,
            mean_gap=mean_gap,
            var_gap=var_gap,
            tv_estimate=0.0,
            ks_statistic=stat,
            ks_pvalue=pvalue,
            passed=index not in rejected,
        )
        for index, (alpha, spec, mean_gap, var_gap, stat, pvalue) in enumerate(raw)
    )
    return EquivalenceReport(
        mode="mc",
        config=config,
        cells=cells,
        passed=not rejected,
    )


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
    densities.  Nothing here touches the covariance engine, so the
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
    covariance engine.

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
