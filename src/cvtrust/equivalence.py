"""Verification lab for the noise-to-loss detector reduction.

Two routes check that a noisy detector and its rescaled lossy counterpart
are indistinguishable on coherent inputs:

* analytic sweeps compare the closed-form Gaussian outcome densities
  parameter by parameter, and by their exact total-variation distance,
  over a grid of amplitudes and detector specs;
* Monte Carlo sweeps draw outcomes from both models and apply two-sample
  Kolmogorov-Smirnov tests with a Holm correction across the grid.

scipy is imported inside the functions that call it, so the rest of the
package (and the scan, rescale and calibrate commands) loads without it;
an analytic sweep needs only scipy.special.

Independent oracles are included.  Two integrate Gaussian mixtures of
coherent states by 2-d quadrature, sharing no moment arithmetic with
the Gaussian engine, and validate the closed-form densities and channel
moments; a third dilates the thermal-loss channel into a two-mode beam
splitter.  Deliberate sabotage modes de-tune the rescale step so the
machinery's ability to catch a wrong reduction can be tested.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import os
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from .detectors import (
    HOMODYNE,
    KINDS,
    DetectorSpec,
    OutcomeDensity,
    noisy_measurement_density,
    rescaled_lossy_density,
    sample_outcomes,
)
from .gaussian import coherent_state
from .jsontext import json_list, json_object, real_number
from .rescaling import rescale_plan

SABOTAGE_MODES = ("none", "skip-rescale", "scale-r")

# Largest mc_samples a sweep accepts.  A heterodyne Monte Carlo cell peaks at
# about 162 bytes per draw (ru_maxrss from 10^6 to 2x10^6 draws: the samples,
# the KS step's sorted, merged and ranked arrays; 160 with glibc's mmap
# threshold fixed), 1.6 GB at the cap.  A sweep has one cell in flight per
# worker process, so on two CPUs a sweep at the cap peaks at about 3.2 GB.
MAX_MC_SAMPLES = 10**7

# Largest |Re alpha| or |Im alpha| a sweep accepts.  The two models round
# their outcome means differently; from about 5e6 on that gap fails faithful
# analytic cells, and by 1e200 it overflows the Monte Carlo moments to NaN.
MAX_AMPLITUDE = 1e6

# Smallest param_tol a sweep accepts: 64 eps; faithful gaps stay within 2 eps.
MIN_PARAM_TOL = 2.0**-46

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
        param_tol: Analytic pass threshold on mean and variance gaps, >= 64 eps.
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
        if not all(abs(c) <= MAX_AMPLITUDE for a in self.alphas for c in (a.real, a.imag)):
            raise ValueError(f"alphas must have finite parts of magnitude at most {MAX_AMPLITUDE:g}")
        if not 0 <= float(self.mc_samples) <= MAX_MC_SAMPLES:
            raise ValueError(f"mc_samples must lie between 0 and {MAX_MC_SAMPLES}")
        for name in ("mc_samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("param_tol", "tv_tol"):
            value = real_number(name, getattr(self, name))
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be a positive finite number")
        if self.param_tol < MIN_PARAM_TOL:
            raise ValueError(f"param_tol must be at least {MIN_PARAM_TOL!r} (64 eps)")
        if not 0.0 < real_number("ks_alpha", self.ks_alpha) < 1.0:
            raise ValueError("ks_alpha must lie strictly between 0 and 1")

    @property
    def n_cells(self) -> int:
        return len(self.alphas) * len(self.specs)

    def to_json_dict(self) -> dict:
        return {
            "schema": "cvtrust/verify-config/1",
            **asdict(self),
            "alphas": [[a.real, a.imag] for a in self.alphas],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepConfig":
        data = dict(data)
        schema = data.pop("schema", "cvtrust/verify-config/1")
        if schema != "cvtrust/verify-config/1":
            raise ValueError(f"unsupported sweep config schema {schema!r}")
        try:
            alphas = []
            for i, pair in enumerate(json_list("alphas", data["alphas"])):
                if len(json_list(f"alphas[{i}]", pair)) != 2:
                    raise ValueError(f"alphas[{i}] must be a [re, im] pair, got {pair!r}")
                alphas.append(complex(*(real_number("alphas", v) for v in pair)))
            data["alphas"] = tuple(alphas)
            data["specs"] = tuple(
                DetectorSpec(**json_object(f"specs[{i}]", s))
                for i, s in enumerate(json_list("specs", data["specs"]))
            )
            unknown = set(data) - {f.name for f in fields(cls)}
            if unknown:
                raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
            return cls(**data)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed sweep config: {exc}") from exc


@dataclass(frozen=True)
class CellResult:
    """Comparison outcome for one (alpha, spec) grid cell.

    Analytic cells fill in tv_estimate, Monte Carlo cells the KS fields.
    """

    alpha: complex
    spec: DetectorSpec
    mean_gap: float
    var_gap: float
    tv_estimate: float = 0.0
    ks_statistic: float | None = None
    ks_pvalue: float | None = None
    passed: bool = True

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


def _specs(config: SweepConfig):
    """Each spec's model (spec, noisy, lossy, r_used), the densities at unit amplitude.

    lossy is taken before the rescale by r_used, the plan's r, dropped or inflated
    by 1 percent under sabotage.  A cell's means are these times (Re, Im)(alpha)[:ndim].
    """
    unit = coherent_state(1.0)
    for spec in config.specs:
        plan = rescale_plan(spec)
        sabotaged = {"none": plan.r, "skip-rescale": 1.0, "scale-r": plan.r * 1.01}
        noisy = noisy_measurement_density(unit, spec)
        lossy = rescaled_lossy_density(unit, spec.kind, plan.eta_e, 1.0)
        yield spec, noisy, lossy, sabotaged[config.sabotage]


def _relative_gap(a, b, floor: float) -> np.ndarray | np.floating:
    """Largest relative gap between paired components along the last axis; equal ones give 0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return np.where(a == b, 0.0, np.abs(a - b) / scale).max(axis=-1)


_HERMITE_NODES, _HERMITE_WEIGHTS = np.polynomial.hermite_e.hermegauss(64)
_HERMITE_WEIGHTS = _HERMITE_WEIGHTS / math.sqrt(2.0 * math.pi)
# A disk whose radius exceeds this many node spans of the wider density
# takes the chord route in _tv_rows.
_WIDE_DISK = 1.5


def _normal_mass(lo, hi):
    """Standard normal probability of (lo, hi), taken in the thinner tail."""
    from scipy.special import ndtr

    return np.where(lo > 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))


def _disk_mass(x, nc):
    """P(chi'^2_2(nc) <= x), as scipy.stats computes it: chdtr at nc = 0, else chndtr."""
    from scipy.special import chdtr, chndtr

    return np.where(nc == 0.0, chdtr(2.0, x), chndtr(x, 2.0, nc))


def _tv_rows(m1: np.ndarray, v1: float, m2: np.ndarray, v2: float) -> np.ndarray:
    """Exact total variation between N(m1[i], v1) and N(m2[i], v2), row by row.

    Means have shape (n, 1) or (n, 2): 1-d or isotropic 2-d Gaussians, the
    only outcome densities coherent inputs produce.  In units of the
    narrower density's standard deviation a row is N(0, 1) against
    N(delta, s^2) with s^2 = 1 + a >= 1, and the total variation is the
    mass the narrower density gains where it dominates:

    * equal variances: erf(|delta| / (2 sqrt 2));
    * 1-d: the interval between the two crossing points, as normal-CDF
      differences;
    * isotropic 2-d: a disk, as differences of noncentral chi-square
      CDFs with two degrees of freedom.  When a << |delta| the disk is
      so wide that those CDFs cancel to their rounding error (or return
      NaN); its exact chord masses, which then vary smoothly, are
      integrated across the perpendicular coordinate by 64-node
      Gauss-Hermite quadrature.

    Identical parameters give exactly 0.0.  Rows whose Bhattacharyya
    coefficient, an upper bound on 1 - TV, lies below exp(-40) give 1.0,
    the correctly rounded value; this also keeps far-apart means from
    overflowing.
    """
    if v1 > v2:
        m1, v1, m2, v2 = m2, v2, m1, v1
    a = (v2 - v1) / v1
    s = math.sqrt(1.0 + a)
    sd = math.sqrt(v1)
    if m1.shape[1] == 1:
        delta = (m2 - m1)[:, 0] / sd
    else:
        # math.dist per row: its rounding differs from np.hypot's.
        delta = np.array([math.dist(p, q) for p, q in zip(m2.tolist(), m1.tolist())]) / sd
    dist = np.abs(delta)
    with np.errstate(over="ignore"):
        far = dist * dist / (4.0 * (2.0 + a)) > 40.0
    tv = np.where(far, 1.0, 0.0)
    rows = ~far & ((m1 != m2).any(axis=1) | (v1 != v2))
    if a == 0.0:
        tv[rows] = [math.erf(d / (2.0 * math.sqrt(2.0))) for d in dist[rows].tolist()]
        return tv
    log_s2 = math.log1p(a)
    d = delta[rows]
    if m1.shape[1] == 1:
        # Crossing points: roots of a z^2 + 2 delta z - delta^2 - s^2 log s^2,
        # in the cancellation-free form.
        q = -(d + np.copysign(s * np.sqrt(d * d + a * log_s2), d))
        lo, hi = np.sort([q / a, -(d * d + s * s * log_s2) / q], axis=0)
        gained = _normal_mass(lo, hi) - _normal_mass((lo - d) / s, (hi - d) / s)
    else:
        # The narrower density dominates inside the disk centred at
        # -delta / a of squared radius s^2 (delta^2 + 2 a log s^2) / a^2.
        nc = np.array([(x / a) ** 2 for x in d.tolist()])
        radius2 = s * s * (nc + 2.0 * log_s2 / a)
        small = radius2 <= (_WIDE_DISK * s * _HERMITE_NODES[-1]) ** 2
        gained = np.empty(d.size)
        r2, c = radius2[small], nc[small]
        gained[small] = _disk_mass(r2, c) - _disk_mass(r2 / (s * s), c * s * s)

        # Wide disks, one row at a time: chord masses along delta at offset y.
        def chord_mass(y, shift, scale, delta):
            half = np.sqrt(s * s * (delta * delta + 2.0 * a * log_s2) - (a * y) ** 2)
            hi = (delta * delta + 2.0 * s * s * log_s2 - a * y * y) / (half + delta)
            lo = -(half + delta) / a
            return _normal_mass((lo - shift) / scale, (hi - shift) / scale)
        u = _HERMITE_NODES
        gained[~small] = [
            _HERMITE_WEIGHTS @ (chord_mass(u, 0.0, 1.0, x) - chord_mass(s * u, x, s, x))
            for x in d[~small].tolist()
        ]
    tv[rows] = np.where(gained > 0.0, np.minimum(gained, 1.0), 0.0)
    return tv


def _tv_distance(d1: OutcomeDensity, d2: OutcomeDensity) -> float:
    """Exact total variation between two outcome densities: one row of _tv_rows."""
    return float(_tv_rows(d1.mean[None], d1.variance, d2.mean[None], d2.variance)[0])


# scipy's ks_2samp computes exact p-values up to this many draws per sample.
_KS_EXACT_MAX_N = 10_000


def _merge_rank_statistic(xs: np.ndarray, ys: np.ndarray) -> float:
    """Two-sided two-sample KS statistic, read off the merge ranks.

    Each empirical CDF is counted to the end of every group of equal
    values, which gives ks_2samp's statistic bit for bit.
    """
    n1, n2 = len(xs), len(ys)
    merged = np.concatenate([np.sort(xs), np.sort(ys)])
    order = np.argsort(merged, kind="stable")
    values = merged[order]
    ends = np.append(np.flatnonzero(values[1:] != values[:-1]), values.size - 1)
    below_x = np.cumsum(order < n1)[ends]
    diffs = below_x / n1 - (ends + 1 - below_x) / n2
    return max(float(diffs.max()), float(-diffs.min()))


def _asymptotic_pvalue(d: float, n1: int, n2: int) -> float:
    """scipy's asymptotic KS p-value, kstwo.sf(d, round(n1 n2 / (n1 + n2)))."""
    from scipy.stats import kstwo

    m, n = sorted((float(n1), float(n2)), reverse=True)
    return float(np.clip(kstwo.sf(d, np.round(m * n / (m + n))), 0.0, 1.0))


def _ks_cell(pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[float, float]:
    """Largest KS statistic over a cell's components and its cell p-value.

    The cell p-value is the Bonferroni combination min(1, k min_j p_j)
    over the k components, each p_j equal to ks_2samp's.  Every component
    has the same sample sizes, and at fixed sizes the p-value falls as the
    statistic grows, so only the component with the largest merge-rank
    statistic is tested.  Up to 10^4 draws per sample one ks_2samp call
    gives its statistic and exact p-value (its exact route rounds the
    statistic, so the merge-rank value would differ in the last bits);
    above that the asymptotic tail probability is evaluated once.
    """
    n1, n2 = len(pairs[0][0]), len(pairs[0][1])
    stats = [_merge_rank_statistic(xs, ys) for xs, ys in pairs]
    k = int(np.argmax(stats))
    if max(n1, n2) <= _KS_EXACT_MAX_N:
        from scipy.stats import ks_2samp

        result = ks_2samp(*pairs[k])
        stat, pmin = float(result.statistic), float(result.pvalue)
    else:
        stat = stats[k]
        pmin = _asymptotic_pvalue(stat, n1, n2)
    return stat, min(1.0, len(pairs) * pmin)


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
    report field keeps the name tv_estimate.  Specs run one at a time,
    over all amplitudes as arrays.
    """
    xy = np.array([(a.real, a.imag) for a in config.alphas])
    cells = []
    for spec, noisy, lossy, r_used in _specs(config):
        equivalent = lossy.scaled(r_used)
        noisy_means = noisy.mean[0] * xy[:, : noisy.ndim]
        lossy_means = r_used * (lossy.mean[0] * xy[:, : noisy.ndim])
        mean_gaps = _relative_gap(noisy_means, lossy_means, floor=1.0)
        var_gap = float(_relative_gap([noisy.variance], [equivalent.variance], floor=0.0))
        tvs = _tv_rows(noisy_means, noisy.variance, lossy_means, equivalent.variance)
        passed = (np.maximum(mean_gaps, var_gap) <= config.param_tol) & (tvs <= config.tv_tol)
        rows = zip(config.alphas, mean_gaps.tolist(), tvs.tolist(), passed.tolist())
        cells += [CellResult(a, spec, g, var_gap, tv_estimate=t, passed=p) for a, g, t, p in rows]
    return EquivalenceReport("analytic", config, tuple(cells), all(c.passed for c in cells))


def _mc_workers(n_cells: int) -> int:
    """Processes that run a sweep of n_cells cells: one per usable CPU, at most one per cell."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(n_cells, cpus)


def _mc_cell(config: SweepConfig, indexed_cell: tuple) -> CellResult:
    """Sample and KS-test one Monte Carlo cell.

    indexed_cell is (index, (alpha, *model)) with the spec's model as _specs
    yields it; the index picks the cell's two RNG substreams, so the result
    does not depend on which process runs the cell or in what order.
    """
    index, (alpha, spec, noisy, lossy, r_used) = indexed_cell
    xy = np.array([alpha.real, alpha.imag])[: noisy.ndim]
    noisy = OutcomeDensity(noisy.mean[0] * xy, noisy.variance)
    lossy = OutcomeDensity(lossy.mean[0] * xy, lossy.variance)
    a = (1.0 / r_used) * sample_outcomes(noisy, config.mc_samples, config.seed, 2 * index)
    b = sample_outcomes(lossy, config.mc_samples, config.seed, 2 * index + 1)
    # One column view per component: a.mean(axis=0) would sum in another
    # order and move the last bits of the gaps.
    xs, ys = list(a.T), list(b.T)
    stat, pvalue = _ks_cell(list(zip(xs, ys)))
    mean_gap = float(_relative_gap([np.mean(x) for x in xs], [np.mean(y) for y in ys], floor=1.0))
    var_gap = float(
        _relative_gap([np.var(x, ddof=1) for x in xs], [np.var(y, ddof=1) for y in ys], floor=0.0)
    )
    return CellResult(alpha, spec, mean_gap, var_gap, ks_statistic=stat, ks_pvalue=pvalue)


def monte_carlo_sweep(config: SweepConfig) -> EquivalenceReport:
    """Compare sampled outcomes of both detector models over the grid.

    Per cell, mc_samples outcomes are drawn from the noisy detector and
    divided by r (the division is dropped or de-tuned under sabotage),
    another mc_samples are drawn from the lossy ideal detector, and the
    two samples are KS-tested per outcome component.  Cell p-values are
    Bonferroni-combined across components and a Holm correction at level
    ks_alpha decides rejections across the grid.

    Cells run in a pool of forked processes, one per usable CPU, and
    come back in grid order; each cell draws from its own substreams, so
    the report is the same as a run in one process.
    """
    if config.mc_samples < 10**4:
        raise ValueError("Monte Carlo sweeps require mc_samples >= 10^4")
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Load scipy.stats before the first cell's samples exist (imported
    # between allocations of that size it raised the peak RSS by 4-7 MiB at
    # 5x10^5 draws), and before the pool forks, so every worker has it.
    import scipy.stats  # noqa: F401

    run_cell = partial(_mc_cell, config)
    todo = list(enumerate((a, *model) for model in _specs(config) for a in config.alphas))
    workers = _mc_workers(len(todo))
    if workers == 1:
        cells = [run_cell(c) for c in todo]
    else:
        # Fork, not the platform default: a spawned or forkserver worker
        # would import scipy again, at about 1 s each.
        context = multiprocessing.get_context("fork")
        # About eight chunks per worker: few round trips for 10^4-draw
        # cells, and a balanced load when cells take seconds.
        chunk = max(1, len(todo) // (8 * workers))
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            cells = list(pool.map(run_cell, todo, chunksize=chunk))
    rejected = holm_rejections([c.ks_pvalue for c in cells], config.ks_alpha)
    cells = [replace(c, passed=False) if i in rejected else c for i, c in enumerate(cells)]
    return EquivalenceReport("mc", config, tuple(cells), passed=not rejected)


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
