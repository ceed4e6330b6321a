"""Verification lab for the noise-to-loss detector reduction.

Each detector spec gives one ModelPair: the noisy detector's outcome
density (left) against the lossy ideal detector's (right), whose outcomes
are scaled by the plan's r.  Two routes check that the two sides are
indistinguishable on coherent inputs:

* analytic sweeps compare the closed-form Gaussian densities parameter
  by parameter, and by their exact total-variation distance, over a grid
  of amplitudes and detector specs;
* Monte Carlo sweeps draw outcomes from both sides and apply two-sample
  Kolmogorov-Smirnov tests with a Holm correction across the grid.

Sabotage modes are transforms of a pair that de-tune its scale, so the
machinery's ability to catch a wrong reduction can be tested.

A SweepConfig names the SWEEPS entry the CLI runs in its mode field, read
like every other key.  numpy and scipy are imported inside the functions
that call them, so the CLI reads and checks a sweep's config without
either, and the rest of the package (and the scan, rescale and calibrate
commands) loads without the lab; of scipy, both sweeps need only
scipy.special.  skip_rescale_draws tells, before any draw, how many draws
a Monte Carlo sweep needs to see a skipped rescale.  The 32-cell Monte
Carlo grid that the acceptance suite sweeps, and the TV of a single pair
of densities, are test helpers in tests/helpers.py.
"""

from __future__ import annotations

import io
import math
import numbers
import os
from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from itertools import product, repeat
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple

from .detectors import (
    KINDS,
    DetectorSpec,
    OutcomeDensity,
    noisy_measurement_density,
    rescaled_lossy_density,
    sample_outcomes,
)
from .gaussian import coherent_state
from .jsontext import (
    finite_reprs, json_config, json_dataclasses, json_list, json_object_template, real_number,
    write_json_report,
)
from .rescaling import rescale_plan

if TYPE_CHECKING:
    import numpy as np


class ModelPair(NamedTuple):
    """A spec's densities at unit amplitude: left, and right with outcomes scaled by scale."""

    spec: DetectorSpec
    left: OutcomeDensity
    right: OutcomeDensity
    scale: float


SABOTAGE = {
    "none": lambda pair: pair,
    "skip-rescale": lambda pair: pair._replace(scale=1.0),
    "scale-r": lambda pair: pair._replace(scale=pair.scale * 1.01),
}
SABOTAGE_MODES = tuple(SABOTAGE)

# Largest mc_samples a sweep accepts.  A heterodyne Monte Carlo cell peaks at
# about 43 bytes per draw (ru_maxrss growth of a forked child running one cell
# at 10^6 and 2x10^6 draws, 45 and 42; 40 at the cap; 40 live: the samples as
# rows plus np.var's temporary of one row), 0.4 GB at the cap.  A sweep has
# one cell in flight per worker process, so on two CPUs a sweep at the cap
# peaks at about 0.8 GB.
MAX_MC_SAMPLES = 10**7

# Largest |Re alpha| or |Im alpha| a sweep accepts.  The two models round
# their outcome means differently; from about 5e6 on that gap fails faithful
# analytic cells, and by 1e200 it overflows the Monte Carlo moments to NaN.
MAX_AMPLITUDE = 1e6

# Smallest param_tol a sweep accepts: 64 eps; faithful gaps stay within 2 eps.
MIN_PARAM_TOL = 2.0**-46

CSV_COLUMNS = (
    "alpha_re", "alpha_im", "kind", "eta_d", "nbar", "mean_gap", "var_gap", "ks_stat", "pass",
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
            between the two outcome densities, computed in closed form;
            analytic_sweep refuses one below the grid's TV floor.
        ks_alpha: Family-wise level of the Holm-corrected KS tests.
        sabotage: The SABOTAGE mode that transforms each spec's pair.
        mode: The SWEEPS entry that the CLI runs on this config.
    """

    alphas: tuple[complex, ...]
    specs: tuple[DetectorSpec, ...]
    mc_samples: int = 0
    seed: int = 0
    param_tol: float = 1e-12
    tv_tol: float = 1e-9
    ks_alpha: float = 0.01
    sabotage: str = "none"
    mode: str = "analytic"

    def __post_init__(self) -> None:
        if not isinstance(self.mode, str) or self.mode not in SWEEPS:
            raise ValueError(f"mode must be {' or '.join(map(repr, SWEEPS))}, got {self.mode!r}")
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
        # Compared as given: an int too large for a float stays an int.
        mc_samples = self.mc_samples
        if isinstance(mc_samples, numbers.Real) and not 0 <= mc_samples <= MAX_MC_SAMPLES:
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
        return json_config(
            cls, "cvtrust/verify-config/1", "sweep", data,
            alphas=_json_alphas, specs=partial(json_dataclasses, DetectorSpec),
        )


def _json_alphas(name: str, value) -> tuple[complex, ...]:
    """A JSON array of [re, im] pairs as complex amplitudes; a fault names the pair, name[i]."""
    alphas = []
    for i, pair in enumerate(json_list(name, value)):
        if len(json_list(f"{name}[{i}]", pair)) != 2:
            raise ValueError(f"{name}[{i}] must be a [re, im] pair, got {pair!r}")
        alphas.append(complex(*(real_number(f"{name}[{i}]", v) for v in pair)))
    return tuple(alphas)


class CellResult(NamedTuple):
    """Comparison outcome for one (alpha, spec) grid cell, a row of a sweep.

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


# One cell of EquivalenceReport.to_json_dict() as json_text puts it in the "cells" list.
_JSON_CELL = json_object_template(
    ("alpha_re", "alpha_im", "kind", "eta_d", "nbar", "mean_gap", "var_gap", "tv_estimate",
     "ks_stat", "ks_pvalue", "pass"),
    "\n    ",
)


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """One sweep: the config swept, its mode the sweep's, and the cells in grid order."""

    config: SweepConfig
    cells: tuple[CellResult, ...]

    @property
    def passed(self) -> bool:
        """The verdict: every cell passed."""
        return all(c.passed for c in self.cells)

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

    def _json_head(self) -> dict:
        """The report's JSON object without its "cells"."""
        stats = [c.ks_statistic for c in self.cells if c.ks_statistic is not None]
        pvals = [c.ks_pvalue for c in self.cells if c.ks_pvalue is not None]
        return {
            "schema": "cvtrust/verify-report/1",
            "mode": self.config.mode,
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
        }

    def to_json_dict(self) -> dict:
        return {**self._json_head(), "cells": [c.to_json_dict() for c in self.cells]}

    def write_reports(self, json_fh, csv_fh) -> None:
        """Write the JSON and CSV reports to the two handles in one pass over the cells.

        The JSON is json_text(self.to_json_dict()), the CSV what csv.writer
        writes of CSV_COLUMNS.  Each float is formatted once by repr, as json
        and csv both do, and shared by both files, and each cell goes to both
        handles as soon as it is formatted.  The cells lie in grid order, so a
        spec's fields are formatted once per spec and an amplitude's parts
        once per amplitude, from the config, and walked in step with the cells.
        """
        specs = []
        for s in self.config.specs:
            eta_d, nbar = finite_reprs(s.eta_d, s.nbar)
            specs.append((eta_d, encode_basestring_ascii(s.kind), nbar, f"{s.kind},{eta_d},{nbar}"))
        alphas = [finite_reprs(a.real, a.imag) for a in self.config.alphas]
        csv_fh.write(",".join(CSV_COLUMNS) + "\n")

        def json_cells():  # each cell's JSON text, its CSV line written as it is taken
            grid = product(specs, alphas)
            for c, ((eta_d, kind, nbar, spec_csv), (alpha_re, alpha_im)) in zip(self.cells, grid):
                mean_gap, var_gap, tv = finite_reprs(c.mean_gap, c.var_gap, c.tv_estimate)
                if c.ks_statistic is None:
                    ks_stat, ks_stat_csv = "null", ""
                else:
                    ks_stat = ks_stat_csv = finite_reprs(c.ks_statistic)[0]
                ks_pvalue = "null" if c.ks_pvalue is None else finite_reprs(c.ks_pvalue)[0]
                passed = "true" if c.passed else "false"
                csv_fh.write(f"{alpha_re},{alpha_im},{spec_csv},{mean_gap},{var_gap},"
                             f"{ks_stat_csv},{passed}\n")
                yield _JSON_CELL % (alpha_im, alpha_re, eta_d, kind, ks_pvalue, ks_stat, mean_gap,
                                    nbar, passed, tv, var_gap)

        write_json_report(json_fh, self._json_head(), "cells", json_cells())

    def to_csv_text(self) -> str:
        self.write_reports(io.StringIO(), csv_fh := io.StringIO())
        return csv_fh.getvalue()


DEFAULT_AMPLITUDES = (0.0, 1.0, 3.0, 5.0)
DEFAULT_PHASES = 8


def default_alpha_grid(
    amplitudes: tuple[float, ...] = DEFAULT_AMPLITUDES, n_phases: int = DEFAULT_PHASES
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


def _pairs(config: SweepConfig):
    """Each spec's ModelPair, transformed by the config's sabotage mode."""
    unit = coherent_state(1.0)
    for spec in config.specs:
        plan = rescale_plan(spec)
        noisy = noisy_measurement_density(unit, spec)
        lossy = rescaled_lossy_density(unit, spec.kind, plan.eta_e, 1.0)
        yield SABOTAGE[config.sabotage](ModelPair(spec, noisy, lossy, plan.r))


def _laws(pair: ModelPair, xy: np.ndarray) -> tuple:
    """(left means, left variance, right means, right variance) at the amplitudes xy, the right
    side scaled by the pair's scale as OutcomeDensity.scaled does."""
    xy, scale = xy[:, : pair.left.ndim], pair.scale
    left_means, right_means = pair.left.mean[0] * xy, scale * (pair.right.mean[0] * xy)
    return left_means, pair.left.variance, right_means, (scale * scale) * pair.right.variance


def _relative_gap(a, b, floor: float) -> np.ndarray | np.floating:
    """Largest relative gap between paired components along the last axis; equal ones give 0."""
    import numpy as np

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return np.where(a == b, 0.0, np.abs(a - b) / scale).max(axis=-1)


@cache
def _hermite() -> tuple[np.ndarray, np.ndarray]:
    """64 Gauss-Hermite nodes and their weights against the standard normal density."""
    import numpy as np

    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    return nodes, weights / math.sqrt(2.0 * math.pi)


# A disk whose radius exceeds this many node spans of the wider density
# takes the chord route in _tv_rows.
_WIDE_DISK = 1.5


def _normal_mass(lo, hi):
    """Standard normal probability of (lo, hi), taken in the thinner tail."""
    import numpy as np
    from scipy.special import ndtr

    return np.where(lo > 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))


def _disk_mass(x, nc):
    """P(chi'^2_2(nc) <= x), as scipy's ncx2.cdf computes it: chdtr at nc = 0, else chndtr."""
    import numpy as np
    from scipy.special import chdtr, chndtr

    return np.where(nc == 0.0, chdtr(2.0, x), chndtr(x, 2.0, nc))


def _crossings(d, a: float, s: float, log_s2: float) -> np.ndarray:
    """Where N(0, 1) and N(d[i], s^2), s^2 = 1 + a > 1, cross: the roots of
    a z^2 + 2 d z - d^2 - s^2 log s^2 in the cancellation-free form, as rows (lo, hi)."""
    import numpy as np

    q = -(d + np.copysign(s * np.sqrt(d * d + a * log_s2), d))
    return np.sort([q / a, -(d * d + s * s * log_s2) / q], axis=0)


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
    import numpy as np

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
        lo, hi = _crossings(d, a, s, log_s2)
        gained = _normal_mass(lo, hi) - _normal_mass((lo - d) / s, (hi - d) / s)
    else:
        # The narrower density dominates inside the disk centred at
        # -delta / a of squared radius s^2 (delta^2 + 2 a log s^2) / a^2.
        nc = np.array([(x / a) ** 2 for x in d.tolist()])
        radius2 = s * s * (nc + 2.0 * log_s2 / a)
        u, weights = _hermite()
        small = radius2 <= (_WIDE_DISK * s * u[-1]) ** 2
        gained = np.empty(d.size)
        r2, c = radius2[small], nc[small]
        gained[small] = _disk_mass(r2, c) - _disk_mass(r2 / (s * s), c * s * s)

        # Wide disks, one row at a time: chord masses along delta at offset y.
        def chord_mass(y, shift, scale, delta):
            half = np.sqrt(s * s * (delta * delta + 2.0 * a * log_s2) - (a * y) ** 2)
            hi = (delta * delta + 2.0 * s * s * log_s2 - a * y * y) / (half + delta)
            lo = -(half + delta) / a
            return _normal_mass((lo - shift) / scale, (hi - shift) / scale)
        gained[~small] = [
            weights @ (chord_mass(u, 0.0, 1.0, x) - chord_mass(s * u, x, s, x))
            for x in d[~small].tolist()
        ]
    tv[rows] = np.where(gained > 0.0, np.minimum(gained, 1.0), 0.0)
    return tv


# Up to this many draws per sample KS p-values are exact (the tail of D_{n,n},
# computed by _exact_pvalue as ks_2samp computes it); above it, kstwo_sf.
_KS_EXACT_MAX_N = 10_000


# Draws per block of the KS step: its position and level temporaries are
# 1 MiB each, however many draws a sample has.
_KS_BLOCK = 2**16


def _level_blocks(xs: np.ndarray, ys: np.ndarray, side: str):
    """Per block of sorted xs, its positions i and levels i - #{y <= x_i}
    (side "right") or i - #{y < x_i} (side "left") against sorted ys."""
    import numpy as np

    for start in range(0, len(xs), _KS_BLOCK):
        block = xs[start : start + _KS_BLOCK]
        i = np.arange(start, start + len(block))
        level = np.searchsorted(ys, block, side=side)
        yield i, np.subtract(i, level, out=level)


def _ks_statistic(xs: np.ndarray, ys: np.ndarray) -> float:
    """Two-sided two-sample KS statistic of two samples of equal size n.

    Sorts xs and ys in place.  ks_2samp takes the extremes of F_x - F_y
    over the pooled values, each empirical CDF counted to the end of its
    group of equal values.  With both samples sorted, one search gives
    c_i = #{y <= x_i}, and the integer level u_i = i - c_i gives both
    extremes: n (F_x - F_y) is u_i + 1 at x_i, exact at the last x of a
    group, where it is largest, and u_i just below x_i, where it is
    smallest, or 0 past the last x.  Distinct levels are at least 1 / n
    apart, while rounding moves the float difference count_x / n -
    count_y / n by under 1e-15: its float max and min are reached only
    where the level has its max and min, and the float difference is
    evaluated there, on ks_2samp's counts.  Just below x_i the y count is
    #{y < x_i}; it differs from c_i only where some y equals x_i, and
    where one does at a lowest level, a left-sided search gives the
    levels below the x.  The levels are taken block by block, and each
    block keeps only its extremes, the largest differences there and
    whether a y equals an x at its lowest level.
    """
    n = len(xs)
    xs.sort()
    ys.sort()
    tops, bottoms = [], []
    for i, level in _level_blocks(xs, ys, "right"):
        top, bottom = level.max(), level.min()
        at = i[level == top]
        tops.append((top, ((at + 1) / n - (at - top) / n).max()))
        at = i[level == bottom]
        # There c_i = i - bottom >= 1, and a y equal to x_i is ys[c_i - 1].
        tied = bottom < 0 and (ys[at - bottom - 1] == xs[at]).any()
        bottoms.append((-bottom, ((at - bottom) / n - at / n).max(), tied))
    d_plus = float(max(tops)[1])
    depth, d_minus = max(bottoms)[:2]
    if depth > 0 and any(tied for d, _, tied in bottoms if d == depth):
        bottoms = []
        for i, level in _level_blocks(xs, ys, "left"):
            bottom = level.min()
            at = i[level == bottom]
            bottoms.append((-bottom, ((at - bottom) / n - at / n).max()))
        depth, d_minus = max(bottoms)
    return d_plus if depth <= 0 else max(d_plus, float(d_minus))


def _exact_pvalue(n: int, h: int) -> float:
    """Exact P(D_{n,n} >= h / n) for 0 < h <= n, bit for bit as ks_2samp.

    scipy's Horner series 2 A_0 (1 - A_1 (1 - A_2 (1 - ...))) over
    k = n // h, ..., 0, in scipy's operation order, started at the
    smallest k whose next term A_{k+1} is proven below 2^-60: each of its
    h factors is at most the first, (n - (k+1) h) / (n + (k+1) h + 1).
    Behind a term below 2^-54, 1.0 - P is exactly 1.0, so the terms
    skipped cannot change a bit.
    """
    start = 0
    while start < n // h and ((n - (start + 1) * h) / (n + (start + 1) * h + 1)) ** h >= 2.0**-60:
        start += 1
    P = 0.0
    for k in range(start, -1, -1):
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        P = p1 * (1.0 - P)
    return 2 * P


def _ks_cell(pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[float, float]:
    """Largest KS statistic over a cell's components and its cell p-value.

    Every component pairs two samples of the same size n, the cell's draws
    per model; other sizes raise ValueError.  Each sample is sorted in
    place.  The cell p-value is the Bonferroni combination
    min(1, k min_j p_j) over the k components, each p_j equal to
    ks_2samp's.  At fixed sizes the p-value falls as the statistic grows,
    so only the component with the largest statistic is tested.
    Up to 10^4 draws the statistic and its exact p-value are computed here,
    bit for bit as ks_2samp's exact route computes them: the statistic is
    rounded to a multiple h / n, and a series result outside [0, 1] falls
    back to the asymptotic tail.  Above 10^4 draws the asymptotic tail is
    evaluated once.  That tail is kstwo.sf(stat, round(n / 2)), half-even
    as scipy rounds it; a sweep draws n >= 10^4, so round(n / 2) >= 5,000.
    """
    from .kstail import kstwo_sf

    n = len(pairs[0][0])
    if any(len(xs) != n or len(ys) != n for xs, ys in pairs):
        raise ValueError("KS samples must all have the same size")
    stat = max(_ks_statistic(xs, ys) for xs, ys in pairs)
    if n <= _KS_EXACT_MAX_N:
        h = round(stat * n)
        stat = h * 1.0 / n
        pmin = 1.0 if h == 0 else _exact_pvalue(n, h)
    if n > _KS_EXACT_MAX_N or not 0.0 <= pmin <= 1.0:
        pmin = kstwo_sf(stat, round(n / 2))
    return stat, min(1.0, len(pairs) * pmin)


def holm_rejections(pvalues: list[float], alpha: float) -> set[int]:
    """Indices rejected by the Holm step-down procedure at level alpha."""
    m = len(pvalues)
    order = sorted(range(m), key=pvalues.__getitem__)
    rejected: set[int] = set()
    for rank, idx in enumerate(order):
        if pvalues[idx] <= alpha / (m - rank):
            rejected.add(idx)
        else:
            break
    return rejected


def _kolmogorov_rows(m1: np.ndarray, v1: float, m2: np.ndarray, v2: float) -> np.ndarray:
    """sup_x |F1(x) - F2(x)| between N(m1[i], v1) and N(m2[i], v2), 1-d, row by row.

    The sup lies where the densities cross: midway between equal-variance
    laws, else at the crossings that _tv_rows solves for, in units of the
    narrower law's standard deviation.
    """
    import numpy as np
    from scipy.special import ndtr

    if v1 > v2:
        m1, v1, m2, v2 = m2, v2, m1, v1
    a = (v2 - v1) / v1
    d = (m2 - m1) / math.sqrt(v1)
    if a == 0.0:
        return ndtr(np.abs(d) / 2.0) - ndtr(-np.abs(d) / 2.0)
    s = math.sqrt(1.0 + a)
    z = _crossings(d, a, s, math.log1p(a))
    return np.abs(ndtr(z) - ndtr((z - d) / s)).max(axis=0)


def skip_rescale_draws(config: SweepConfig) -> float | None:
    """Draws per model at which a Monte Carlo sweep of config expects to see a skipped rescale.

    Each cell's Kolmogorov distance D between the two sides of
    SABOTAGE["skip-rescale"](pair), the larger over a heterodyne cell's
    components, is taken in closed form.  With n draws per model a cell's
    KS statistic is about D, and by the asymptotic tail 2 exp(-n d^2) the
    critical value of Holm's first step, at the component level
    ks_alpha / (cells * components), is d = sqrt(log(2 / level) / n).
    Returns the fewest n at which some cell's D reaches it, or None when
    no cell has a distance to detect (every r = 1).
    """
    import numpy as np

    xy = np.array([(a.real, a.imag) for a in config.alphas])
    draws = []
    for pair in map(SABOTAGE["skip-rescale"], _pairs(config)):
        m1, v1, m2, v2 = _laws(pair, xy)
        distance = max(float(_kolmogorov_rows(x1, v1, x2, v2).max()) for x1, x2 in zip(m1.T, m2.T))
        if distance > 0.0:
            level = config.ks_alpha / (config.n_cells * pair.left.ndim)
            draws.append(math.log(2.0 / level) / distance**2)
    return min(draws, default=None)


def _tv_floor(xy: np.ndarray, pairs: list[ModelPair]) -> float:
    """The grid's largest B_4 = erf(4 eps |m| / (2 sqrt 2 sigma)) + 1.5 sqrt(ndim) 4 eps.

    B_4 bounds the TV of 4-ulp relative errors in a left density's mean m
    (the erf) and variance sigma^2 (Devroye-Mehrabian-Reddad, arXiv:1810.08693).
    |m| peaks at the largest |Re alpha| (homodyne) or |alpha| (heterodyne) of xy.
    """
    import numpy as np

    k_eps = 4.0 * 2.0**-52
    reach = {1: np.abs(xy[:, 0]).max(), 2: np.hypot(xy[:, 0], xy[:, 1]).max()}
    floor = 0.0
    for left in (pair.left for pair in pairs):
        shift = k_eps * abs(left.mean[0]) * reach[left.ndim]
        bound = math.erf(shift / (2.0 * math.sqrt(2.0 * left.variance)))
        floor = max(floor, bound + 1.5 * math.sqrt(left.ndim) * k_eps)
    return floor


def analytic_sweep(config: SweepConfig) -> EquivalenceReport:
    """Compare each pair's closed-form densities over the grid.

    A cell passes when its relative mean and variance gaps and its exact
    total-variation distance (report field tv_estimate) are within their
    tolerances.  Pairs run one at a time, over all amplitudes as arrays.  A
    tv_tol below the grid's TV floor, the TV that rounding alone can give a
    faithful cell, raises ValueError.  The report's config has mode "analytic".
    """
    import numpy as np

    xy = np.array([(a.real, a.imag) for a in config.alphas])
    pairs = list(_pairs(config))
    floor = _tv_floor(xy, pairs)
    if config.tv_tol < floor:
        raise ValueError(f"tv_tol {config.tv_tol!r} is below the grid's TV floor {floor!r}")
    cells = []
    for pair in pairs:
        laws = left_means, left_variance, right_means, right_variance = _laws(pair, xy)
        mean_gaps = _relative_gap(left_means, right_means, floor=1.0)
        var_gap = float(_relative_gap([left_variance], [right_variance], floor=0.0))
        tvs = _tv_rows(*laws)
        passed = (np.maximum(mean_gaps, var_gap) <= config.param_tol) & (tvs <= config.tv_tol)
        cells += map(CellResult, config.alphas, repeat(pair.spec), mean_gaps.tolist(),
                     repeat(var_gap), tvs.tolist(), repeat(None), repeat(None), passed.tolist())
    return EquivalenceReport(replace(config, mode="analytic"), tuple(cells))


def _mc_workers(n_cells: int) -> int:
    """Processes that run a sweep of n_cells cells: one per usable CPU, at most one per cell."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(n_cells, cpus)


def _die_with_parent(parent: int) -> None:
    """Pool initializer: the worker gets SIGKILL when the sweep's process ends.

    prctl(PR_SET_PDEATHSIG) is Linux's; where libc has none the worker is
    left unbound.  A parent that ended before the call leaves the worker
    another parent, and the worker exits at once.
    """
    import ctypes
    import signal

    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
    except (AttributeError, OSError):
        pass
    if os.getppid() != parent:
        os._exit(0)


def _mc_cell(config: SweepConfig, indexed_cell: tuple) -> CellResult:
    """Sample and KS-test one Monte Carlo cell, indexed_cell = (index, (pair, alpha)).

    The index picks the cell's two RNG substreams, so the result does not
    depend on which process runs the cell or in what order.
    """
    import numpy as np

    index, (pair, alpha) = indexed_cell
    xy = np.array([alpha.real, alpha.imag])[: pair.left.ndim]
    left = OutcomeDensity(pair.left.mean[0] * xy, pair.left.variance)
    right = OutcomeDensity(pair.right.mean[0] * xy, pair.right.variance)
    # Each density's draws come as one contiguous row per component.  The KS
    # step sorts them in place, so the gaps are taken first, in draw order.
    xs = sample_outcomes(left, config.mc_samples, config.seed, 2 * index)
    xs *= 1.0 / pair.scale
    ys = sample_outcomes(right, config.mc_samples, config.seed, 2 * index + 1)
    mean_gap = float(_relative_gap([np.mean(x) for x in xs], [np.mean(y) for y in ys], floor=1.0))
    var_gap = float(
        _relative_gap([np.var(x, ddof=1) for x in xs], [np.var(y, ddof=1) for y in ys], floor=0.0)
    )
    stat, pvalue = _ks_cell(list(zip(xs, ys)))
    return CellResult(alpha, pair.spec, mean_gap, var_gap, ks_statistic=stat, ks_pvalue=pvalue)


def monte_carlo_sweep(config: SweepConfig) -> EquivalenceReport:
    """Compare sampled outcomes of each pair over the grid.

    Per cell, mc_samples draws from each side of the pair are KS-tested
    per outcome component; the cell p-values, Bonferroni-combined across
    components, are Holm-corrected at level ks_alpha across the grid.

    Cells run in a pool of forked processes, one per usable CPU, and
    come back in grid order; each cell draws from its own substreams, so
    the report, whose config has mode "mc", is that of a run in one process.
    On Linux the workers end with the sweep's process, even when it is killed.
    """
    if config.mc_samples < 10**4:
        raise ValueError("Monte Carlo sweeps require mc_samples >= 10^4")
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Load the KS tail, and scipy.special with it, before the first cell's
    # samples exist and before the pool forks, so every worker has it.
    from . import kstail  # noqa: F401

    run_cell = partial(_mc_cell, config)
    todo = list(enumerate(product(_pairs(config), config.alphas)))
    workers = _mc_workers(len(todo))
    if workers == 1:
        cells = [run_cell(c) for c in todo]
    else:
        # Fork, not the platform default: a spawned or forkserver worker
        # would import numpy and scipy.special again, at about 0.5 s each.
        context = multiprocessing.get_context("fork")
        # About eight chunks per worker: few round trips for 10^4-draw
        # cells, and a balanced load when cells take seconds.
        chunk = max(1, len(todo) // (8 * workers))
        with ProcessPoolExecutor(
            workers, mp_context=context, initializer=_die_with_parent, initargs=(os.getpid(),)
        ) as pool:
            cells = list(pool.map(run_cell, todo, chunksize=chunk))
    rejected = holm_rejections([c.ks_pvalue for c in cells], config.ks_alpha)
    cells = [c._replace(passed=False) if i in rejected else c for i, c in enumerate(cells)]
    return EquivalenceReport(replace(config, mode="mc"), tuple(cells))


# Each verify mode's sweep.
SWEEPS = {"analytic": analytic_sweep, "mc": monte_carlo_sweep}
