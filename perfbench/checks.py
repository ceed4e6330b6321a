"""Correctness checks of cvtrust reports, computed apart from the program.

Every expected value here comes from the paper's formulas or from a
property the reduction must have, and is evaluated with numpy and scipy
code that shares nothing with cvtrust:

* a coherent input alpha on a noisy detector (eta_d, nu) gives outcomes of
  mean sqrt(eta_d) alpha and variance (1 + 2 nu)/4 (homodyne, real part
  only) or (1 + nu)/2 per component (heterodyne);
* the equivalent detector is a loss eta_e = eta_d / r^2 followed by an
  ideal measurement (variance 1/4 or 1/2) whose outcome is multiplied by
  r, with r^2 = 1 + 2 nu (homodyne) or 1 + nu (heterodyne);
* total variation is integrated numerically, Kolmogorov distances are
  maximised on a grid, and key rates are rebuilt from the two-mode
  covariance matrix with numerically computed symplectic eigenvalues.

Each check takes a parsed report and returns a list of failure messages;
an empty list means every check passed.  No check compares against a
stored copy of earlier output.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

HOMODYNE = "homodyne"
HETERODYNE = "heterodyne"
SCENARIOS = ("ideal", "trusted", "untrusted")

# The program's default pass thresholds for faithful analytic sweeps.
PARAM_TOL = 1e-12
TV_TOL = 1e-9
# Faithful Monte Carlo gaps must lie within this many standard errors.  At
# 6 sigma a 1024-cell sweep raises a false alarm with probability ~1e-5.
MC_SIGMAS = 6.0
# A sabotaged KS statistic must lie within this many sqrt(2/n) of the
# Kolmogorov distance between the two normal laws.
KS_MULTIPLES = 4.0


def r_squared(kind: str, nu: float) -> float:
    """The paper's r^2: 1 + 2 nu for homodyne, 1 + nu for heterodyne."""
    return 1.0 + (2.0 * nu if kind == HOMODYNE else nu)


@dataclass(frozen=True)
class Cell:
    kind: str
    eta_d: float
    nu: float
    alpha: complex

    @property
    def dims(self) -> int:
        return 1 if self.kind == HOMODYNE else 2

    def _components(self, scale: float) -> np.ndarray:
        parts = (self.alpha.real, self.alpha.imag)[: self.dims]
        return scale * np.array(parts)

    def noisy_law(self) -> tuple[np.ndarray, float]:
        """Mean vector and per-component variance of the noisy outcome."""
        var = (1.0 + 2.0 * self.nu) / 4.0 if self.kind == HOMODYNE else (1.0 + self.nu) / 2.0
        return self._components(math.sqrt(self.eta_d)), var

    def lossy_law(self) -> tuple[np.ndarray, float]:
        """Mean and variance of an ideal measurement after the loss eta_e."""
        eta_e = self.eta_d / r_squared(self.kind, self.nu)
        var = 0.25 if self.kind == HOMODYNE else 0.5
        return self._components(math.sqrt(eta_e)), var


@dataclass(frozen=True)
class Grid:
    """A verify grid as the CLI flags describe it, enumerated spec-major."""

    amplitudes: tuple[float, ...] = (0.0, 1.0, 3.0, 5.0)
    n_phases: int = 8
    eta_ds: tuple[float, ...] = (0.5, 0.7, 0.9, 1.0 - 1e-6)
    nus: tuple[float, ...] = (0.0, 1e-4, 1e-3, 1e-2)
    kinds: tuple[str, ...] = (HOMODYNE, HETERODYNE)

    def cells(self) -> list[Cell]:
        alphas = [
            amp * cmath.exp(2j * math.pi * k / self.n_phases)
            for amp in self.amplitudes
            for k in range(self.n_phases)
        ]
        return [
            Cell(kind, eta_d, nu, alpha)
            for kind in self.kinds
            for eta_d in self.eta_ds
            for nu in self.nus
            for alpha in alphas
        ]

    def flags(self) -> list[str]:
        """CLI flags selecting this grid (none for the default grid)."""
        if self == Grid():
            return []
        flags = []
        for eta_d in self.eta_ds:
            flags += ["--eta-d", repr(eta_d)]
        for nu in self.nus:
            flags += ["--nu", repr(nu)]
        flags += ["--amplitudes", ",".join(repr(a) for a in self.amplitudes)]
        flags += ["--phases", str(self.n_phases)]
        return flags


def _close(x: float, y: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(x - y) <= abs_ + rel * max(abs(x), abs(y))


def check_grid(report: dict, grid: Grid) -> list[str]:
    cells = report["cells"]
    expected = grid.cells()
    if len(cells) != len(expected):
        return [f"report has {len(cells)} cells, the grid has {len(expected)}"]
    bad = [
        i
        for i, (c, e) in enumerate(zip(cells, expected))
        if not (
            c["kind"] == e.kind
            and _close(c["eta_d"], e.eta_d, 1e-15)
            and _close(c["nbar"], e.nu / (1.0 - e.eta_d) if e.nu else 0.0, 1e-12)
            and _close(c["alpha_re"], e.alpha.real, 0.0, 1e-12)
            and _close(c["alpha_im"], e.alpha.imag, 0.0, 1e-12)
        )
    ]
    if bad:
        return [f"{len(bad)} cells differ from the expected grid, first at index {bad[0]}"]
    return []


def check_csv(report: dict, csv_text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    verdicts = [str(c["pass"]).lower() for c in report["cells"]]
    if len(rows) != len(verdicts) + 1:
        return [f"CSV has {len(rows) - 1} rows for {len(verdicts)} cells"]
    if [row[-1] for row in rows[1:]] != verdicts:
        return ["CSV pass column disagrees with the JSON report"]
    return []


def _summary_verdict(report: dict, expect_pass: bool) -> list[str]:
    summary = report["summary"]
    rejected = sum(not c["pass"] for c in report["cells"])
    errors = []
    if summary["passed"] is not expect_pass:
        errors.append(f"summary.passed is {summary['passed']}, expected {expect_pass}")
    if summary["rejections"] != rejected:
        errors.append(f"summary.rejections {summary['rejections']} != {rejected} failing cells")
    return errors


def check_analytic_faithful(report: dict, csv_text: str, grid: Grid) -> list[str]:
    """Every cell of a faithful analytic sweep passes with ulp-level gaps."""
    errors = check_grid(report, grid) + _summary_verdict(report, True)
    cells = report["cells"]
    failing = sum(not c["pass"] for c in cells)
    if failing:
        errors.append(f"{failing} faithful cells fail")
    for key, tol in (("mean_gap", PARAM_TOL), ("var_gap", PARAM_TOL), ("tv_estimate", TV_TOL)):
        worst = max(c[key] for c in cells)
        if not worst <= tol:
            errors.append(f"worst {key} {worst:.3e} exceeds {tol:g}")
    return errors + check_csv(report, csv_text)


def _normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(128)


def _gauss_legendre(lo, hi):
    """Nodes and weights of the 128-point rule on each interval [lo, hi]."""
    half = (np.asarray(hi) - np.asarray(lo))[..., None] / 2.0
    return np.asarray(lo)[..., None] + half * (_GL_NODES + 1.0), half * _GL_WEIGHTS


def tv_numeric(p: tuple[np.ndarray, float], q: tuple[np.ndarray, float]) -> float:
    """Total variation of two 1-d or isotropic 2-d normals by numerical integration.

    The pair is placed at N(0, vp) and N(d e_x, vq), d >= 0, and |p - q| is
    integrated by Gauss-Legendre rules split where p = q, so that every
    piece is smooth: along x in 1-d, and along x inside a rule over y >= 0
    in 2-d.  From log p = log q the crossing set is the circle (points in
    1-d) |z - c e_x|^2 = R^2 with kappa = 1/(2 vq) - 1/(2 vp),
    c = d / (2 vq kappa) and
    R^2 = (kappa c^2 - d^2/(2 vq) - (dims/2) log(vq/vp)) / kappa,
    or the line x = d/2 when the variances are equal.
    """
    (mp, vp), (mq, vq) = p, q
    d = float(np.linalg.norm(mq - mp))
    width = 14.0 * math.sqrt(max(vp, vq))
    kappa = 0.5 / vq - 0.5 / vp
    if kappa == 0.0:
        centre, radius2 = d / 2.0, 0.0
    else:
        centre = d / (2.0 * vq * kappa)
        log_ratio = 0.5 * mp.size * math.log(vq / vp)
        radius2 = (centre * centre * kappa - d * d / (2.0 * vq) - log_ratio) / kappa
    lo, hi = -width, d + width

    def line_mass(y, weight_p, weight_q):
        """Integral over x of |p - q| on each line of height y."""
        half_chord = np.sqrt(np.maximum(radius2 - y * y, 0.0))
        cuts = [np.full_like(y, lo), np.clip(centre - half_chord, lo, hi)]
        cuts += [np.clip(centre + half_chord, lo, hi), np.full_like(y, hi)]
        x, wx = _gauss_legendre(np.stack(cuts[:-1]), np.stack(cuts[1:]))
        f = weight_p[:, None] * _normal_pdf(x, 0.0, vp) - weight_q[:, None] * _normal_pdf(x, d, vq)
        return np.sum(np.abs(f) * wx, axis=(0, 2))

    if mp.size == 1:
        one = np.ones(1)
        return 0.5 * float(line_mass(np.zeros(1), one, one)[0])
    y_cuts = [0.0, math.sqrt(radius2), width] if 0.0 < radius2 < width**2 else [0.0, width]
    total = 0.0
    for y0, y1 in zip(y_cuts, y_cuts[1:]):
        y, wy = _gauss_legendre(y0, y1)
        total += float(line_mass(y, _normal_pdf(y, 0.0, vp), _normal_pdf(y, 0.0, vq)) @ wy)
    return total  # twice the half plane y >= 0, halved


def check_analytic_skip_rescale(
    report: dict, csv_text: str, grid: Grid, tv_cells: list[int]
) -> list[str]:
    """A sweep without the outcome rescale rejects exactly the noisy cells.

    Each noisy cell's variance gap must be 1 - 1/r^2, and on the cells
    listed in tv_cells the reported total variation must match numerical
    integration of |p - q| between the noisy law and the unscaled lossy
    law.
    """
    errors = check_grid(report, grid)
    if errors:
        return errors
    errors += _summary_verdict(report, False)
    cells = report["cells"]
    expected = grid.cells()
    noisy = {i for i, e in enumerate(expected) if e.nu > 0.0}
    rejected = {i for i, c in enumerate(cells) if not c["pass"]}
    if rejected != noisy:
        errors.append(
            f"{len(rejected)} cells rejected, expected exactly the {len(noisy)} with nu > 0"
        )
    worst = max(
        abs(cells[i]["var_gap"] - want) / want
        for i in noisy
        for want in [1.0 - 1.0 / r_squared(expected[i].kind, expected[i].nu)]
    )
    if not worst <= 1e-10:
        errors.append(f"var_gap differs from 1 - 1/r^2 by {worst:.3e} relative")
    for i in tv_cells:
        own = tv_numeric(expected[i].noisy_law(), expected[i].lossy_law())
        got = cells[i]["tv_estimate"]
        if not abs(got - own) <= 1e-13 + 1e-8 * own:
            errors.append(f"cell {i}: tv_estimate {got!r} but integration gives {own!r}")
    return errors + check_csv(report, csv_text)


def check_mc_faithful(report: dict, grid: Grid, n: int) -> list[str]:
    """A faithful Monte Carlo sweep rejects no cell and its gaps are noise.

    The compared samples are the noisy outcomes divided by r and the lossy
    ideal outcomes; their variances follow from the paper, so the mean and
    variance gaps have known standard errors.
    """
    errors = check_grid(report, grid)
    if errors:
        return errors
    errors += _summary_verdict(report, True)
    cells = report["cells"]
    failing = sum(not c["pass"] for c in cells)
    if failing:
        errors.append(f"Holm rejects {failing} faithful cells")
    var_rel_se = math.sqrt(2.0 / (n - 1))
    bad_mean, bad_var = [], []
    for i, (c, e) in enumerate(zip(cells, grid.cells())):
        var_a = e.noisy_law()[1] / r_squared(e.kind, e.nu)
        var_b = e.lossy_law()[1]
        # mean_gap divides |mean_a - mean_b| by at least 1.
        if not c["mean_gap"] <= MC_SIGMAS * math.sqrt((var_a + var_b) / n):
            bad_mean.append(i)
        # var_gap divides |s_a^2 - s_b^2| by max(s_a^2, s_b^2).
        spread = MC_SIGMAS * var_rel_se * math.hypot(var_a, var_b)
        floor = max(var_a, var_b) * (1.0 - MC_SIGMAS * var_rel_se)
        if not c["var_gap"] <= spread / floor:
            bad_var.append(i)
    for name, bad in (("mean", bad_mean), ("variance", bad_var)):
        if bad:
            errors.append(
                f"{len(bad)} cells have a {name} gap beyond {MC_SIGMAS:g} standard errors, "
                f"first at index {bad[0]}"
            )
    return errors


def kolmogorov_distance(mean1: float, var1: float, mean2: float, var2: float) -> float:
    """sup_x |F1(x) - F2(x)| of two normal laws, maximised on a fine grid."""
    s1, s2 = math.sqrt(var1), math.sqrt(var2)
    width = 10.0 * max(s1, s2)
    x = np.linspace(min(mean1, mean2) - width, max(mean1, mean2) + width, 200_001)
    return float(np.max(np.abs(ndtr((x - mean1) / s1) - ndtr((x - mean2) / s2))))


def check_mc_skip_rescale(report: dict, grid: Grid, n: int) -> list[str]:
    """Without the rescale every cell is rejected, with the expected KS statistic."""
    errors = check_grid(report, grid)
    if errors:
        return errors
    errors += _summary_verdict(report, False)
    cells = report["cells"]
    kept = sum(c["pass"] for c in cells)
    if kept:
        errors.append(f"{kept} of {len(cells)} sabotaged cells are not rejected")
    tol = KS_MULTIPLES * math.sqrt(2.0 / n)
    for i, (c, e) in enumerate(zip(cells, grid.cells())):
        (mp, vp), (mq, vq) = e.noisy_law(), e.lossy_law()
        own = max(kolmogorov_distance(a, vp, b, vq) for a, b in zip(mp, mq))
        if not abs(c["ks_stat"] - own) <= tol:
            errors.append(
                f"cell {i}: KS statistic {c['ks_stat']:.5f} is not within {tol:.5f} "
                f"of the Kolmogorov distance {own:.5f}"
            )
    return errors


@dataclass(frozen=True)
class ScanSpec:
    """A `cvtrust scan` over an inclusive start:stop:step loss grid."""

    protocol: str
    eta_d: float = 0.7
    two_nu: float = 1e-3
    xi0: float = 0.01
    start: float = 0.0
    stop: float = 40.0
    step: float = 0.01
    va: float = 4.0
    beta: float = 0.95

    def flags(self) -> list[str]:
        return [
            "--protocol", self.protocol,
            "--eta-d", repr(self.eta_d),
            "--two-nu", repr(self.two_nu),
            "--xi0", repr(self.xi0),
            "--loss-db", f"{self.start!r}:{self.stop!r}:{self.step!r}",
            "--va", repr(self.va),
            "--beta", repr(self.beta),
        ]

    def losses(self) -> np.ndarray:
        count = math.floor((self.stop - self.start) / self.step + 1e-9) + 1
        return self.start + np.arange(count) * self.step

    @property
    def kind(self) -> str:
        """The measurement the rate models: heterodyne, or the hybrid's homodyne."""
        return HETERODYNE if self.protocol == HETERODYNE else HOMODYNE

    def eta_e_min(self) -> float:
        kinds = (HETERODYNE,) if self.protocol == HETERODYNE else (HOMODYNE, HETERODYNE)
        return min(self.eta_d / r_squared(k, self.two_nu / 2.0) for k in kinds)

    def channel(self, scenario: str, transmittance: np.ndarray):
        """(t_eff, xi_eff) of a scenario: detector perfect, trusted, or Eve's."""
        if scenario == "ideal":
            t = transmittance
            return t, t * self.xi0
        if scenario == "trusted":
            t = transmittance * self.eta_e_min()
            return t, t * self.xi0
        t = transmittance * self.eta_d
        return t, t * self.xi0 + self.two_nu


def _entropy(nu: np.ndarray) -> np.ndarray:
    """Von Neumann entropy in bits of a mode with symplectic eigenvalue nu."""
    plus, minus = (nu + 1.0) / 2.0, np.maximum((nu - 1.0) / 2.0, 0.0)
    safe = np.where(minus > 0.0, minus, 1.0)
    return plus * np.log2(plus) - np.where(minus > 0.0, minus * np.log2(safe), 0.0)


def covariance_rate(t, xi, kind: str, va: float, beta: float) -> np.ndarray:
    """Asymptotic reverse-reconciliation rate from the two-mode covariance matrix.

    The entanglement-based state of Gaussian modulation with variance va
    through a channel (t, xi) has covariance [[a I, c Z], [c Z, b I]] in
    shot-noise units.  chi_BE = S(AB) - S(A|Bob's outcome), with symplectic
    eigenvalues taken from the eigenvalues of Omega gamma and, for the
    one-mode conditional state, as sqrt(det).
    """
    t = np.asarray(t, dtype=float)
    xi = np.asarray(xi, dtype=float)
    a = va + 1.0
    b = t * va + 1.0 + xi
    c = np.sqrt(t * (a * a - 1.0))
    gamma = np.zeros(t.shape + (4, 4))
    gamma[..., 0, 0] = gamma[..., 1, 1] = a
    gamma[..., 2, 2] = gamma[..., 3, 3] = b
    gamma[..., 0, 2] = gamma[..., 2, 0] = c
    gamma[..., 1, 3] = gamma[..., 3, 1] = -c
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    eig = np.sort(np.abs(np.linalg.eigvals(omega @ gamma).imag), axis=-1)
    nu1, nu2 = eig[..., 0], eig[..., 2]
    g_a, g_b, cross = gamma[..., :2, :2], gamma[..., 2:, 2:], gamma[..., :2, 2:]
    eye = np.eye(2)
    if kind == HOMODYNE:
        probe = np.linalg.pinv(np.diag([1.0, 0.0]) @ g_b @ np.diag([1.0, 0.0]))
    else:
        probe = np.linalg.inv(g_b + eye)
    cond_a = g_a - cross @ probe @ np.swapaxes(cross, -1, -2)
    nu3 = np.sqrt(np.linalg.det(cond_a))
    chi = _entropy(nu1) + _entropy(nu2) - _entropy(nu3)
    # Bob's variance given Alice's heterodyne of mode A (her modulation).
    v_b = g_b[..., 0, 0]
    cond_b = g_b - np.swapaxes(cross, -1, -2) @ np.linalg.inv(g_a + eye) @ cross
    v_b_a = cond_b[..., 0, 0]
    if kind == HOMODYNE:
        info = 0.5 * np.log2(v_b / v_b_a)
    else:
        info = np.log2((v_b + 1.0) / (v_b_a + 1.0))
    return np.maximum(beta * info - chi, 0.0)


def check_scan(report: dict, csv_text: str, spec: ScanSpec, sample: np.ndarray) -> list[str]:
    """Scan rows are complete, ordered, physical and match rebuilt rates.

    Every trusted rate is rebuilt from the covariance matrix, and so are
    the ideal and untrusted rates at the loss indices in sample.
    """
    losses = spec.losses()
    n = losses.size
    rows = report["rows"]
    if len(rows) != len(SCENARIOS) * n:
        return [f"scan has {len(rows)} rows, expected {len(SCENARIOS) * n}"]
    errors = []
    if csv_text.count("\n") != len(rows) + 1:
        errors.append("CSV row count disagrees with the JSON report")
    if any(r["status"] != "ok" for r in rows):
        errors.append(f"{sum(r['status'] != 'ok' for r in rows)} rows have a status other than ok")
    rates = np.array([r["rate"] for r in rows], dtype=float).reshape(len(SCENARIOS), n)
    t_eff = np.array([r["t_eff"] for r in rows], dtype=float).reshape(len(SCENARIOS), n)
    for k, scenario in enumerate(SCENARIOS):
        block = rows[k * n : (k + 1) * n]
        if any(r["scenario"] != scenario for r in block):
            errors.append(f"rows {k * n}..{(k + 1) * n - 1} are not all {scenario}")
        got = np.array([r["loss_db"] for r in block])
        if not np.allclose(got, losses, rtol=0.0, atol=1e-9):
            errors.append(f"{scenario} losses differ from start:stop:step")
    if not np.all(np.isfinite(rates)) or np.any(rates < 0.0):
        errors.append("rates must be finite and non-negative")
    for hi, lo in ((0, 1), (1, 2)):
        bad = np.flatnonzero(rates[hi] < rates[lo])
        if bad.size:
            errors.append(
                f"{SCENARIOS[hi]} < {SCENARIOS[lo]} at {bad.size} losses, first {losses[bad[0]]!r} dB"
            )
    for k, scenario in enumerate(SCENARIOS):
        bad = np.flatnonzero(np.diff(rates[k]) > 0.0)
        if bad.size:
            errors.append(
                f"{scenario} rate rises with loss at {bad.size} steps, first after {losses[bad[0]]!r} dB"
            )
    transmittance = 10.0 ** (-losses / 10.0)
    want_t = transmittance * spec.eta_e_min()
    worst_t = float(np.max(np.abs(t_eff[1] - want_t) / want_t))
    if not worst_t <= 4.0 * np.finfo(float).eps:
        errors.append(f"trusted t_eff differs from 10^(-L/10) eta_d / r^2 by {worst_t:.3e} relative")
    for k, scenario in enumerate(SCENARIOS):
        idx = np.arange(n) if scenario == "trusted" else np.asarray(sample)
        t, xi = spec.channel(scenario, transmittance[idx])
        own = covariance_rate(t, xi, spec.kind, spec.va, spec.beta)
        got = rates[k, idx]
        bad = np.flatnonzero(~(np.abs(got - own) <= 1e-12 + 1e-9 * own))
        if bad.size:
            i = idx[bad[0]]
            errors.append(
                f"{bad.size} {scenario} rates differ from the covariance-matrix rate, "
                f"first at {losses[i]!r} dB: {rates[k, i]!r} vs {own[bad[0]]!r}"
            )
    return errors
