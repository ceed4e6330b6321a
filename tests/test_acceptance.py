"""Acceptance suite.

Each test checks one acceptance criterion end to end and prints a single
PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s` to see
the lines alongside the test results.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import cvtrust
from cvtrust.channel import ChannelSpec, transmit
from cvtrust.detectors import (
    HETERODYNE,
    HOMODYNE,
    DetectorSpec,
    noisy_measurement_density,
)
from cvtrust.equivalence import (
    analytic_sweep,
    mixture_quadrature_oracle,
    channel_moment_oracle,
    default_sweep_config,
    monte_carlo_sweep,
    reduced_mc_config,
)
from cvtrust.gaussian import coherent_state
from cvtrust.keyrate import ScanConfig, reference_rate, run_scan
from cvtrust.rescaling import NOISE_FACTOR, harmonize, rescale_plan, rescale_plan_limit


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {number}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def test_criterion_1_rescale_identities_on_random_specs():
    rng = np.random.default_rng(2026)
    n = 10_000
    eta_ds = rng.uniform(1e-9, 1.0, n)
    eta_ds[:50] = 1.0
    eta_ds[50:100] = 1.0 - 1e-12
    nbars = rng.uniform(0.0, 10.0, n)
    nbars[:25] = 0.0
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(n):
        kind = HOMODYNE if i % 2 == 0 else HETERODYNE
        eta_d = float(eta_ds[i])
        nbar = float(nbars[i])
        plan = rescale_plan(DetectorSpec(kind, eta_d, nbar=nbar))
        expected_excess = NOISE_FACTOR[kind] * nbar * (1.0 - eta_d)
        worst = max(worst, _rel(plan.r_squared_excess, expected_excess))
        worst = max(worst, _rel(plan.eta_e * plan.r_squared, eta_d))
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "r^2 excess and eta_e r^2 = eta_d identities on 10^4 random detectors",
        worst <= 1e-15 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_worked_example_anchors():
    het = DetectorSpec.from_noise_product(HETERODYNE, 0.7, two_nu=1e-3)
    hom = DetectorSpec.from_noise_product(HOMODYNE, 0.7, two_nu=1e-3)
    gaps = [
        _rel(rescale_plan(het).r_squared, 1.0 + 0.5e-3),
        _rel(rescale_plan(hom).eta_e, 0.7 / (1.0 + 1e-3)),
        _rel(harmonize([hom, het]).eta_e_min, 0.7 / (1.0 + 1e-3)),
    ]
    _verdict(
        2,
        "worked-example anchors for the 0.7-efficiency detector pair",
        max(gaps) <= 1e-15,
        f"worst rel err {max(gaps):.2e}",
    )


def test_criterion_3_analytic_equivalence_sweep():
    t0 = time.perf_counter()
    report = analytic_sweep(default_sweep_config())
    sabotaged = analytic_sweep(default_sweep_config(sabotage="skip-rescale"))
    elapsed = time.perf_counter() - t0
    ok = (
        report.passed
        and len(report.cells) == 1024
        and report.worst_mean_gap <= 1e-12
        and report.worst_var_gap <= 1e-12
        and report.worst_tv <= 1e-9
        and not sabotaged.passed
        and elapsed < 5.0
    )
    _verdict(
        3,
        "analytic density equivalence over the 1024-cell grid with sabotage control",
        ok,
        f"worst gap {max(report.worst_mean_gap, report.worst_var_gap):.2e}, "
        f"sabotage rejections {sabotaged.n_rejections}, {elapsed:.1f} s",
    )


def test_criterion_4_monte_carlo_equivalence_sweep():
    t0 = time.perf_counter()
    failures = []
    for seed in range(5):
        report = monte_carlo_sweep(reduced_mc_config(seed=seed, mc_samples=10**6))
        if not report.passed:
            failures.append(seed)
    sabotaged = monte_carlo_sweep(
        reduced_mc_config(seed=0, mc_samples=10**6, sabotage="skip-rescale", nu=1e-2)
    )
    elapsed = time.perf_counter() - t0
    ok = not failures and not sabotaged.passed and elapsed < 120.0
    _verdict(
        4,
        "Monte Carlo KS equivalence at 10^6 samples, seeds 0-4, with sabotage control",
        ok,
        f"failing seeds {failures or 'none'}, "
        f"sabotage rejections {sabotaged.n_rejections}/32, {elapsed:.0f} s",
    )


def test_criterion_5_noisy_detector_density_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.0, 1.0, 2.0, 1.5 + 0.5j):
        for eta_d in (0.6, 0.85):
            for nbar in (0.3, 2.0):
                hom_spec = DetectorSpec(HOMODYNE, eta_d, nbar=nbar)
                density = noisy_measurement_density(coherent_state(alpha), hom_spec)
                sigma = float(np.sqrt(density.variance))
                grid = np.linspace(
                    density.mean[0] - 6 * sigma, density.mean[0] + 6 * sigma, 41
                )
                table = mixture_quadrature_oracle(alpha, hom_spec, grid)
                worst = max(worst, float(np.abs(table.density - density.pdf(grid)).max()))

                het_spec = DetectorSpec(HETERODYNE, eta_d, nbar=nbar)
                density = noisy_measurement_density(coherent_state(alpha), het_spec)
                sigma = float(np.sqrt(density.variance))
                axis = np.linspace(-3 * sigma, 3 * sigma, 13)
                cgrid = (
                    density.mean[0] + axis[:, None] + 1j * (density.mean[1] + axis[None, :])
                ).ravel()
                table = mixture_quadrature_oracle(alpha, het_spec, cgrid)
                worst = max(worst, float(np.abs(table.density - density.pdf(cgrid)).max()))
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        "closed-form noisy densities vs the quadrature oracle on the 16-point grid",
        worst <= 1e-8 and elapsed < 30.0,
        f"sup gap {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_6_channel_moments():
    t0 = time.perf_counter()
    worst_exact = 0.0
    worst_oracle = 0.0
    for beta, eta, xi0 in (
        (1.5 - 0.5j, 0.8, 1e-3),
        (0.5 + 2.0j, 0.45, 0.02),
        (-2.0 + 0.0j, 0.99, 5e-3),
    ):
        out = transmit(coherent_state(beta), ChannelSpec(eta, xi0))
        expected_mean = np.sqrt(eta) * np.array([beta.real, beta.imag])
        expected_var = (1.0 + eta * xi0) / 4.0
        worst_exact = max(
            worst_exact,
            float(np.abs(out.mean - expected_mean).max()),
            float(np.abs(np.diag(out.cov) - expected_var).max()),
            float(abs(out.cov[0, 1])),
        )
        oracle = channel_moment_oracle(beta, eta, xi0)
        worst_oracle = max(
            worst_oracle,
            float(np.abs(oracle["mean"] - out.mean).max()),
            float(np.abs(oracle["variance"] - np.diag(out.cov)).max()),
        )
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        "channel output moments: closed form exact, quadrature oracle to 1e-8",
        worst_exact <= 1e-14 and worst_oracle <= 1e-8 and elapsed < 10.0,
        f"closed-form gap {worst_exact:.2e}, oracle gap {worst_oracle:.2e}, {elapsed:.1f} s",
    )


def test_criterion_7_high_efficiency_limit_convergence():
    nu = 2e-3
    ok = True
    details = []
    for kind in (HOMODYNE, HETERODYNE):
        limit = rescale_plan_limit(nu, kind)
        for k in range(1, 13):
            eta_d = 1.0 - 10.0**-k
            nbar = nu / (1.0 - eta_d)
            plan = rescale_plan(DetectorSpec(kind, eta_d, nbar=nbar))
            r_gap = abs(plan.r - limit.r)
            eta_gap = abs(plan.eta_e - limit.eta_e)
            bound = 10.0 * 10.0**-k
            if r_gap > bound or eta_gap > bound:
                ok = False
                details.append(f"{kind} k={k} r_gap={r_gap:.2e} eta_gap={eta_gap:.2e}")
            if k == 12 and _rel(plan.r, limit.r) > 1e-12:
                ok = False
                details.append(f"{kind} k=12 r mismatch {_rel(plan.r, limit.r):.2e}")
    _verdict(
        7,
        "finite plans converge to the eta_d -> 1 limit plan as 10^-k",
        ok,
        "; ".join(details) if details else "k = 1..12, both kinds",
    )


def test_criterion_8_scan_ordering_and_trusted_replay():
    loss_db = tuple(float(x) for x in range(0, 41))
    het = DetectorSpec.from_noise_product(HETERODYNE, 0.7, two_nu=1e-3)
    hom = DetectorSpec.from_noise_product(HOMODYNE, 0.7, two_nu=1e-3)
    configs = [
        ScanConfig(loss_db=loss_db, xi0=0.01, detectors=(het,)),
        ScanConfig(loss_db=loss_db, xi0=0.01, detectors=(hom, het), protocol="hybrid"),
    ]
    ok = True
    details = []
    for config in configs:
        table = run_scan(config)
        ideal = table.rates("ideal")
        trusted = table.rates("trusted")
        untrusted = table.rates("untrusted")
        if not all(i >= t >= u for i, t, u in zip(ideal, trusted, untrusted)):
            ok = False
            details.append(f"{config.protocol}: ordering violated")
        for row in table.rows:
            if row.scenario != "trusted":
                continue
            replay = reference_rate(
                row.t_eff, row.xi_eff, config.rate_kind, config.rate_params
            )
            if replay != row.rate:
                ok = False
                details.append(f"{config.protocol}: replay mismatch at {row.loss_db} dB")
                break
    _verdict(
        8,
        "0-40 dB scans: ideal >= trusted >= untrusted and trusted rows replay exactly",
        ok,
        "; ".join(details) if details else "both protocols, 41 loss points",
    )


def test_criterion_9_cli_reports_are_reproducible(tmp_path):
    # The children run in tmp_path, where a relative PYTHONPATH entry no
    # longer points at the package; put the directory holding the imported
    # cvtrust (src/ in a checkout, site-packages for an install) first.
    package_root = str(Path(cvtrust.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "cvtrust.cli", *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )

    label = "verify and scan CLI runs are byte-identical across repeat invocations"
    verify_args = (
        "verify",
        "--eta-d", "0.7",
        "--nu", "1e-3",
        "--amplitudes", "1,3",
        "--phases", "4",
    )
    scan_args = (
        "scan",
        "--eta-d", "0.7",
        "--two-nu", "1e-3",
        "--xi0", "0.01",
        "--loss-db", "0:20:5",
    )
    procs = [
        run(*verify_args, "--out", str(tmp_path / "v1")),
        run(*verify_args, "--out", str(tmp_path / "v2")),
        run(*scan_args, "--out", str(tmp_path / "s1")),
        run(*scan_args, "--out", str(tmp_path / "s2")),
    ]
    codes = [proc.returncode for proc in procs]
    if codes != [0, 0, 0, 0]:
        causes = [
            (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
            for proc in procs
            if proc.returncode != 0
        ]
        _verdict(9, label, False, f"exit codes {codes}: " + "; ".join(causes))
    pairs = [
        (tmp_path / "v1.json", tmp_path / "v2.json"),
        (tmp_path / "v1.csv", tmp_path / "v2.csv"),
        (tmp_path / "s1.json", tmp_path / "s2.json"),
        (tmp_path / "s1.csv", tmp_path / "s2.csv"),
    ]
    identical = all(a.read_bytes() == b.read_bytes() for a, b in pairs)
    json_ok = json.loads((tmp_path / "s1.json").read_text())["schema"] == "cvtrust/scan-report/1"
    ok = codes == [0, 0, 0, 0] and identical and json_ok
    _verdict(9, label, ok, f"exit codes {codes}")
