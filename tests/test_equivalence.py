import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.stats import ks_2samp, ncx2

from cvtrust import equivalence
from cvtrust.channel import ChannelSpec, scenario_params
from cvtrust.detectors import (
    HETERODYNE,
    HOMODYNE,
    KINDS,
    DetectorSpec,
    OutcomeDensity,
    noisy_measurement_density,
    rescaled_lossy_density,
    sample_outcomes,
)
from cvtrust.gaussian import coherent_state
from cvtrust.jsontext import json_text
from cvtrust.rescaling import rescale_plan
from cvtrust.equivalence import (
    CSV_COLUMNS,
    DEFAULT_AMPLITUDES,
    DEFAULT_PHASES,
    MAX_MC_SAMPLES,
    MIN_PARAM_TOL,
    SABOTAGE_MODES,
    CellResult,
    SweepConfig,
    _disk_mass,
    _ks_cell,
    analytic_sweep,
    default_alpha_grid,
    default_spec_grid,
    default_sweep_config,
    holm_rejections,
    monte_carlo_sweep,
    skip_rescale_draws,
)
import kstwo_table
from helpers import _tv_distance, reduced_mc_config, report_texts
from oracles import (
    channel_moment_oracle,
    gaussian_pdf,
    gaussian_weight_nodes,
    mixture_quadrature_oracle,
)


def small_config(**overrides):
    base = dict(
        alphas=default_alpha_grid((1.0, 3.0), 4),
        specs=default_spec_grid((0.7,), (1e-2,)),
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_default_grids_shapes():
    assert (DEFAULT_AMPLITUDES, DEFAULT_PHASES) == ((0.0, 1.0, 3.0, 5.0), 8)
    assert default_alpha_grid() == default_alpha_grid(DEFAULT_AMPLITUDES, DEFAULT_PHASES)
    assert len(default_alpha_grid()) == 32
    assert len(default_spec_grid()) == 32
    assert default_sweep_config().n_cells == 1024
    assert reduced_mc_config().n_cells == 32


def test_default_spec_grid_noise_products():
    specs = default_spec_grid(eta_ds=(0.7,), nus=(1e-3,), kinds=(HOMODYNE,))
    assert len(specs) == 1
    assert np.isclose(specs[0].noise_product, 1e-3, rtol=1e-14)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(alphas=(), specs=default_spec_grid())
    with pytest.raises(ValueError):
        SweepConfig(alphas=(1 + 0j,), specs=())
    with pytest.raises(ValueError):
        small_config(sabotage="invert")
    with pytest.raises(ValueError):
        small_config(mc_samples=-1)
    with pytest.raises(ValueError):
        small_config(param_tol=0.0)
    with pytest.raises(ValueError):
        small_config(ks_alpha=1.0)


def test_param_tol_floor_is_64_eps():
    assert MIN_PARAM_TOL == 64 * np.finfo(float).eps
    for bad in (1e-17, math.nextafter(MIN_PARAM_TOL, 0.0)):
        with pytest.raises(ValueError, match="param_tol"):
            small_config(param_tol=bad)
    assert small_config(param_tol=MIN_PARAM_TOL).param_tol == MIN_PARAM_TOL


@pytest.mark.parametrize("amplitudes", [(0.0, 1.0, 3.0, 5.0), (0.0, 1e-9, 1e3, 1e6)])
def test_faithful_sweep_passes_at_the_param_tol_floor(amplitudes):
    config = default_sweep_config(
        alphas=default_alpha_grid(amplitudes), param_tol=MIN_PARAM_TOL
    )
    report = analytic_sweep(config)
    assert report.passed and report.n_rejections == 0


def _tv_floor(config):
    xy = np.array([(a.real, a.imag) for a in config.alphas])
    return equivalence._tv_floor(xy, list(equivalence._pairs(config)))


def test_tv_floor_reference_values():
    assert _tv_floor(default_sweep_config()) == pytest.approx(4.876e-15, rel=1e-3)
    at_1e6 = default_sweep_config(alphas=default_alpha_grid((1e6,)))
    assert _tv_floor(at_1e6) == pytest.approx(7.087e-10, rel=1e-3)
    # Re alpha sets a homodyne mean, |alpha| a heterodyne one
    corner = default_sweep_config(alphas=(complex(1e6, 1e6),))
    assert _tv_floor(corner) == pytest.approx(7.087e-10, rel=1e-3)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("amplitude", [0.0, 100.0, 1e3, 1e6])
def test_faithful_sweep_passes_at_the_tv_floor(kind, amplitude):
    config = default_sweep_config(
        alphas=default_alpha_grid((amplitude,)), specs=default_spec_grid(kinds=(kind,))
    )
    floor = _tv_floor(config)
    for tv_tol in (floor, math.nextafter(floor, math.inf)):
        report = analytic_sweep(replace(config, tv_tol=tv_tol))
        assert report.passed and report.n_rejections == 0
        assert report.worst_tv <= floor / 2
    below = math.nextafter(floor, 0.0)
    message = f"^tv_tol {re.escape(repr(below))} is below .* floor {re.escape(repr(floor))}$"
    with pytest.raises(ValueError, match=message):
        analytic_sweep(replace(config, tv_tol=below))


@pytest.mark.parametrize(
    "sabotage, rejections", [("none", 0), ("skip-rescale", 768), ("scale-r", 1024)]
)
def test_sabotage_rejection_counts_at_default_tolerances(sabotage, rejections):
    assert analytic_sweep(default_sweep_config(sabotage=sabotage)).n_rejections == rejections


def test_sweep_config_rejects_non_finite_inputs_and_oversized_samples():
    for name in ("param_tol", "tv_tol"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                small_config(**{name: bad})
    for alpha in (complex(math.inf, 0.0), complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            small_config(alphas=(1.0, alpha))
    assert small_config(mc_samples=MAX_MC_SAMPLES).mc_samples == MAX_MC_SAMPLES
    # a config file may hold any JSON number, 1e400 included
    for bad in (MAX_MC_SAMPLES + 1, math.inf, math.nan):
        with pytest.raises(ValueError, match="between 0 and"):
            small_config(mc_samples=bad)


@pytest.mark.parametrize("name", ["seed", "mc_samples"])
def test_sweep_config_counts_are_non_negative_integers(name):
    for bad in (1.5, 2.0, -1, True, math.inf, "3"):
        with pytest.raises(ValueError, match=name):
            small_config(**{name: bad})
    value = getattr(small_config(**{name: np.int64(7)}), name)
    assert value == 7 and type(value) is int


def test_sweep_config_json_roundtrip():
    config = small_config(mc_samples=10**4, seed=3, sabotage="scale-r")
    data = config.to_json_dict()
    assert data["schema"] == "cvtrust/verify-config/1"
    back = SweepConfig.from_json_dict(data)
    assert back.alphas == config.alphas
    assert back.specs == config.specs
    assert back.seed == 3
    assert back.sabotage == "scale-r"


def test_sweep_config_mode_is_a_field_that_names_a_sweep():
    assert small_config().mode == "analytic"
    assert SweepConfig.from_json_dict(small_config(mode="mc").to_json_dict()).mode == "mc"
    for mode in ("quantum", [], None):
        with pytest.raises(ValueError, match=r"^mode must be 'analytic' or 'mc', got "):
            small_config(mode=mode)
    # A sweep called directly echoes its own mode, whatever the config's.
    assert analytic_sweep(small_config(mode="mc")).to_json_dict()["config"]["mode"] == "analytic"


@pytest.mark.parametrize(
    "sweep, mode, other", [(analytic_sweep, "analytic", "mc"), (monte_carlo_sweep, "mc", "analytic")]
)
def test_a_report_is_its_config_at_the_sweeps_mode_and_its_cells(sweep, mode, other):
    config = small_config(mode=other, mc_samples=10**4)
    report = sweep(config)
    assert [f.name for f in fields(report)] == ["config", "cells"]
    assert report.config.mode == mode
    assert report.config.to_json_dict() == {**config.to_json_dict(), "mode": mode}
    data = report.to_json_dict()
    assert data["mode"] == mode
    assert data["config"] == report.config.to_json_dict()


def test_sweep_config_rejects_unknown_keys_and_schema():
    data = small_config().to_json_dict()
    data["extra"] = 1
    with pytest.raises(ValueError):
        SweepConfig.from_json_dict(data)
    data = small_config().to_json_dict()
    data["schema"] = "cvtrust/verify-config/2"
    with pytest.raises(ValueError):
        SweepConfig.from_json_dict(data)


def test_analytic_sweep_full_grid_passes():
    report = analytic_sweep(default_sweep_config())
    assert report.passed
    assert report.config.mode == "analytic"
    assert len(report.cells) == 1024
    assert report.worst_mean_gap <= 1e-14
    assert report.worst_var_gap <= 1e-14
    assert report.worst_tv <= 1e-14
    assert report.n_rejections == 0


def test_analytic_sweep_noiseless_cells_are_exact():
    report = analytic_sweep(default_sweep_config())
    noiseless = [c for c in report.cells if c.spec.nbar == 0.0]
    assert len(noiseless) == 256
    for cell in noiseless:
        assert cell.mean_gap == 0.0
        assert cell.var_gap == 0.0
        assert cell.tv_estimate == 0.0


def test_analytic_sweep_detects_skipped_rescale():
    report = analytic_sweep(small_config(sabotage="skip-rescale"))
    assert not report.passed
    assert report.n_rejections == report.config.n_cells
    assert report.worst_var_gap > 1e-3


def test_analytic_sweep_detects_inflated_r():
    report = analytic_sweep(small_config(sabotage="scale-r"))
    assert not report.passed
    # a 1 percent error in r shows up as roughly 2 percent in variance
    assert 0.01 < report.worst_var_gap < 0.05


def test_analytic_sweep_is_deterministic():
    a = analytic_sweep(small_config())
    b = analytic_sweep(small_config())
    assert a.to_csv_text() == b.to_csv_text()


def test_report_csv_contract():
    report = analytic_sweep(small_config())
    lines = report.to_csv_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + report.config.n_cells
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert first[2] in (HOMODYNE, HETERODYNE)
    # analytic sweeps carry no KS statistic
    assert first[7] == ""
    assert first[8] in ("true", "false")
    # float fields round-trip through repr
    assert float(first[5]) == report.cells[0].mean_gap


def test_report_json_summary():
    report = analytic_sweep(small_config())
    data = report.to_json_dict()
    assert data["schema"] == "cvtrust/verify-report/1"
    assert data["summary"]["cells"] == 16
    assert data["summary"]["rejections"] == 0
    assert data["summary"]["passed"] is True
    assert data["summary"]["max_ks_stat"] is None
    assert len(data["cells"]) == 16
    assert data["cells"][0]["pass"] is True


def _csv_writer_text(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for c in report.cells:
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


@pytest.mark.parametrize(
    "sweep, config",
    [
        (analytic_sweep, default_sweep_config()),
        (analytic_sweep, default_sweep_config(sabotage="skip-rescale")),
        (monte_carlo_sweep, reduced_mc_config(seed=4, mc_samples=10**4)),
        (monte_carlo_sweep, reduced_mc_config(seed=4, mc_samples=10**4, sabotage="skip-rescale")),
    ],
    ids=["analytic", "analytic-skip-rescale", "mc-1e4", "mc-1e4-skip-rescale"],
)
def test_one_pass_reports_equal_the_json_writer_and_csv_writer_forms(sweep, config):
    report = sweep(config)
    json_report, csv_report = report_texts(report)
    assert json_report == json_text(report.to_json_dict())
    assert csv_report == report.to_csv_text() == _csv_writer_text(report)
    assert report.to_json_dict()["config"]["mode"] == report.config.mode
    if report.config.mode == "analytic":
        # The default grid has both signs of zero among its alpha parts.
        parts = [x for a in config.alphas for x in (a.real, a.imag)]
        assert {math.copysign(1.0, x) for x in parts if x == 0.0} == {1.0, -1.0}
        assert all(c.ks_statistic is None for c in report.cells)
    else:
        assert all(c.ks_statistic is not None for c in report.cells)
    assert report.passed == (config.sabotage == "none")


def test_a_reports_verdict_is_that_of_its_cells():
    report = analytic_sweep(small_config())
    assert report.passed
    failed = replace(report, cells=(report.cells[0]._replace(passed=False), *report.cells[1:]))
    assert not failed.passed and failed.n_rejections == 1
    assert failed.to_json_dict()["summary"]["passed"] is False


@pytest.mark.parametrize(
    "field", ["mean_gap", "var_gap", "tv_estimate", "ks_statistic", "ks_pvalue"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_one_pass_reports_refuse_non_finite_values_as_json_text_does(field, value):
    report = analytic_sweep(small_config())
    cells = (report.cells[0]._replace(**{field: value}), *report.cells[1:])
    report = replace(report, cells=cells)
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_text(report.to_json_dict())
    with pytest.raises(ValueError, match="not JSON compliant"):
        report_texts(report)


def _gaussian(mean, var):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return OutcomeDensity(mean, var)


def _tv_by_quadrature(m1, v1, m2, v2, n):
    """Half the trapezoid integral of |p1 - p2| over a 10-sigma box."""
    m1, m2 = np.atleast_1d(m1).astype(float), np.atleast_1d(m2).astype(float)
    sd = math.sqrt(max(v1, v2))
    axes = [
        np.linspace(min(a, b) - 10 * sd, max(a, b) + 10 * sd, n) for a, b in zip(m1, m2)
    ]
    grids = np.meshgrid(*axes, indexing="ij")

    def pdf(m, v):
        r2 = sum((g - c) ** 2 for g, c in zip(grids, m))
        return np.exp(-r2 / (2 * v)) / (2 * math.pi * v) ** (len(m) / 2)

    diff = np.abs(pdf(m1, v1) - pdf(m2, v2))
    for axis in reversed(axes):
        diff = np.trapezoid(diff, axis, axis=-1)
    return 0.5 * float(diff)


@pytest.mark.parametrize(
    "m1, v1, m2, v2",
    [
        (0.0, 0.25, 0.3, 0.25),
        (0.0, 0.25, 0.3, 0.3),
        (1.0, 0.25, 0.2, 0.5),
        (2.0, 0.3, -1.0, 0.31),
        (0.0, 1.0, 0.0, 1.5),
    ],
)
def test_tv_distance_matches_fine_quadrature_1d(m1, v1, m2, v2):
    tv = _tv_distance(_gaussian(m1, v1), _gaussian(m2, v2))
    assert 0.0 <= tv <= 1.0
    assert tv == pytest.approx(_tv_by_quadrature(m1, v1, m2, v2, 200_001), abs=1e-9)
    assert _tv_distance(_gaussian(m2, v2), _gaussian(m1, v1)) == tv


@pytest.mark.parametrize(
    "m1, v1, m2, v2",
    [
        ((0.0, 0.0), 0.5, (0.3, 0.1), 0.5),
        ((0.0, 0.0), 0.5, (0.3, 0.1), 0.6),
        ((1.0, -1.0), 0.5, (0.2, 0.4), 1.0),
        # variance gap much smaller than the mean gap: the wide-disk route
        ((0.0, 0.0), 0.5, (0.2, 0.1), 0.505),
    ],
)
def test_tv_distance_matches_fine_quadrature_2d(m1, v1, m2, v2):
    tv = _tv_distance(_gaussian(m1, v1), _gaussian(m2, v2))
    assert 0.0 <= tv <= 1.0
    # the 1601^2 trapezoid rule itself is only good to a few 1e-7 here
    assert tv == pytest.approx(_tv_by_quadrature(m1, v1, m2, v2, 1601), abs=1e-6)


def test_tv_distance_closed_form_anchors():
    # concentric isotropic 2-d pair with variances 1 and 3/2: the densities
    # cross where r^2 = 6 log(3/2), so TV = (2/3)^2 - (2/3)^3 = 4/27
    tv = _tv_distance(_gaussian((0.0, 0.0), 1.0), _gaussian((0.0, 0.0), 1.5))
    assert tv == pytest.approx(4 / 27, abs=1e-15)
    tv = _tv_distance(_gaussian((0.0, 0.0), 0.5), _gaussian((0.3, 0.4), 0.5))
    assert tv == math.erf(0.5 / (2 * math.sqrt(2 * 0.5)))
    assert _tv_distance(_gaussian(1.0, 0.5), _gaussian(1.0, 0.5)) == 0.0


def test_tv_distance_near_equal_variances_obeys_triangle_bracket():
    # A variance gap of a few ulp next to a visible mean gap: the exact TV
    # lies within TV(variance only) of TV(mean only), both closed forms.
    for shift in (1e-12, 1e-8, 1e-3, 0.1, 1.0):
        v = 0.5
        v2 = v * (1 + 2.2e-16)
        tv = _tv_distance(_gaussian((0.0, 0.0), v), _gaussian((shift, 0.0), v2))
        mean_only = math.erf(shift / (2 * math.sqrt(2 * v2)))
        var_only = _tv_distance(_gaussian((0.0, 0.0), v), _gaussian((0.0, 0.0), v2))
        assert abs(tv - mean_only) <= var_only + 1e-16 * (1 + mean_only)


def test_tv_distance_far_apart_and_unsupported_shapes():
    assert _tv_distance(_gaussian(0.0, 0.25), _gaussian(50.0, 0.25)) == 1.0
    huge = _tv_distance(_gaussian((1e200, 0.0), 0.5), _gaussian((0.0, 1e200), 0.5001))
    assert huge == 1.0


def test_disk_mass_equals_ncx2_cdf_bit_for_bit():
    # The small-disk route evaluates x up to (1.5 s h)^2, about 499 s^2 for
    # the largest Hermite node h, and nc up to x; both reach 0 exactly.
    rng = np.random.default_rng(21)
    uniform = rng.uniform(0.0, 1000.0, (2, 20_000))
    tiny = 10.0 ** rng.uniform(-300.0, 3.0, (2, 10_000))
    x = np.concatenate([uniform[0], tiny[0], np.zeros(200), uniform[0, :1000]])
    nc = np.concatenate([uniform[1], tiny[1], rng.uniform(0.0, 50.0, 200), np.zeros(1000)])
    assert np.array_equal(_disk_mass(x, nc), ncx2.cdf(x, 2, nc))


def _per_cell_reference(config):
    """The analytic sweep one cell at a time, from the public per-cell functions."""
    cells = []
    for spec in config.specs:
        plan = rescale_plan(spec)
        r_used = {"none": plan.r, "skip-rescale": 1.0, "scale-r": plan.r * 1.01}
        for alpha in config.alphas:
            state = coherent_state(alpha)
            noisy = noisy_measurement_density(state, spec)
            lossy = rescaled_lossy_density(state, spec.kind, plan.eta_e, r_used[config.sabotage])
            mean_gap = max(
                0.0 if x == y else float(abs(x - y)) / max(1.0, abs(x), abs(y))
                for x, y in zip(noisy.mean, lossy.mean)
            )
            v, w = noisy.variance, lossy.variance
            var_gap = 0.0 if v == w else abs(v - w) / max(v, w)
            tv = _tv_distance(noisy, lossy)
            passed = max(mean_gap, var_gap) <= config.param_tol and tv <= config.tv_tol
            cells.append(CellResult(alpha, spec, mean_gap, var_gap, tv_estimate=tv, passed=passed))
    return cells


@pytest.mark.parametrize("sabotage", SABOTAGE_MODES)
@pytest.mark.parametrize("amplitudes", [(0.0, 1.0, 3.0, 5.0), (0.0, 1e-9, 1e3, 1e6)])
def test_analytic_sweep_equals_its_per_cell_reference(monkeypatch, sabotage, amplitudes):
    # With 32 amplitudes per spec, only the wide-disk route's chord masses
    # reach _normal_mass as arrays over the 64 Gauss-Hermite nodes.
    sizes = []
    normal_mass = equivalence._normal_mass
    monkeypatch.setattr(
        equivalence, "_normal_mass", lambda lo, hi: sizes.append(lo.size) or normal_mass(lo, hi)
    )
    config = default_sweep_config(alphas=default_alpha_grid(amplitudes), sabotage=sabotage)
    report = analytic_sweep(config)
    if amplitudes[-1] == 1e6:
        # the large amplitudes reach the wide-disk route, and sabotage the far one
        assert 64 in sizes
        assert (sabotage == "none") != any(c.tv_estimate == 1.0 for c in report.cells)
    reference = _per_cell_reference(config)
    assert len(report.cells) == len(reference) == 1024
    for got, want in zip(report.cells, reference):
        assert got == want
        assert all(type(getattr(got, f)) is float for f in ("mean_gap", "var_gap", "tv_estimate"))


@pytest.mark.parametrize("sabotage", SABOTAGE_MODES)
def test_a_sabotage_mode_changes_only_the_scale_of_each_pair(sabotage):
    config = default_sweep_config(sabotage=sabotage)
    faithful = list(equivalence._pairs(replace(config, sabotage="none")))
    pairs = list(equivalence._pairs(config))
    assert len(pairs) == len(faithful) == len(config.specs)
    for pair, want, spec in zip(pairs, faithful, config.specs):
        assert pair.spec == want.spec == spec
        for got, density in ((pair.left, want.left), (pair.right, want.right)):
            assert got.mean.tobytes() == density.mean.tobytes()
            assert got.variance.hex() == density.variance.hex()
        plan = rescale_plan(spec)
        r_used = {"none": plan.r, "skip-rescale": 1.0, "scale-r": plan.r * 1.01}
        assert pair.scale.hex() == r_used[sabotage].hex()


@pytest.mark.parametrize("decimals", [None, 2])
def test_merge_rank_ks_matches_scipy_in_asymptotic_regime(decimals):
    rng = np.random.default_rng(11)
    xs = rng.standard_normal(20_000)
    ys = 1.02 * rng.standard_normal(20_000) + 0.01
    if decimals is not None:
        # ties within and across the samples
        xs, ys = np.round(xs, decimals), np.round(ys, decimals)
    # the last pair shares two draws, copied: _ks_cell sorts its samples in place
    for a, b in ((xs, ys), (ys, xs), (xs[:10_001].copy(), xs[-10_001:][::-1].copy())):
        expected = ks_2samp(a, b)
        assert _ks_cell([(a, b)]) == (expected.statistic, expected.pvalue)


def test_merge_rank_ks_keeps_exact_pvalues_up_to_1e4():
    rng = np.random.default_rng(12)
    for decimals in (None, 1):
        for n, shift in ((10_000, 0.0), (10_000, 0.05), (9_000, 0.0)):
            xs, ys = rng.standard_normal(n), rng.standard_normal(n) + shift
            if decimals is not None:
                # ties within and across the samples
                xs, ys = np.round(xs, decimals), np.round(ys, decimals)
            expected = ks_2samp(xs, ys)
            assert _ks_cell([(xs, ys)]) == (expected.statistic, expected.pvalue)


@pytest.mark.parametrize("n1, n2", [(10_000, 9_000), (20_001, 20_000), (50, 1), (1, 50)])
def test_ks_cell_refuses_unequal_sample_sizes(n1, n2):
    # A sweep draws the same number from both models; other sizes raise
    # rather than give a statistic, a one-draw sample too.
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError):
        _ks_cell([(rng.standard_normal(n1), rng.standard_normal(n2))])


@pytest.mark.parametrize("n", [10_003, 20_003])
def test_ks_cell_at_odd_sizes_takes_the_half_even_tail_size(n):
    # ks_2samp's asymptotic tail is kstwo.sf(d, round(n / 2)), rounded half
    # to even: 5,002 and 10,002 here, one more than n // 2.
    assert round(n / 2) == n // 2 + 1
    rng = np.random.default_rng(n)
    for shift in (0.0, 0.02, 0.05):
        xs, ys = rng.standard_normal(n), rng.standard_normal(n) + shift
        expected = ks_2samp(xs, ys)
        assert _ks_cell([(xs, ys)]) == (expected.statistic, expected.pvalue)


@pytest.mark.parametrize("n", [1_000, 10_000, 20_001])
def test_ks_cell_matches_ks_2samp_on_tied_integer_samples(n):
    # Integer draws tie within each sample and across the two, so the
    # lowest level of F_x - F_y sits just below an x that some y equals:
    # there the statistic takes its levels from a left-sided search.  Sizes
    # on the exact route and on the asymptotic one.
    rng = np.random.default_rng(n)
    for trials, p_x, p_y in ((3, 0.5, 0.5), (12, 0.5, 0.52), (60, 0.5, 0.5)):
        xs = rng.binomial(trials, p_x, n).astype(float)
        ys = rng.binomial(trials, p_y, n).astype(float)
        for a, b in ((xs, ys), (ys, xs)):
            expected = ks_2samp(a, b)
            assert _ks_cell([(a, b)]) == (expected.statistic, expected.pvalue)


def _ks_edge_pairs():
    rng = np.random.default_rng(13)
    xs, big = rng.standard_normal(50), rng.standard_normal(60_001)
    exact = {
        "all-equal": (np.full(50, 0.25), np.full(50, 0.25)),
        "reversed-copy": (xs, xs[::-1].copy()),
        "disjoint": (xs, xs + 100.0),
        "one-draw-each": (np.array([0.5]), np.array([-0.5])),
        "one-equal-draw-each": (np.array([0.5]), np.array([0.5])),
    }
    # odd sizes above the exact regime
    asymptotic = {
        "all-equal": (np.full(50_003, -1.0), np.full(50_003, -1.0)),
        "reversed-copy": (big, big[::-1].copy()),
        "disjoint": (big[:50_003] - 100.0, big[-50_003:]),
        "ties-across": (np.round(big[:50_003]), np.round(big[-50_003:] * 1.1 + 0.1)),
    }
    return [
        pytest.param(*pair, id=f"{route}-{name}")
        for route, pairs in (("exact", exact), ("asymptotic", asymptotic))
        for name, pair in pairs.items()
    ]


@pytest.mark.parametrize("xs, ys", _ks_edge_pairs())
def test_merge_rank_ks_matches_ks_2samp_on_edge_cases(xs, ys):
    # all values equal and a reversed copy (D = 0), disjoint supports (D = 1),
    # one draw per sample, and ties across the samples
    for a, b in ((xs, ys), (ys, xs)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = ks_2samp(a, b)
        assert _ks_cell([(a, b)]) == (expected.statistic, expected.pvalue)


def test_exact_pvalue_equals_the_untruncated_series():
    def untruncated(n, h):
        # scipy's _compute_prob_outside_square: every k from n // h down to 0
        P = 0.0
        for k in range(n // h, -1, -1):
            p1 = 1.0
            for j in range(h):
                p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
            P = p1 * (1.0 - P)
        return 2 * P

    cases = [(n, h) for n in range(1, 201) for h in range(1, n + 1)]
    cases += [(10_000, h) for h in (*range(1, 201), *range(250, 10_001, 50))]
    for n, h in cases:
        assert equivalence._exact_pvalue(n, h).hex() == untruncated(n, h).hex(), (n, h)


@pytest.mark.parametrize(
    "n, offset, h, above_1",
    [
        (10_000, 0.0, 0, False),
        (10_000, 0.5, 1, True),
        (10_000, 1.5, 2, False),
        (10_000, 2.5, 3, True),
    ],
)
def test_ks_cell_matches_ks_2samp_at_the_smallest_statistics(n, offset, h, above_1):
    # h = 0 gives p = 1 without the series.  Where the series exceeds 1,
    # both fall back to the asymptotic tail.
    xs = np.arange(n, dtype=float)
    ys = xs + offset
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = ks_2samp(xs, ys)
    assert round(expected.statistic * n) == h
    if h:
        assert (equivalence._exact_pvalue(n, h) > 1.0) == above_1
    assert _ks_cell([(xs, ys)]) == (expected.statistic, expected.pvalue)


@pytest.mark.parametrize("r_used", ["faithful", 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ks_cell_single_tail_call_equals_two_call_minimum(seed, r_used):
    # A heterodyne cell as the Monte Carlo sweep builds it, above the exact
    # regime and at its edge, faithful and with the rescale skipped (tail
    # p-values).
    spec = DetectorSpec.from_noise_product(HETERODYNE, 0.7, nu=0.2)
    plan = rescale_plan(spec)
    state = coherent_state(3.0 + 1.0j)
    r = plan.r if r_used == "faithful" else r_used
    for n in (20_001, 10_000):
        a = sample_outcomes(noisy_measurement_density(state, spec), n, seed, 0) / r
        b = sample_outcomes(
            rescaled_lossy_density(state, HETERODYNE, plan.eta_e, 1.0), n, seed, 1
        )
        assert a.shape == b.shape == (2, n)
        pairs = [(a[0], b[0]), (a[1], b[1])]
        per_component = [ks_2samp(xs, ys) for xs, ys in pairs]
        expected = (
            max(stat for stat, _ in per_component),
            min(1.0, 2 * min(p for _, p in per_component)),
        )
        assert _ks_cell(pairs) == expected


def _blocked_ks_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two samples of size n whose KS levels swing from about -530 to 930 once per KS block.

    The xs come in tied pairs, one pair across each block's end, and the
    ys equal x values wherever the levels fall, so ties meet the lowest
    level.  At each extreme the float difference is a last bit larger in
    the first block than in the second.
    """
    block = equivalence._KS_BLOCK
    xs = ((np.arange(n) + 1) // 2).astype(float)
    v = np.arange(xs[-1] + 1)
    # group v holds xs 2v - 1 and 2v, the larger of whose levels is swing
    phase = 4 * np.pi * v / block
    swing = np.round(700 * np.sin(phase) + 200 * (1 - np.cos(phase)))
    ys = np.repeat(v, np.diff(2 * v - swing, prepend=0).astype(int))
    return xs, np.concatenate([ys, np.full(n - len(ys), v[-1] + 0.5)])


def test_ks_cell_counts_levels_across_blocks():
    # Above two blocks, each extreme level of F_x - F_y is reached in two
    # blocks, a tie straddles a block's end, and ys equal the xs at the
    # lowest level, so the left-sided search runs block by block too.  The
    # top decides one argument order, the bottom the other.
    block = equivalence._KS_BLOCK
    n = 2 * block + 3
    xs, ys = _blocked_ks_pair(n)
    assert xs[block - 1] == xs[block] and (ys == xs[block]).any()
    for a, b in ((xs, ys), (ys, xs)):
        sorted_a, sorted_b = np.sort(a), np.sort(b)
        level = np.arange(n) - np.searchsorted(sorted_b, sorted_a, side="right")
        for extreme in (level.max(), level.min()):
            assert len(set(np.flatnonzero(level == extreme) // block)) == 2
        bottom = level.min()
        at = np.flatnonzero(level == bottom)
        assert (sorted_b[at - bottom - 1] == sorted_a[at]).any()
        expected = ks_2samp(a, b)
        assert _ks_cell([(a.copy(), b.copy())]) == (expected.statistic, expected.pvalue)


def _kstwo_branch(d: float, n: int) -> str:
    """Which of kstwo_sf's branches P(D_n >= d) takes, by scipy's thresholds."""
    x = np.asarray(d)
    t = n * x
    if x >= 1.0:
        return "d >= 1"
    if t <= 0.5:
        return "n d <= 1/2"
    if t <= 1.0:
        return "Ruben-Gambino, n d <= 1"
    if t >= n - 1:
        return "Ruben-Gambino, n d >= n - 1"
    if x >= 0.5 or 2.2 <= t * x < 370.0:
        return "smirnov"
    if t * x >= 370.0:
        return "n d^2 >= 370"
    if n <= 100_000 and n * x**1.5 <= 1.4:
        return "Durbin matrix"
    return "Pelz-Good"


def test_kstwo_sf_equals_scipy_bit_for_bit(monkeypatch):
    # kstail against scipy's kstwo.sf at 2,640 points: every threshold of
    # its branches, each with its two float neighbours, and 300 log-uniform
    # points per n.  scipy's values are frozen in kstwo_table.json, with the
    # smirnov values that kstail asks for on its smirnov branch, whose O(n)
    # sum would dominate the time; the threshold points are also checked
    # against the installed scipy.
    from scipy.stats import kstwo

    from cvtrust import kstail

    table = json.loads(kstwo_table.TABLE.read_text())
    versions = (
        f"kstwo_table.json recorded with numpy {table['numpy']}, scipy {table['scipy']}; "
        f"running numpy {np.__version__}, scipy {scipy.__version__}"
    )
    points = kstwo_table.points()
    assert [(n, d.hex()) for n, d in points] == [(n, d) for n, d, _ in table["kstwo_sf"]]
    smirnov_values = {(n, x): v for n, x, v in table["smirnov"]}

    def recorded_smirnov(n, x):
        key = (int(n), float(x).hex())
        assert key in smirnov_values, f"smirnov{key} is not in kstwo_table.json ({versions})"
        return float.fromhex(smirnov_values[key])

    monkeypatch.setattr(kstail, "smirnov", recorded_smirnov)
    branches = set()
    for (n, d), (_, _, want) in zip(points, table["kstwo_sf"]):
        assert kstail.kstwo_sf(d, n).hex() == want, (d, n, versions)
        branches.add(_kstwo_branch(d, n))
    assert len(branches) == 8, branches
    sf = {(n, d): want for n, d, want in table["kstwo_sf"]}
    for n in kstwo_table.SIZES:
        for d in kstwo_table.threshold_points(n):
            live = float(np.clip(kstwo.sf(d, n), 0.0, 1.0))
            assert live.hex() == sf[n, d.hex()], (d, n, versions)
    with pytest.raises(ValueError, match="n > 140"):
        kstail.kstwo_sf(0.1, 140)


def _grid_kolmogorov(m1, v1, m2, v2):
    # sup |F1 - F2| of two normal laws on 200,001 points, ten standard
    # deviations past both means; the grid's sup is at most the true one.
    from scipy.special import ndtr

    s1, s2 = math.sqrt(v1), math.sqrt(v2)
    width = 10.0 * max(s1, s2)
    x = np.linspace(min(m1, m2) - width, max(m1, m2) + width, 200_001)
    return float(np.max(np.abs(ndtr((x - m1) / s1) - ndtr((x - m2) / s2))))


def test_skip_rescale_kolmogorov_distance_matches_a_grid_estimate():
    # Every component of every cell, against a skipped rescale, plus laws
    # with the wider one first and with equal variances.
    config = SweepConfig(
        alphas=default_alpha_grid((0.0, 1.0, 5.0), 3),
        specs=default_spec_grid((0.5, 0.9), (0.0, 1e-3, 1e-1)),
        sabotage="skip-rescale",
    )
    xy = np.array([(a.real, a.imag) for a in config.alphas])
    rows = []
    for pair in equivalence._pairs(config):
        m1, v1, m2, v2 = equivalence._laws(pair, xy)
        rows += [(m1[:, c], v1, m2[:, c], v2) for c in range(pair.left.ndim)]
    rows += [
        (np.array([0.0, 0.5, -3.0]), 1.0, np.array([0.0, 0.0, 0.0]), 1.0),
        (np.array([0.0, 0.5, -3.0]), 2.0, np.array([0.3, 0.0, 0.0]), 0.25),
    ]
    for m1, v1, m2, v2 in rows:
        closed = equivalence._kolmogorov_rows(m1, v1, m2, v2)
        grid = np.array([_grid_kolmogorov(a, v1, b, v2) for a, b in zip(m1, m2)])
        assert np.all(closed - grid >= -1e-15) and np.all(closed - grid <= 1e-8)


def test_skip_rescale_draws_reach_the_critical_value_of_holms_first_step():
    # One homodyne cell: its two sides, N(sqrt(eta_d) alpha, 1/4 + nu/2)
    # and N(sqrt(eta_d) alpha / r, 1/4), reach sqrt(log(2 / level) / n) at
    # n = log(2 / level) / D^2, with level = ks_alpha / cells.
    spec = DetectorSpec.from_noise_product(HOMODYNE, 0.9, nu=1e-3)
    config = SweepConfig(alphas=(3.0,), specs=(spec,), ks_alpha=0.01)
    mean, r = math.sqrt(0.9) * 3.0, rescale_plan(spec).r
    distance = _grid_kolmogorov(mean, 0.25 + 1e-3 / 2, mean / r, 0.25)
    assert skip_rescale_draws(config) == pytest.approx(math.log(200.0) / distance**2, rel=1e-6)
    # With every r = 1 a skipped rescale changes nothing.
    assert skip_rescale_draws(replace(config, specs=default_spec_grid(nus=(0.0,)))) is None
    # The default grid, and eta_d 0.7 at nu = 1e-2, detect it below 10^4
    # draws; eta_d 0.9 needs about 7e5 at nu = 1e-3, and more than
    # MAX_MC_SAMPLES at nu = 1e-4.
    assert skip_rescale_draws(default_sweep_config()) < 10**4
    draws = [
        skip_rescale_draws(default_sweep_config(specs=default_spec_grid((eta_d,), (nu,))))
        for eta_d, nu in ((0.7, 1e-2), (0.9, 1e-3), (0.9, 1e-4))
    ]
    assert draws[0] < 10**4 < 5e5 < draws[1] < 1e6 < MAX_MC_SAMPLES < draws[2]


def test_holm_rejections_step_down():
    assert holm_rejections([0.001, 0.02, 0.04, 0.5], 0.05) == {0}
    assert holm_rejections([0.001, 0.01, 0.02, 0.5], 0.05) == {0, 1, 2}
    assert holm_rejections([0.9, 0.8], 0.05) == set()
    assert holm_rejections([1e-9, 1e-9, 1e-9], 0.05) == {0, 1, 2}
    assert holm_rejections([], 0.05) == set()


def test_holm_is_at_least_as_powerful_as_bonferroni():
    rng = np.random.default_rng(1)
    pvals = list(rng.uniform(0, 1, 20))
    pvals[3] = 1e-6
    bonferroni = {i for i, p in enumerate(pvals) if p <= 0.05 / len(pvals)}
    assert bonferroni <= holm_rejections(pvals, 0.05)


def test_monte_carlo_sweep_requires_enough_samples():
    with pytest.raises(ValueError):
        monte_carlo_sweep(small_config(mc_samples=100))


def test_monte_carlo_sweep_passes_on_faithful_models():
    report = monte_carlo_sweep(reduced_mc_config(seed=0, mc_samples=10**5))
    assert report.passed
    assert report.config.mode == "mc"
    assert report.n_rejections == 0
    stats = [c.ks_statistic for c in report.cells]
    assert all(s is not None for s in stats)
    assert max(stats) < 0.01


def test_monte_carlo_sweep_detects_skipped_rescale():
    report = monte_carlo_sweep(
        reduced_mc_config(seed=0, mc_samples=10**5, sabotage="skip-rescale")
    )
    assert not report.passed
    assert report.n_rejections > 0
    assert max(c.ks_statistic for c in report.cells) > 0.01


def test_monte_carlo_sweep_is_deterministic():
    config = small_config(mc_samples=10**4, seed=9)
    a = monte_carlo_sweep(config)
    b = monte_carlo_sweep(config)
    assert a.to_csv_text() == b.to_csv_text()
    assert a.to_json_dict() == b.to_json_dict()


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(equivalence, "_mc_workers", lambda n_cells: workers)


@pytest.mark.parametrize("sabotage", ["none", "skip-rescale"])
@pytest.mark.parametrize("seed", [0, 7])
def test_monte_carlo_reports_are_the_same_bytes_in_one_process_and_in_a_pool(
    monkeypatch, tmp_path, seed, sabotage
):
    config = reduced_mc_config(seed=seed, mc_samples=10**4, sabotage=sabotage)
    draw = equivalence.sample_outcomes
    pids = tmp_path / "pids"

    def recorded_draw(*args, **kwargs):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return draw(*args, **kwargs)

    monkeypatch.setattr(equivalence, "sample_outcomes", recorded_draw)
    texts = {}
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        pids.write_text("")
        report = monte_carlo_sweep(config)
        texts[workers] = (json_text(report.to_json_dict()), report.to_csv_text())
        drawn_in = set(pids.read_text().split())
        if workers == 1:
            assert drawn_in == {str(os.getpid())}
        else:
            assert drawn_in and str(os.getpid()) not in drawn_in
    assert texts[1] == texts[2]
    assert (report.n_rejections > 0) == (sabotage == "skip-rescale")


@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_cell_errors_reach_the_caller(monkeypatch, workers):
    def broken_draw(*args, **kwargs):
        raise FloatingPointError(f"draw failed in {os.getpid()}")

    monkeypatch.setattr(equivalence, "sample_outcomes", broken_draw)
    _force_workers(monkeypatch, workers)
    with pytest.raises(FloatingPointError, match="draw failed") as info:
        monte_carlo_sweep(reduced_mc_config(mc_samples=10**4))
    raised_here = str(info.value) == f"draw failed in {os.getpid()}"
    assert raised_here == (workers == 1)


def _mc_reference_cell(config, index, alpha, spec):
    """One Monte Carlo cell's two densities and two samples, from the public per-cell chain."""
    plan = rescale_plan(spec)
    r_used = {"none": plan.r, "skip-rescale": 1.0, "scale-r": plan.r * 1.01}[config.sabotage]
    state = coherent_state(alpha)
    noisy = noisy_measurement_density(state, spec)
    lossy = rescaled_lossy_density(state, spec.kind, plan.eta_e, 1.0)
    n, seed = config.mc_samples, config.seed
    a = (1.0 / r_used) * sample_outcomes(noisy, n, seed, 2 * index)
    b = sample_outcomes(lossy, n, seed, 2 * index + 1)
    assert a.shape == b.shape == (noisy.ndim, n)
    return (noisy, lossy), (a, b)


@pytest.mark.parametrize("sabotage", SABOTAGE_MODES)
def test_monte_carlo_cells_equal_their_per_cell_reference(monkeypatch, sabotage):
    # Both kinds; three phases put -0.0 into some zero-amplitude means.
    config = SweepConfig(
        alphas=default_alpha_grid((0.0, 1e-9, 3.0, 1e6), 3),
        specs=default_spec_grid((0.7,), (1e-2,)),
        mc_samples=10**4,
        seed=4,
        sabotage=sabotage,
    )
    densities, samples = [], []
    draw, ks_cell = equivalence.sample_outcomes, equivalence._ks_cell
    monkeypatch.setattr(
        equivalence, "sample_outcomes", lambda d, *args: densities.append(d) or draw(d, *args)
    )
    # _ks_cell sorts the samples in place: record them as drawn.
    monkeypatch.setattr(
        equivalence,
        "_ks_cell",
        lambda pairs: samples.append([(x.copy(), y.copy()) for x, y in pairs]) or ks_cell(pairs),
    )
    _force_workers(monkeypatch, 1)
    monte_carlo_sweep(config)
    cells = [(alpha, spec) for spec in config.specs for alpha in config.alphas]
    assert len(samples) == len(cells) == 24
    for index, (alpha, spec) in enumerate(cells):
        want_densities, want_samples = _mc_reference_cell(config, index, alpha, spec)
        for got, want in zip(densities[2 * index : 2 * index + 2], want_densities):
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.variance.hex() == want.variance.hex()
        for got, want in zip(zip(*samples[index]), want_samples):
            assert np.stack(got).tobytes() == want.tobytes()


_CELL_PEAK_PROBE = """
import multiprocessing, resource, sys
import scipy.special  # loaded before the fork, as monte_carlo_sweep does
from cvtrust import equivalence
from cvtrust.detectors import DetectorSpec

def run(config, cell, queue):
    start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    equivalence._mc_cell(config, cell)
    queue.put(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - start)

kind, n = sys.argv[1], int(sys.argv[2])
spec = DetectorSpec.from_noise_product(kind, 0.7, nu=1e-2)
config = equivalence.SweepConfig(alphas=(3.0,), specs=(spec,), mc_samples=n)
cell = (0, (next(equivalence._pairs(config)), config.alphas[0]))
context = multiprocessing.get_context("fork")
queue = context.Queue()
child = context.Process(target=run, args=(config, cell, queue))
child.start()
print(queue.get(timeout=300))
child.join(timeout=60)
"""


def _cell_peak_per_draw(kind: str, n: int) -> float:
    """ru_maxrss growth, in bytes per draw, of one n-draw cell of the given kind.

    The cell runs in a child forked from a fresh interpreter, as a sweep's
    workers are: forked from the test process, it would reuse heap that
    earlier tests freed.
    """
    package_root = str(Path(equivalence.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CELL_PEAK_PROBE, kind, str(n)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) * 1024 / n


@pytest.mark.skipif(sys.platform != "linux", reason="needs fork and ru_maxrss in KiB")
def test_a_heterodyne_cell_peaks_within_64_bytes_per_draw():
    # The bound's basis: a cell's live data peak at 40 bytes per draw.  The
    # two samples hold 32 as per-component rows, and np.var's temporary of
    # one row adds 8; draws and KS levels are staged in blocks of 2^16.
    # This growth measured 52 bytes per draw at 4x10^5 draws, and 69 when
    # the rows were copied from an (n, 2) draw and the KS step took n-long
    # counts and an arange.
    assert _cell_peak_per_draw(HETERODYNE, 4 * 10**5) <= 64


@pytest.mark.skipif(sys.platform != "linux", reason="needs fork and ru_maxrss in KiB")
def test_a_homodyne_cell_peaks_within_42_bytes_per_draw():
    # The bound's basis: 24 bytes per draw of live data, the two one-row
    # samples and np.var's temporary.  This growth measured 36 bytes per
    # draw at 4x10^5 draws, and 44 with the KS step's n-long counts and
    # arange.
    assert _cell_peak_per_draw(HOMODYNE, 4 * 10**5) <= 42


def test_monte_carlo_workers_are_one_per_usable_cpu():
    assert equivalence._mc_workers(1) == 1
    assert 1 <= equivalence._mc_workers(10**6) <= (os.cpu_count() or 1)


_SLEEPING_SWEEP = """
import os, sys, time
from cvtrust import equivalence

def record_and_sleep(density, n, seed, stream=0):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(120)

equivalence.sample_outcomes = record_and_sleep
equivalence._mc_workers = lambda n_cells: 2
equivalence.monte_carlo_sweep(equivalence.SweepConfig(  # helpers.reduced_mc_config's grid
    alphas=equivalence.default_alpha_grid((1.0, 3.0), 4),
    specs=equivalence.default_spec_grid((0.7, 0.9), (1e-2,)),
    mc_samples=10**4,
))
"""


def _ended(pid: int) -> bool:
    """Whether pid is gone or a zombie; where PID 1 reaps no orphans, dead workers stay zombies."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(sys.platform != "linux", reason="workers die with their parent on Linux")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_monte_carlo_workers_end_with_a_killed_sweep(tmp_path, signum):
    package_root = str(Path(equivalence.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    pid_file, err_file = tmp_path / "pids", tmp_path / "stderr"
    with open(err_file, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", _SLEEPING_SWEEP, str(pid_file)], env=env,
            stdout=subprocess.DEVNULL, stderr=err,
        )
    workers: set[int] = set()
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            if pid_file.exists():
                workers = {int(line) for line in pid_file.read_text().split()}
        assert len(workers) == 2, err_file.read_text()
        proc.send_signal(signum)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while not all(map(_ended, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if not _ended(pid)] == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in workers:
            if not _ended(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


def test_monte_carlo_false_positive_control():
    for seed in (0, 1, 2):
        report = monte_carlo_sweep(small_config(mc_samples=10**4, seed=seed))
        assert report.passed, f"seed {seed} produced spurious rejections"


def test_oracles_import_no_engine_code():
    # The oracles check the engine, so from cvtrust they may take only the
    # detector's description: no moment arithmetic of the engine they check.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "cvtrust"]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0
            if node.module.split(".")[0] == "cvtrust":
                assert node.module in ("cvtrust", "cvtrust.detectors")
                taken |= {a.name for a in node.names}
    assert taken and taken <= {"DetectorSpec", "HOMODYNE", "HETERODYNE", "KINDS"}


def test_gaussian_weight_nodes_normalization():
    nodes, weights = gaussian_weight_nodes(0.15, 64, radius=6 * np.sqrt(0.3))
    assert abs(weights.sum() - 1.0) < 1e-8
    assert abs(np.sum(weights * nodes.real**2) - 0.15) < 1e-8
    assert abs(np.sum(weights * nodes.real * nodes.imag)) < 1e-12
    with pytest.raises(ValueError):
        gaussian_weight_nodes(0.0, 16, 1.0)


def test_mixture_quadrature_oracle_matches_homodyne_engine():
    spec = DetectorSpec(HOMODYNE, 0.85, nbar=0.3)
    density = noisy_measurement_density(coherent_state(1.5 + 0.5j), spec)
    sigma = np.sqrt(density.variance)
    grid = np.linspace(density.mean[0] - 6 * sigma, density.mean[0] + 6 * sigma, 61)
    table = mixture_quadrature_oracle(1.5 + 0.5j, spec, grid)
    assert table.error_estimate <= 1e-9
    assert np.max(np.abs(table.density - gaussian_pdf(density, grid))) < 1e-8


def test_mixture_quadrature_oracle_matches_heterodyne_engine():
    spec = DetectorSpec(HETERODYNE, 0.6, nbar=2.0)
    density = noisy_measurement_density(coherent_state(1 - 1j), spec)
    axis = np.linspace(-2.5, 2.5, 21)
    grid = (density.mean[0] + axis[:, None] + 1j * (density.mean[1] + axis[None, :])).ravel()
    table = mixture_quadrature_oracle(1 - 1j, spec, grid)
    assert table.error_estimate <= 1e-9
    assert np.max(np.abs(table.density - gaussian_pdf(density, grid))) < 1e-8


def test_mixture_quadrature_oracle_total_variation_bound():
    spec = DetectorSpec(HOMODYNE, 0.7, nbar=1.0)
    density = noisy_measurement_density(coherent_state(2.0), spec)
    sigma = np.sqrt(density.variance)
    grid = np.linspace(density.mean[0] - 8 * sigma, density.mean[0] + 8 * sigma, 2001)
    table = mixture_quadrature_oracle(2.0, spec, grid)
    tv = 0.5 * np.trapezoid(np.abs(table.density - gaussian_pdf(density, grid)), grid)
    assert tv < 1e-8


def test_mixture_quadrature_oracle_degenerate_inputs():
    grid = np.linspace(-3, 3, 11)
    with pytest.raises(ValueError):
        mixture_quadrature_oracle(0.0, DetectorSpec(HOMODYNE, 0.9, nbar=0.0), grid)
    with pytest.raises(ValueError):
        mixture_quadrature_oracle(0.0, DetectorSpec(HOMODYNE, 1.0, nbar=0.5), grid)
    with pytest.raises(ValueError):
        mixture_quadrature_oracle(0.0, DetectorSpec(HOMODYNE, 0.9, nbar=0.5), np.empty(0))


def test_mixture_quadrature_oracle_reports_nonconvergence():
    grid = np.linspace(-3, 3, 11)
    spec = DetectorSpec(HOMODYNE, 0.9, nbar=0.5)
    with pytest.raises(RuntimeError, match="achieved error estimate"):
        mixture_quadrature_oracle(0.0, spec, grid, target_error=1e-18, max_nodes=96)


def test_channel_moment_oracle_matches_engine():
    # the output moments scenario_params implies: mean sqrt(t_eff) beta and
    # per-quadrature variance (1 + xi_eff) / 4
    t_eff, xi_eff = scenario_params(ChannelSpec(0.8, 1e-3))
    oracle = channel_moment_oracle(1.5 - 0.5j, 0.8, 1e-3)
    assert np.allclose(oracle["mean"], np.sqrt(t_eff) * np.array([1.5, -0.5]), atol=1e-8)
    assert np.allclose(oracle["variance"], (1 + xi_eff) / 4, atol=1e-8)


def test_channel_moment_oracle_degenerate_inputs():
    with pytest.raises(ValueError):
        channel_moment_oracle(1.0, 0.0, 1e-3)
    with pytest.raises(ValueError):
        channel_moment_oracle(1.0, 0.8, 0.0)
