import math
import os

import numpy as np
import pytest
from scipy.stats import ks_2samp, ncx2

from cvtrust import equivalence
from cvtrust.channel import ChannelSpec, transmit
from cvtrust.detectors import (
    HETERODYNE,
    HOMODYNE,
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
    MAX_MC_SAMPLES,
    MIN_PARAM_TOL,
    SABOTAGE_MODES,
    CellResult,
    SweepConfig,
    _disk_mass,
    _ks_cell,
    _tv_distance,
    analytic_sweep,
    mixture_quadrature_oracle,
    channel_moment_oracle,
    default_alpha_grid,
    default_spec_grid,
    default_sweep_config,
    gaussian_weight_nodes,
    holm_rejections,
    monte_carlo_sweep,
    reduced_mc_config,
)


def small_config(**overrides):
    base = dict(
        alphas=default_alpha_grid((1.0, 3.0), 4),
        specs=default_spec_grid((0.7,), (1e-2,)),
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_default_grids_shapes():
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
    assert report.mode == "analytic"
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


@pytest.mark.parametrize("decimals", [None, 2])
def test_merge_rank_ks_matches_scipy_in_asymptotic_regime(decimals):
    rng = np.random.default_rng(11)
    xs = rng.standard_normal(20_000)
    ys = 1.02 * rng.standard_normal(15_001) + 0.01
    if decimals is not None:
        # ties within and across the samples
        xs, ys = np.round(xs, decimals), np.round(ys, decimals)
    for a, b in ((xs, ys), (ys, xs), (xs, xs[: 10_001][::-1])):
        expected = ks_2samp(a, b)
        assert _ks_cell([(a, b)]) == (expected.statistic, expected.pvalue)


def test_merge_rank_ks_keeps_exact_pvalues_up_to_1e4():
    rng = np.random.default_rng(12)
    xs, ys = rng.standard_normal(10_000), rng.standard_normal(9_000)
    expected = ks_2samp(xs, ys)
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
        assert a.shape == b.shape == (n, 2)
        pairs = [(a[:, 0], b[:, 0]), (a[:, 1], b[:, 1])]
        per_component = [ks_2samp(xs, ys) for xs, ys in pairs]
        expected = (
            max(stat for stat, _ in per_component),
            min(1.0, 2 * min(p for _, p in per_component)),
        )
        assert _ks_cell(pairs) == expected


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
    assert report.mode == "mc"
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
    monkeypatch.setattr(
        equivalence, "_ks_cell", lambda pairs: samples.append(pairs) or ks_cell(pairs)
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
            assert np.column_stack(got).tobytes() == want.tobytes()


def test_monte_carlo_workers_are_one_per_usable_cpu():
    assert equivalence._mc_workers(1) == 1
    assert 1 <= equivalence._mc_workers(10**6) <= (os.cpu_count() or 1)


def test_monte_carlo_false_positive_control():
    for seed in (0, 1, 2):
        report = monte_carlo_sweep(small_config(mc_samples=10**4, seed=seed))
        assert report.passed, f"seed {seed} produced spurious rejections"


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
    assert np.max(np.abs(table.density - density.pdf(grid))) < 1e-8


def test_mixture_quadrature_oracle_matches_heterodyne_engine():
    spec = DetectorSpec(HETERODYNE, 0.6, nbar=2.0)
    density = noisy_measurement_density(coherent_state(1 - 1j), spec)
    axis = np.linspace(-2.5, 2.5, 21)
    grid = (density.mean[0] + axis[:, None] + 1j * (density.mean[1] + axis[None, :])).ravel()
    table = mixture_quadrature_oracle(1 - 1j, spec, grid)
    assert table.error_estimate <= 1e-9
    assert np.max(np.abs(table.density - density.pdf(grid))) < 1e-8


def test_mixture_quadrature_oracle_total_variation_bound():
    spec = DetectorSpec(HOMODYNE, 0.7, nbar=1.0)
    density = noisy_measurement_density(coherent_state(2.0), spec)
    sigma = np.sqrt(density.variance)
    grid = np.linspace(density.mean[0] - 8 * sigma, density.mean[0] + 8 * sigma, 2001)
    table = mixture_quadrature_oracle(2.0, spec, grid)
    tv = 0.5 * np.trapezoid(np.abs(table.density - density.pdf(grid)), grid)
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
    out = transmit(coherent_state(1.5 - 0.5j), ChannelSpec(0.8, 1e-3))
    oracle = channel_moment_oracle(1.5 - 0.5j, 0.8, 1e-3)
    assert np.allclose(oracle["mean"], out.mean, atol=1e-8)
    assert np.allclose(oracle["variance"], np.diag(out.cov), atol=1e-8)


def test_channel_moment_oracle_degenerate_inputs():
    with pytest.raises(ValueError):
        channel_moment_oracle(1.0, 0.0, 1e-3)
    with pytest.raises(ValueError):
        channel_moment_oracle(1.0, 0.8, 0.0)
