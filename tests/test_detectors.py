import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvtrust import detectors
from cvtrust.detectors import (
    HETERODYNE,
    HOMODYNE,
    KINDS,
    DetectorSpec,
    OutcomeDensity,
    checked_nu,
    ideal_density,
    noisy_measurement_density,
    rescaled_lossy_density,
    sample_outcomes,
)
from cvtrust.gaussian import VACUUM_VARIANCE, GaussianState, coherent_state, loss_channel
from oracles import gaussian_pdf

VACUUM = GaussianState(np.zeros(2), VACUUM_VARIANCE)


def test_spec_validation():
    DetectorSpec(HOMODYNE, 1.0)
    with pytest.raises(ValueError):
        DetectorSpec("double-homodyne", 0.9)
    with pytest.raises(ValueError):
        DetectorSpec(HOMODYNE, 0.0)
    with pytest.raises(ValueError):
        DetectorSpec(HOMODYNE, 1.2)
    with pytest.raises(ValueError):
        DetectorSpec(HOMODYNE, 0.9, nbar=-0.1)
    with pytest.raises(ValueError):
        DetectorSpec(HOMODYNE, 0.9, nbar=float("inf"))


def test_noise_product():
    spec = DetectorSpec(HETERODYNE, 0.7, nbar=0.8)
    assert spec.noise_product == 0.8 * (1 - 0.7)


def test_from_noise_product_roundtrip():
    spec = DetectorSpec.from_noise_product(HOMODYNE, 0.7, nu=5e-4)
    assert spec.nbar == 5e-4 / (1 - 0.7)
    assert np.isclose(spec.noise_product, 5e-4, rtol=1e-15)
    spec2 = DetectorSpec.from_noise_product(HOMODYNE, 0.7, two_nu=1e-3)
    assert spec2.nbar == spec.nbar


def test_from_noise_product_argument_rules():
    with pytest.raises(ValueError):
        DetectorSpec.from_noise_product(HOMODYNE, 0.7)
    with pytest.raises(ValueError):
        DetectorSpec.from_noise_product(HOMODYNE, 0.7, nu=1e-3, two_nu=2e-3)
    with pytest.raises(ValueError, match="requires eta_d < 1, got eta_d = 1.0$"):
        DetectorSpec.from_noise_product(HOMODYNE, 1.0, nu=1e-3)
    # Each input is checked, and named, as given.
    for name, value in (("nu", -1.0), ("two_nu", -2.0), ("two_nu", math.inf)):
        with pytest.raises(ValueError, match=f"noise product {name} must be .*, got {value!r}"):
            DetectorSpec.from_noise_product(HOMODYNE, 0.7, **{name: value})
    # nbar = nu / (1 - eta_d) is refused where it overflows, not passed on as infinity.
    with pytest.raises(ValueError, match=r"nu = 1e\+308 at eta_d = 0.7 makes nbar overflow"):
        DetectorSpec.from_noise_product(HOMODYNE, 0.7, nu=1e308)
    with pytest.raises(ValueError, match=r"two_nu = 1.5e\+308 at eta_d = 0.7 makes nbar overflow"):
        DetectorSpec.from_noise_product(HOMODYNE, 0.7, two_nu=1.5e308)
    assert DetectorSpec.from_noise_product(HOMODYNE, 0.5, nu=8e307).nbar == 1.6e308
    # zero noise at unit efficiency is fine
    spec = DetectorSpec.from_noise_product(HOMODYNE, 1.0, nu=0.0)
    assert spec.nbar == 0.0


def test_a_negative_zero_noise_input_is_stored_as_zero():
    specs = (
        DetectorSpec(HOMODYNE, 0.7, nbar=-0.0),
        DetectorSpec.from_noise_product(HOMODYNE, 0.7, nu=-0.0),
        DetectorSpec.from_noise_product(HOMODYNE, 1.0, two_nu=-0.0),
    )
    for spec in specs:
        assert spec.nbar == 0.0 and math.copysign(1.0, spec.nbar) == 1.0
    assert math.copysign(1.0, checked_nu(-0.0)) == 1.0


def test_ideal_homodyne_density_vacuum():
    density = ideal_density(VACUUM, HOMODYNE)
    assert density.ndim == 1
    assert np.array_equal(density.mean, [0.0])
    assert density.variance == 0.25
    # peak value of N(0, 1/4)
    assert np.isclose(gaussian_pdf(density, np.array([0.0]))[0], 0.7978845608028654, rtol=1e-15)


def test_ideal_heterodyne_density_adds_vacuum_unit():
    density = ideal_density(coherent_state(1 - 1j), HETERODYNE)
    assert density.ndim == 2
    assert np.array_equal(density.mean, [1.0, -1.0])
    assert density.variance == 0.5
    assert np.isclose(gaussian_pdf(density, np.array([1.0 - 1.0j]))[0], 1 / np.pi, rtol=1e-15)


def test_heterodyne_marginal_is_homodyne_variance_plus_quarter():
    state = GaussianState(np.zeros(2), (2 * 1.3 + 1) / 4)
    het = ideal_density(state, HETERODYNE)
    hom = ideal_density(state, HOMODYNE)
    assert np.isclose(het.variance, hom.variance + 0.25, rtol=1e-15)


def test_noisy_homodyne_moments():
    spec = DetectorSpec(HOMODYNE, 0.7, nbar=0.8)
    density = noisy_measurement_density(coherent_state(2 + 1j), spec)
    assert np.allclose(density.mean, [np.sqrt(0.7) * 2], rtol=1e-15)
    # (1 + 2 nbar (1 - eta_d)) / 4
    assert np.isclose(density.variance, 0.37, rtol=1e-14)


def test_noisy_heterodyne_moments():
    spec = DetectorSpec(HETERODYNE, 0.7, nbar=0.8)
    density = noisy_measurement_density(coherent_state(2 + 1j), spec)
    assert np.allclose(density.mean, np.sqrt(0.7) * np.array([2.0, 1.0]), rtol=1e-15)
    # (1 + nbar (1 - eta_d)) / 2 per component
    assert np.isclose(density.variance, 0.62, rtol=1e-14)


def test_noiseless_detector_reduces_to_ideal_after_loss():
    state = coherent_state(0.3 + 2j)
    spec = DetectorSpec(HETERODYNE, 0.55)
    via_spec = noisy_measurement_density(state, spec)
    via_loss = ideal_density(loss_channel(state, 0.55), HETERODYNE)
    assert np.array_equal(via_spec.mean, via_loss.mean)
    assert via_spec.variance == via_loss.variance


def test_ideal_density_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        ideal_density(VACUUM, "double-homodyne")


def test_scaled_is_a_pushforward():
    density = ideal_density(coherent_state(1.0), HOMODYNE)
    scaled = density.scaled(1.1)
    assert np.isclose(scaled.mean[0], 1.1, rtol=1e-15)
    assert np.isclose(scaled.variance, 0.25 * 1.1**2, rtol=1e-15)
    # densities agree after the change of variables
    points = np.linspace(-3, 3, 7)
    assert np.allclose(
        gaussian_pdf(scaled, 1.1 * points) * 1.1, gaussian_pdf(density, points), rtol=1e-13
    )


def test_rescaled_lossy_matches_physical_noisy_homodyne():
    # reduced-efficiency detector plus outcome rescale reproduces the
    # noisy detector's outcome distribution exactly
    state = coherent_state(2 + 1j)
    spec = DetectorSpec(HOMODYNE, 0.7, nbar=0.8)
    nu = spec.noise_product
    r = np.sqrt(1 + 2 * nu)
    noisy = noisy_measurement_density(state, spec)
    rescaled = rescaled_lossy_density(state, HOMODYNE, spec.eta_d / r**2, r)
    assert np.allclose(rescaled.mean, noisy.mean, rtol=1e-14)
    assert np.isclose(rescaled.variance, noisy.variance, rtol=1e-14)


def test_rescaled_lossy_matches_physical_noisy_heterodyne():
    state = coherent_state(-1 + 0.5j)
    spec = DetectorSpec(HETERODYNE, 0.6, nbar=1.5)
    nu = spec.noise_product
    r = np.sqrt(1 + nu)
    noisy = noisy_measurement_density(state, spec)
    rescaled = rescaled_lossy_density(state, HETERODYNE, spec.eta_d / r**2, r)
    assert np.allclose(rescaled.mean, noisy.mean, rtol=1e-14)
    assert np.isclose(rescaled.variance, noisy.variance, rtol=1e-14)


def test_rescaled_lossy_rejects_contraction():
    with pytest.raises(ValueError):
        rescaled_lossy_density(VACUUM, HOMODYNE, 0.9, 0.99)


@pytest.mark.parametrize("factor", [0.0, -0.0, math.inf, -math.inf, math.nan])
def test_scaled_rejects_a_zero_or_non_finite_factor(factor):
    with pytest.raises(ValueError, match="scale factor must be finite and nonzero"):
        OutcomeDensity(np.zeros(2), 1.0).scaled(factor)


def test_density_validation():
    with pytest.raises(ValueError):
        OutcomeDensity(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        OutcomeDensity(np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        OutcomeDensity(np.zeros(1), 0.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            OutcomeDensity(np.zeros(2), bad)
    density = OutcomeDensity(0.5, 2)
    assert density.mean.shape == (1,) and density.variance == 2.0
    with pytest.raises(ValueError):
        density.mean[0] = 1.0


def test_pdf_normalization_1d():
    spec = DetectorSpec(HOMODYNE, 0.8, nbar=2.0)
    density = noisy_measurement_density(GaussianState(np.zeros(2), (2 * 0.5 + 1) / 4), spec)
    sigma = np.sqrt(density.variance)
    grid = np.linspace(-10 * sigma, 10 * sigma, 20001)
    total = np.trapezoid(gaussian_pdf(density, grid), grid)
    assert abs(total - 1.0) < 1e-10


def test_pdf_normalization_2d():
    spec = DetectorSpec(HETERODYNE, 0.8, nbar=2.0)
    density = noisy_measurement_density(coherent_state(0.5j), spec)
    sigma = np.sqrt(density.variance)
    axis = np.linspace(-9 * sigma, 9 * sigma, 801)
    dx = axis[1] - axis[0]
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xs.ravel() + density.mean[0], ys.ravel() + density.mean[1]])
    total = np.sum(gaussian_pdf(density, pts)) * dx * dx
    assert abs(total - 1.0) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    eta_d=st.floats(0.1, 1.0),
    nbar=st.floats(0, 4),
    re=st.floats(-2, 2),
    im=st.floats(-2, 2),
)
def test_noisy_density_moments_property(eta_d, nbar, re, im):
    state = coherent_state(re + 1j * im)
    hom = noisy_measurement_density(state, DetectorSpec(HOMODYNE, eta_d, nbar=nbar))
    het = noisy_measurement_density(state, DetectorSpec(HETERODYNE, eta_d, nbar=nbar))
    nu = nbar * (1 - eta_d)
    assert np.isclose(hom.variance, (1 + 2 * nu) / 4, rtol=1e-13)
    assert np.isclose(het.variance, (1 + nu) / 2, rtol=1e-13)
    assert np.isclose(hom.mean[0], np.sqrt(eta_d) * re, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("n", [0, -1])
def test_sample_outcomes_rejects_fewer_than_one_draw(n):
    with pytest.raises(ValueError, match="sample count must be at least 1"):
        sample_outcomes(OutcomeDensity(np.zeros(1), 1.0), n, seed=0)


def test_sample_outcomes_deterministic_per_stream():
    density = ideal_density(coherent_state(1.0), HOMODYNE)
    a = sample_outcomes(density, 16, seed=7, stream=3)
    b = sample_outcomes(density, 16, seed=7, stream=3)
    c = sample_outcomes(density, 16, seed=7, stream=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 7, 100_001])
def test_sample_outcomes_heterodyne_equals_cholesky_draws(seed, n):
    # Scaling both normal columns by sigma is the Cholesky draw of the
    # isotropic covariance sigma^2 I, bit for bit; the draws come as rows.
    spec = DetectorSpec.from_noise_product(HETERODYNE, 0.7, nu=1e-2)
    density = noisy_measurement_density(coherent_state(3.0 - 1.0j), spec)
    rng = np.random.default_rng((seed, 5))
    chol = np.linalg.cholesky(density.variance * np.eye(2))
    expected = rng.standard_normal((n, 2)) @ chol.T + density.mean
    drawn = sample_outcomes(density, n, seed, stream=5)
    assert drawn.dtype == expected.dtype and np.array_equal(drawn, expected.T)
    assert drawn.flags.c_contiguous


_BLOCK = detectors._DRAW_BLOCK


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_sample_outcomes_in_blocks_equal_one_draw(kind, n):
    # Blocks of standard_normal draws give the values of one call, scaled
    # and shifted as one array, bit for bit, either side of a block's end.
    density = ideal_density(coherent_state(2.5 - 0.5j), kind)
    z = np.random.default_rng((4, 9)).standard_normal((n, density.ndim))
    z *= math.sqrt(density.variance)
    z += density.mean
    drawn = sample_outcomes(density, n, seed=4, stream=9)
    assert drawn.shape == (density.ndim, n) and drawn.flags.c_contiguous
    assert drawn.tobytes() == z.T.tobytes()


def test_sample_outcomes_heterodyne_is_two_real_rows():
    density = ideal_density(coherent_state(2 - 1j), HETERODYNE)
    samples = sample_outcomes(density, 200_000, seed=11)
    assert samples.dtype == np.float64 and samples.shape == (2, 200_000)
    assert abs(samples[0].mean() - 2.0) < 0.01
    assert abs(samples[1].mean() + 1.0) < 0.01
    assert abs(samples[0].var() - 0.5) < 0.01
    assert abs(samples[1].var() - 0.5) < 0.01


def test_sample_outcomes_homodyne_moments():
    spec = DetectorSpec(HOMODYNE, 0.7, nbar=0.8)
    density = noisy_measurement_density(coherent_state(2.0), spec)
    samples = sample_outcomes(density, 400_000, seed=5)
    assert samples.dtype == np.float64 and samples.shape == (1, 400_000)
    assert abs(samples.mean() - np.sqrt(0.7) * 2) < 0.005
    assert abs(samples.var() - 0.37) < 0.005
