import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvtrust.gaussian import (
    VACUUM_VARIANCE,
    GaussianState,
    coherent_state,
    loss_channel,
    thermal_loss_channel,
)
from oracles import beam_splitter_dilation_oracle

SQRT_2_OVER_PI = 0.7978845608028654  # peak of a centered Gaussian with variance 1/4


def gauss_legendre_complex_nodes(var_component, n, radius):
    """Independent quadrature nodes for a centered complex Gaussian weight."""
    x, w = np.polynomial.legendre.leggauss(n)
    u = radius * x
    w1 = radius * w * np.exp(-0.5 * u * u / var_component)
    w1 /= np.sqrt(2 * np.pi * var_component)
    nodes = (u[:, None] + 1j * u[None, :]).ravel()
    return nodes, np.outer(w1, w1).ravel()


def test_coherent_state_at_zero_is_the_vacuum():
    state = coherent_state(0.0)
    assert np.array_equal(state.mean, np.zeros(2))
    assert state.variance == VACUUM_VARIANCE == 0.25


def test_vacuum_homodyne_density_peak():
    # the x marginal of the vacuum is N(0, 1/4); its peak is sqrt(2/pi)
    var = GaussianState(np.zeros(2), VACUUM_VARIANCE).variance
    peak = 1.0 / np.sqrt(2 * np.pi * var)
    assert np.isclose(peak, SQRT_2_OVER_PI, rtol=1e-15, atol=0)


def test_coherent_state_moments():
    state = coherent_state(1 + 2j)
    assert np.array_equal(state.mean, [1.0, 2.0])
    assert state.variance == 0.25


def test_thermal_environment_variance_matches_mixture_quadrature():
    # oracle: a thermal state is a Gaussian mixture of coherent states with
    # per-component amplitude variance nbar/2; its quadrature variance is
    # the mixture variance of N(Re beta, 1/4).  thermal_loss_channel mixes
    # that environment in with weight 1 - eta.
    nbar, eta = 0.5, 0.25
    betas, weights = gauss_legendre_complex_nodes(nbar / 2, 80, 6 * np.sqrt(nbar))
    mean = np.sum(weights * betas.real)
    var = np.sum(weights * (betas.real**2 + 0.25)) - mean**2
    assert abs(var - (2 * nbar + 1) / 4) < 1e-9
    state = thermal_loss_channel(GaussianState(np.zeros(2), 0.25), eta, nbar)
    assert abs(state.variance - (eta * 0.25 + (1 - eta) * var)) < 1e-9
    assert state.variance == eta * 0.25 + (1 - eta) * (2 * nbar + 1) / 4
    assert np.array_equal(state.mean, np.zeros(2))


def test_thermal_loss_channel_rejects_negative_nbar():
    with pytest.raises(ValueError):
        thermal_loss_channel(coherent_state(0.0), 0.5, -0.1)


@pytest.mark.parametrize("eta", [0.0, -0.5, 1.5, np.nan])
def test_thermal_loss_channel_rejects_a_transmittance_outside_0_1(eta):
    with pytest.raises(ValueError, match="transmittance must satisfy 0 < eta <= 1"):
        thermal_loss_channel(coherent_state(1.0), eta, 0.1)


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), 0.25)
    with pytest.raises(ValueError):  # states are single-mode
        GaussianState(np.zeros(4), 0.25)
    for bad in (0.0, -0.25, np.inf, np.nan):
        with pytest.raises(ValueError, match="variance"):
            GaussianState(np.zeros(2), bad)
    state = GaussianState([1, 2], np.float64(0.5))
    assert state.mean.dtype == float and type(state.variance) is float


def test_state_arrays_are_immutable():
    mean = np.zeros(2)
    state = GaussianState(mean, 0.25)
    mean[0] = 1.0  # the state holds its own copy
    assert np.array_equal(state.mean, np.zeros(2))
    with pytest.raises(ValueError):
        state.mean[0] = 1.0


def test_beam_splitter_eta_one_is_identity():
    out = beam_splitter_dilation_oracle(1.5 - 0.5j, 1.0, 3.0)
    assert np.array_equal(out["mean"], [1.5, -0.5])
    assert np.array_equal(out["cov"], 0.25 * np.eye(2))


def test_beam_splitter_domain():
    for eta in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            beam_splitter_dilation_oracle(1.0, eta, 0.0)
    with pytest.raises(ValueError):
        beam_splitter_dilation_oracle(1.0, 0.5, -1.0)


def test_balanced_beam_splitter_splits_amplitude():
    out = beam_splitter_dilation_oracle(np.sqrt(2), 0.5, 0.0)
    assert np.allclose(out["mean"], [1.0, 0.0], atol=1e-14)
    assert np.allclose(out["cov"], 0.25 * np.eye(2), atol=1e-14)


def test_beam_splitter_mix_matches_thermal_loss_map():
    # the dilation oracle against the closed-form map
    eta_d, nbar = 0.7, 0.8
    alpha = 1.5 - 0.5j
    mixed = beam_splitter_dilation_oracle(alpha, eta_d, nbar)
    direct = thermal_loss_channel(coherent_state(alpha), eta_d, nbar)
    assert np.allclose(mixed["mean"], direct.mean, atol=1e-14)
    assert np.allclose(mixed["cov"], direct.variance * np.eye(2), atol=1e-14)
    expected_var = (eta_d + (1 - eta_d) * (2 * nbar + 1)) / 4
    assert np.allclose(mixed["cov"], expected_var * np.eye(2), atol=1e-14)
    assert np.allclose(mixed["mean"], np.sqrt(eta_d) * np.array([1.5, -0.5]), atol=1e-14)


def test_beam_splitter_preserves_purity():
    # a coherent state mixed with the vacuum stays a pure coherent state
    out = beam_splitter_dilation_oracle(2j, 0.42, 0.0)
    assert np.isclose(np.linalg.det(4 * out["cov"]), 1.0, rtol=1e-12)
    assert np.array_equal(out["cov"], out["cov"][0, 0] * np.eye(2))
    assert out["cov"][0, 0] >= VACUUM_VARIANCE - 1e-12


def test_loss_channel_identity_at_full_transmittance():
    state = coherent_state(2 + 1j)
    out = loss_channel(state, 1.0)
    assert np.array_equal(out.mean, state.mean)
    assert out.variance == state.variance


def test_loss_channel_on_coherent_state():
    out = loss_channel(coherent_state(2.0), 0.36)
    assert np.allclose(out.mean, [1.2, 0.0], atol=1e-14)
    assert np.isclose(out.variance, 0.25, rtol=0, atol=1e-15)


def test_loss_channel_maps_thermal_to_thermal():
    nbar, eta = 1.7, 0.4
    out = loss_channel(GaussianState(np.zeros(2), (2 * nbar + 1) / 4), eta)
    assert np.isclose(out.variance, (2 * eta * nbar + 1) / 4, rtol=1e-14, atol=0)


@settings(max_examples=60, deadline=None)
@given(
    eta1=st.floats(0.05, 1.0),
    eta2=st.floats(0.05, 1.0),
)
def test_loss_semigroup(eta1, eta2):
    state = coherent_state(1.3 + 0.2j)
    two_step = loss_channel(loss_channel(state, eta1), eta2)
    one_step = loss_channel(state, eta1 * eta2)
    assert np.allclose(two_step.mean, one_step.mean, rtol=1e-12, atol=1e-15)
    assert np.isclose(two_step.variance, one_step.variance, rtol=1e-12, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    eta=st.floats(0.05, 1.0),
    nbar=st.floats(0, 5),
    amp=st.floats(-3, 3),
)
def test_operations_preserve_physicality(eta, nbar, amp):
    # the uncertainty relation: no quadrature variance below the vacuum's
    state = thermal_loss_channel(coherent_state(amp + 0.5j), eta, nbar)
    assert state.variance >= VACUUM_VARIANCE - 1e-12
    mixed = beam_splitter_dilation_oracle(amp + 0.5j, eta, nbar)
    assert np.array_equal(mixed["cov"], mixed["cov"][0, 0] * np.eye(2))
    assert mixed["cov"][0, 0] >= VACUUM_VARIANCE - 1e-12
