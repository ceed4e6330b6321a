import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvtrust.equivalence import beam_splitter_dilation_oracle
from cvtrust.gaussian import (
    GaussianState,
    coherent_state,
    loss_channel,
    random_displacement,
    thermal_loss_channel,
    thermal_state,
    vacuum_state,
)

SQRT_2_OVER_PI = 0.7978845608028654  # peak of a centered Gaussian with variance 1/4


def gauss_legendre_complex_nodes(var_component, n, radius):
    """Independent quadrature nodes for a centered complex Gaussian weight."""
    x, w = np.polynomial.legendre.leggauss(n)
    u = radius * x
    w1 = radius * w * np.exp(-0.5 * u * u / var_component)
    w1 /= np.sqrt(2 * np.pi * var_component)
    nodes = (u[:, None] + 1j * u[None, :]).ravel()
    return nodes, np.outer(w1, w1).ravel()


def test_vacuum_state_moments_exact():
    state = vacuum_state()
    assert np.array_equal(state.mean, np.zeros(2))
    assert np.array_equal(state.cov, 0.25 * np.eye(2))


def test_vacuum_homodyne_density_peak():
    # the x marginal of the vacuum is N(0, 1/4); its peak is sqrt(2/pi)
    var = vacuum_state().cov[0, 0]
    peak = 1.0 / np.sqrt(2 * np.pi * var)
    assert np.isclose(peak, SQRT_2_OVER_PI, rtol=1e-15, atol=0)


def test_coherent_state_moments():
    state = coherent_state(1 + 2j)
    assert np.array_equal(state.mean, [1.0, 2.0])
    assert np.array_equal(state.cov, 0.25 * np.eye(2))


def test_thermal_state_variance_matches_mixture_quadrature():
    # oracle: a thermal state is a Gaussian mixture of coherent states with
    # per-component amplitude variance nbar/2; its quadrature variance is
    # the mixture variance of N(Re beta, 1/4)
    nbar = 0.5
    betas, weights = gauss_legendre_complex_nodes(nbar / 2, 80, 6 * np.sqrt(nbar))
    mean = np.sum(weights * betas.real)
    var = np.sum(weights * (betas.real**2 + 0.25)) - mean**2
    assert abs(var - (2 * nbar + 1) / 4) < 1e-9
    state = thermal_state(nbar)
    assert np.array_equal(state.cov, ((2 * nbar + 1) / 4) * np.eye(2))
    assert np.array_equal(state.mean, np.zeros(2))


def test_thermal_state_rejects_negative_nbar():
    with pytest.raises(ValueError):
        thermal_state(-0.1)


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


def test_is_physical():
    assert vacuum_state().is_physical()
    assert thermal_state(3.0).is_physical()
    assert not GaussianState(np.zeros(2), 0.2).is_physical()
    # below the vacuum variance by less than the tolerance
    assert GaussianState(np.zeros(2), 0.25 - 1e-13).is_physical()
    assert not GaussianState(np.zeros(2), 0.25 - 1e-13).is_physical(tol=0.0)


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
    assert np.allclose(mixed["cov"], direct.cov, atol=1e-14)
    expected_var = (eta_d + (1 - eta_d) * (2 * nbar + 1)) / 4
    assert np.allclose(mixed["cov"], expected_var * np.eye(2), atol=1e-14)
    assert np.allclose(mixed["mean"], np.sqrt(eta_d) * np.array([1.5, -0.5]), atol=1e-14)


def test_beam_splitter_preserves_purity():
    # a coherent state mixed with the vacuum stays a pure coherent state
    out = beam_splitter_dilation_oracle(2j, 0.42, 0.0)
    assert np.isclose(np.linalg.det(4 * out["cov"]), 1.0, rtol=1e-12)
    assert np.array_equal(out["cov"], out["cov"][0, 0] * np.eye(2))
    assert GaussianState(out["mean"], out["cov"][0, 0]).is_physical()


def test_loss_channel_identity_at_full_transmittance():
    state = coherent_state(2 + 1j)
    out = loss_channel(state, 1.0)
    assert np.array_equal(out.mean, state.mean)
    assert np.array_equal(out.cov, state.cov)


def test_loss_channel_on_coherent_state():
    out = loss_channel(coherent_state(2.0), 0.36)
    assert np.allclose(out.mean, [1.2, 0.0], atol=1e-14)
    assert np.allclose(out.cov, 0.25 * np.eye(2), atol=1e-15)


def test_loss_channel_maps_thermal_to_thermal():
    nbar, eta = 1.7, 0.4
    out = loss_channel(thermal_state(nbar), eta)
    assert np.allclose(out.cov, thermal_state(eta * nbar).cov, rtol=1e-14)


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
    assert np.allclose(two_step.cov, one_step.cov, rtol=1e-12, atol=1e-15)


def test_random_displacement_zero_is_identity():
    state = coherent_state(1j)
    out = random_displacement(state, 0.0)
    assert np.array_equal(out.mean, state.mean)
    assert np.array_equal(out.cov, state.cov)


def test_random_displacement_rejects_negative_variance():
    with pytest.raises(ValueError):
        random_displacement(vacuum_state(), -1e-3)


@settings(max_examples=60, deadline=None)
@given(v1=st.floats(0, 0.5), v2=st.floats(0, 0.5))
def test_random_displacement_noise_is_additive(v1, v2):
    state = vacuum_state()
    sequential = random_displacement(random_displacement(state, v1), v2)
    combined = random_displacement(state, v1 + v2)
    assert np.allclose(sequential.cov, combined.cov, rtol=0, atol=1e-16)


@settings(max_examples=40, deadline=None)
@given(
    eta=st.floats(0.05, 1.0),
    nbar=st.floats(0, 5),
    v=st.floats(0, 0.5),
    amp=st.floats(-3, 3),
)
def test_operations_preserve_physicality(eta, nbar, v, amp):
    state = coherent_state(amp + 0.5j)
    state = thermal_loss_channel(state, eta, nbar)
    state = random_displacement(state, v)
    assert state.is_physical()
    mixed = beam_splitter_dilation_oracle(amp + 0.5j, eta, nbar)
    assert np.array_equal(mixed["cov"], mixed["cov"][0, 0] * np.eye(2))
    assert GaussianState(mixed["mean"], mixed["cov"][0, 0]).is_physical()
