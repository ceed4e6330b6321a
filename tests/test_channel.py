import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvtrust.channel import (
    IDEAL,
    SCENARIOS,
    TRUSTED,
    UNTRUSTED,
    ChannelSpec,
    scenario_params,
)
from cvtrust.detectors import HETERODYNE, HOMODYNE, DetectorSpec
from cvtrust.gaussian import (
    VACUUM_VARIANCE,
    GaussianState,
    coherent_state,
    loss_channel,
)
from cvtrust.rescaling import rescale_plan


def channel_output(state, t_eff, xi_eff):
    # loss of transmittance t_eff, then xi_eff / 4 of added quadrature noise
    lossy = loss_channel(state, t_eff)
    return GaussianState(lossy.mean, lossy.variance + xi_eff * VACUUM_VARIANCE)


def test_channel_spec_validation():
    ChannelSpec(1.0)
    ChannelSpec(0.5, 0.01)
    with pytest.raises(ValueError):
        ChannelSpec(0.0)
    with pytest.raises(ValueError):
        ChannelSpec(1.1)
    with pytest.raises(ValueError):
        ChannelSpec(0.5, -1e-6)
    with pytest.raises(ValueError):
        ChannelSpec(0.5, float("nan"))
    # transmittances from any iterable become a tuple of floats, checked entry by entry
    assert ChannelSpec(np.array([1.0, 0.5])).eta == (1.0, 0.5)
    assert type(ChannelSpec([1, 0.5]).eta[0]) is float
    for bad in ([0.5, 0.0], [0.5, 1.5], [0.5, float("nan")]):
        with pytest.raises(ValueError):
            ChannelSpec(tuple(bad))


def test_channel_coherent_output_moments():
    # a coherent beta leaves with mean sqrt(eta) beta and variance (1 + eta xi0) / 4
    out = channel_output(coherent_state(1.5 - 0.5j), *scenario_params(ChannelSpec(0.8, 1e-3)))
    assert np.allclose(out.mean, np.sqrt(0.8) * np.array([1.5, -0.5]), rtol=1e-15)
    assert np.isclose(out.variance, 0.2502, rtol=1e-14, atol=0)


@pytest.mark.parametrize("kind", [HOMODYNE, HETERODYNE])
def test_lossless_noiseless_channel_is_identity(kind):
    channel = ChannelSpec(1.0, 0.0)
    spec = DetectorSpec(kind, 1.0, nbar=0.0)
    state = coherent_state(2j)
    for scenario in SCENARIOS:
        t_eff, xi_eff = scenario_params(channel, rescale_plan(spec), scenario)
        assert (t_eff, xi_eff) == (1.0, 0.0)
        out = channel_output(state, t_eff, xi_eff)
        assert np.array_equal(out.mean, state.mean)
        assert out.variance == state.variance


@settings(max_examples=60, deadline=None)
@given(
    eta=st.floats(1e-4, 1.0),
    xi0=st.floats(0, 0.2),
    eta_d=st.floats(0.1, 1.0),
    nbar=st.floats(0, 3),
    kind=st.sampled_from([HOMODYNE, HETERODYNE]),
    input_nbar=st.floats(0, 5),
)
def test_channel_keeps_states_physical(eta, xi0, eta_d, nbar, kind, input_nbar):
    # the uncertainty relation: no quadrature variance below the vacuum's
    thermal = GaussianState(np.zeros(2), (2 * input_nbar + 1) * VACUUM_VARIANCE)
    spec = DetectorSpec(kind, eta_d, nbar=nbar)
    for scenario in SCENARIOS:
        t_eff, xi_eff = scenario_params(ChannelSpec(eta, xi0), rescale_plan(spec), scenario)
        assert xi_eff >= 0
        out = channel_output(thermal, t_eff, xi_eff)
        assert out.variance >= VACUUM_VARIANCE - 1e-12


def test_scenario_params_ideal():
    t_eff, xi_eff = scenario_params(ChannelSpec(0.8, 1e-3))
    assert scenario_params(ChannelSpec(0.8, 1e-3), scenario=IDEAL) == (t_eff, xi_eff)
    assert t_eff == 0.8
    assert xi_eff == 0.8 * 1e-3


def test_scenario_params_trusted_equals_ideal_at_reduced_transmittance():
    channel = ChannelSpec(0.8, 2e-3)
    spec = DetectorSpec.from_noise_product(HOMODYNE, 0.7, two_nu=1e-3)
    trusted = scenario_params(channel, rescale_plan(spec), TRUSTED)
    eta_e = rescale_plan(spec).eta_e
    ideal_reduced = scenario_params(ChannelSpec(channel.eta * eta_e, channel.xi0))
    assert trusted == ideal_reduced


def test_scenario_params_untrusted_absorbs_detector_noise():
    channel = ChannelSpec(0.8, 1e-3)
    spec = DetectorSpec(HETERODYNE, 0.7, nbar=0.8)
    t_eff, xi_eff = scenario_params(channel, rescale_plan(spec), UNTRUSTED)
    assert np.isclose(t_eff, 0.56, rtol=1e-15)
    # t_eff * xi0 + 2 nbar (1 - eta_d)
    assert np.isclose(xi_eff, 0.56e-3 + 2 * 0.8 * 0.3, rtol=1e-14)


def test_scenario_params_validation():
    channel = ChannelSpec(0.5)
    with pytest.raises(ValueError):
        scenario_params(channel, scenario="pessimistic")
    for scenario in (TRUSTED, UNTRUSTED):
        with pytest.raises(ValueError):
            scenario_params(channel, scenario=scenario)
    # an excess noise that overflows is named at the fold, for a float or a
    # tuple of transmittances: 2 nu is infinite, or t xi0 + 2 nu overflows
    noisy = DetectorSpec(HETERODYNE, 0.01, nbar=1.79e308)
    loud = DetectorSpec(HETERODYNE, 0.5, nbar=1e308)
    for eta in (1.0, (0.5, 1.0, 0.25)):
        for channel, spec in ((ChannelSpec(eta), noisy), (ChannelSpec(eta, 1.7e308), loud)):
            with pytest.raises(ValueError, match="^the untrusted scenario's excess noise xi_eff"):
                scenario_params(channel, rescale_plan(spec), UNTRUSTED)


def test_scenario_constants():
    assert SCENARIOS == (IDEAL, TRUSTED, UNTRUSTED)


@settings(max_examples=80, deadline=None)
@given(
    eta=st.floats(1e-4, 1.0),
    xi0=st.floats(0, 0.2),
    eta_d=st.floats(0.1, 1.0),
    nbar=st.floats(0, 3),
    kind=st.sampled_from([HOMODYNE, HETERODYNE]),
)
def test_scenario_params_properties(eta, xi0, eta_d, nbar, kind):
    channel = ChannelSpec(eta, xi0)
    spec = DetectorSpec(kind, eta_d, nbar=nbar)
    ideal_t, _ = scenario_params(channel)
    trusted_t, trusted_xi = scenario_params(channel, rescale_plan(spec), TRUSTED)
    untrusted_t, untrusted_xi = scenario_params(channel, rescale_plan(spec), UNTRUSTED)
    # trusted folds only loss into the transmittance, never extra noise
    assert trusted_t <= ideal_t
    assert trusted_xi == trusted_t * xi0
    # untrusted inflates the excess noise by the full detector noise
    assert untrusted_t >= trusted_t
    assert untrusted_xi >= untrusted_t * xi0
    assert np.isclose(
        untrusted_xi - untrusted_t * xi0,
        2 * nbar * (1 - eta_d),
        rtol=1e-12,
        atol=1e-15,
    )


@settings(max_examples=60, deadline=None)
@given(
    etas=st.lists(st.floats(1e-4, 1.0, exclude_min=True), min_size=1, max_size=20),
    xi0=st.floats(0, 0.2),
    eta_d=st.floats(0.1, 1.0),
    nbar=st.floats(0, 3),
    kind=st.sampled_from([HOMODYNE, HETERODYNE]),
)
def test_scenario_params_arrays_equal_scalar_calls(etas, xi0, eta_d, nbar, kind):
    spec = DetectorSpec(kind, eta_d, nbar=nbar)
    for scenario in SCENARIOS:
        t_effs, xi_effs = scenario_params(ChannelSpec(tuple(etas), xi0), rescale_plan(spec), scenario)
        scalar = [scenario_params(ChannelSpec(eta, xi0), rescale_plan(spec), scenario) for eta in etas]
        assert list(zip(t_effs, xi_effs)) == scalar
