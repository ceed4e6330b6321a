import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvtrust.detectors import (
    HETERODYNE,
    HOMODYNE,
    DetectorSpec,
    OutcomeDensity,
    noisy_measurement_density,
    rescaled_lossy_density,
)
from cvtrust.gaussian import coherent_state, loss_channel
from cvtrust.rescaling import (
    NOISE_FACTOR,
    VACUUM_VARIANCE_FLOOR,
    CalibrationFailed,
    DetectorAdjustment,
    RescalePlan,
    harmonize,
    noise_figure_from_vacuum_variance,
    rescale_plan,
    rescale_plan_limit,
)


def test_noise_factor_table():
    assert NOISE_FACTOR == {HOMODYNE: 2.0, HETERODYNE: 1.0}
    assert VACUUM_VARIANCE_FLOOR == {HOMODYNE: 0.25, HETERODYNE: 0.5}


def test_homodyne_plan_frozen_values():
    spec = DetectorSpec.from_noise_product(HOMODYNE, 0.7, two_nu=1e-3)
    plan = rescale_plan(spec)
    assert plan.r_squared == 1.001
    assert np.isclose(plan.eta_e, 0.6993006993006994, rtol=1e-15)
    assert np.isclose(plan.eta_e * plan.r_squared, 0.7, rtol=1e-15)


def test_heterodyne_plan_frozen_values():
    spec = DetectorSpec.from_noise_product(HETERODYNE, 0.7, two_nu=1e-3)
    plan = rescale_plan(spec)
    assert plan.r_squared == 1.0005
    assert np.isclose(plan.r, 1.0002499687578101, rtol=1e-15)
    assert np.isclose(plan.eta_e, 0.6996501749125438, rtol=1e-15)
    assert np.isclose(plan.nbar, 0.0016666666666666666, rtol=1e-15)


def test_zero_noise_plan_is_identity():
    plan = rescale_plan(DetectorSpec(HOMODYNE, 0.8))
    assert plan.r == 1.0
    assert plan.eta_e == 0.8
    assert plan.r_squared_excess == 0.0


def test_excess_accessor_avoids_cancellation():
    # r^2 - 1 evaluated naively loses most digits at tiny nu; the stored
    # excess keeps all of them
    spec = DetectorSpec.from_noise_product(HETERODYNE, 0.999, nu=1e-14)
    plan = rescale_plan(spec)
    assert plan.r_squared_excess == plan.nu
    naive = plan.r_squared - 1.0
    assert naive != plan.r_squared_excess or plan.nu == 0.0


def test_homodyne_excess_is_twice_heterodyne_excess():
    for nu in (0.0, 1e-12, 3e-4, 0.2, 1.7):
        hom = rescale_plan(DetectorSpec.from_noise_product(HOMODYNE, 0.5, nu=nu))
        het = rescale_plan(DetectorSpec.from_noise_product(HETERODYNE, 0.5, nu=nu))
        assert hom.r_squared_excess == 2.0 * het.r_squared_excess


@settings(max_examples=200, deadline=None)
@given(
    eta_d=st.floats(1e-6, 1.0),
    nbar=st.floats(1e-12, 10),
    kind=st.sampled_from([HOMODYNE, HETERODYNE]),
)
def test_plan_identity_eta_e_r_squared(eta_d, nbar, kind):
    plan = rescale_plan(DetectorSpec(kind, eta_d, nbar=nbar))
    assert plan.r >= 1.0
    assert 0 < plan.eta_e <= plan.eta_d
    assert math.isclose(plan.eta_e * plan.r_squared, plan.eta_d, rel_tol=1e-15)
    assert math.isclose(
        plan.r_squared_excess, NOISE_FACTOR[kind] * nbar * (1 - eta_d), rel_tol=1e-15
    )


@settings(max_examples=100, deadline=None)
@given(
    nu_lo=st.floats(0, 1),
    step=st.floats(1e-9, 1),
    kind=st.sampled_from([HOMODYNE, HETERODYNE]),
)
def test_plan_monotone_in_noise(nu_lo, step, kind):
    lo = rescale_plan_limit(nu_lo, kind)
    hi = rescale_plan_limit(nu_lo + step, kind)
    assert hi.r > lo.r
    assert hi.eta_e < lo.eta_e


def test_limit_plan_fields():
    plan = rescale_plan_limit(2e-3, HOMODYNE)
    assert plan.eta_d == 1.0
    assert plan.nbar is None
    assert plan.r_squared == 1.004
    assert np.isclose(plan.eta_e, 1 / 1.004, rtol=1e-15)


def test_limit_plan_is_continuous_limit_of_finite_plans():
    nu = 3e-3
    limit = rescale_plan_limit(nu, HETERODYNE)
    for eta_d in (0.9, 0.99, 0.9999):
        finite = rescale_plan(
            DetectorSpec.from_noise_product(HETERODYNE, eta_d, nu=nu)
        )
        assert np.isclose(finite.r, limit.r, rtol=1e-12)
        assert abs(finite.eta_e - eta_d * limit.eta_e) < 1e-12


def test_limit_plan_validation():
    with pytest.raises(ValueError):
        rescale_plan_limit(1e-3, "dyne")
    with pytest.raises(ValueError, match="noise product nu must be .*, got -0.001"):
        rescale_plan_limit(-1e-3, HOMODYNE)
    with pytest.raises(ValueError):
        rescale_plan_limit(float("nan"), HOMODYNE)
    assert math.copysign(1.0, rescale_plan_limit(-0.0, HOMODYNE).nu) == 1.0
    with pytest.raises(ValueError, match="overflow"):  # 1 + 2 nu is infinite
        rescale_plan_limit(1e308, HOMODYNE)
    assert math.isfinite(rescale_plan_limit(1e308, HETERODYNE).r)


def test_finite_plan_rejects_an_overflowing_r_squared():
    with pytest.raises(ValueError, match="overflow"):  # nu = 9e307
        rescale_plan(DetectorSpec(HOMODYNE, 0.1, nbar=1e308))
    assert math.isfinite(rescale_plan(DetectorSpec(HETERODYNE, 0.1, nbar=1e308)).r)


def test_finite_plan_rejects_a_reduced_efficiency_that_underflows_to_zero():
    # eta_d / r^2 = 1e-300 / (1 + 2e300) rounds to 0.0; at nbar = 1e20 it is subnormal.
    for kind in (HOMODYNE, HETERODYNE):
        with pytest.raises(
            ValueError,
            match=f"^eta_d = 1e-300 at noise product nu = 1e[+]300 underflows "
            f"to zero {kind} reduced efficiency$",
        ):
            rescale_plan(DetectorSpec(kind, 1e-300, nbar=1e300))
        assert rescale_plan(DetectorSpec(kind, 1e-300, nbar=1e20)).eta_e > 0.0
    # the limit form has eta_d = 1 and a finite r^2, so 1 / r^2 stays above zero
    assert rescale_plan_limit(1e308, HETERODYNE).eta_e > 0.0


@pytest.mark.parametrize("name", ["r", "eta_e"])
def test_plan_derives_r_and_eta_e_and_takes_neither(name):
    spec = DetectorSpec(HOMODYNE, 0.9, nbar=0.5)
    plan = RescalePlan(HOMODYNE, 0.9, 0.5, spec.noise_product)
    assert plan == rescale_plan(spec)
    assert [f.name for f in fields(RescalePlan) if f.init] == ["kind", "eta_d", "nbar", "nu"]
    with pytest.raises(TypeError, match=name):
        RescalePlan(HOMODYNE, 0.9, 0.5, spec.noise_product, **{name: 1.0})
    with pytest.raises(ValueError, match=name):
        replace(plan, **{name: 1.0})
    with pytest.raises(FrozenInstanceError):
        setattr(plan, name, 1.0)
    with pytest.raises(ValueError, match="^noise product nu = 1e[+]308 makes the homodyne r"):
        RescalePlan(HOMODYNE, 1.0, None, 1e308)


def test_plan_json_dict():
    plan = rescale_plan(DetectorSpec(HETERODYNE, 0.9, nbar=0.5))
    d = plan.to_json_dict()
    assert set(d) == {"kind", "eta_d", "nbar", "nu", "r", "eta_e"}
    assert d["kind"] == HETERODYNE
    assert d["nu"] == plan.nu


def test_noise_figure_from_vacuum_variance_frozen():
    assert np.isclose(noise_figure_from_vacuum_variance(0.25025, HOMODYNE), 5e-4, rtol=1e-11)
    assert np.isclose(noise_figure_from_vacuum_variance(0.5005, HETERODYNE), 1e-3, rtol=1e-11)


def test_noise_figure_floor_is_exact():
    for kind, floor in VACUUM_VARIANCE_FLOOR.items():
        nu = noise_figure_from_vacuum_variance(floor, kind)
        assert nu == 0.0 and math.copysign(1.0, nu) == 1.0
    with pytest.raises(CalibrationFailed, match="below the homodyne floor 0.25"):
        noise_figure_from_vacuum_variance(0.2499999, HOMODYNE)
    with pytest.raises(CalibrationFailed, match="below the heterodyne floor 0.5"):
        noise_figure_from_vacuum_variance(0.2, HETERODYNE)
    with pytest.raises(ValueError) as overflow:  # 4 var - 1 overflows to infinity
        noise_figure_from_vacuum_variance(1e308, HOMODYNE)
    assert not isinstance(overflow.value, CalibrationFailed)


def test_noise_figure_names_a_variance_whose_noise_product_overflows():
    with pytest.raises(ValueError, match="variance 1e[+]308 is too large"):
        noise_figure_from_vacuum_variance(1e308, HOMODYNE)
    assert math.isfinite(noise_figure_from_vacuum_variance(5e307, HETERODYNE))


@pytest.mark.parametrize("variance", [math.inf, -math.inf, math.nan])
def test_noise_figure_rejects_a_non_finite_variance(variance):
    for kind in (HOMODYNE, HETERODYNE):
        with pytest.raises(ValueError, match="not a finite number") as bad_input:
            noise_figure_from_vacuum_variance(variance, kind)
        assert not isinstance(bad_input.value, CalibrationFailed)


def test_noise_figure_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="kind must be one of"):
        noise_figure_from_vacuum_variance(0.3, "dyne")


@settings(max_examples=100, deadline=None)
@given(nu=st.floats(0, 5), kind=st.sampled_from([HOMODYNE, HETERODYNE]))
def test_noise_figure_roundtrip(nu, kind):
    # forward: vacuum-probe variance of a limit-plan detector
    if kind == HOMODYNE:
        variance = (1 + 2 * nu) / 4
    else:
        variance = (1 + nu) / 2
    fitted = noise_figure_from_vacuum_variance(variance, kind)
    assert math.isclose(fitted, nu, rel_tol=1e-12, abs_tol=1e-15)


def test_harmonize_single_detector_is_noop():
    spec = DetectorSpec(HOMODYNE, 0.8, nbar=0.3)
    result = harmonize([spec])
    assert result.eta_e_min == rescale_plan(spec).eta_e
    (adj,) = result.adjustments
    assert adj.spec == spec and adj.base_plan == rescale_plan(spec)
    assert adj.added_loss == 1.0
    assert adj.added_noise_nu == 0.0


def test_harmonize_requires_detectors():
    with pytest.raises(ValueError):
        harmonize([])


def test_detector_adjustment_holds_only_the_two_remedies():
    assert [f.name for f in fields(DetectorAdjustment)] == [
        "spec", "base_plan", "added_loss", "added_noise_nu"
    ]


def test_harmonize_frozen_pair():
    hom = DetectorSpec.from_noise_product(HOMODYNE, 0.7, two_nu=1e-3)
    het = DetectorSpec.from_noise_product(HETERODYNE, 0.7, two_nu=1e-3)
    result = harmonize([hom, het])
    # the homodyne detector has the smaller reduced efficiency
    assert np.isclose(result.eta_e_min, 0.7 / 1.001, rtol=1e-15)
    adj_hom, adj_het = result.adjustments
    assert adj_hom.added_loss == 1.0 and adj_hom.added_noise_nu == 0.0
    assert adj_het.added_loss < 1.0
    assert adj_het.added_noise_nu > 0.0
    assert adj_het.outcome_noise_variance == adj_het.added_noise_nu / 2


# A mixed set whose least reduced efficiency is the last detector's, 0.6 / 1.96;
# the two at eta_d = 1 are noiseless, so their nbar would diverge under any
# added noise product.
_MIXED = [
    DetectorSpec(HOMODYNE, 1.0),
    DetectorSpec(HETERODYNE, 1.0),
    DetectorSpec(HOMODYNE, 0.9, nbar=0.05),
    DetectorSpec(HETERODYNE, 0.7, nbar=0.4),
    DetectorSpec(HOMODYNE, 0.6, nbar=1.2),
]
_ALPHAS = [0.0, 1.0 + 0.5j, -3.0 + 2.0j, 100.0j, 1e3 - 7.0j]


def _gaps(got, want):
    """Largest relative gaps of two outcome densities' means and variances."""
    scale = np.maximum(np.abs(got.mean), np.abs(want.mean))
    mean_gap = np.max(np.abs(got.mean - want.mean) / np.where(scale > 0, scale, 1.0))
    return mean_gap, abs(got.variance - want.variance) / want.variance


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_harmonize_remedies_reproduce_the_lossy_ideal_detector_at_eta_e_min(alpha):
    eps = np.finfo(float).eps
    result = harmonize(_MIXED)
    assert result.eta_e_min == rescale_plan(_MIXED[-1]).eta_e
    state = coherent_state(alpha)
    misses = []
    for adj in result.adjustments:
        spec, eta_e_min = adj.spec, result.eta_e_min
        # front loss: the detector now sees eta_d' = added_loss eta_d at unchanged nu
        got = noisy_measurement_density(loss_channel(state, adj.added_loss), spec)
        r = math.sqrt(adj.added_loss * spec.eta_d / eta_e_min)
        want = rescaled_lossy_density(state, spec.kind, eta_e_min, r)
        assert max(_gaps(got, want)) <= 4 * eps, (spec, "loss")
        # outcome noise: eta_d' = eta_d, variance raised per component
        noisy = noisy_measurement_density(state, spec)
        r = math.sqrt(spec.eta_d / eta_e_min)
        want = rescaled_lossy_density(state, spec.kind, eta_e_min, r)
        got = OutcomeDensity(noisy.mean, noisy.variance + adj.outcome_noise_variance)
        assert max(_gaps(got, want)) <= 4 * eps, (spec, "noise")
        if adj.added_noise_nu > 0.0:
            # control: the whole added_noise_nu as the variance misses the target
            control = OutcomeDensity(noisy.mean, noisy.variance + adj.added_noise_nu)
            misses.append(_gaps(control, want)[1])
    assert len(misses) == 4 and min(misses) > 0.1


def test_harmonize_noise_remedy_exists_at_unit_efficiency():
    perfect = DetectorSpec(HOMODYNE, 1.0)
    lossy = DetectorSpec(HOMODYNE, 0.5)
    result = harmonize([perfect, lossy])
    assert result.eta_e_min == 0.5
    adj = result.adjustments[0]
    assert adj.added_loss == 0.5
    # r^2 = eta_d / eta_e_min = 2 needs nu = 1/2, an outcome noise of variance 1/4
    assert adj.added_noise_nu == 0.5
    assert adj.outcome_noise_variance == 0.25
