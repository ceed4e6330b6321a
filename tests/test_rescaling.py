import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvtrust.detectors import HETERODYNE, HOMODYNE, DetectorSpec
from cvtrust.rescaling import (
    NOISE_FACTOR,
    VACUUM_VARIANCE_FLOOR,
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
    with pytest.raises(ValueError):
        rescale_plan_limit(-1e-3, HOMODYNE)
    with pytest.raises(ValueError):
        rescale_plan_limit(float("nan"), HOMODYNE)
    with pytest.raises(ValueError, match="overflow"):  # 1 + 2 nu is infinite
        rescale_plan_limit(1e308, HOMODYNE)
    assert math.isfinite(rescale_plan_limit(1e308, HETERODYNE).r)


def test_finite_plan_rejects_an_overflowing_r_squared():
    with pytest.raises(ValueError, match="overflow"):  # nu = 9e307
        rescale_plan(DetectorSpec(HOMODYNE, 0.1, nbar=1e308))
    assert math.isfinite(rescale_plan(DetectorSpec(HETERODYNE, 0.1, nbar=1e308)).r)


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
    assert noise_figure_from_vacuum_variance(0.25, HOMODYNE) == 0.0
    assert noise_figure_from_vacuum_variance(0.5, HETERODYNE) == 0.0
    with pytest.raises(ValueError):
        noise_figure_from_vacuum_variance(0.2499999, HOMODYNE)
    with pytest.raises(ValueError):
        noise_figure_from_vacuum_variance(0.2, HETERODYNE)
    with pytest.raises(ValueError):  # 4 var - 1 overflows to infinity
        noise_figure_from_vacuum_variance(1e308, HOMODYNE)


def test_noise_figure_names_a_variance_whose_noise_product_overflows():
    with pytest.raises(ValueError, match="variance 1e[+]308 is too large"):
        noise_figure_from_vacuum_variance(1e308, HOMODYNE)
    assert math.isfinite(noise_figure_from_vacuum_variance(5e307, HETERODYNE))


@pytest.mark.parametrize("variance", [math.inf, -math.inf, math.nan])
def test_noise_figure_rejects_a_non_finite_variance(variance):
    for kind in (HOMODYNE, HETERODYNE):
        with pytest.raises(ValueError, match="not a finite number"):
            noise_figure_from_vacuum_variance(variance, kind)


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
    assert adj.added_loss == 1.0
    assert adj.added_noise_nu == 0.0
    assert adj.loss_adjusted_spec == spec
    assert adj.noise_adjusted_spec == spec


def test_harmonize_requires_detectors():
    with pytest.raises(ValueError):
        harmonize([])


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


def test_harmonize_both_remedies_reach_target():
    specs = [
        DetectorSpec(HOMODYNE, 0.9, nbar=0.05),
        DetectorSpec(HETERODYNE, 0.7, nbar=0.4),
        DetectorSpec(HOMODYNE, 0.6, nbar=1.2),
    ]
    result = harmonize(specs)
    for adj in result.adjustments:
        assert rescale_plan(adj.loss_adjusted_spec).eta_e == pytest.approx(
            result.eta_e_min, rel=1e-12
        )
        assert rescale_plan(adj.noise_adjusted_spec).eta_e == pytest.approx(
            result.eta_e_min, rel=1e-12
        )
        # the loss remedy must not touch the noise product
        assert rescale_plan(adj.loss_adjusted_spec).nu == pytest.approx(
            adj.base_plan.nu, rel=1e-12, abs=1e-18
        )


def test_harmonize_unit_efficiency_noise_remedy_is_unavailable():
    perfect = DetectorSpec(HOMODYNE, 1.0)
    lossy = DetectorSpec(HOMODYNE, 0.5)
    result = harmonize([perfect, lossy])
    assert result.eta_e_min == 0.5
    adj = result.adjustments[0]
    assert adj.noise_adjusted_spec is None
    assert adj.loss_adjusted_spec == DetectorSpec(HOMODYNE, 0.5)
    assert adj.added_loss == 0.5
    # the nu that would emulate the target at eta_d = 1
    assert adj.added_noise_nu == pytest.approx(0.5, rel=1e-15)
