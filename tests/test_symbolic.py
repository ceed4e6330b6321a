"""A symbolic certificate of the reduction, and of the package's closed forms.

The reduction is an identity of measurements: for every input state, not
only the Gaussian ones the labs sample, a noisy detector (eta_d, nbar)
gives the outcomes of a pure loss eta_e followed by an ideal detector whose
outcome is multiplied by r.  Here it is proved for an undefined
characteristic function chi of the input's quadratures, the vacuum's
variance being 1/4, with nu = nbar (1 - eta_d) the detector's noise
product:

(a) the two sides' outcome characteristic functions are equal;
(b) the plan (r^2, eta_e) is the one solution of the two matching
    equations, gain and added variance, and its eta_d -> 1 limit is the
    limit plan;
(c) both harmonize remedies land on the shared eta_e_min;
(d) the channel composed with the detector, in shot-noise units, gives the
    scan's trusted and untrusted folds;
(f) each proved expression, evaluated in floats, equals the package's.

Part (e), the closed-form detector-trusted bound, waits for that rate.
sympy is imported unguarded: without it this module fails, not skips.
"""

import math
import random
from functools import cache

import pytest
import sympy
from sympy import Rational, exp, sqrt
from sympy.core.function import AppliedUndef

from cvtrust.channel import TRUSTED, UNTRUSTED, ChannelSpec, scenario_params
from cvtrust.detectors import HETERODYNE, HOMODYNE, KINDS, DetectorSpec
from cvtrust.rescaling import harmonize, rescale_plan, rescale_plan_limit

eta, eta_d, nu, xi0, eta_e_min = sympy.symbols("eta eta_d nu xi0 eta_e_min", positive=True)
R, E = sympy.symbols("R E")  # the unknowns r^2 and eta_e of the reduced detector
K = {HOMODYNE: (sympy.Symbol("k", real=True),), HETERODYNE: sympy.symbols("k_x k_p", real=True)}
chi = sympy.Function("chi")  # of one argument for homodyne, of two for heterodyne

# The plan under proof: r^2 per kind, and eta_e = eta_d / r^2 for both.
R_SQUARED = {HOMODYNE: 1 + 2 * nu, HETERODYNE: 1 + nu}


def _gaussian(variance, ks):
    """Characteristic function of a centred Gaussian of this variance per component."""
    return exp(-variance * sum(k**2 for k in ks) / 2)


def _attenuate(cf, transmittance, added_variance):
    """A beam splitter of this transmittance that adds this variance per quadrature."""
    return lambda *ks: cf(*(sqrt(transmittance) * k for k in ks)) * _gaussian(added_variance, ks)


def _ideal(kind, cf):
    """An ideal measurement: homodyne reads the quadrature, heterodyne adds a vacuum 1/4."""
    if kind == HOMODYNE:
        return cf
    return lambda *ks: cf(*ks) * _gaussian(Rational(1, 4), ks)


def _noisy(kind, cf, efficiency=eta_d, noise=2 * nu):
    """The noisy detector: a thermal loss whose port adds (1 - eta_d)(2 nbar + 1) / 4,
    which is (1 - eta_d + noise) / 4 with noise = 2 nu, then an ideal measurement."""
    return _ideal(kind, _attenuate(cf, efficiency, (1 - efficiency + noise) / 4))


def _reduced(kind, cf, r_squared, eta_e):
    """The lossy ideal detector at eta_e, its outcome multiplied by r."""
    lossy = _ideal(kind, _attenuate(cf, eta_e, (1 - eta_e) / 4))
    return lambda *ks: lossy(*(sqrt(r_squared) * k for k in ks))


def _gain_and_added_variance(cf, ks):
    """(g, 4 s) of a characteristic function chi(sqrt(g) k) exp(-s |k|^2 / 2)."""
    expr = cf(*ks)
    (call,) = expr.atoms(AppliedUndef)
    (gain,) = {sympy.simplify((arg / k) ** 2) for arg, k in zip(call.args, ks)}
    exponent = sympy.expand(sympy.powsimp(expr / call).args[0])
    return gain, -8 * exponent.coeff(ks[0] ** 2)


@cache
def plan_solutions(kind):
    """Every (r^2, eta_e) giving the reduced detector the noisy one's gain and added variance."""
    ks = K[kind]
    noisy = _gain_and_added_variance(_noisy(kind, chi), ks)
    reduced = _gain_and_added_variance(_reduced(kind, chi, R, E), ks)
    return sympy.solve([a - b for a, b in zip(reduced, noisy)], [R, E], dict=True)


@cache
def remedies(kind):
    """(added_loss, added_noise_nu) that bring this detector's eta_e to eta_e_min."""
    added_loss = eta_e_min / (eta_d / R_SQUARED[kind])
    delta = sympy.Symbol("delta", real=True)
    raised_eta_e = eta_d / R_SQUARED[kind].subs(nu, nu + delta)
    (added_noise_nu,) = sympy.solve(raised_eta_e - eta_e_min, delta)
    return added_loss, added_noise_nu


@cache
def fold(kind, scenario):
    """(t, xi) of the channel composed with the detector, in shot-noise units (vacuum 1).

    The channel takes a quadrature variance v to eta v + 1 - eta + eta xi0.
    The noisy detector's outcome variance is eta_d w + 1 - eta_d + 2 nu,
    plus the heterodyne's vacuum; a trusted detector's outcome is divided
    by its calibrated r^2.  The fold is what reads as t v + 1 - t + xi, plus
    the same vacuum.
    """
    v, t, xi = sympy.symbols("v t xi")
    vacuum = 1 if kind == HETERODYNE else 0
    outcome = eta_d * (eta * v + 1 - eta + eta * xi0) + 1 - eta_d + 2 * nu + vacuum
    if scenario == TRUSTED:
        outcome /= R_SQUARED[kind]
    residual = sympy.expand(outcome - (t * v + 1 - t + xi + vacuum))
    (solution,) = sympy.solve([residual.coeff(v, 1), residual.coeff(v, 0)], [t, xi], dict=True)
    return solution[t], solution[xi]


# (a) The reduction holds for every input state.


@pytest.mark.parametrize("kind", KINDS)
def test_noisy_detector_equals_rescaled_lossy_detector_for_any_state(kind):
    r_squared, ks = R_SQUARED[kind], K[kind]
    noisy = _noisy(kind, chi)(*ks)
    reduced = _reduced(kind, chi, r_squared, eta_d / r_squared)(*ks)
    assert sympy.simplify(noisy - reduced) == 0


def test_heterodyne_noise_of_nu_in_place_of_two_nu_leaves_a_residual():
    r_squared, ks = R_SQUARED[HETERODYNE], K[HETERODYNE]
    wrong = _noisy(HETERODYNE, chi, noise=nu)(*ks)
    reduced = _reduced(HETERODYNE, chi, r_squared, eta_d / r_squared)(*ks)
    assert sympy.simplify(wrong - reduced) != 0


# (b) The plan is the only one, and its eta_d -> 1 limit is the limit plan.


@pytest.mark.parametrize("kind", KINDS)
def test_plan_is_the_unique_solution_of_gain_and_added_variance(kind):
    r_squared = R_SQUARED[kind]
    assert plan_solutions(kind) == [{R: r_squared, E: eta_d / r_squared}]
    (solution,) = plan_solutions(kind)
    assert sympy.limit(solution[E], eta_d, 1) == 1 / r_squared
    assert sympy.limit(solution[R], eta_d, 1) == r_squared


# (c) Both harmonize remedies land on eta_e_min.


@pytest.mark.parametrize("kind", KINDS)
def test_loss_remedy_is_a_detector_of_efficiency_eta_d_times_the_loss_at_eta_e_min(kind):
    added_loss, _ = remedies(kind)
    ks = K[kind]
    # A passive loss in front scales eta_d and keeps nu.
    behind_loss = _noisy(kind, _attenuate(chi, added_loss, (1 - added_loss) / 4))(*ks)
    assert sympy.simplify(behind_loss - _noisy(kind, chi, efficiency=eta_d * added_loss)(*ks)) == 0
    assert sympy.simplify(eta_d * added_loss / R_SQUARED[kind]) == eta_e_min


@pytest.mark.parametrize("kind", KINDS)
def test_noise_remedy_is_outcome_noise_of_half_its_nu_and_lands_on_eta_e_min(kind):
    _, added_noise_nu = remedies(kind)
    ks = K[kind]
    # A centred outcome noise of variance added_noise_nu / 2 raises nu by added_noise_nu.
    with_noise = _noisy(kind, chi)(*ks) * _gaussian(added_noise_nu / 2, ks)
    raised = _noisy(kind, chi, noise=2 * (nu + added_noise_nu))(*ks)
    assert sympy.simplify(with_noise - raised) == 0
    assert sympy.simplify(eta_d / R_SQUARED[kind].subs(nu, nu + added_noise_nu)) == eta_e_min


# (d) The channel composed with the detector gives the scan's folds.


@pytest.mark.parametrize("kind", KINDS)
def test_untrusted_fold_attributes_detector_loss_and_noise_to_the_channel(kind):
    t, xi = fold(kind, UNTRUSTED)
    assert sympy.simplify(t - eta * eta_d) == 0
    assert sympy.simplify(xi - (t * xi0 + 2 * nu)) == 0


@pytest.mark.parametrize("kind", KINDS)
def test_trusted_fold_joins_the_reduced_efficiency_to_the_channel(kind):
    t, xi = fold(kind, TRUSTED)
    assert sympy.simplify(t - eta * eta_d / R_SQUARED[kind]) == 0
    assert sympy.simplify(xi - t * xi0) == 0


# (f) The proved expressions, in floats, are the package's.

# Each package float lies within ULPS units in the last place of the proved
# expression's value, the ulp taken at the largest magnitude of the value
# and of the terms whose difference gives it.  The two sides round in
# different orders; the largest gap on these points is 2 ulp.
ULPS = 4
POINTS = 64


def _assert_ulps(got, want, *terms):
    scale = max(abs(x) for x in (want, *terms))
    assert abs(got - want) <= ULPS * math.ulp(scale), (got, want, (got - want) / math.ulp(scale))


def _floats(args, *exprs):
    """Each expression as a function of args on Python floats."""
    return [sympy.lambdify(args, x, "math") for x in exprs]


def _seeded_specs(seed):
    """POINTS detectors of each kind at seeded (eta_d, nbar), nu from 1e-4 to 0.5."""
    rng = random.Random(seed)
    specs = []
    for kind in KINDS:
        for _ in range(POINTS):
            detector_eta = rng.uniform(0.05, 0.99)
            noise_product = 10.0 ** rng.uniform(-4.0, -0.3)
            specs.append(DetectorSpec(kind, detector_eta, noise_product / (1.0 - detector_eta)))
    return specs


def test_rescale_plans_equal_the_proved_plan():
    lambdified = {}
    for kind in KINDS:
        (solution,) = plan_solutions(kind)
        # The eta_d -> 1 limits are r^2 and 1 / r^2, as the plan test proves.
        lambdified[kind] = _floats((eta_d, nu), solution[R], solution[E])
        lambdified[kind] += _floats(nu, R_SQUARED[kind], 1 / R_SQUARED[kind])
    for spec in _seeded_specs(1):
        plan, limit = rescale_plan(spec), rescale_plan_limit(spec.noise_product, spec.kind)
        r_squared, eta_e, limit_r_squared, limit_eta_e = lambdified[spec.kind]
        _assert_ulps(plan.r_squared, r_squared(plan.eta_d, plan.nu))
        _assert_ulps(plan.eta_e, eta_e(plan.eta_d, plan.nu))
        _assert_ulps(limit.r_squared, limit_r_squared(plan.nu))
        _assert_ulps(limit.eta_e, limit_eta_e(plan.nu))


def test_harmonize_remedies_equal_the_proved_remedies():
    specs = _seeded_specs(2)
    random.Random(3).shuffle(specs)
    lambdified = {kind: _floats((eta_d, nu, eta_e_min), *remedies(kind)) for kind in KINDS}
    for pair in zip(specs[::2], specs[1::2]):
        result = harmonize(pair)
        assert result.eta_e_min == min(rescale_plan(s).eta_e for s in pair)
        for adjustment in result.adjustments:
            plan, m = adjustment.base_plan, result.eta_e_min
            added_loss, added_noise_nu = (f(plan.eta_d, plan.nu, m) for f in lambdified[plan.kind])
            _assert_ulps(adjustment.added_loss, added_loss)
            _assert_ulps(adjustment.added_noise_nu, added_noise_nu, plan.nu, plan.eta_d / m)


@pytest.mark.parametrize("scenario", (TRUSTED, UNTRUSTED))
def test_scenario_params_equal_the_proved_folds(scenario):
    rng = random.Random(4)
    etas = tuple(rng.uniform(1e-4, 1.0) for _ in range(POINTS))
    channel_xi0 = rng.uniform(0.0, 0.1)
    for spec in _seeded_specs(5)[:: POINTS // 4]:
        plan = rescale_plan(spec)
        t, xi = _floats((eta, xi0, eta_d, nu), *fold(spec.kind, scenario))
        t_effs, xi_effs = scenario_params(ChannelSpec(etas, channel_xi0), plan, scenario)
        for channel_eta, t_eff, xi_eff in zip(etas, t_effs, xi_effs):
            args = channel_eta, channel_xi0, plan.eta_d, plan.nu
            _assert_ulps(t_eff, t(*args))
            _assert_ulps(xi_eff, xi(*args), t(*args) * channel_xi0, 2 * plan.nu)
            scalar_call = scenario_params(ChannelSpec(channel_eta, channel_xi0), plan, scenario)
            assert scalar_call == (t_eff, xi_eff)
