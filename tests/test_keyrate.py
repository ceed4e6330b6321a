import csv
import decimal
import hashlib
import io
import math
import platform
import random
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvtrust.channel import (
    IDEAL, SCENARIO_TABLE, SCENARIOS, TRUSTED, UNTRUSTED, ChannelSpec, scenario_params,
)
from cvtrust.detectors import HETERODYNE, HOMODYNE, DetectorSpec
from cvtrust.jsontext import json_text
from cvtrust.keyrate import (
    _NEAR_SYMMETRIC,
    PROTOCOLS,
    RATE_FUNCTIONS,
    RateParams,
    ScanConfig,
    ScanTable,
    get_rate_function,
    loss_db_to_transmittance,
    reference_rate,
    run_scan,
)
from cvtrust.rescaling import harmonize, rescale_plan
from helpers import report_texts

HET_SPEC = DetectorSpec.from_noise_product(HETERODYNE, 0.7, two_nu=1e-3)
HOM_SPEC = DetectorSpec.from_noise_product(HOMODYNE, 0.7, two_nu=1e-3)


def het_scan_config(**overrides):
    base = dict(loss_db=(0.0, 5.0, 10.0), xi0=0.01, detectors=(HET_SPEC,))
    base.update(overrides)
    return ScanConfig(**base)


def test_rate_params_validation():
    RateParams()
    with pytest.raises(ValueError):
        RateParams(modulation_variance=0.0)
    with pytest.raises(ValueError):
        RateParams(reconciliation_efficiency=0.0)
    with pytest.raises(ValueError):
        RateParams(reconciliation_efficiency=1.1)


def test_reference_rate_lossless_noiseless():
    # perfect channel: the Holevo term vanishes and the rate is
    # beta * I_AB with I_AB = log2(1 + V_A / 2) resp. 0.5 log2(1 + V_A)
    assert np.isclose(
        reference_rate(1.0, 0.0, HETERODYNE), 0.95 * math.log2(3.0), rtol=1e-14
    )
    assert np.isclose(
        reference_rate(1.0, 0.0, HOMODYNE), 0.95 * 0.5 * math.log2(5.0), rtol=1e-14
    )
    assert reference_rate(1.0, 0.0, HETERODYNE) == 1.5057143756850981
    assert reference_rate(1.0, 0.0, HOMODYNE) == 1.1029158450715089


def test_reference_rate_frozen_midrange_values():
    assert reference_rate(0.5, 0.05, HETERODYNE) == 0.09579332524863471
    assert reference_rate(0.5, 0.05, HOMODYNE) == 0.08843644559721409


def test_reference_rate_clamps_at_zero():
    assert reference_rate(0.05, 0.5, HETERODYNE) == 0.0
    assert reference_rate(1e-4, 0.0, HOMODYNE, RateParams(reconciliation_efficiency=0.5)) == 0.0


def test_reference_rate_validation():
    with pytest.raises(ValueError):
        reference_rate(0.0, 0.0, HETERODYNE)
    with pytest.raises(ValueError):
        reference_rate(1.5, 0.0, HETERODYNE)
    with pytest.raises(ValueError):
        reference_rate(0.5, -1e-3, HETERODYNE)
    with pytest.raises(ValueError):
        reference_rate(0.5, 0.0, "photon-counting")


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(1e-3, 1.0),
    xi=st.floats(0, 0.3),
    kind=st.sampled_from([HOMODYNE, HETERODYNE]),
)
def test_reference_rate_is_nonnegative_and_finite(t, xi, kind):
    rate = reference_rate(t, xi, kind)
    assert math.isfinite(rate)
    assert rate >= 0.0


def test_rate_params_rejects_an_overflowing_modulation_variance():
    assert RateParams(modulation_variance=1e154).modulation_variance == 1e154
    for bad in (1.4e154, 1e308, math.inf):
        with pytest.raises(ValueError, match="overflows"):
            RateParams(modulation_variance=bad)


def test_reference_rate_is_zero_at_huge_excess_noise():
    # The textbook entropy (x+1) log2(x+1) - x log2 x collapses once x + 1
    # rounds to x, which used to leave 2.7549 bits at any xi_eff above ~6e16.
    for xi in (1e9, 5.6e16, 1e20, 1e60, 1e77, 1e100, 1e300, sys.float_info.max):
        for t in (1e-12, 0.5, 1.0):
            for kind in (HOMODYNE, HETERODYNE):
                assert reference_rate(t, xi, kind) == 0.0


def _rate_by_decimal(t, xi, kind, v_mod):
    """The textbook rate formula evaluated with 700 significant digits."""
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=700, Emax=10**6, Emin=-(10**6))):
        t, xi, v_mod = D(t), D(xi), D(v_mod)
        ln2 = D(2).ln()
        a = v_mod + 1
        b = t * v_mod + 1 + xi
        c_sq = t * (a * a - 1)
        if kind == HOMODYNE:
            mutual_information = (1 + t * v_mod / (1 + xi)).ln() / (2 * ln2)
            nu3 = (a * (a - c_sq / b)).sqrt()
        else:
            mutual_information = (1 + t * v_mod / (2 + xi)).ln() / ln2
            nu3 = a - c_sq / (b + 1)
        delta = a * a + b * b - 2 * c_sq
        det = a * b - c_sq
        disc = (delta * delta - 4 * det * det).sqrt()

        def entropy(nu):
            x = (nu - 1) / 2
            return D(0) if x <= 0 else ((x + 1) * (x + 1).ln() - x * x.ln()) / ln2

        holevo = (
            entropy(((delta + disc) / 2).sqrt())
            + entropy(((delta - disc) / 2).sqrt())
            - entropy(nu3)
        )
        return float(max(D(0.95) * mutual_information - holevo, D(0)))


@pytest.mark.parametrize("kind", [HOMODYNE, HETERODYNE])
@pytest.mark.parametrize(
    "t, xi, v_mod, tol",
    [
        (0.5, 0.05, 4.0, 1e-13),
        # b close to a, where the textbook delta^2 - 4 det^2 cancels (it
        # was off by 5.7e-7 bits at the first two points)
        (1.0, 1e-15, 4.0, 1e-13),
        (1.0, 1e-13, 4.0, 1e-13),
        (1.0, 1e-14, 4.0, 1e-13),
        (1 - 1e-12, 4e-12, 4.0, 1e-13),
        (0.9999, 4e-4, 4.0, 1e-13),
        # b above 1e2: huge noise, or a large modulation variance (the
        # first three were off by 2.8e-9, 2.2e-5 and 9.4e-4 bits while the
        # textbook forms were kept up to b = 1e8)
        (0.9, 0.01, 1e5, 1e-11),
        (0.9, 0.01, 1e7, 1e-11),
        (0.9, 0.01, 1e8, 1e-11),
        (0.999, 1e-3, 99.0, 1e-11),
        (0.5, 1e20, 4.0, 0.0),
        (0.5, 1e300, 4.0, 0.0),
        (0.9, 0.01, 1e9, 1e-12),
        (1.0, 0.01, 1e9, 1e-12),
        (0.99, 0.02, 1e12, 1e-8),
    ],
)
def test_reference_rate_matches_a_high_precision_evaluation(t, xi, v_mod, tol, kind):
    rate = reference_rate(t, xi, kind, RateParams(modulation_variance=v_mod))
    assert rate == pytest.approx(_rate_by_decimal(t, xi, kind, v_mod), rel=0, abs=tol)


def _frozen_rate_points():
    """(t, xi, kind, V_A) points the scan digests do not reach."""
    points = []
    for kind in (HOMODYNE, HETERODYNE):
        for v_mod in (0.25, 1.0, 4.0, 17.5, 1e3):
            for t, xi in ((1.0, 0.0), (1.0, 0.02), (0.3, 0.0), (0.5, 0.05), (1e-3, 1e-4)):
                points.append((t, xi, kind, v_mod))
        # b = t V_A + 1 + xi on either side of _LARGE_NOISE: 0.5 * 4 + 1 + 97 is 100 exactly.
        xi = 97.0
        for _ in range(4):
            xi = math.nextafter(xi, 0.0)
        for _ in range(9):
            points.append((0.5, xi, kind, 4.0))
            xi = math.nextafter(xi, math.inf)
        # |gap| = |xi - (1 - t) V_A| on either side of _NEAR_SYMMETRIC * a, a = V_A + 1.
        for t, xi in ((1.0, 5e-4), (0.75, 1.0 + 5e-4), (0.75, 1.0 - 5e-4)):
            for _ in range(4):
                xi = math.nextafter(xi, 0.0)
            for _ in range(9):
                points.append((t, xi, kind, 4.0))
                xi = math.nextafter(xi, math.inf)
    rng = random.Random(20231)
    for _ in range(400):
        t = 10.0 ** rng.uniform(-2.0, 0.0)
        xi = 10.0 ** rng.uniform(-14.0, -1.0)
        points.append((t, xi, rng.choice((HOMODYNE, HETERODYNE)), 10.0 ** rng.uniform(-1.0, 3.0)))
    return points


# SHA-256 of the joined .hex() of reference_rate at _frozen_rate_points(),
# recorded with CPython 3.11.7 on x86_64 Linux.
FROZEN_RATE_DIGEST = "8b9c872a0146dcf262dd0dbfba36204f7c932b699b95f59c93b42f95bb1cadaf"


def test_reference_rate_bits_are_frozen_off_the_scan_grids():
    rates = [
        reference_rate(t, xi, kind, RateParams(modulation_variance=v_mod)).hex()
        for t, xi, kind, v_mod in _frozen_rate_points()
    ]
    digest = hashlib.sha256(",".join(rates).encode()).hexdigest()
    assert digest == FROZEN_RATE_DIGEST, (
        f"reference_rate bits changed (recorded with CPython 3.11.7 on x86_64 Linux; running "
        f"{platform.python_implementation()} {platform.python_version()} on {platform.platform()})"
    )


_EXCESS_NOISE = st.one_of(st.just(0.0), st.floats(-300, 300).map(lambda e: 10.0**e))


@settings(max_examples=300, deadline=None)
@given(
    t=st.floats(1e-12, 1.0, exclude_min=True),
    xis=st.lists(_EXCESS_NOISE, min_size=2, max_size=2),
    kind=st.sampled_from([HOMODYNE, HETERODYNE]),
)
def test_reference_rate_is_finite_and_non_increasing_in_noise(t, xis, kind):
    lo, hi = sorted(xis)
    rate_lo, rate_hi = reference_rate(t, lo, kind), reference_rate(t, hi, kind)
    assert math.isfinite(rate_lo) and math.isfinite(rate_hi)
    assert rate_lo >= 0.0 and rate_hi >= 0.0
    # Up to rounding: the textbook forms kept for moderate noise carry up
    # to about 4e-11 bits of it where b is within a few percent of a.
    assert rate_hi <= rate_lo + 1e-9


def test_reference_rate_monotone_in_noise_and_loss():
    rates_by_xi = [reference_rate(0.5, xi, HETERODYNE) for xi in (0, 0.01, 0.05, 0.1)]
    assert all(a >= b for a, b in zip(rates_by_xi, rates_by_xi[1:]))
    rates_by_t = [reference_rate(t, 0.01, HETERODYNE) for t in (1.0, 0.5, 0.25, 0.1)]
    assert all(a >= b for a, b in zip(rates_by_t, rates_by_t[1:]))


def test_rate_registry():
    assert "asymptotic-rr-gaussian" in RATE_FUNCTIONS
    assert get_rate_function("asymptotic-rr-gaussian") is reference_rate
    with pytest.raises(ValueError):
        get_rate_function("pollyanna")


def test_loss_db_to_transmittance():
    assert loss_db_to_transmittance(0.0) == 1.0
    assert np.isclose(loss_db_to_transmittance(10.0), 0.1, rtol=1e-15)
    assert np.isclose(loss_db_to_transmittance(3.0), 10 ** -0.3, rtol=1e-15)
    with pytest.raises(ValueError):
        loss_db_to_transmittance(-1.0)


def test_scan_config_validation():
    with pytest.raises(ValueError):
        het_scan_config(loss_db=())
    with pytest.raises(ValueError):
        het_scan_config(loss_db=(0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        het_scan_config(loss_db=(-1.0, 0.0))
    # losses without a nonzero transmittance
    for loss_db in ((float("nan"), 5.0), (0.0, float("inf")), (5.0, 5000.0)):
        with pytest.raises(ValueError):
            het_scan_config(loss_db=loss_db)
    het_scan_config(loss_db=(0.0, 3090.0))  # a subnormal transmittance is one
    with pytest.raises(ValueError):
        het_scan_config(xi0=-1e-3)
    with pytest.raises(ValueError):
        het_scan_config(detectors=())
    with pytest.raises(ValueError):
        het_scan_config(scenarios=("ideal", "optimistic"))
    with pytest.raises(ValueError):
        het_scan_config(scenarios=())
    with pytest.raises(ValueError):
        het_scan_config(protocol="twin-field")
    with pytest.raises(ValueError):
        het_scan_config(rate_name="not-registered")


def test_scan_config_untrusted_needs_matched_detectors():
    mixed = (DetectorSpec(HOMODYNE, 0.7, nbar=0.1), DetectorSpec(HETERODYNE, 0.8, nbar=0.1))
    with pytest.raises(ValueError):
        het_scan_config(detectors=mixed, protocol="hybrid")
    # matched parameters across kinds are fine
    het_scan_config(detectors=(HOM_SPEC, HET_SPEC), protocol="hybrid")
    # mixed parameters are fine once untrusted is dropped
    het_scan_config(detectors=mixed, protocol="hybrid", scenarios=(IDEAL, TRUSTED))


def test_scenario_table_picks_and_folds_a_hybrid_pair():
    # The heterodyne detector comes first and has the larger eta_e, so the
    # trusted pick (least eta_e) and the untrusted one (detectors[0]) differ.
    config = het_scan_config(detectors=(HET_SPEC, HOM_SPEC), protocol="hybrid")
    assert rescale_plan(HET_SPEC).eta_e == 0.6996501749125438
    assert rescale_plan(HOM_SPEC).eta_e == 0.6993006993006994
    picks = {IDEAL: None, TRUSTED: rescale_plan(HOM_SPEC), UNTRUSTED: rescale_plan(HET_SPEC)}
    plans = tuple(map(rescale_plan, config.detectors))
    assert {s: pick(plans) for s, (pick, _) in SCENARIO_TABLE.items()} == picks
    assert config.scenario_detectors == picks
    assert "scenario_detectors" not in config.to_json_dict()
    # Each fold's (gain, noise), exact to the bit, and scenario_params folds it
    # over the grid as t = eta gain and xi = t xi0 + noise.
    folds = {IDEAL: (1.0, 0.0), TRUSTED: (0.6993006993006994, 0.0), UNTRUSTED: (0.7, 0.001)}
    channel = ChannelSpec(config.transmittances, config.xi0)
    for scenario, (_, fold) in SCENARIO_TABLE.items():
        gain, noise = fold(picks[scenario])
        assert (gain.hex(), noise.hex()) == tuple(x.hex() for x in folds[scenario])
        t_effs = tuple(eta * gain for eta in config.transmittances)
        expected = (t_effs, tuple(t * config.xi0 + noise for t in t_effs))
        assert scenario_params(channel, picks[scenario], scenario) == expected
    # The trusted pick is the first detector of harmonize's eta_e_min, ties too.
    tied = DetectorSpec.from_noise_product(HETERODYNE, 0.7, two_nu=2e-3)
    pair = (tied, HOM_SPEC)
    assert rescale_plan(tied).eta_e == harmonize(pair).eta_e_min == rescale_plan(HOM_SPEC).eta_e
    pair_plans = tuple(map(rescale_plan, pair))
    assert SCENARIO_TABLE[TRUSTED][0](pair_plans) is pair_plans[0]
    # The untrusted pick refuses mixed (eta_d, nbar), in the words ScanConfig used.
    mixed = (HET_SPEC, DetectorSpec(HOMODYNE, 0.8, nbar=HET_SPEC.nbar))
    message = (
        r"^the untrusted scenario needs all detectors to share \(eta_d, nbar\); "
        r"got mixed parameters$"
    )
    with pytest.raises(ValueError, match=message):
        SCENARIO_TABLE[UNTRUSTED][0](tuple(map(rescale_plan, mixed)))
    with pytest.raises(ValueError, match=message):
        het_scan_config(detectors=mixed, protocol="hybrid")


def test_each_scan_detector_is_reduced_once(monkeypatch):
    # Every binding of rescale_plan in the package counts, so a module that
    # imported it by name is seen too.
    calls = []
    original = rescale_plan

    def counted(spec):
        calls.append(spec)
        return original(spec)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "cvtrust"]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    base = {"loss_db": [0.0, 5.0, 10.0], "xi0": 0.01}
    receivers = {"heterodyne": [HET_SPEC], "hybrid": [HOM_SPEC, HET_SPEC]}
    for protocol, detectors in receivers.items():
        calls.clear()
        data = {**base, "protocol": protocol, "detectors": [asdict(d) for d in detectors]}
        config = ScanConfig.from_json_dict(data)
        table = run_scan(config)
        assert calls == detectors
        assert "harmonization" not in config.to_json_dict()
        plans = tuple(a.base_plan for a in config.harmonization.adjustments)
        assert plans == tuple(map(original, detectors))
        assert table.eta_e_min == min(p.eta_e for p in plans)
        # The scenarios' picks are the harmonization's own plans, not rebuilt ones.
        assert any(p is config.scenario_detectors[TRUSTED] for p in plans)


def test_scan_config_refuses_a_detector_it_cannot_reduce_in_any_scenario():
    # r^2 = 1 + 2 nu overflows: ScanConfig refuses the detector even when no
    # configured scenario reads its plan, before any scan runs.
    noisy = DetectorSpec(HOMODYNE, 0.01, nbar=1.79e308)
    message = r"^noise product nu = 1.7720999999999999e\+308 makes the homodyne r\^2 overflow$"
    with pytest.raises(ValueError, match=message):
        het_scan_config(detectors=(noisy,), scenarios=(IDEAL,), protocol="hybrid")


def test_rate_kind_per_protocol():
    assert PROTOCOLS == ("heterodyne", "hybrid")
    assert het_scan_config().rate_kind == HETERODYNE
    hybrid = het_scan_config(detectors=(HOM_SPEC, HET_SPEC), protocol="hybrid")
    assert hybrid.rate_kind == HOMODYNE


def test_scan_config_refuses_detectors_that_contradict_its_protocol():
    # Each detector has one of the protocol's receiver kinds, and one has the
    # kind the rate models: a trusted rate reduced by another kind's eta_e
    # (heterodyne's eta_d / (1 + nu) for a homodyne key) would be too high.
    het = {"kind": HETERODYNE, "eta_d": 0.7, "nbar": 0.01}
    hom = {**het, "kind": HOMODYNE}
    refused = [
        ("hybrid", het, "^the hybrid protocol needs a homodyne detector, which measures its key$"),
        (
            "heterodyne", hom,
            r"^the heterodyne protocol's receiver has no homodyne detector; "
            r"its kinds are \('heterodyne',\)$",
        ),
    ]
    for protocol, detector, message in refused:
        data = {"protocol": protocol, "detectors": [detector], "loss_db": [0, 10], "xi0": 0.0}
        with pytest.raises(ValueError, match=message):
            ScanConfig.from_json_dict(data)
        with pytest.raises(ValueError, match=message):
            het_scan_config(protocol=protocol, detectors=(DetectorSpec(**detector),))
    het_scan_config()
    het_scan_config(detectors=(HOM_SPEC, HET_SPEC), protocol="hybrid")
    het_scan_config(detectors=(HOM_SPEC,), protocol="hybrid")


def test_scan_config_json_roundtrip():
    config = het_scan_config(rate_params=RateParams(5.0, 0.9))
    data = config.to_json_dict()
    assert data["schema"] == "cvtrust/scan-config/1"
    back = ScanConfig.from_json_dict(data)
    assert back.loss_db == config.loss_db
    assert back.detectors == config.detectors
    assert back.rate_params == config.rate_params
    for key in ("surprise", "epsilon_sec", "pulse_count"):
        with pytest.raises(ValueError, match=f"^malformed scan config: config has unknown key '{key}'$"):
            ScanConfig.from_json_dict({**data, key: 1e-10})
    del data["loss_db"]
    with pytest.raises(ValueError, match="^malformed scan config: config is missing key 'loss_db'$"):
        ScanConfig.from_json_dict(data)


def test_run_scan_frozen_heterodyne_values():
    table = run_scan(het_scan_config())
    assert table.eta_e_min == 0.6996501749125438
    by_key = {(r.scenario, r.loss_db): r for r in table.rows}
    assert by_key[(IDEAL, 0.0)].rate == 1.341605996186121
    assert by_key[(TRUSTED, 0.0)].rate == 0.516509935869303
    assert by_key[(UNTRUSTED, 0.0)].rate == 0.5101433526161834
    assert by_key[(TRUSTED, 10.0)].rate == 0.025480157501996864
    assert by_key[(UNTRUSTED, 10.0)].rate == 0.019905513791095647
    assert all(r.status == "ok" for r in table.rows)


def test_run_scan_frozen_hybrid_values():
    config = het_scan_config(
        loss_db=(0.0, 10.0), detectors=(HOM_SPEC, HET_SPEC), protocol="hybrid"
    )
    table = run_scan(config)
    assert table.eta_e_min == 0.6993006993006994
    by_key = {(r.scenario, r.loss_db): r for r in table.rows}
    assert by_key[(IDEAL, 0.0)].rate == 0.9986450525379403
    assert by_key[(TRUSTED, 0.0)].rate == 0.449664272924316
    assert by_key[(UNTRUSTED, 0.0)].rate == 0.4442319974793515


def test_run_scan_scenario_ordering():
    table = run_scan(het_scan_config(loss_db=tuple(float(x) for x in range(0, 41, 2))))
    ideal, trusted, untrusted = (
        [r.rate for r in table.rows if r.scenario == s] for s in (IDEAL, TRUSTED, UNTRUSTED)
    )
    assert len(ideal) == len(trusted) == len(untrusted) == 21
    for i, t, u in zip(ideal, trusted, untrusted):
        assert i >= t >= u


def test_run_scan_trusted_rows_replay_through_rate_function():
    config = het_scan_config()
    table = run_scan(config)
    for row in table.rows:
        if row.scenario == TRUSTED:
            replayed = reference_rate(
                row.t_eff, row.xi_eff, config.rate_kind, config.rate_params
            )
            assert replayed == row.rate


def test_run_scan_hybrid_trusted_rows_use_the_harmonized_minimum_detector():
    for hom_eta_d, expected_kind in ((0.6, HOMODYNE), (0.95, HETERODYNE)):
        hom = DetectorSpec(HOMODYNE, hom_eta_d, nbar=0.5)
        config = het_scan_config(
            detectors=(hom, HET_SPEC), protocol="hybrid", scenarios=(IDEAL, TRUSTED)
        )
        table = run_scan(config)
        chosen = min(config.detectors, key=lambda d: rescale_plan(d).eta_e)
        assert chosen.kind == expected_kind
        assert rescale_plan(chosen).eta_e == table.eta_e_min
        trusted = [(r.t_eff, r.xi_eff) for r in table.rows if r.scenario == TRUSTED]
        assert trusted == [
            scenario_params(
                ChannelSpec(loss_db_to_transmittance(x), config.xi0), rescale_plan(chosen), TRUSTED
            )
            for x in config.loss_db
        ]


def test_run_scan_rows_are_sorted():
    table = run_scan(het_scan_config(scenarios=(UNTRUSTED, IDEAL, TRUSTED)))
    keys = [(r.scenario, r.loss_db) for r in table.rows]
    assert keys == sorted(keys)


def test_run_scan_survives_rate_function_failure():
    def broken(t_eff, xi_eff, kind, params):
        raise ArithmeticError("synthetic failure")

    RATE_FUNCTIONS["always-raises"] = broken
    try:
        table = run_scan(het_scan_config(rate_name="always-raises"))
        assert all(r.status.startswith("error:") for r in table.rows)
        assert all(math.isnan(r.rate) for r in table.rows)
    finally:
        del RATE_FUNCTIONS["always-raises"]


def _csv_writer_text(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["loss_dB", "scenario", "t_eff", "xi_eff", "rate", "status"])
    for r in table.rows:
        writer.writerow(
            [repr(r.loss_db), r.scenario, repr(r.t_eff), repr(r.xi_eff), repr(r.rate), r.status]
        )
    return buf.getvalue()


def test_one_pass_reports_equal_the_json_writer_and_csv_writer_forms():
    # Failing points give statuses with the characters csv and json must
    # quote or escape; the other points are ok rows with ordinary floats.
    messages = ['comma, here', 'a "quoted" word', "two\nlines", "\u00e9t\u00e9 \u2603", "{}"]

    def flaky(t_eff, xi_eff, kind, params):
        index = int(t_eff * 1e6) % 7
        if index < len(messages):
            raise ArithmeticError(messages[index])
        return math.nan if index == 5 else reference_rate(t_eff, xi_eff, kind, params)

    RATE_FUNCTIONS["test-flaky"] = flaky
    try:
        config = het_scan_config(loss_db=tuple(0.37 * k for k in range(40)), rate_name="test-flaky")
        table = run_scan(config)
    finally:
        del RATE_FUNCTIONS["test-flaky"]
    statuses = {r.status for r in table.rows}
    assert "ok" in statuses and "error: non-finite rate" in statuses
    assert {f"error: {m}" for m in messages} <= statuses
    for t in (table, replace(table, rows=())):
        json_report, csv_report = report_texts(t)
        assert json_report == json_text(t.to_json_dict())
        assert csv_report == t.to_csv_text() == _csv_writer_text(t)


def test_run_scan_calls_the_rate_function_once_per_row_in_row_order(monkeypatch):
    calls = []

    def recording(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ArithmeticError("100% off")
        return math.inf if len(calls) == 5 else 0.25 * args[0]

    monkeypatch.setitem(RATE_FUNCTIONS, "test-recording", recording)
    config = het_scan_config(rate_name="test-recording")
    table = run_scan(config)
    keys = [(r.scenario, r.loss_db) for r in table.rows]
    assert keys == [(s, x) for s in sorted(SCENARIOS) for x in config.loss_db]
    assert len(calls) == len(table.rows) == 9
    for (t_eff, xi_eff, kind, params), row in zip(calls, table.rows):
        assert (t_eff, xi_eff) == (row.t_eff, row.xi_eff)
        assert kind == HETERODYNE and params is config.rate_params
    statuses = [r.status for r in table.rows]
    assert statuses == ["ok", "error: 100% off", "ok", "ok", "error: non-finite rate"] + ["ok"] * 4
    for row in table.rows:
        assert math.isnan(row.rate) if row.status != "ok" else row.rate == 0.25 * row.t_eff
    json_report, csv_report = report_texts(table)
    assert json_report == json_text(table.to_json_dict())
    assert csv_report == _csv_writer_text(table)


@pytest.mark.parametrize("field", ["loss_db", "t_eff", "xi_eff"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_one_pass_reports_refuse_non_finite_values_as_json_text_does(field, value):
    table = run_scan(het_scan_config(loss_db=(0.0, 10.0)))
    table = replace(table, rows=(table.rows[0]._replace(**{field: value}), *table.rows[1:]))
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_text(table.to_json_dict())
    with pytest.raises(ValueError, match="not JSON compliant"):
        report_texts(table)


def test_a_scan_table_is_its_rows_and_config_and_reads_eta_e_min_from_the_config():
    config = ScanConfig(
        loss_db=(0.0, 10.0), xi0=0.01, detectors=(HOM_SPEC, HET_SPEC), protocol="hybrid"
    )
    table = run_scan(config)
    assert [f.name for f in fields(ScanTable)] == ["rows", "config"]
    by_hand = ScanTable(rows=table.rows, config=config)
    assert by_hand.eta_e_min == config.harmonization.eta_e_min == 0.6993006993006994
    assert by_hand.to_json_dict()["metadata"]["eta_e_min"] == config.harmonization.eta_e_min
    assert report_texts(by_hand) == report_texts(table)
    with pytest.raises(TypeError):
        ScanTable(rows=table.rows, config=config, eta_e_min=0.5)


def test_scan_table_serialization():
    table = run_scan(het_scan_config(loss_db=(0.0, 10.0)))
    data = table.to_json_dict()
    assert data["schema"] == "cvtrust/scan-report/1"
    assert data["metadata"]["eta_e_min"] == table.eta_e_min
    assert data["metadata"]["rate_kind"] == HETERODYNE
    assert len(data["rows"]) == len(table.rows)
    lines = table.to_csv_text().splitlines()
    assert lines[0] == "loss_dB,scenario,t_eff,xi_eff,rate,status"
    assert len(lines) == 1 + len(table.rows)
    fields = lines[1].split(",")
    assert float(fields[0]) == table.rows[0].loss_db
    assert float(fields[4]) == table.rows[0].rate
