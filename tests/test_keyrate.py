import csv
import decimal
import io
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvtrust.channel import IDEAL, SCENARIOS, TRUSTED, UNTRUSTED, ChannelSpec, scenario_params
from cvtrust.detectors import HETERODYNE, HOMODYNE, DetectorSpec
from cvtrust.jsontext import json_text
from cvtrust.keyrate import (
    PROTOCOLS,
    RATE_FUNCTIONS,
    RateParams,
    ScanConfig,
    get_rate_function,
    loss_db_to_transmittance,
    reference_rate,
    run_scan,
)
from cvtrust.rescaling import rescale_plan

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


def test_rate_kind_per_protocol():
    assert PROTOCOLS == ("heterodyne", "hybrid")
    assert het_scan_config().rate_kind == HETERODYNE
    hybrid = het_scan_config(detectors=(HOM_SPEC, HET_SPEC), protocol="hybrid")
    assert hybrid.rate_kind == HOMODYNE


def test_scan_config_json_roundtrip():
    config = het_scan_config(rate_params=RateParams(5.0, 0.9))
    data = config.to_json_dict()
    assert data["schema"] == "cvtrust/scan-config/1"
    back = ScanConfig.from_json_dict(data)
    assert back.loss_db == config.loss_db
    assert back.detectors == config.detectors
    assert back.rate_params == config.rate_params
    assert back.epsilon_sec == 2.0**-50
    assert back.pulse_count == 1e12
    data["surprise"] = True
    with pytest.raises(ValueError):
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
    ideal = table.rates(IDEAL)
    trusted = table.rates(TRUSTED)
    untrusted = table.rates(UNTRUSTED)
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
                ChannelSpec(loss_db_to_transmittance(x), config.xi0), chosen, TRUSTED
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
        json_report, csv_report = t.report_texts()
        assert json_report == json_text(t.to_json_dict())
        assert csv_report == t.to_csv_text() == _csv_writer_text(t)


def test_scan_table_serialization():
    table = run_scan(het_scan_config(loss_db=(0.0, 10.0)))
    data = table.to_json_dict()
    assert data["schema"] == "cvtrust/scan-report/1"
    assert data["metadata"]["eta_e_min"] == table.eta_e_min
    assert data["metadata"]["rate_kind"] == HETERODYNE
    assert data["metadata"]["epsilon_sec"] == 2.0**-50
    assert len(data["rows"]) == len(table.rows)
    lines = table.to_csv_text().splitlines()
    assert lines[0] == "loss_dB,scenario,t_eff,xi_eff,rate,status"
    assert len(lines) == 1 + len(table.rows)
    fields = lines[1].split(",")
    assert float(fields[0]) == table.rows[0].loss_db
    assert float(fields[4]) == table.rows[0].rate
