import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cvtrust
from cvtrust.cli import _json_text, main
from cvtrust.detectors import KINDS, DetectorSpec
from cvtrust.equivalence import MAX_MC_SAMPLES, SABOTAGE_MODES, SweepConfig
from cvtrust.keyrate import PROTOCOLS, RATE_FUNCTIONS, RateParams, ScanConfig
from cvtrust.rescaling import rescale_plan

pytestmark = pytest.mark.usefixtures("isolated_output_dir")


@pytest.fixture
def isolated_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CVTRUST_OUTPUT_DIR", str(tmp_path))
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rescale_finite_detector(capsys):
    code, out, _ = run_cli(
        capsys, "rescale", "--kind", "heterodyne", "--eta-d", "0.7", "--two-nu", "1e-3"
    )
    assert code == 0
    plan = json.loads(out)
    assert plan["kind"] == "heterodyne"
    assert plan["eta_d"] == 0.7
    assert plan["nbar"] == 0.0016666666666666666
    assert plan["r"] == 1.0002499687578101
    assert plan["eta_e"] == 0.6996501749125438


def test_rescale_limit_form(capsys):
    code, out, _ = run_cli(capsys, "rescale", "--kind", "homodyne", "--nu", "2e-3")
    assert code == 0
    plan = json.loads(out)
    assert plan["eta_d"] == 1.0
    assert plan["nbar"] is None
    assert plan["nu"] == 2e-3
    assert plan["eta_e"] == 1 / 1.004


def test_rescale_explicit_limit_flag(capsys):
    code, out, _ = run_cli(
        capsys, "rescale", "--kind", "heterodyne", "--limit", "--two-nu", "4e-3"
    )
    assert code == 0
    assert json.loads(out)["nu"] == 2e-3


def test_rescale_flag_conflicts(capsys):
    code, _, err = run_cli(
        capsys, "rescale", "--kind", "homodyne", "--nu", "1e-3", "--two-nu", "2e-3"
    )
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(
        capsys, "rescale", "--kind", "homodyne", "--limit", "--eta-d", "0.7", "--nu", "1e-3"
    )
    assert code == 2
    code, _, err = run_cli(capsys, "rescale", "--kind", "homodyne")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("--kind", "homodyne", "--nu", "1e308"),
        ("--kind", "homodyne", "--eta-d", "0.1", "--nbar", "1e308"),
    ],
    ids=["limit", "finite"],
)
def test_rescale_rejects_an_overflowing_plan(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, "rescale", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflow" in err
    assert list(tmp_path.iterdir()) == []


def test_rescale_requires_kind(capsys):
    assert run_cli(capsys, "rescale", "--nu", "1e-3")[0] == 2


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_verify_analytic_pass(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--eta-d", "0.7",
        "--nu", "1e-3",
        "--amplitudes", "1,2",
        "--phases", "2",
        "--out", "rep",
    )
    assert code == 0
    assert out.startswith("PASS analytic sweep: 8 cells")
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert payload["config"]["mode"] == "analytic"
    assert payload["summary"]["passed"] is True
    assert payload["summary"]["cells"] == 8
    csv_text = (tmp_path / "rep.csv").read_text()
    assert csv_text.splitlines()[0].startswith("alpha_re,alpha_im,kind")
    assert len(csv_text.splitlines()) == 9


def test_verify_detects_sabotage(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--sabotage", "skip-rescale",
        "--eta-d", "0.7",
        "--nu", "1e-2",
        "--amplitudes", "1,3",
        "--phases", "2",
        "--out", "bad",
    )
    assert code == 1
    assert out.startswith("FAIL analytic sweep")
    assert "fail: alpha=" in out
    payload = json.loads((tmp_path / "bad.json").read_text())
    assert payload["summary"]["rejections"] == payload["summary"]["cells"]


def test_verify_far_apart_means_report_unit_total_variation(capsys, tmp_path):
    # At amplitude 1e200 the two models' rounded heterodyne means would sit
    # about 1e184 standard deviations apart and fail a faithful reduction;
    # such amplitudes are refused before any cell runs.
    code, out, err = run_cli(
        capsys,
        "verify",
        "--amplitudes", "1e200",
        "--phases", "2",
        "--eta-d", "0.7",
        "--nu", "1e-3",
        "--out", "far",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: alphas ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_verify_config_roundtrip_is_byte_identical(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "verify",
        "--eta-d", "0.7",
        "--nu", "0",
        "--nu", "1e-3",
        "--amplitudes", "0,2",
        "--phases", "2",
        "--seed", "5",
        "--out", "first",
    )
    assert code == 0
    payload = json.loads((tmp_path / "first.json").read_text())
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload["config"]))
    code, _, _ = run_cli(
        capsys, "verify", "--config", str(config_path), "--out", "second"
    )
    assert code == 0
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()


def test_verify_monte_carlo_mode(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--mode", "mc",
        "--mc-samples", "10000",
        "--eta-d", "0.7",
        "--nu", "1e-2",
        "--amplitudes", "1",
        "--phases", "2",
        "--out", "mc",
    )
    assert code == 0
    assert out.startswith("PASS mc sweep")
    payload = json.loads((tmp_path / "mc.json").read_text())
    assert payload["config"]["mode"] == "mc"
    assert payload["summary"]["max_ks_stat"] is not None


def test_verify_rejects_bad_mode_in_config(capsys, tmp_path):
    config_path = tmp_path / "bad_mode.json"
    config_path.write_text(json.dumps({"mode": "quantum"}))
    code, _, err = run_cli(capsys, "verify", "--config", str(config_path))
    assert code == 2
    assert "mode" in err


def test_scan_writes_tables(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--eta-d", "0.7",
        "--two-nu", "1e-3",
        "--xi0", "0.01",
        "--loss-db", "0:10:5",
        "--out", "scan1",
    )
    assert code == 0
    assert "eta_e_min=0.699650174913" in out
    payload = json.loads((tmp_path / "scan1.json").read_text())
    assert payload["schema"] == "cvtrust/scan-report/1"
    assert len(payload["rows"]) == 9
    assert payload["metadata"]["rate_kind"] == "heterodyne"
    lines = (tmp_path / "scan1.csv").read_text().splitlines()
    assert lines[0] == "loss_dB,scenario,t_eff,xi_eff,rate,status"
    assert len(lines) == 10


def test_scan_hybrid_protocol_builds_detector_pair(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--protocol", "hybrid",
        "--eta-d", "0.7",
        "--two-nu", "1e-3",
        "--loss-db", "0",
        "--out", "hy",
    )
    assert code == 0
    payload = json.loads((tmp_path / "hy.json").read_text())
    kinds = [d["kind"] for d in payload["config"]["detectors"]]
    assert kinds == ["homodyne", "heterodyne"]
    assert payload["metadata"]["rate_kind"] == "homodyne"
    assert payload["metadata"]["eta_e_min"] == 0.6993006993006994


def test_scan_config_roundtrip_is_byte_identical(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "scan",
        "--eta-d", "0.8",
        "--nu", "2e-3",
        "--xi0", "0.005",
        "--loss-db", "0,3,7",
        "--va", "5.0",
        "--out", "s1",
    )
    assert code == 0
    payload = json.loads((tmp_path / "s1.json").read_text())
    config_path = tmp_path / "scan_config.json"
    config_path.write_text(json.dumps(payload["config"]))
    code, _, _ = run_cli(capsys, "scan", "--config", str(config_path), "--out", "s2")
    assert code == 0
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()


def test_scan_loss_grid_forms(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "scan",
        "--eta-d", "0.7", "--nu", "1e-3", "--loss-db", "2.5", "--out", "one",
    )
    assert code == 0
    payload = json.loads((tmp_path / "one.json").read_text())
    assert payload["config"]["loss_db"] == [2.5]
    code, _, err = run_cli(
        capsys,
        "scan",
        "--eta-d", "0.7", "--nu", "1e-3", "--loss-db", "0:10:-1", "--out", "x",
    )
    assert code == 2
    assert "step" in err


@pytest.mark.parametrize("loss_db", ["nan,5", "1e400", "5000"])
def test_scan_rejects_losses_without_a_transmittance(capsys, tmp_path, loss_db):
    code, out, err = run_cli(
        capsys,
        "scan",
        "--eta-d", "0.7", "--two-nu", "1e-3", "--loss-db", loss_db, "--out", "bad",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("loss_db", ["0:1e9:1e-9", "0:10:1e-5", "0:nan:1", "0:inf:1"])
def test_scan_rejects_oversized_or_non_finite_loss_grids(capsys, tmp_path, loss_db):
    # Each is rejected before the grid is expanded: 0:10:1e-5 has one point
    # more than the cap, 0:1e9:1e-9 would take about 10^18 steps, and the
    # non-finite ones never end.
    code, out, err = run_cli(
        capsys,
        "scan",
        "--eta-d", "0.7", "--two-nu", "1e-3", "--loss-db", loss_db, "--out", "bad",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_scan_reports_no_key_at_huge_excess_noise(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "scan",
        "--eta-d", "0.7", "--two-nu", "1e-3", "--xi0", "1e20", "--loss-db", "0,3",
        "--out", "noisy",
    )
    assert code == 0
    payload = json.loads((tmp_path / "noisy.json").read_text(), parse_constant=pytest.fail)
    assert len(payload["rows"]) == 6
    for row in payload["rows"]:
        assert row["status"] == "ok"
        assert row["rate"] == 0.0


def test_scan_writes_a_failed_point_as_null(capsys, tmp_path):
    # eta_d = 1e-100 at 3000 dB leaves a t_eff that underflows to 0, which
    # the rate function rejects; the row keeps its error status and the
    # report stays strict JSON.
    code, _, _ = run_cli(
        capsys,
        "scan",
        "--eta-d", "1e-100", "--nu", "0", "--loss-db", "3000", "--out", "failed",
    )
    assert code == 0
    payload = json.loads((tmp_path / "failed.json").read_text(), parse_constant=pytest.fail)
    rows = {row["scenario"]: row for row in payload["rows"]}
    assert rows["ideal"]["status"] == "ok"
    for scenario in ("trusted", "untrusted"):
        assert rows[scenario]["status"].startswith("error: t_eff")
        assert rows[scenario]["rate"] is None
    assert "nan" in (tmp_path / "failed.csv").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--eta-d", "0.7", "--two-nu", "1e-3", "--va", "1e308", "--loss-db", "0,3"),
        ("verify", "--tv-tol", "inf", "--amplitudes", "1", "--phases", "1"),
        ("verify", "--param-tol", "inf", "--amplitudes", "1", "--phases", "1"),
        ("verify", "--amplitudes", "inf", "--phases", "1", "--eta-d", "0.7", "--nu", "1e-3"),
        ("verify", "--amplitudes", "nan", "--phases", "1", "--eta-d", "0.7", "--nu", "1e-3"),
        # The cap is checked when the config is built, before any draw; in
        # analytic mode an uncapped count would not allocate either.
        ("verify", "--mc-samples", "10000000000", "--amplitudes", "1", "--phases", "1"),
        ("verify", "--mc-samples", "10000001", "--amplitudes", "1", "--phases", "1"),
    ],
)
def test_inputs_that_would_reach_a_report_as_nan_or_infinity_exit_2(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, "--out", "bad")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, key",
    [
        (("rescale", "--kind", "homodyne", "--limit", "--nu", "0.1", "--nbar", "3"), "--nbar"),
        (("verify", "--amplitudes", "1e7", "--out", "bad"), "alphas"),
        (
            (
                "verify", "--mode", "mc", "--mc-samples", "10000", "--amplitudes", "1e300",
                "--phases", "1", "--eta-d", "0.7", "--nu", "1e-3", "--out", "bad",
            ),
            "alphas",
        ),
        (
            (
                "scan", "--eta-d", "0.7", "--two-nu", "1e-3",
                "--scenarios", "trusted,trusted", "--out", "bad",
            ),
            "scenarios",
        ),
    ],
    ids=["rescale-limit-nbar", "verify-amplitude-1e7", "verify-mc-amplitude-1e300", "scan-duplicate-scenario"],
)
def test_inputs_the_reduction_cannot_honour_exit_2_naming_the_flag_or_key(
    capsys, tmp_path, argv, key
):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert list(tmp_path.iterdir()) == []


def test_verify_accepts_the_largest_amplitude_at_every_phase(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "verify", "--amplitudes", "1e6", "--eta-d", "0.7", "--nu", "1e-3", "--out", "cap"
    )
    assert code == 0
    assert out.startswith("PASS analytic sweep: 16 cells")


@pytest.mark.parametrize(
    "argv, key",
    [
        (("--phases", "100000000"), "--phases"),
        (("--amplitudes", "1,2", "--phases", "500001", "--kind", "homodyne"), "--amplitudes"),
        (("--amplitudes", "1", "--phases", "31251"), "--amplitudes x --phases x specs"),
    ],
)
def test_verify_rejects_a_grid_above_the_cap_before_building_it(capsys, tmp_path, argv, key):
    # 4 x 10^8 alphas would take gigabytes; 31,251 alphas x the 32 default
    # specs is 32 cells over the 10^6 cap, and is rejected before any is built.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", *argv, "--out", "bad")
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err and "1000000" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_rejects_a_config_of_more_than_a_million_cells(capsys, tmp_path):
    config = SweepConfig(
        alphas=tuple(complex(k % 7, k // 7) for k in range(31_251)),
        specs=tuple(DetectorSpec(kind, 0.7, 0.01 * k) for kind in KINDS for k in range(16)),
    )
    assert config.n_cells == 10**6 + 32
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_json_dict()))
    code, out, err = run_cli(capsys, "verify", "--config", str(path), "--out", "bad")
    assert code == 2 and out == ""
    assert err == "error: alphas x specs is 1000032 cells, more than 1000000\n"
    assert list(tmp_path.iterdir()) == [path]


_VERIFY_BASE = {
    "alphas": [[1.0, 0.0]],
    "specs": [{"kind": "homodyne", "eta_d": 0.7, "nbar": 0.01}],
}
_SCAN_BASE = {
    "detectors": [{"kind": "heterodyne", "eta_d": 0.7, "nbar": 0.01}],
    "loss_db": [0, 3],
}


@pytest.mark.parametrize(
    "command, value, flags",
    [
        ("verify", '"seed": 1e400', ()),
        ("verify", '"seed": 1.5', ()),
        ("verify", '"tv_tol": "x"', ()),
        ("verify", '"ks_alpha": null', ()),
        ("scan", '"xi0": "0.1"', ()),
        ("scan", '"rate_params": {"modulation_variance": "4"}', ()),
        ("scan", '"rate_params": [1]', ()),
        ("scan", '"rate_params": [1]', ("--va", "5")),
        ("scan", '"scenarios": 5', ()),
        ("scan", '"scenarios": "ideal"', ()),
        ("scan", '"loss_db": 5', ()),
        ("scan", '"detectors": 5', ()),
        ("scan", '"detectors": [5]', ()),
        ("verify", '"alphas": 5', ()),
        ("verify", '"alphas": [5]', ()),
        ("verify", '"alphas": [[1, 0, 0]]', ()),
        ("verify", '"specs": [[]]', ()),
    ],
)
def test_malformed_config_values_exit_2(capsys, tmp_path, command, value, flags):
    base = json.dumps(_VERIFY_BASE if command == "verify" else _SCAN_BASE)
    config = tmp_path / "config.json"
    config.write_text(base[:-1] + ", " + value + "}")
    code, out, err = run_cli(capsys, command, "--config", str(config), *flags, "--out", "bad")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "obj, schema",
    [
        (SweepConfig(alphas=(1j,), specs=(DetectorSpec("homodyne", 0.7, 0.01),)), True),
        (ScanConfig(loss_db=(0.0,), xi0=0.0, detectors=(DetectorSpec("heterodyne", 0.7),)), True),
        (RateParams(), False),
        (rescale_plan(DetectorSpec("heterodyne", 0.7, 0.01)), False),
    ],
    ids=["SweepConfig", "ScanConfig", "RateParams", "RescalePlan"],
)
def test_json_dict_keys_are_the_dataclass_fields(obj, schema):
    keys = {f.name for f in fields(obj)} | ({"schema"} if schema else set())
    assert set(obj.to_json_dict()) == keys


def test_report_writer_refuses_nan_and_infinity():
    assert _json_text({"rate": 0.5}) == '{\n  "rate": 0.5\n}\n'
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            _json_text({"rate": bad})


_JSON_TEXTS = st.text() | st.sampled_from(
    ['"', "{", "}", ",", "\n", ', "k": [1,\n  2]}', "\u00e9t\u00e9 \u2603"]
)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, 2**64 + 1, -(2**70), 5e-324, -0.0, 1e-300, 1e16, 2.0**53]),
    st.floats(allow_nan=False, allow_infinity=False),
    _JSON_TEXTS,
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXTS, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_report_writer_equals_the_indented_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize(
    "command, value, key",
    [
        ("scan", '"epsilon_sec": "x"', "epsilon_sec"),
        ("scan", '"epsilon_sec": NaN', "epsilon_sec"),
        ("scan", '"epsilon_sec": 1', "epsilon_sec"),
        ("scan", '"pulse_count": [1, {}]', "pulse_count"),
        ("scan", '"pulse_count": 0.5', "pulse_count"),
        ("scan", '"pulse_count": Infinity', "pulse_count"),
        ("scan", '"xi0": true', "xi0"),
        ("scan", '"xi0": "0.1"', "xi0"),
        ("scan", '"loss_db": [0, true]', "loss_db"),
        ("scan", '"rate_params": {"reconciliation_efficiency": true}', "reconciliation_efficiency"),
        ("scan", '"detectors": [{"kind": "heterodyne", "eta_d": true}]', "eta_d"),
        ("verify", '"tv_tol": true', "tv_tol"),
        ("verify", '"tv_tol": "x"', "tv_tol"),
        ("verify", '"ks_alpha": false', "ks_alpha"),
        ("verify", '"alphas": [[true, 0]]', "alphas"),
        ("verify", '"specs": [{"kind": "homodyne", "eta_d": 0.7, "nbar": false}]', "nbar"),
        ("scan", '"scenarios": 5', "scenarios"),
        ("scan", '"scenarios": "ideal"', "scenarios"),
        ("scan", '"loss_db": 5', "loss_db"),
        ("scan", '"rate_params": [1]', "rate_params"),
        ("scan", '"detectors": 5', "detectors"),
        ("scan", '"detectors": [5]', "detectors[0]"),
        ("verify", '"alphas": 5', "alphas"),
        ("verify", '"alphas": [5]', "alphas[0]"),
        ("verify", '"alphas": [[1, 0, 0]]', "alphas[0]"),
        ("verify", '"specs": 5', "specs"),
        ("verify", '"specs": [[]]', "specs[0]"),
    ],
)
def test_config_values_of_the_wrong_type_or_range_exit_2_naming_the_key(
    capsys, tmp_path, command, value, key
):
    base = _VERIFY_BASE if command == "verify" else _SCAN_BASE
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**base, **json.loads("{" + value + "}")}))
    code, out, err = run_cli(capsys, command, "--config", str(config), "--out", "bad")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [config]


def test_scan_needs_detectors(capsys):
    code, _, err = run_cli(capsys, "scan", "--loss-db", "0:10:5")
    assert code == 2
    assert "detectors" in err


def test_calibrate_from_variance(capsys):
    code, out, _ = run_cli(
        capsys, "calibrate", "--kind", "homodyne", "--vacuum-variance", "0.25025"
    )
    assert code == 0
    result = json.loads(out)
    assert result["kind"] == "homodyne"
    assert np.isclose(result["nu"], 5e-4, rtol=1e-11)


def test_calibrate_below_vacuum_floor_fails(capsys):
    code, _, err = run_cli(
        capsys, "calibrate", "--kind", "homodyne", "--vacuum-variance", "0.2"
    )
    assert code == 1
    assert "calibration failed" in err


@pytest.mark.parametrize("variance", ["inf", "nan"])
def test_calibrate_rejects_a_non_finite_variance(capsys, tmp_path, variance):
    code, out, err = run_cli(
        capsys,
        "calibrate",
        "--kind", "heterodyne", "--vacuum-variance", variance, "--out", "cal.json",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: vacuum-probe variance {variance} is not a finite number\n"
    assert list(tmp_path.iterdir()) == []


def test_calibrate_rejects_an_overflowing_variance(capsys, tmp_path):
    # A finite variance whose noise product overflows is bad input (exit 2),
    # not a failed calibration (exit 1), and the message names the variance.
    code, out, err = run_cli(
        capsys,
        "calibrate",
        "--kind", "homodyne", "--vacuum-variance", "1e308", "--out", "cal.json",
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: vacuum-probe variance 1e+308 is too large: its noise product overflows\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_calibrate_argument_rules(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "calibrate", "--kind", "homodyne")
    assert code == 2
    samples = tmp_path / "s.txt"
    samples.write_text("0.1\n-0.2\n0.3\n")
    code, _, _ = run_cli(
        capsys,
        "calibrate",
        "--kind", "homodyne",
        "--vacuum-variance", "0.3",
        "--samples", str(samples),
    )
    assert code == 2


def test_calibrate_from_homodyne_samples(capsys, tmp_path):
    rng = np.random.default_rng(42)
    n = 200_000
    nu_true = 0.02
    draws = rng.normal(0.0, np.sqrt((1 + 2 * nu_true) / 4), size=n)
    path = tmp_path / "probe.txt"
    np.savetxt(path, draws)
    code, out, _ = run_cli(
        capsys,
        "calibrate",
        "--kind", "homodyne",
        "--samples", str(path),
        "--out", "cal.json",
    )
    assert code == 0
    result = json.loads(out)
    # nu = (4 var - 1) / 2, so se(nu) = 2 se(var) with se(var) = var sqrt(2/(n-1))
    se_nu = 2 * result["variance"] * np.sqrt(2 / (n - 1))
    assert abs(result["nu"] - nu_true) < 3 * se_nu
    assert json.loads((tmp_path / "cal.json").read_text()) == result


def test_calibrate_from_heterodyne_samples(capsys, tmp_path):
    rng = np.random.default_rng(43)
    nu_true = 0.05
    draws = rng.normal(0.0, np.sqrt((1 + nu_true) / 2), size=(100_000, 2))
    path = tmp_path / "probe2.txt"
    np.savetxt(path, draws)
    code, out, _ = run_cli(capsys, "calibrate", "--kind", "heterodyne", "--samples", str(path))
    assert code == 0
    result = json.loads(out)
    se_nu = 2 * result["variance"] * np.sqrt(2 / (2 * 100_000 - 1))
    assert abs(result["nu"] - nu_true) < 3 * se_nu


def test_calibrate_column_kind_mismatch(capsys, tmp_path):
    path = tmp_path / "two_col.txt"
    np.savetxt(path, np.zeros((10, 2)) + 0.8)
    code, _, err = run_cli(capsys, "calibrate", "--kind", "homodyne", "--samples", str(path))
    assert code == 2
    assert "column" in err


@pytest.mark.parametrize("kind", ["homodyne", "heterodyne"])
@pytest.mark.parametrize("text", ["", "0.6\n", "0.6 0.4\n", "0.1 0.2 0.3\n0.4 0.5 0.6\n"])
def test_calibrate_samples_need_one_column_per_component_and_two_lines(
    capsys, tmp_path, kind, text
):
    path = tmp_path / "probe.txt"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, "calibrate", "--kind", kind, "--samples", str(path), "--out", "cal.json"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


def test_calibrate_homodyne_variance_is_the_sample_variance(capsys, tmp_path):
    rng = np.random.default_rng(44)
    path = tmp_path / "probe.txt"
    for n in (2, 3, 10, 99, 1000, 4097):
        draws = rng.normal(0.1, 0.6, size=n)
        np.savetxt(path, draws / draws.std(ddof=1))  # above the vacuum floor
        code, out, _ = run_cli(capsys, "calibrate", "--kind", "homodyne", "--samples", str(path))
        assert code == 0
        assert json.loads(out)["variance"] == float(np.var(np.loadtxt(path), ddof=1))


def test_output_dir_env_and_absolute_paths(capsys, tmp_path, monkeypatch):
    outside = tmp_path / "elsewhere"
    outside.mkdir()
    monkeypatch.setenv("CVTRUST_OUTPUT_DIR", str(tmp_path / "envdir"))
    code, _, _ = run_cli(
        capsys,
        "scan",
        "--eta-d", "0.7", "--nu", "1e-3", "--loss-db", "0", "--out", "rel",
    )
    assert code == 0
    assert (tmp_path / "envdir" / "rel.json").exists()
    absolute = outside / "abs"
    code, _, _ = run_cli(
        capsys,
        "scan",
        "--eta-d", "0.7", "--nu", "1e-3", "--loss-db", "0", "--out", str(absolute),
    )
    assert code == 0
    assert (outside / "abs.json").exists()
    assert not (tmp_path / "envdir" / "abs.json").exists()


def test_no_temp_files_left_behind(capsys, tmp_path):
    run_cli(
        capsys,
        "verify",
        "--eta-d", "0.7", "--nu", "1e-3", "--amplitudes", "1", "--phases", "1",
        "--out", "tidy",
    )
    leftovers = [p for p in tmp_path.rglob("*.tmp")]
    assert leftovers == []


_SCIPY_PROBE = """
import json, sys
import cvtrust
from cvtrust.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def pool_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"
                  or m == "concurrent.futures" or m.startswith("concurrent.futures."))

after_import = pool_modules()
out = sys.argv[1]
codes = [
    main(["rescale", "--kind", "homodyne", "--nu", "1e-3"]),
    main(["calibrate", "--kind", "heterodyne", "--vacuum-variance", "0.5005"]),
    main(["scan", "--eta-d", "0.7", "--two-nu", "1e-3", "--loss-db", "0:20:5",
          "--out", out + "/scan"]),
]
before_verify = scipy_modules()
pools_before_verify = pool_modules()
one_cell = ["verify", "--eta-d", "0.7", "--nu", "1e-3", "--amplitudes", "1", "--phases", "1"]
codes.append(main(one_cell + ["--out", out + "/verify"]))
after_verify = scipy_modules()
codes.append(main(one_cell + ["--mode", "mc", "--mc-samples", "10000", "--out", out + "/mc"]))
print(json.dumps({"codes": codes, "before_verify": before_verify,
                  "after_verify": after_verify, "after_mc": scipy_modules(),
                  "after_import": after_import,
                  "pools_before_verify": pools_before_verify}), file=sys.stderr)
"""


def test_only_verify_loads_scipy(tmp_path):
    # pytest's own process has scipy loaded already, so the check runs in a
    # fresh interpreter that imports the same cvtrust as this one.
    package_root = str(Path(cvtrust.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stderr.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["before_verify"] == []
    # An analytic verify needs scipy.special only; the Monte Carlo control
    # shows that the probe does see scipy.stats once it loads.
    assert "scipy.special" in result["after_verify"]
    assert [m for m in result["after_verify"] if m.split(".")[:2] == ["scipy", "stats"]] == []
    assert "scipy.stats" in result["after_mc"]
    # The Monte Carlo process pool is imported by the sweep, not by the CLI.
    assert result["after_import"] == []
    assert result["pools_before_verify"] == []


def test_param_tol_below_the_floor_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", "--param-tol", "1e-17", "--out", "low")
    assert code == 2 and out == ""
    assert err.startswith("error: param_tol must be at least ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_verify_on_a_closed_pipe_exits_141_and_keeps_its_reports(tmp_path, unbuffered):
    package_root = str(Path(cvtrust.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    # 177 failing cells give more than one line of output, and the first
    # write comes only after the sweep, when the read end is long closed.
    proc = subprocess.Popen(
        [sys.executable, "-m", "cvtrust.cli", "verify", "--tv-tol", "1e-16", "--out", "y"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=tmp_path,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert "Traceback" not in err and "Exception ignored" not in err
    report = json.loads((tmp_path / "y.json").read_text(), parse_constant=pytest.fail)
    assert report["summary"]["rejections"] == 177
    assert (tmp_path / "y.csv").read_text().count("\n") == 1025


# Every argv of the four subcommands, config and samples files included,
# ends in one of three ways: exit 0 with strict-JSON reports, exit 1 for a
# failing sweep or calibration, or exit 2 with one error line and no file.
# Grids stay at two cells or fewer and Monte Carlo at 10^4 draws; caps are
# reached only with values they reject.

_BIG = "__1e400__"  # written into a config file as the bare token 1e400
_DROP = object()  # deletes a key from the base config
_NUM = st.one_of(
    st.sampled_from(["0", "0.7", "1e-3", "0.25025", "1e400", "nan", "-inf", "-1"]),
    st.floats().map(repr),
)
_JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 2)
    | st.sampled_from(
        [1.5, -0.0, 5e-324, 1e308, math.nan, math.inf, 10**400, _BIG, "x", "0.1", "homodyne"]
    ),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(
        st.sampled_from(
            ["kind", "eta_d", "nbar", "modulation_variance", "reconciliation_efficiency", "x"]
        ),
        inner,
        max_size=2,
    ),
    max_leaves=4,
)


def _config(draw, base, keys):
    data = dict(base)
    keys = st.sampled_from(keys + ("schema", "extra"))
    edits = draw(st.dictionaries(keys, _JUNK | st.just(_DROP), max_size=2))
    for key, value in edits.items():
        if value is _DROP:
            data.pop(key, None)
        else:
            data[key] = value
    return json.dumps(data).replace(f'"{_BIG}"', "1e400")


def _maybe(draw, flag, values):
    return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []


@st.composite
def _rescale_case(draw):
    argv = ["rescale", f"--kind={draw(st.sampled_from(KINDS))}"]
    for flag in ("--eta-d", "--nbar", "--nu", "--two-nu"):
        argv += _maybe(draw, flag, _NUM)
    if draw(st.booleans()):
        argv.append("--limit")
    return argv, {}


@st.composite
def _verify_case(draw):
    base = {
        "alphas": [[1.0, 0.0]],
        "specs": [{"kind": draw(st.sampled_from(KINDS)), "eta_d": 0.7, "nbar": 0.01}],
        "mc_samples": 10_000,
        "mode": draw(st.sampled_from(["analytic", "mc"])),
    }
    keys = tuple(f.name for f in fields(SweepConfig)) + ("mode",)
    argv = ["verify", "--config=@config"]
    if draw(st.booleans()):  # one spec
        argv += [f"--eta-d={draw(_NUM)}", f"--nu={draw(_NUM)}"]
        argv.append(f"--kind={draw(st.sampled_from(KINDS))}")
    if draw(st.booleans()):  # at most two amplitudes at one phase
        amplitudes = draw(st.lists(_NUM, min_size=1, max_size=2))
        argv += ["--amplitudes=" + ",".join(amplitudes), f"--phases={draw(st.integers(-1, 1))}"]
    for flag in ("--param-tol", "--tv-tol", "--ks-alpha"):
        argv += _maybe(draw, flag, _NUM)
    argv += _maybe(draw, "--seed", st.integers(-1, 2**70))
    argv += _maybe(draw, "--mc-samples", st.sampled_from([-1, 0, 10_000, MAX_MC_SAMPLES + 1]))
    argv += _maybe(draw, "--sabotage", st.sampled_from(SABOTAGE_MODES))
    argv += _maybe(draw, "--mode", st.sampled_from(["analytic", "mc"]))
    return argv + ["--out=@out/report"], {"config": _config(draw, base, keys)}


@st.composite
def _scan_case(draw):
    argv, files = ["scan"], {}
    if draw(st.booleans()):
        base = {**_SCAN_BASE, "xi0": 0.01, "rate_params": {"modulation_variance": 4.0}}
        files["config"] = _config(draw, base, tuple(f.name for f in fields(ScanConfig)))
        argv.append("--config=@config")
    if draw(st.booleans()):
        argv.append(f"--eta-d={draw(_NUM)}")
        for flag in draw(st.sets(st.sampled_from(["--nbar", "--nu", "--two-nu"]), min_size=1)):
            argv.append(f"{flag}={draw(_NUM)}")
    argv += _maybe(draw, "--protocol", st.sampled_from(PROTOCOLS))
    argv += _maybe(draw, "--xi0", _NUM)
    argv += _maybe(
        draw,
        "--loss-db",
        st.sampled_from(["0", "0,3", "0:2:1", "3,0", "nan,5", "1e400", "5000", "0:1e9:1e-9", "x"])
        | _NUM,
    )
    scenarios = st.sampled_from(["ideal", "trusted,untrusted", "ideal,x", ""])
    argv += _maybe(draw, "--scenarios", scenarios)
    argv += _maybe(draw, "--rate", st.sampled_from(sorted(RATE_FUNCTIONS)))
    argv += _maybe(draw, "--va", _NUM)
    argv += _maybe(draw, "--beta", _NUM)
    return argv + ["--out=@out/report"], files


@st.composite
def _calibrate_case(draw):
    argv, files = ["calibrate", f"--kind={draw(st.sampled_from(KINDS))}"], {}
    argv += _maybe(draw, "--vacuum-variance", _NUM)
    if draw(st.booleans()):
        lines = draw(st.lists(st.lists(_NUM | st.just("x"), max_size=3), max_size=4))
        files["samples"] = "\n".join(" ".join(line) for line in lines)
        argv.append("--samples=@samples")
    if draw(st.booleans()):
        argv.append("--out=@out/cal.json")
    return argv, files


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "cases",
    [_rescale_case(), _verify_case(), _scan_case(), _calibrate_case()],
    ids=["rescale", "verify", "scan", "calibrate"],
)
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_every_argv_ends_in_a_report_a_failed_verdict_or_one_error_line(cases, data):
    argv, files = data.draw(cases)
    with tempfile.TemporaryDirectory() as inputs, tempfile.TemporaryDirectory() as outputs:
        paths = {"@out": outputs}
        for name, text in files.items():
            paths["@" + name] = os.path.join(inputs, name)
            Path(paths["@" + name]).write_text(text)
        for token, path in paths.items():
            argv = [arg.replace(token, path) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
        written = {p.name: p.read_text() for p in Path(outputs).iterdir()}
    command = argv[0]
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert caught == [] and written == {}
        return
    assert code == 0 or (code == 1 and command in ("verify", "calibrate"))
    if command in ("verify", "scan"):
        assert sorted(written) == ["report.csv", "report.json"]
        _strict_json(written["report.json"])
    elif code == 0:
        result = _strict_json(out.getvalue())
        assert all(_strict_json(text) == result for text in written.values())
    else:
        assert err.getvalue().startswith("calibration failed: ") and written == {}

