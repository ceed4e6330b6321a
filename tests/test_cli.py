import ast
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cvtrust
from cvtrust.channel import SCENARIOS
from cvtrust.cli import _json_text, _parse_loss_grid, _write_atomic, main
from cvtrust.detectors import KINDS, DetectorSpec
from cvtrust.equivalence import (
    MAX_MC_SAMPLES,
    SABOTAGE_MODES,
    SWEEPS,
    SweepConfig,
    default_sweep_config,
)
from cvtrust.jsontext import json_value, write_json_report
from cvtrust.keyrate import PROTOCOLS, RATE_FUNCTIONS, ScanConfig, run_scan
from cvtrust.rescaling import rescale_plan
from helpers import report_texts

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
    "flags",
    [
        ("--eta-d", "0.7", "--nu", "1e-3", "--two-nu", "2e-3"),
        ("--eta-d", "0.7", "--nbar", "0.1", "--nu", "1e-3"),
        ("--eta-d", "0.7", "--nbar", "0.1", "--two-nu", "2e-3"),
        ("--eta-d", "0.7", "--nbar", "0.1", "--nu", "1e-3", "--two-nu", "2e-3"),
        ("--eta-d", "0.7"),
        ("--eta-d", "1.5", "--nu", "1e-3"),
        ("--eta-d", "0.7", "--two-nu=-2e-3"),
        ("--eta-d", "0.7", "--nbar", "nan"),
        ("--eta-d", "0.7", "--nu", "1e308"),
        ("--eta-d", "0.7", "--two-nu", "1.5e308"),
        ("--eta-d", "1", "--nu", "0.1"),
    ],
)
def test_rescale_and_scan_give_the_same_error_for_the_same_detector_flags(
    capsys, tmp_path, flags
):
    # scan builds a heterodyne detector for its default protocol.
    errors = []
    for command in (("rescale", "--kind", "heterodyne"), ("scan",)):
        code, out, err = run_cli(capsys, *command, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        errors.append(err)
    assert errors[0] == errors[1]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, nu",
    [
        (("--kind", "homodyne", "--nu", "1e308"), "1e+308"),
        (("--kind", "homodyne", "--eta-d", "0.1", "--nbar", "1e308"), "9e+307"),
    ],
    ids=["limit", "finite"],
)
def test_rescale_rejects_an_overflowing_plan(capsys, tmp_path, argv, nu):
    code, out, err = run_cli(capsys, "rescale", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: noise product nu = {nu} makes the homodyne r^2 overflow\n"
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


@pytest.mark.parametrize(
    "flag, value, moduli",
    [("--phases", "2", [0.0, 0.0, 1.0, 1.0, 3.0, 3.0, 5.0, 5.0]), ("--amplitudes", "2", [2.0] * 8)],
)
def test_verify_takes_the_default_alpha_grid_for_the_flag_not_given(
    capsys, tmp_path, flag, value, moduli
):
    code, _, _ = run_cli(
        capsys, "verify", "--eta-d", "0.7", "--nu", "1e-3", "--kind", "homodyne",
        flag, value, "--out", "rep",
    )
    assert code == 0
    payload = json.loads((tmp_path / "rep.json").read_text())
    alphas = [complex(c["alpha_re"], c["alpha_im"]) for c in payload["cells"]]
    assert [round(abs(alpha), 12) for alpha in alphas] == moduli


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


def test_mc_verify_does_not_silently_pass_a_skipped_rescale_it_cannot_detect(capsys):
    # At nu = 1e-3 and 10^4 draws no cell can tell the skipped rescale apart;
    # the sweep should exit non-zero, or warn and point to the analytic mode.
    code, _, err = run_cli(
        capsys,
        "verify", "--mode", "mc", "--mc-samples", "10000",
        "--eta-d", "0.9", "--nu", "1e-3", "--sabotage", "skip-rescale", "--out", "m6",
    )
    assert code != 0 or ("warning" in err.lower() and "analytic" in err)


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


@pytest.mark.parametrize(
    "argv, cls",
    [
        (("verify", "--eta-d", "0.7", "--nu", "1e-3", "--amplitudes", "0,1", "--phases", "2"),
         SweepConfig),
        (("verify", "--mode", "mc", "--mc-samples", "10000", "--eta-d", "0.7", "--nu", "1e-3",
          "--amplitudes", "1", "--phases", "1"), SweepConfig),
    ]
    + [
        (("scan", "--protocol", protocol, "--eta-d", "0.7", "--nu", "1e-3", "--loss-db", "0,10"),
         ScanConfig)
        for protocol in PROTOCOLS
    ],
    ids=["analytic-verify", "mc-verify"] + [f"{protocol}-scan" for protocol in PROTOCOLS],
)
def test_each_report_config_reads_back(capsys, tmp_path, argv, cls):
    # The config a report echoes, a verify report's mode included, is one its
    # class reads, and reading it loses nothing.
    code, _, _ = run_cli(capsys, *argv, "--out", "r")
    assert code == 0
    written = json.loads((tmp_path / "r.json").read_text())["config"]
    assert json.loads(_json_text(cls.from_json_dict(written).to_json_dict())) == written


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


@pytest.mark.parametrize(
    "loss_db, count",
    [
        ("0:40:0.01", 4001),
        ("0:30:0.25", 121),
        ("0:1e-12:1e-13", 11),
        ("0:1e-6:1e-9", 1001),
        ("0:1e-300:1e-301", 11),
        # start + k step stays 1e20 for thousands of k: the loop ends anyway
        ("1e20:1e20:1", 1),
        # round(1 / 0.6) + 1 = 3 steps, but 1.2 overshoots stop: the loop breaks
        ("0:1:0.6", 2),
    ],
)
def test_loss_grid_points_stay_within_half_a_step_of_stop(loss_db, count):
    start, stop, step = map(float, loss_db.split(":"))
    values = _parse_loss_grid(loss_db)
    assert len(values) == count
    assert values == tuple(start + k * step for k in range(count))
    assert max(values) <= stop + step / 2


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
        # Too large for a float: the cap is compared as an integer.
        ("verify", "--mode", "mc", "--mc-samples", "1" + "0" * 400, "--amplitudes", "1"),
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
        (("rescale", "--kind", "homodyne", "--nu", "0.1", "--nbar", "3"), "--nbar"),
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
        # nbar = nu / (1 - eta_d) overflows: the fault is the noise product given.
        (("rescale", "--kind", "homodyne", "--eta-d", "0.7", "--nu", "1e308"), "nu = 1e+308"),
        (("scan", "--eta-d", "0.7", "--nu", "1e308", "--out", "bad"), "nu = 1e+308"),
        (("verify", "--eta-d", "0.7", "--nu", "1e308", "--out", "bad"), "nu = 1e+308"),
        (("scan", "--eta-d", "1", "--nu", "0.1", "--out", "bad"), "eta_d = 1.0"),
        (("verify", "--eta-d", "1", "--nu", "0.1", "--out", "bad"), "eta_d = 1.0"),
        (("rescale", "--kind", "homodyne", "--two-nu=-2"), "noise product two_nu must"),
        # The untrusted xi_eff overflows at its fold, not at the report
        # writer: 2 nu is infinite, or t xi0 + 2 nu overflows.
        (
            ("scan", "--eta-d", "0.01", "--nbar", "1.79e308", "--loss-db", "0", "--out", "bad"),
            "the untrusted scenario's excess noise xi_eff overflows",
        ),
        (
            (
                "scan", "--eta-d", "0.5", "--nbar", "1e308", "--xi0", "1.7e308", "--loss-db", "0",
                "--out", "bad",
            ),
            "the untrusted scenario's excess noise xi_eff overflows",
        ),
        # eta_e = eta_d / r^2 underflows to zero: the fault is the pair given.
        (
            ("rescale", "--kind", "homodyne", "--eta-d", "1e-300", "--nbar", "1e300"),
            "eta_d = 1e-300",
        ),
        (("scan", "--eta-d", "1e-300", "--nbar", "1e300", "--out", "bad"), "eta_d = 1e-300"),
        (
            (
                "verify", "--eta-d", "1e-300", "--nu", "1e300", "--kind", "heterodyne",
                "--out", "bad",
            ),
            "eta_d = 1e-300",
        ),
    ],
    ids=[
        "rescale-limit-nbar", "verify-amplitude-1e7", "verify-mc-amplitude-1e300",
        "scan-duplicate-scenario", "rescale-nbar-overflow", "scan-nbar-overflow",
        "verify-nbar-overflow", "scan-unit-efficiency", "verify-unit-efficiency",
        "rescale-limit-negative-two-nu", "scan-xi-eff-overflow-2nu", "scan-xi-eff-overflow-sum",
        "rescale-eta-e-underflow", "scan-eta-e-underflow", "verify-eta-e-underflow",
    ],
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


def test_a_noise_product_fault_reads_the_same_in_every_command(capsys, tmp_path):
    # One rule for nu, with or without --eta-d; only rescale has a limit form,
    # and its --help names it, so no error points to it.
    errors = set()
    for argv in (
        ("rescale", "--kind", "homodyne", "--nu", "-1"),
        ("rescale", "--kind", "homodyne", "--eta-d", "0.7", "--nu", "-1"),
        ("scan", "--eta-d", "0.7", "--nu", "-1", "--out", "bad"),
        ("verify", "--eta-d", "0.7", "--nu", "-1", "--out", "bad"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        errors.add(err)
    assert errors == {"error: noise product nu must be a finite non-negative number, got -1.0\n"}
    for command in ("scan", "verify"):
        err = run_cli(capsys, command, "--eta-d", "1", "--nu", "0.1", "--out", "bad")[2]
        assert "limit form" not in err
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run_cli(capsys, "rescale", "--help")
    assert code == 0 and "limit form" in " ".join(out.split())  # help text is wrapped


@pytest.mark.parametrize(
    "negative_zero, zero",
    [
        (("--eta-d", "0.7", "--nbar", "-0.0"), ("--eta-d", "0.7", "--nbar", "0")),
        (("--eta-d", "0.7", "--two-nu", "-0.0"), ("--eta-d", "0.7", "--two-nu", "0")),
        (("--nu", "-0.0"), ("--nu", "0")),
        (("--two-nu", "-0.0"), ("--two-nu", "0")),
    ],
)
def test_rescale_writes_a_negative_zero_noise_input_as_zero(capsys, negative_zero, zero):
    code, out, _ = run_cli(capsys, "rescale", "--kind", "homodyne", *negative_zero)
    assert code == 0
    assert out == run_cli(capsys, "rescale", "--kind", "homodyne", *zero)[1]
    assert "-0.0" not in out


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


def test_scan_rejects_a_config_of_more_than_a_million_losses(capsys, tmp_path):
    # 0 to 1000 dB in 1e-3 dB steps, the grid --loss-db 0:1000:0.001 refuses.
    data = {
        "detectors": [{"kind": "heterodyne", "eta_d": 0.7, "nbar": 0.01}],
        "loss_db": [k * 1e-3 for k in range(10**6 + 1)],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "scan", "--config", str(path), "--out", "bad")
    assert code == 2 and out == ""
    assert err == "error: loss_db has 1000001 points, more than 1000000\n"
    assert list(tmp_path.iterdir()) == [path]
    # --loss-db replaces the file's grid, so it is the flag's grid that is held to the cap.
    code, out, err = run_cli(capsys, "scan", "--config", str(path), "--loss-db", "0,3", "--out", "ok")
    assert code == 0 and err == ""


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
        ("scan", '"epsilon_sec": 1e-10', ()),
        ("scan", '"pulse_count": 1e12', ()),
        ("scan", '"schema": "cvtrust/scan-config/2"', ()),
        ("scan", '"detectors": [{"kind": "heterodyne", "eta_d": 0.7, "colour": 1}]', ()),
        ("scan", '"detectors": [{"kind": "heterodyne"}]', ()),
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
    "data, detail",
    [
        ({**_VERIFY_BASE, "specs": [{"kind": "homodyne", "eta_d": 0.7, "colour": 1}]}, "'colour'"),
        ({"specs": _VERIFY_BASE["specs"]}, "'alphas'"),
    ],
    ids=["unknown-spec-key", "no-alphas"],
)
def test_a_malformed_sweep_config_exits_2_naming_the_fault(capsys, tmp_path, data, detail):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--config", str(config), "--out", "bad")
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed sweep config: ") and err.count("\n") == 1
    assert err.rstrip("\n").endswith(detail)
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "spec, detail",
    [
        ({"kind": "heterodyne", "eta_d": 0.7, "colour": 1}, "has unknown key 'colour'"),
        ({"kind": "heterodyne", "nbar": 0.01}, "is missing key 'eta_d'"),
        ({}, "is missing key 'kind'"),
    ],
    ids=["unknown-key", "missing-key", "empty"],
)
@pytest.mark.parametrize("command", ["verify", "scan"])
def test_a_malformed_detector_spec_exits_2_naming_its_index_and_key(
    capsys, tmp_path, command, spec, detail
):
    base, key, config_kind = {
        "verify": (_VERIFY_BASE, "specs", "sweep"),
        "scan": (_SCAN_BASE, "detectors", "scan"),
    }[command]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**base, key: [*base[key], spec]}))
    code, out, err = run_cli(capsys, command, "--config", str(config), "--out", "bad")
    assert code == 2 and out == ""
    assert err == f"error: malformed {config_kind} config: {key}[1] {detail}\n"
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "command, extra, line",
    [
        ("verify", {"surprise": 1}, "malformed sweep config: config has unknown key 'surprise'"),
        ("scan", {"surprise": 1}, "malformed scan config: config has unknown key 'surprise'"),
        (
            "scan",
            {"rate_params": {"colour": 1}},
            "malformed scan config: rate_params has unknown key 'colour'",
        ),
        # A receiver that contradicts its protocol: the key's own detector is missing.
        (
            "scan",
            {"protocol": "hybrid", "loss_db": [0, 10]},
            "the hybrid protocol needs a homodyne detector, which measures its key",
        ),
        (
            "scan",
            {
                "protocol": "heterodyne",
                "detectors": [{"kind": "homodyne", "eta_d": 0.7, "nbar": 0.01}],
                "loss_db": [0, 10],
            },
            "the heterodyne protocol's receiver has no homodyne detector; "
            "its kinds are ('heterodyne',)",
        ),
    ],
    ids=[
        "verify-unknown-key", "scan-unknown-key", "rate-params-unknown-key",
        "hybrid-without-homodyne", "heterodyne-with-homodyne",
    ],
)
def test_a_config_key_fault_exits_2_naming_its_place_and_key(
    capsys, tmp_path, command, extra, line
):
    base = _VERIFY_BASE if command == "verify" else _SCAN_BASE
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**base, **extra}))
    code, out, err = run_cli(capsys, command, "--config", str(config), "--out", "bad")
    assert code == 2 and out == ""
    assert err == f"error: {line}\n"
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "obj, schema",
    [
        (SweepConfig(alphas=(1j,), specs=(DetectorSpec("homodyne", 0.7, 0.01),)), True),
        (ScanConfig(loss_db=(0.0,), xi0=0.0, detectors=(DetectorSpec("heterodyne", 0.7),)), True),
        (rescale_plan(DetectorSpec("heterodyne", 0.7, 0.01)), False),
    ],
    ids=["SweepConfig", "ScanConfig", "RescalePlan"],
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


def _json_report(head, key, texts):
    fh = io.StringIO()
    write_json_report(fh, head, key, iter(texts))
    return fh.getvalue()


# The tests' keys "a", "n" and "z" sort before, between and after the head's
# keys; "b" holds each of them one level down, and "m" names one in a string.
_REPORT_HEAD = {
    "b": {"a": [], "n": [], "z": []},
    "m": '\n  "a": []',
    "schema": "cvtrust/test/1",
}


@pytest.mark.parametrize("key", ["a", "n", "z"], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    "items",
    [[], [{"x": 0.5, "y": None}], [{"x": -0.0, "y": '\n    "a"'}, {"x": 2**64}]],
    ids=["empty", "one", "two"],
)
def test_json_report_splices_the_items_into_one_top_level_line(key, items):
    texts = [json_value(item, "\n    ") for item in items]
    assert _json_report(_REPORT_HEAD, key, texts) == _json_text({**_REPORT_HEAD, key: items})


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(_JSON_TEXTS, _JSON_VALUES, max_size=4),
    _JSON_TEXTS,
    st.lists(_JSON_VALUES, max_size=4),
)
def test_json_report_equals_the_json_text_of_the_whole(head, key, items):
    texts = [json_value(item, "\n    ") for item in items]
    assert _json_report(head, key, texts) == _json_text({**head, key: items})


@pytest.mark.parametrize(
    "command, value, key",
    [
        ("scan", '"xi0": true', "xi0"),
        ("scan", '"xi0": "0.1"', "xi0"),
        ("scan", '"loss_db": [0, true]', "loss_db"),
        ("scan", '"rate_params": {"reconciliation_efficiency": true}', "reconciliation_efficiency"),
        ("scan", '"detectors": [{"kind": "heterodyne", "eta_d": true}]', "eta_d"),
        ("verify", '"tv_tol": true', "tv_tol"),
        ("verify", '"tv_tol": "x"', "tv_tol"),
        ("verify", '"ks_alpha": false', "ks_alpha"),
        ("verify", '"sabotage": {}', "sabotage"),
        ("verify", '"sabotage": [1]', "sabotage"),
        ("verify", '"mode": []', "mode"),
        ("verify", '"mode": {}', "mode"),
        ("verify", '"alphas": [[true, 0]]', "alphas[0]"),
        ("verify", '"specs": [{"kind": "homodyne", "eta_d": 0.7, "nbar": false}]', "nbar"),
        ("scan", '"scenarios": 5', "scenarios"),
        ("scan", '"scenarios": "ideal"', "scenarios"),
        ("scan", '"loss_db": 5', "loss_db"),
        ("scan", '"rate_params": [1]', "rate_params"),
        ("scan", '"rate_name": [1]', "rate_name"),
        ("scan", '"rate_name": {}', "rate_name"),
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


@pytest.mark.parametrize(
    "kind, variance, floor",
    [("homodyne", "0.2", "0.25"), ("heterodyne", "0.2", "0.5"), ("heterodyne", "-1.0", "0.5")],
)
def test_calibrate_below_vacuum_floor_fails(capsys, kind, variance, floor):
    code, out, err = run_cli(
        capsys, "calibrate", "--kind", kind, "--vacuum-variance", variance
    )
    assert code == 1
    assert out == ""
    assert err == (
        f"calibration failed: vacuum-probe variance {variance} is below the {kind} floor {floor}\n"
    )


@pytest.mark.parametrize("variance", ["inf", "nan", "-inf"])
def test_calibrate_rejects_a_non_finite_variance(capsys, tmp_path, variance):
    code, out, err = run_cli(
        capsys,
        "calibrate",
        "--kind", "heterodyne", f"--vacuum-variance={variance}", "--out", "cal.json",
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


_WRITING_COMMANDS = [
    ("verify", "--eta-d", "0.7", "--nu", "1e-3", "--amplitudes", "1", "--phases", "1"),
    ("scan", "--eta-d", "0.7", "--nu", "1e-2", "--loss-db", "0:2:1"),
    ("calibrate", "--kind", "homodyne", "--vacuum-variance", "0.25025"),
]


def _refuse_to_run(*args):
    raise AssertionError("the work ran before its output path was checked")


@pytest.fixture
def refuse_the_work(monkeypatch):
    """Make the sweep, the scan and the calibration raise if they are reached."""
    monkeypatch.setitem(SWEEPS, "analytic", _refuse_to_run)
    for name in ("run_scan", "noise_figure_from_vacuum_variance"):
        monkeypatch.setattr(f"cvtrust.cli.{name}", _refuse_to_run)


@pytest.mark.usefixtures("refuse_the_work")
@pytest.mark.parametrize("below", ["x", "a/x"])
@pytest.mark.parametrize("argv", _WRITING_COMMANDS, ids=lambda argv: argv[0])
def test_an_output_path_under_a_regular_file_exits_2(capsys, tmp_path, argv, below):
    blocker = tmp_path / "somefile"
    blocker.write_text("")
    code, out, err = run_cli(capsys, *argv, "--out", str(blocker / below))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {blocker / below}") and err.count("\n") == 1
    assert list(tmp_path.rglob("*")) == [blocker]


@pytest.mark.usefixtures("refuse_the_work")
@pytest.mark.parametrize("argv", _WRITING_COMMANDS, ids=lambda argv: argv[0])
def test_an_output_file_that_is_a_directory_exits_2_leaving_no_temp_file(
    capsys, tmp_path, argv
):
    suffix = ".json" if argv[0] != "calibrate" else ""
    target = tmp_path / f"taken{suffix}"
    target.mkdir()
    code, out, err = run_cli(capsys, *argv, "--out", "taken")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1
    assert list(tmp_path.rglob("*")) == [target]


@pytest.mark.parametrize("argv", _WRITING_COMMANDS[:2], ids=lambda argv: argv[0])
def test_a_csv_report_that_is_a_directory_exits_2_leaving_no_json(capsys, tmp_path, argv):
    target = tmp_path / "taken.csv"
    target.mkdir()
    code, out, err = run_cli(capsys, *argv, "--out", "taken")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1
    assert list(tmp_path.rglob("*")) == [target]


@pytest.mark.parametrize("argv", _WRITING_COMMANDS[:2], ids=lambda argv: argv[0])
def test_a_dotted_prefix_keeps_its_whole_name(capsys, tmp_path, argv):
    for prefix in ("eta0.7", "eta0.9"):
        code, out, _ = run_cli(capsys, *argv, "--out", prefix)
        assert code == 0
        assert out.endswith(f"wrote {tmp_path / prefix}.json and {tmp_path / prefix}.csv\n")
    names = ["eta0.7.csv", "eta0.7.json", "eta0.9.csv", "eta0.9.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names


@pytest.mark.usefixtures("refuse_the_work")
@pytest.mark.parametrize("prefix", ["", ".", "..", "sub/", "sub/."])
@pytest.mark.parametrize("argv", _WRITING_COMMANDS, ids=lambda argv: argv[0])
def test_an_out_prefix_without_a_file_name_exits_2_before_the_work(
    capsys, tmp_path, argv, prefix
):
    parent = set(tmp_path.parent.iterdir())
    code, out, err = run_cli(capsys, *argv, "--out", prefix)
    assert code == 2
    assert out == ""
    assert err == f"error: --out must end in a file name, got {prefix!r}\n"
    assert list(tmp_path.iterdir()) == []
    assert set(tmp_path.parent.iterdir()) == parent


_SCIPY_PROBE = """
import json, sys
import cvtrust
numpy_after = {"import cvtrust": "numpy" in sys.modules}
from cvtrust.cli import main
numpy_after["import cvtrust.cli"] = "numpy" in sys.modules

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def pool_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"
                  or m == "concurrent.futures" or m.startswith("concurrent.futures."))

after_import = pool_modules()
out = sys.argv[1]
codes = []
for name, argv in (
    ("rescale", ["rescale", "--kind", "homodyne", "--nu", "1e-3"]),
    ("calibrate", ["calibrate", "--kind", "heterodyne", "--vacuum-variance", "0.5005"]),
    ("scan", ["scan", "--eta-d", "0.7", "--two-nu", "1e-3", "--loss-db", "0:20:5",
              "--out", out + "/scan"]),
    ("usage error", ["verify", "--sabotage", "bogus", "--out", out + "/bogus"]),
    ("help", ["verify", "--help"]),
):
    codes.append(main(argv))
    numpy_after[name] = "numpy" in sys.modules
before_verify = scipy_modules()
pools_before_verify = pool_modules()
one_cell = ["verify", "--eta-d", "0.7", "--nu", "1e-3", "--amplitudes", "1", "--phases", "1"]
codes.append(main(one_cell + ["--out", out + "/verify"]))
after_verify = scipy_modules()
numpy_after["verify"] = "numpy" in sys.modules
codes.append(main(one_cell + ["--mode", "mc", "--mc-samples", "10000", "--out", out + "/mc"]))
after_mc = scipy_modules()
# One cell runs in this process, so a lazy import on the asymptotic route would show.
codes.append(main(one_cell + ["--kind", "homodyne", "--mode", "mc", "--mc-samples", "10001",
                              "--out", out + "/tail"]))
after_tail = scipy_modules()
import scipy.stats
print(json.dumps({"codes": codes, "before_verify": before_verify,
                  "after_verify": after_verify, "after_mc": after_mc,
                  "after_tail": after_tail, "after_stats": scipy_modules(),
                  "after_import": after_import, "numpy_after": numpy_after,
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
    assert result["codes"] == [0, 0, 0, 2, 0, 0, 0, 0]
    assert result["before_verify"] == []
    # numpy, too, loads only for the lab's arrays: not for the package, the
    # CLI, rescale, calibrate --vacuum-variance, scan, a usage error or --help.
    assert result["numpy_after"] == {
        "import cvtrust": False, "import cvtrust.cli": False, "rescale": False,
        "calibrate": False, "scan": False, "usage error": False, "help": False, "verify": True,
    }
    # An analytic verify and a Monte Carlo one, on the exact route (10^4
    # draws) and the asymptotic one (10^4 + 1), need scipy.special only; the
    # control shows that the probe does see scipy.stats once it loads.
    for after in ("after_verify", "after_mc", "after_tail"):
        assert "scipy.special" in result[after]
        assert [m for m in result[after] if m.split(".")[:2] == ["scipy", "stats"]] == []
    assert "scipy.stats" in result["after_stats"]
    # The Monte Carlo process pool is imported by the sweep, not by the CLI.
    assert result["after_import"] == []
    assert result["pools_before_verify"] == []


def test_no_package_module_imports_scipy_stats():
    # Statically, so that fallback paths no run reaches are covered too.
    modules = sorted(Path(cvtrust.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            assert not [m for m in names if m.split(".")[:2] == ["scipy", "stats"]], (
                path.name, node.lineno
            )


def test_no_module_but_channel_names_a_scenario():
    # Statically: each scenario is one SCENARIO_TABLE entry, so no other
    # module spells a scenario's name or imports its constant.
    modules = [p for p in Path(cvtrust.__file__).parent.glob("*.py") if p.stem != "channel"]
    assert len(modules) > 1
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant):
                assert node.value not in SCENARIOS, (path.name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                assert not names & {"IDEAL", "TRUSTED", "UNTRUSTED"}, (path.name, node.lineno)


def test_channel_reduces_no_detector():
    # Statically: the scenario table folds the rescale plans it is handed, so
    # channel.py takes nothing from cvtrust.rescaling but, in an
    # `if TYPE_CHECKING:` block, the RescalePlan type, and names no reduction,
    # function and lambda bodies included (which _runs_on_import skips).
    path = Path(cvtrust.__file__).parent / "channel.py"
    tree = ast.parse(path.read_text(), str(path))
    typing_only = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        for sub in ast.walk(node)
    }
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            assert module not in (".rescaling", "cvtrust.rescaling"), node.lineno
            assert "rescaling" not in {a.name for a in node.names}, node.lineno
        elif isinstance(node, ast.Import):
            assert "cvtrust.rescaling" not in {a.name for a in node.names}, node.lineno
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            assert name not in ("rescale_plan", "harmonize", "rescaling"), node.lineno


def test_cli_names_no_protocol_and_no_detector_kind():
    # Statically: each protocol's receiver is one PROTOCOL_TABLE entry, so the
    # CLI spells no protocol or detector kind; its flags' choices come from the tables.
    names = set(PROTOCOLS) | set(KINDS)
    path = Path(cvtrust.__file__).parent / "cli.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Constant):
            assert node.value not in names, node.lineno


def _runs_on_import(node):
    """node and every node under it that runs when its module is imported:
    all but function bodies and `if TYPE_CHECKING:` blocks."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
            continue
        yield from _runs_on_import(child)


def test_no_module_but_the_ks_tail_imports_numpy_on_import():
    # Statically, beside the probe above: numpy is imported inside the
    # functions that work on arrays.  The lab (equivalence) is held to it
    # too, so that verify's usage errors load no numpy; only kstail, which
    # the Monte Carlo sweep alone imports, has module-level arrays.
    modules = [p for p in Path(cvtrust.__file__).parent.glob("*.py") if p.stem != "kstail"]
    assert len(modules) > 1
    for path in modules:
        for node in _runs_on_import(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert "numpy" not in roots, (path.name, node.lineno)


def test_param_tol_below_the_floor_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", "--param-tol", "1e-17", "--out", "low")
    assert code == 2 and out == ""
    assert err.startswith("error: param_tol must be at least ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_tv_tol_below_the_floor_exits_2_naming_the_floor(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", "--tv-tol", "1e-16", "--out", "low")
    assert code == 2 and out == ""
    assert err == "error: tv_tol 1e-16 is below the grid's TV floor 4.87558509947521e-15\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_config_at_the_largest_amplitude_on_both_axes_passes(capsys, tmp_path):
    # |alpha| = 1.41e6 here, but a homodyne mean is Re alpha = 1e6: the floor
    # is 7.09e-10, below the default tv_tol of 1e-9.
    config = default_sweep_config(alphas=(complex(1e6, 1e6),))
    path = tmp_path / "corner.json"
    path.write_text(json.dumps(config.to_json_dict()))
    code, out, _ = run_cli(capsys, "verify", "--config", str(path), "--out", "corner")
    assert code == 0
    assert out.startswith("PASS analytic sweep: 32 cells")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("scan", "--eta-d", "0.7", "--nu", "1e-3", "--loss-db", "0:1"), "start:stop:step"),
        (("scan", "--eta-d", "0.7", "--nu", "1e-3", "--loss-db", "5:0:1"), "must not precede"),
        (("verify", "--amplitudes", "1,x"), "comma-separated numbers"),
        # Both lists of names live in the lab, which checks them; argparse does not.
        (("verify", "--mode", "quantum"), " or ".join(map(repr, SWEEPS))),
        (("verify", "--sabotage", "bogus"), repr(SABOTAGE_MODES)),
        (("calibrate", "--kind", "homodyne", "--samples", "@missing"), "cannot read samples"),
    ]
    + [
        ((command, "--config", f"@{name}"), message)
        for command in ("verify", "scan")
        for name, message in [
            ("missing", "cannot read config file"),
            ("not-json", "config file is not valid JSON"),
            ("list", "config file must contain a JSON object"),
        ]
    ],
)
def test_malformed_flags_and_unreadable_files_exit_2_with_one_error_line(
    capsys, tmp_path, argv, message
):
    inputs = tmp_path / "in"
    inputs.mkdir()
    (inputs / "not-json").write_text("{")
    (inputs / "list").write_text("[1, 2]")
    before = sorted(tmp_path.rglob("*"))
    argv = [str(inputs / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv, "--out", "bad")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", _WRITING_COMMANDS, ids=lambda argv: argv[0])
def test_a_write_that_fails_after_its_temp_file_exits_2_leaving_no_file(
    capsys, tmp_path, monkeypatch, argv
):
    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    code, out, err = run_cli(capsys, *argv, "--out", "full")
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path / 'full'}") and err.count("\n") == 1
    assert "No space left on device" in err
    assert list(tmp_path.rglob("*")) == []


@pytest.mark.parametrize("argv", _WRITING_COMMANDS[:2], ids=lambda argv: argv[0])
def test_a_report_pair_is_replaced_whole_or_not_at_all(capsys, tmp_path, monkeypatch, argv):
    old = {tmp_path / "pair.json": "old json\n", tmp_path / "pair.csv": "old csv\n"}
    for path, text in old.items():
        path.write_text(text)
    mkstemp, calls = tempfile.mkstemp, []

    def full_disk_on_the_csv(*args, **kwargs):
        calls.append(kwargs["prefix"])
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return mkstemp(*args, **kwargs)

    monkeypatch.setattr(tempfile, "mkstemp", full_disk_on_the_csv)
    code, out, err = run_cli(capsys, *argv, "--out", "pair")
    assert calls == ["pair.json.", "pair.csv."]
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path / 'pair.csv'}: ") and err.count("\n") == 1
    assert "No space left on device" in err
    assert {path: path.read_text() for path in tmp_path.iterdir()} == old


def test_a_write_that_fails_in_the_report_names_both_files_and_leaves_neither(tmp_path):
    paths = [tmp_path / "pair.json", tmp_path / "pair.csv"]

    def fill(json_fh, csv_fh):
        json_fh.write("{}\n")
        raise OSError(28, "No space left on device")

    with pytest.raises(ValueError) as info:
        _write_atomic(paths, fill)
    assert str(info.value) == (
        f"cannot write {paths[0]} and {paths[1]}: [Errno 28] No space left on device"
    )
    assert list(tmp_path.iterdir()) == []


def test_writing_the_scan_fine_reports_holds_neither_report_in_memory(tmp_path):
    # The hybrid scan of the scan-fine benchmark: 12,003 rows, whose reports
    # are 2.3 MiB of JSON and 0.9 MiB of CSV.
    config = ScanConfig(
        loss_db=_parse_loss_grid("0.0:40.0:0.01"),
        xi0=0.01,
        detectors=tuple(DetectorSpec.from_noise_product(k, 0.7, two_nu=1e-3) for k in KINDS),
        protocol="hybrid",
    )
    table = run_scan(config)
    paths = [tmp_path / "scan.json", tmp_path / "scan.csv"]
    tracemalloc.start()
    try:
        _write_atomic(paths, table.write_reports)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.rows) == 12003
    assert [path.read_text() for path in paths] == list(report_texts(table))
    assert paths[0].stat().st_size > 2 * 2**20
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_verify_on_a_closed_pipe_exits_141_and_keeps_its_reports(tmp_path, unbuffered):
    package_root = str(Path(cvtrust.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    # 768 failing cells give more than one line of output, and the first
    # write comes only after the sweep, when the read end is long closed.
    proc = subprocess.Popen(
        [sys.executable, "-m", "cvtrust.cli", "verify", "--sabotage=skip-rescale", "--out=y"],
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
    assert report["summary"]["rejections"] == 768
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


# --out prefixes below the output directory; "", "." and ".." name no file.
_OUT_NAMES = st.sampled_from(["report", "r.v1", "", ".", ".."])


def _maybe(draw, flag, values):
    return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []


@st.composite
def _rescale_case(draw):
    argv = ["rescale", f"--kind={draw(st.sampled_from(KINDS))}"]
    for flag in ("--eta-d", "--nbar", "--nu", "--two-nu"):
        argv += _maybe(draw, flag, _NUM)
    return argv, {}


@st.composite
def _verify_case(draw):
    base = {
        "alphas": [[1.0, 0.0]],
        "specs": [{"kind": draw(st.sampled_from(KINDS)), "eta_d": 0.7, "nbar": 0.01}],
        "mc_samples": 10_000,
        "mode": draw(st.sampled_from(["analytic", "mc"])),
    }
    keys = tuple(f.name for f in fields(SweepConfig))
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
    argv.append("--out=@out/" + draw(_OUT_NAMES))
    return argv, {"config": _config(draw, base, keys)}


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
    return argv + ["--out=@out/" + draw(_OUT_NAMES)], files


@st.composite
def _calibrate_case(draw):
    argv, files = ["calibrate", f"--kind={draw(st.sampled_from(KINDS))}"], {}
    argv += _maybe(draw, "--vacuum-variance", _NUM)
    if draw(st.booleans()):
        lines = draw(st.lists(st.lists(_NUM | st.just("x"), max_size=3), max_size=4))
        files["samples"] = "\n".join(" ".join(line) for line in lines)
        argv.append("--samples=@samples")
    if draw(st.booleans()):
        argv.append("--out=@out/" + draw(_OUT_NAMES))
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
    out_name = os.path.basename(argv[-1]) if argv[-1].startswith("--out=") else None
    if out_name in ("", ".", ".."):
        assert code == 2
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "__init__()" not in err.getvalue()
        assert caught == [] and written == {}
        return
    assert code == 0 or (code == 1 and command in ("verify", "calibrate"))
    if command == "verify":  # at most a power warning, one line naming the analytic mode
        assert err.getvalue() == "" or (
            err.getvalue().startswith("warning: ") and err.getvalue().count("\n") == 1
            and "--mode analytic" in err.getvalue()
        )
    if command in ("verify", "scan"):
        assert sorted(written) == [f"{out_name}.csv", f"{out_name}.json"]
        _strict_json(written[f"{out_name}.json"])
    elif code == 0:
        result = _strict_json(out.getvalue())
        assert sorted(written) == ([] if out_name is None else [out_name])
        assert all(_strict_json(text) == result for text in written.values())
    else:
        assert err.getvalue().startswith("calibration failed: ") and written == {}


@pytest.mark.parametrize(
    "umask, mode", [(0o022, "-rw-r--r--"), (0o077, "-rw-------")], ids=["022", "077"]
)
@pytest.mark.parametrize("argv", _WRITING_COMMANDS, ids=lambda argv: argv[0])
def test_report_files_get_the_mode_the_umask_allows(capsys, tmp_path, argv, umask, mode):
    previous = os.umask(umask)
    try:
        code, _, _ = run_cli(capsys, *argv, "--out", "report")
    finally:
        os.umask(previous)
    assert code == 0
    written = sorted(tmp_path.iterdir())
    assert len(written) == (1 if argv[0] == "calibrate" else 2)
    for path in written:
        assert stat.filemode(path.stat().st_mode) == mode, path.name
