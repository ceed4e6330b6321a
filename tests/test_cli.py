import json

import numpy as np
import pytest

from cvtrust.cli import main

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
    # At amplitude 1e200 the two models' rounded heterodyne means sit about
    # 1e184 standard deviations apart: the cells fail with TV 1, not an
    # overflowed number.
    code, _, _ = run_cli(
        capsys,
        "verify",
        "--amplitudes", "1e200",
        "--phases", "2",
        "--eta-d", "0.7",
        "--nu", "1e-3",
        "--out", "far",
    )
    assert code == 1
    payload = json.loads(
        (tmp_path / "far.json").read_text(), parse_constant=pytest.fail
    )
    heterodyne = [c for c in payload["cells"] if c["kind"] == "heterodyne"]
    assert len(heterodyne) == 2
    for cell in heterodyne:
        assert cell["tv_estimate"] == 1.0
        assert cell["pass"] is False
    assert payload["summary"]["worst_tv"] == 1.0


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
