"""Tests of the benchmark itself: its checks accept right reports and reject wrong ones.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import cvtrust.cli as cli  # noqa: E402
from cvtrust import equivalence, keyrate  # noqa: E402

from perfbench import checks, tracing  # noqa: E402
from perfbench.checks import Grid, ScanSpec  # noqa: E402
from perfbench.workloads import MC_LARGE_GRID, MC_LARGE_SAMPLES  # noqa: E402


def _run(tmp_path: Path, name: str, argv: list[str]) -> tuple[int, dict, str]:
    prefix = tmp_path / name
    code = cli.main([*argv, "--out", str(prefix)])
    report = json.loads(prefix.with_suffix(".json").read_text())
    return code, report, prefix.with_suffix(".csv").read_text()


def test_tv_numeric_matches_erf_for_equal_variances():
    for dims in (1, 2):
        mean = np.zeros(dims)
        shift = mean.copy()
        shift[0] = 0.3
        want = math.erf(0.3 / 0.5 / (2.0 * math.sqrt(2.0)))
        assert checks.tv_numeric((mean, 0.25), (shift, 0.25)) == pytest.approx(want, rel=1e-12)


def test_analytic_checks_reject_scale_r_and_a_wrong_tv(tmp_path):
    grid = Grid()
    code, report, text = _run(tmp_path, "faithful", ["verify"])
    assert code == 0 and checks.check_analytic_faithful(report, text, grid) == []
    code, report, text = _run(tmp_path, "scale-r", ["verify", "--sabotage", "scale-r"])
    assert checks.check_analytic_faithful(report, text, grid)

    code, report, text = _run(tmp_path, "skip", ["verify", "--sabotage", "skip-rescale"])
    noisy = [i for i, c in enumerate(grid.cells()) if c.nu > 0]
    assert code == 1 and checks.check_analytic_skip_rescale(report, text, grid, noisy[::97]) == []
    report["cells"][noisy[97]]["tv_estimate"] *= 1.0 + 1e-6
    assert checks.check_analytic_skip_rescale(report, text, grid, noisy[::97])


def test_mc_checks_reject_scale_r_and_a_wrong_ks_statistic(tmp_path):
    argv = ["verify", "--mode", "mc", "--mc-samples", str(MC_LARGE_SAMPLES), *MC_LARGE_GRID.flags()]
    code, report, _ = _run(tmp_path, "faithful", argv)
    assert code == 0 and checks.check_mc_faithful(report, MC_LARGE_GRID, MC_LARGE_SAMPLES) == []
    _, report, _ = _run(tmp_path, "scale-r", argv + ["--sabotage", "scale-r"])
    assert checks.check_mc_faithful(report, MC_LARGE_GRID, MC_LARGE_SAMPLES)

    code, report, _ = _run(tmp_path, "skip", argv + ["--sabotage", "skip-rescale"])
    assert code == 1 and checks.check_mc_skip_rescale(report, MC_LARGE_GRID, MC_LARGE_SAMPLES) == []
    report["cells"][0]["ks_stat"] += 10.0 * math.sqrt(2.0 / MC_LARGE_SAMPLES)
    assert checks.check_mc_skip_rescale(report, MC_LARGE_GRID, MC_LARGE_SAMPLES)


@pytest.mark.parametrize("protocol", ["heterodyne", "hybrid"])
def test_scan_check_rejects_one_perturbed_trusted_rate(tmp_path, protocol):
    spec = ScanSpec(protocol, step=0.5)
    code, report, text = _run(tmp_path, "scan", ["scan", *spec.flags()])
    sample = np.arange(0, spec.losses().size, 7)
    assert code == 0 and checks.check_scan(report, text, spec, sample) == []
    trusted = [r for r in report["rows"] if r["scenario"] == "trusted"]
    trusted[len(trusted) // 2]["rate"] *= 1.0 + 1e-7
    assert checks.check_scan(report, text, spec, sample)


def test_tracing_wraps_every_binding_and_restores_it(tmp_path):
    recorder = tracing.Recorder()
    originals = (equivalence.rescale_plan, keyrate.RATE_FUNCTIONS["asymptotic-rr-gaussian"])
    with tracing.traced(recorder) as absent:
        assert absent == []
        cli.main(["scan", *ScanSpec("hybrid", step=10.0).flags(), "--out", str(tmp_path / "s")])
    assert (equivalence.rescale_plan, keyrate.RATE_FUNCTIONS["asymptotic-rr-gaussian"]) == originals
    assert recorder.calls["keyrate.reference_rate"] == 15
    assert recorder.calls["rescaling.harmonize"] == 1
    assert recorder.counts["keyrate.rows"] == 15
    parents = {span[1]: span[2] for span in recorder.spans}
    names = {span[1]: span[3] for span in recorder.spans}
    rate_span = next(i for i, n in names.items() if n == "keyrate.reference_rate")
    assert names[parents[rate_span]] == "keyrate.run_scan"


def test_a_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "FUNCTIONS", tracing.FUNCTIONS + (("gaussian.gone", "gaussian", "gone"),))
    with tracing.traced(tracing.Recorder()) as absent:
        assert absent == ["gaussian.gone"]


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    traced = {f"{n}.{k}" for n in tracing.SPAN_NAMES for k in ("calls", "self_s")}
    traced |= set(tracing.COUNT_NAMES) | {"cli.report_bytes", "process.cpu_s", "trace.overhead_s"}
    assert names == traced


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "analytic-grid", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert done.returncode != 0 and done.stdout == ""
