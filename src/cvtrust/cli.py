"""Command line interface.

Subcommands:
    rescale    print the loss-then-rescale plan for a detector
    verify     run an equivalence sweep and write JSON+CSV reports
    scan       run a key-rate scan and write JSON+CSV tables
    calibrate  infer the detector noise product from vacuum-probe data

Exit codes: 0 on success or a passing sweep, 1 when a verification or
calibration fails, 2 on usage or configuration errors, 141 (128 + SIGPIPE)
when standard output is closed early (reports already written are kept).
Report files are written atomically (temp file, then rename).  The
default output directory is taken from CVTRUST_OUTPUT_DIR when set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .detectors import HOMODYNE, KINDS, DetectorSpec
from .equivalence import (
    SABOTAGE_MODES,
    SweepConfig,
    analytic_sweep,
    default_alpha_grid,
    default_spec_grid,
    default_sweep_config,
    monte_carlo_sweep,
)
from .jsontext import json_object
from .jsontext import json_text as _json_text
from .keyrate import (
    PROTOCOLS,
    RATE_FUNCTIONS,
    RateParams,
    ScanConfig,
    run_scan,
)
from .rescaling import (
    VACUUM_VARIANCE_FLOOR,
    noise_figure_from_vacuum_variance,
    rescale_plan,
    rescale_plan_limit,
)

OUTPUT_DIR_ENV = "CVTRUST_OUTPUT_DIR"

# Largest number of points in a loss grid, and of cells in a verify grid.
MAX_GRID_POINTS = 10**6


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _resolve_out(prefix: str) -> Path:
    path = Path(prefix)
    if path.is_absolute():
        return path
    return Path(os.environ.get(OUTPUT_DIR_ENV, ".")) / path


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    return data


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_loss_grid(text: str) -> tuple[float, ...]:
    """Parse 'start:stop:step' (inclusive), a comma list, or one value."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"loss grid must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"loss grid start, stop and step must be finite, got {text!r}")
        if step <= 0:
            raise ValueError("loss grid step must be positive")
        if stop < start:
            raise ValueError("loss grid stop must not precede start")
        if (stop - start) / step + 1 > MAX_GRID_POINTS:
            raise ValueError(
                f"loss grid {text!r} has more than {MAX_GRID_POINTS} points"
            )
        values = []
        k = 0
        while True:
            value = start + k * step
            if value > stop + 1e-9 * max(1.0, abs(stop)):
                break
            values.append(value)
            k += 1
        return tuple(values)
    return _parse_float_list(text)


def _detector_from_noise_flags(kind, eta_d, nbar, nu, two_nu) -> DetectorSpec:
    given = [name for name, val in (("--nbar", nbar), ("--nu", nu), ("--two-nu", two_nu)) if val is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of --nbar, --nu, --two-nu")
    if nbar is not None:
        if eta_d is None:
            raise ValueError("--nbar requires --eta-d")
        return DetectorSpec(kind, eta_d, nbar)
    if eta_d is None:
        raise ValueError("building a detector from --nu/--two-nu requires --eta-d")
    return DetectorSpec.from_noise_product(kind, eta_d, nu=nu, two_nu=two_nu)


def cmd_rescale(args: argparse.Namespace) -> int:
    for flag, value in (("--eta-d", args.eta_d), ("--nbar", args.nbar)):
        if args.limit and value is not None:
            raise ValueError(f"--limit and {flag} are mutually exclusive")
    if args.nu is not None and args.two_nu is not None:
        raise ValueError("--nu and --two-nu are mutually exclusive")
    if args.limit or (args.eta_d is None and args.nbar is None):
        if args.nu is None and args.two_nu is None:
            raise ValueError("the limit form needs --nu or --two-nu")
        nu = args.nu if args.nu is not None else args.two_nu / 2.0
        plan = rescale_plan_limit(nu, args.kind)
    else:
        spec = _detector_from_noise_flags(
            args.kind, args.eta_d, args.nbar, args.nu, args.two_nu
        )
        plan = rescale_plan(spec)
    print(_json_text(plan.to_json_dict()), end="")
    return 0


def _sweep_config_from_args(args: argparse.Namespace) -> tuple[SweepConfig, str]:
    config_data = _load_config(args.config)
    mode = args.mode
    if mode is None:
        mode = config_data.pop("mode", "analytic")
    else:
        config_data.pop("mode", None)
    if mode not in ("analytic", "mc"):
        raise ValueError(f"mode must be 'analytic' or 'mc', got {mode!r}")
    if config_data:
        base = SweepConfig.from_json_dict(config_data)
    else:
        base = default_sweep_config()
    overrides = {}
    if args.eta_d or args.nu is not None or args.kind:
        kinds = KINDS if args.kind in (None, "both") else (args.kind,)
        grid_kwargs = {"kinds": kinds}
        if args.eta_d:
            grid_kwargs["eta_ds"] = tuple(args.eta_d)
        if args.nu is not None:
            grid_kwargs["nus"] = tuple(args.nu)
        overrides["specs"] = default_spec_grid(**grid_kwargs)
    if args.amplitudes is not None or args.phases is not None:
        amplitudes, n_phases = default_alpha_grid.__defaults__
        if args.amplitudes is not None:
            amplitudes = _parse_float_list(args.amplitudes)
        if args.phases is not None:
            n_phases = args.phases
        n_specs = len(overrides.get("specs", base.specs))
        if len(amplitudes) * n_phases * n_specs > MAX_GRID_POINTS:
            raise ValueError(f"--amplitudes x --phases x specs is more than {MAX_GRID_POINTS} cells")
        overrides["alphas"] = default_alpha_grid(amplitudes, n_phases)
    for name in ("mc_samples", "seed", "param_tol", "tv_tol", "ks_alpha", "sabotage"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        base = replace(base, **overrides)
    if base.n_cells > MAX_GRID_POINTS:
        raise ValueError(f"alphas x specs is {base.n_cells} cells, more than {MAX_GRID_POINTS}")
    return base, mode


def cmd_verify(args: argparse.Namespace) -> int:
    config, mode = _sweep_config_from_args(args)
    if mode == "mc":
        report = monte_carlo_sweep(config)
    else:
        report = analytic_sweep(config)
    payload = report.to_json_dict()
    payload["config"]["mode"] = mode
    out = _resolve_out(args.out)
    _write_atomic(out.with_suffix(".json"), _json_text(payload))
    _write_atomic(out.with_suffix(".csv"), report.to_csv_text())
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict} {mode} sweep: {len(report.cells)} cells, "
        f"worst mean gap {report.worst_mean_gap:.3e}, "
        f"worst var gap {report.worst_var_gap:.3e}, "
        f"rejections {report.n_rejections}"
    )
    failing = [c for c in report.cells if not c.passed]
    for cell in failing[:10]:
        print(
            f"  fail: alpha={cell.alpha:.3g} kind={cell.spec.kind} "
            f"eta_d={cell.spec.eta_d:.6g} nbar={cell.spec.nbar:.6g} "
            f"mean_gap={cell.mean_gap:.3e} var_gap={cell.var_gap:.3e}"
            + (
                f" ks_stat={cell.ks_statistic:.3e}"
                if cell.ks_statistic is not None
                else ""
            )
        )
    if len(failing) > 10:
        print(f"  ... and {len(failing) - 10} more failing cells")
    print(f"wrote {out.with_suffix('.json')} and {out.with_suffix('.csv')}")
    return 0 if report.passed else 1


def _scan_config_from_args(args: argparse.Namespace) -> ScanConfig:
    config_data = _load_config(args.config)
    detector_flags = (args.eta_d, args.nbar, args.nu, args.two_nu)
    if any(v is not None for v in detector_flags):
        protocol = args.protocol or config_data.get("protocol") or "heterodyne"
        kinds = ("heterodyne",) if protocol == "heterodyne" else ("homodyne", "heterodyne")
        detectors = tuple(
            _detector_from_noise_flags(kind, args.eta_d, args.nbar, args.nu, args.two_nu)
            for kind in kinds
        )
        config_data["detectors"] = [asdict(d) for d in detectors]
        config_data["protocol"] = protocol
    elif args.protocol is not None:
        config_data["protocol"] = args.protocol
    if "detectors" not in config_data:
        raise ValueError("no detectors: give --eta-d with a noise flag, or --config")
    if args.loss_db is not None:
        config_data["loss_db"] = list(_parse_loss_grid(args.loss_db))
    elif "loss_db" not in config_data:
        config_data["loss_db"] = list(_parse_loss_grid("0:40:1"))
    if args.xi0 is not None:
        config_data["xi0"] = args.xi0
    elif "xi0" not in config_data:
        config_data["xi0"] = 0.0
    if args.scenarios is not None:
        config_data["scenarios"] = args.scenarios.split(",")
    if args.rate is not None:
        config_data["rate_name"] = args.rate
    rate_flags = (("modulation_variance", args.va), ("reconciliation_efficiency", args.beta))
    overrides = {name: value for name, value in rate_flags if value is not None}
    if overrides:
        rate_params = json_object("rate_params", config_data.get("rate_params", {}))
        config_data["rate_params"] = {**rate_params, **overrides}
    return ScanConfig.from_json_dict(config_data)


def cmd_scan(args: argparse.Namespace) -> int:
    config = _scan_config_from_args(args)
    table = run_scan(config)
    json_report, csv_report = table.report_texts()
    out = _resolve_out(args.out)
    _write_atomic(out.with_suffix(".json"), json_report)
    _write_atomic(out.with_suffix(".csv"), csv_report)
    print(
        f"scan: protocol={config.protocol} eta_e_min={table.eta_e_min:.12g} "
        f"points={len(config.loss_db)}"
    )
    print(f"{'scenario':<10} {'rate@min_loss':>16} {'positive_up_to_dB':>18}")
    for scenario in sorted(config.scenarios):
        rates = [r for r in table.rows if r.scenario == scenario]
        positive = [r.loss_db for r in rates if r.status == "ok" and r.rate > 0]
        head = rates[0].rate if rates else float("nan")
        limit = f"{max(positive):g}" if positive else "none"
        print(f"{scenario:<10} {head:>16.6e} {limit:>18}")
    print(f"wrote {out.with_suffix('.json')} and {out.with_suffix('.csv')}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    if (args.vacuum_variance is None) == (args.samples is None):
        raise ValueError("give exactly one of --vacuum-variance and --samples")
    if args.vacuum_variance is not None:
        variance = args.vacuum_variance
    else:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty file is reported below
                data = np.loadtxt(args.samples, ndmin=2)
        except OSError as exc:
            raise ValueError(f"cannot read samples file: {exc}") from exc
        columns = 1 if args.kind == HOMODYNE else 2
        if data.shape[1] != columns or len(data) < 2:
            raise ValueError(
                f"{args.kind} samples need {columns} column(s) and at least 2 lines; "
                f"the file has {len(data)} line(s) of {data.shape[1]} column(s)"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite: reported below
            variance = float(np.var(data, axis=0, ddof=1).mean())
    try:
        nu = noise_figure_from_vacuum_variance(variance, args.kind)
    except ValueError as exc:
        if not (math.isfinite(variance) and variance < VACUUM_VARIANCE_FLOOR[args.kind]):
            raise  # only a finite variance below the floor fails a calibration
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 1
    payload = {"kind": args.kind, "variance": variance, "nu": nu}
    text = _json_text(payload)
    if args.out is not None:
        _write_atomic(_resolve_out(args.out), text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvtrust",
        description="Trusted-noise calculus for noisy quadrature detectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rescale = sub.add_parser(
        "rescale", help="print the loss-then-rescale plan for a detector"
    )
    p_rescale.add_argument("--kind", choices=KINDS, required=True)
    p_rescale.add_argument("--eta-d", type=float, help="detector efficiency")
    p_rescale.add_argument("--nbar", type=float, help="thermal photon number")
    p_rescale.add_argument("--nu", type=float, help="noise product nbar(1-eta_d)")
    p_rescale.add_argument("--two-nu", type=float, help="2 nbar(1-eta_d)")
    p_rescale.add_argument(
        "--limit",
        action="store_true",
        help="use the eta_d -> 1 limit at fixed nu (implied when --eta-d is absent)",
    )
    p_rescale.set_defaults(func=cmd_rescale)

    p_verify = sub.add_parser(
        "verify", help="run an equivalence sweep and write JSON+CSV reports"
    )
    p_verify.add_argument("--mode", choices=("analytic", "mc"))
    p_verify.add_argument(
        "--eta-d", type=float, action="append", help="restrict the efficiency grid"
    )
    p_verify.add_argument(
        "--nu",
        type=float,
        action="append",
        help="restrict the noise-product grid",
    )
    p_verify.add_argument("--kind", choices=KINDS + ("both",))
    p_verify.add_argument("--amplitudes", help="comma list of coherent moduli")
    p_verify.add_argument("--phases", type=int, help="phases per modulus")
    p_verify.add_argument("--mc-samples", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--param-tol", type=float)
    p_verify.add_argument("--tv-tol", type=float)
    p_verify.add_argument("--ks-alpha", type=float)
    p_verify.add_argument("--sabotage", choices=SABOTAGE_MODES)
    p_verify.add_argument("--config", help="JSON sweep config; flags override it")
    p_verify.add_argument(
        "--out", default="equivalence_report", help="output path prefix"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser(
        "scan", help="run a key-rate scan and write JSON+CSV tables"
    )
    p_scan.add_argument("--protocol", choices=PROTOCOLS)
    p_scan.add_argument("--eta-d", type=float, help="detector efficiency")
    p_scan.add_argument("--nbar", type=float, help="thermal photon number")
    p_scan.add_argument("--nu", type=float, help="noise product nbar(1-eta_d)")
    p_scan.add_argument("--two-nu", type=float, help="2 nbar(1-eta_d)")
    p_scan.add_argument("--xi0", type=float, help="channel excess noise")
    p_scan.add_argument("--loss-db", help="start:stop:step, a comma list, or one value")
    p_scan.add_argument("--scenarios", help="comma list from ideal,trusted,untrusted")
    p_scan.add_argument("--rate", choices=sorted(RATE_FUNCTIONS))
    p_scan.add_argument("--va", type=float, help="modulation variance (shot-noise units)")
    p_scan.add_argument("--beta", type=float, help="reconciliation efficiency")
    p_scan.add_argument("--config", help="JSON scan config; flags override it")
    p_scan.add_argument("--out", default="scan", help="output path prefix")
    p_scan.set_defaults(func=cmd_scan)

    p_cal = sub.add_parser(
        "calibrate", help="infer the noise product from vacuum-probe data"
    )
    p_cal.add_argument("--kind", choices=KINDS, required=True)
    p_cal.add_argument(
        "--vacuum-variance", type=float, help="measured vacuum-probe outcome variance"
    )
    p_cal.add_argument(
        "--samples", help="text file of raw vacuum-probe outcomes, one draw per line"
    )
    p_cal.add_argument("--out", help="also write the result JSON to this file")
    p_cal.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone; what is still buffered goes to devnull at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
