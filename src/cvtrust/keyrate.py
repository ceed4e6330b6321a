"""Key-rate scans over loss with pluggable rate evaluators.

The harness walks a grid of channel losses, folds the detector into the
channel under each accounting scenario, and hands the effective
(t_eff, xi_eff) pair to a rate function.  Rate functions are pluggable and
looked up by name; the shipped default evaluates the textbook asymptotic
key rate of a Gaussian-modulated coherent-state protocol with reverse
reconciliation against collective attacks.

Security parameters (epsilon, pulse count) ride along as metadata for the
report only; the shipped evaluator is asymptotic and does not consume
them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field, fields
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from .channel import IDEAL, SCENARIOS, TRUSTED, UNTRUSTED, ChannelSpec, scenario_params
from .detectors import HETERODYNE, HOMODYNE, KINDS, DetectorSpec
from .jsontext import json_list, json_object, json_value, real_number
from .rescaling import harmonize

PROTOCOLS = ("heterodyne", "hybrid")


@dataclass(frozen=True)
class RateParams:
    """Auxiliary knobs of a rate evaluator.

    Attributes:
        modulation_variance: Variance of the Gaussian amplitude modulation
            per quadrature, in shot-noise units where the vacuum has
            variance 1.
        reconciliation_efficiency: Fraction of the mutual information the
            error correction retains, in (0, 1].
    """

    modulation_variance: float = 4.0
    reconciliation_efficiency: float = 0.95

    def __post_init__(self) -> None:
        if not real_number("modulation_variance", self.modulation_variance) > 0:
            raise ValueError("modulation_variance must be positive")
        v = self.modulation_variance + 1.0
        if not math.isfinite(v * v):
            raise ValueError(
                f"modulation_variance {self.modulation_variance!r} is too large: "
                "(V_A + 1)^2 overflows"
            )
        efficiency = real_number("reconciliation_efficiency", self.reconciliation_efficiency)
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("reconciliation_efficiency must lie in (0, 1]")

    def to_json_dict(self) -> dict:
        return asdict(self)


# reference_rate leaves its textbook forms, which cancel or overflow (2.8e-9
# bits off at b = 1e5, 9.4e-4 at 1e8), above output variance b = _LARGE_NOISE
# and where |b - a| < _NEAR_SYMMETRIC a; in between they stay, so the rates
# there keep their bits.
_LARGE_NOISE = 1e2
_NEAR_SYMMETRIC = 1e-4


def _entropy_photons(x: float) -> float:
    """Von Neumann entropy (bits) of a thermal state with x mean photons."""
    if x <= 0:
        return 0.0
    if x > 4.0:
        # (x + 1) log2(x + 1) - x log2 x loses about log10(x log2 x) digits;
        # this form has no difference of large terms.  At V_A = 4, x < 2.
        return math.log2(x + 1.0) + x * math.log1p(1.0 / x) / math.log(2.0)
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def reference_rate(
    t_eff: float, xi_eff: float, kind: str, params: RateParams = RateParams()
) -> float:
    """Asymptotic reverse-reconciliation rate of Gaussian modulation.

    The sender modulates coherent states with per-quadrature variance
    V_A; the channel is Gaussian with transmittance t_eff and additive
    outcome-referred excess noise xi_eff; the receiver performs homodyne
    or heterodyne detection per kind.  The rate is
    beta * I_AB - chi_BE, clamped at zero, with the Holevo bound
    evaluated on the equivalent two-mode entangled state under
    collective attacks.

    Args:
        t_eff: Effective transmittance, 0 < t_eff <= 1.
        xi_eff: Effective excess noise at the output, xi_eff >= 0, in
            shot-noise units (vacuum variance 1).
        kind: Receiver measurement, "homodyne" or "heterodyne".
        params: Modulation variance and reconciliation efficiency.

    Returns:
        Key rate in bits per channel use, never negative.
    """
    t = float(t_eff)
    xi = float(xi_eff)
    if not 0.0 < t <= 1.0:
        raise ValueError("t_eff must satisfy 0 < t_eff <= 1")
    if not math.isfinite(xi) or xi < 0:
        raise ValueError("xi_eff must be finite and non-negative")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    v_mod = params.modulation_variance
    v = v_mod + 1.0

    if kind == HOMODYNE:
        mutual_information = 0.5 * math.log2(1.0 + t * v_mod / (1.0 + xi))
    else:
        mutual_information = math.log2(1.0 + t * v_mod / (2.0 + xi))

    # Two-mode covariance of the equivalent entangled state:
    # diag blocks a I, b I and off-diagonal c sigma_z.
    a = v
    b = t * v_mod + 1.0 + xi
    c_sq = t * (v * v - 1.0)
    gap = xi - (1.0 - t) * v_mod  # b - a
    if b > _LARGE_NOISE or abs(gap) < _NEAR_SYMMETRIC * a:
        # The textbook delta^2 overflows past b ~ 1e77, delta - disc
        # cancels once b >> a, and delta^2 - 4 det^2 = (b - a)^2 (...)
        # cancels as b -> a.  nu1 - nu2 = |b - a| and nu1 nu2 = det do
        # not, with det = a b - c^2 = v (1 - t + xi) + t, a sum of
        # non-negative terms; det / nu1 is divided through first so that
        # it cannot overflow.
        sqrt_det = math.sqrt(v) * math.sqrt(1.0 - t + xi + t / v)
        half_gap = abs(gap) / 2.0
        nu1 = max(half_gap + math.hypot(half_gap, sqrt_det), 1.0)
        nu2 = max(v * ((1.0 - t + xi) / nu1) + t / nu1, 1.0)
    else:
        delta = a * a + b * b - 2.0 * c_sq
        det = a * b - c_sq
        disc = math.sqrt(max(delta * delta - 4.0 * det * det, 0.0))
        nu1 = math.sqrt(max((delta + disc) / 2.0, 1.0))
        nu2 = math.sqrt(max((delta - disc) / 2.0, 1.0))
    if b > _LARGE_NOISE:
        # a - c^2 / b cancels there too; det (sqrt_det is set above for
        # every b > _LARGE_NOISE) and (b + 1) - t (v + 1) = 2 (1 - t) + xi
        # do not.
        if kind == HOMODYNE:
            nu3 = max(math.sqrt(v / b) * sqrt_det, 1.0)
        else:
            nu3 = 1.0 + v_mod * ((2.0 * (1.0 - t) + xi) / (b + 1.0))
    elif kind == HOMODYNE:
        nu3 = math.sqrt(max(a * (a - c_sq / b), 1.0))
    else:
        nu3 = max(a - c_sq / (b + 1.0), 1.0)
    holevo = (
        _entropy_photons((nu1 - 1.0) / 2.0)
        + _entropy_photons((nu2 - 1.0) / 2.0)
        - _entropy_photons((nu3 - 1.0) / 2.0)
    )
    return max(params.reconciliation_efficiency * mutual_information - holevo, 0.0)


RATE_FUNCTIONS: dict[str, Callable] = {
    "asymptotic-rr-gaussian": reference_rate,
}


def get_rate_function(name: str) -> Callable:
    """Look up a registered rate function by name."""
    try:
        return RATE_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown rate function {name!r}; registered: {sorted(RATE_FUNCTIONS)}"
        ) from None


@dataclass(frozen=True, eq=False)
class ScanConfig:
    """A key-rate scan over channel loss.

    Attributes:
        loss_db: Strictly increasing channel losses in dB.
        xi0: Input-referred channel excess noise.
        detectors: The receiver's detectors; one for the all-heterodyne
            protocol, typically a homodyne/heterodyne pair for hybrid.
        scenarios: Which accounting scenarios to evaluate.
        protocol: "heterodyne" or "hybrid"; fixes which measurement the
            rate evaluator models (heterodyne, or homodyne for the hybrid
            protocol's key quadrature).
        rate_name: Registry name of the rate function.
        rate_params: Auxiliary parameters passed to the rate function.
        epsilon_sec: Security parameter in (0, 1), report metadata only.
        pulse_count: Finite block size >= 1, report metadata only.
    """

    loss_db: tuple[float, ...]
    xi0: float
    detectors: tuple[DetectorSpec, ...]
    scenarios: tuple[str, ...] = SCENARIOS
    protocol: str = "heterodyne"
    rate_name: str = "asymptotic-rr-gaussian"
    rate_params: RateParams = field(default_factory=RateParams)
    epsilon_sec: float = 2.0**-50
    pulse_count: float = 1e12

    def __post_init__(self) -> None:
        loss_db = tuple(float(real_number("loss_db", x)) for x in self.loss_db)
        object.__setattr__(self, "loss_db", loss_db)
        object.__setattr__(self, "detectors", tuple(self.detectors))
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.loss_db:
            raise ValueError("loss grid must not be empty")
        if any(b <= a for a, b in zip(self.loss_db, self.loss_db[1:])):
            raise ValueError("loss grid must be strictly increasing")
        if self.loss_db[0] < 0:
            raise ValueError("losses must be non-negative dB values")
        for loss_db in self.loss_db:
            if not math.isfinite(loss_db):
                raise ValueError(f"losses must be finite dB values, got {loss_db!r}")
            if loss_db_to_transmittance(loss_db) == 0.0:
                raise ValueError(
                    f"loss {loss_db!r} dB underflows to zero transmittance"
                )
        if not math.isfinite(real_number("xi0", self.xi0)) or self.xi0 < 0:
            raise ValueError("xi0 must be finite and non-negative")
        if not 0.0 < real_number("epsilon_sec", self.epsilon_sec) < 1.0:
            raise ValueError(f"epsilon_sec must lie in (0, 1), got {self.epsilon_sec!r}")
        if not 1.0 <= real_number("pulse_count", self.pulse_count) < math.inf:
            raise ValueError(f"pulse_count must be finite and >= 1, got {self.pulse_count!r}")
        if not self.detectors:
            raise ValueError("at least one detector is required")
        if not self.scenarios:
            raise ValueError("at least one scenario is required")
        for s in self.scenarios:
            if s not in SCENARIOS:
                raise ValueError(f"unknown scenario {s!r}; valid: {SCENARIOS}")
        if len(set(self.scenarios)) != len(self.scenarios):
            raise ValueError(f"scenarios must not repeat, got {list(self.scenarios)}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}")
        get_rate_function(self.rate_name)
        if UNTRUSTED in self.scenarios:
            first = self.detectors[0]
            for d in self.detectors[1:]:
                if d.eta_d != first.eta_d or d.nbar != first.nbar:
                    raise ValueError(
                        "the untrusted scenario needs all detectors to share "
                        "(eta_d, nbar); got mixed parameters"
                    )

    @property
    def rate_kind(self) -> str:
        """Measurement the rate evaluator models for this protocol."""
        return HETERODYNE if self.protocol == "heterodyne" else HOMODYNE

    def to_json_dict(self) -> dict:
        return {"schema": "cvtrust/scan-config/1", **asdict(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScanConfig":
        data = dict(data)
        schema = data.pop("schema", "cvtrust/scan-config/1")
        if schema != "cvtrust/scan-config/1":
            raise ValueError(f"unsupported scan config schema {schema!r}")
        try:
            data["detectors"] = tuple(
                DetectorSpec(**json_object(f"detectors[{i}]", d))
                for i, d in enumerate(json_list("detectors", data["detectors"]))
            )
            for name in ("loss_db", "scenarios"):
                if name in data:
                    json_list(name, data[name])
            if "rate_params" in data:
                data["rate_params"] = RateParams(**json_object("rate_params", data["rate_params"]))
            unknown = set(data) - {f.name for f in fields(cls)}
            if unknown:
                raise ValueError(f"unknown scan config keys: {sorted(unknown)}")
            return cls(**data)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed scan config: {exc}") from exc


@dataclass(frozen=True)
class ScanRow:
    """One evaluated point of a scan."""

    loss_db: float
    scenario: str
    t_eff: float
    xi_eff: float
    rate: float
    status: str


# One row of ScanTable.to_json_dict() as json_text puts it in the "rows" list.
_JSON_ROW = (
    '{\n      "loss_db": %s,\n      "rate": %s,\n      "scenario": %s,\n'
    '      "status": %s,\n      "t_eff": %s,\n      "xi_eff": %s\n    }'
)


@dataclass(frozen=True, eq=False)
class ScanTable:
    """All rows of a scan plus the harmonized detector summary."""

    rows: tuple[ScanRow, ...]
    config: ScanConfig
    eta_e_min: float

    def rates(self, scenario: str) -> list[float]:
        return [r.rate for r in self.rows if r.scenario == scenario]

    def _metadata(self) -> dict:
        return {
            "eta_e_min": self.eta_e_min,
            "epsilon_sec": self.config.epsilon_sec,
            "pulse_count": self.config.pulse_count,
            "rate_kind": self.config.rate_kind,
        }

    def to_json_dict(self) -> dict:
        return {
            "schema": "cvtrust/scan-report/1",
            "config": self.config.to_json_dict(),
            "metadata": self._metadata(),
            # A failed point's NaN rate is written as null; the status says why.
            "rows": [
                {**vars(r), "rate": r.rate if math.isfinite(r.rate) else None} for r in self.rows
            ],
        }

    def report_texts(self) -> tuple[str, str]:
        """The JSON and CSV reports, written in one pass over the rows.

        The JSON is json_text(self.to_json_dict()).  Each float is formatted
        once by repr, as json and csv both do, and shared by both texts; a
        row that is not "ok" goes through csv.writer, which quotes its status.
        """
        losses = {x: repr(x) for x in self.config.loss_db}
        json_rows = []
        csv_out = io.StringIO()
        csv_out.write("loss_dB,scenario,t_eff,xi_eff,rate,status\n")
        csv_writer = csv.writer(csv_out, lineterminator="\n")
        for r in self.rows:
            if not all(map(math.isfinite, (r.loss_db, r.t_eff, r.xi_eff))):
                raise ValueError(f"Out of range float values are not JSON compliant: {r}")
            loss = losses.get(r.loss_db) or repr(r.loss_db)
            t_eff, xi_eff, rate = repr(r.t_eff), repr(r.xi_eff), repr(r.rate)
            quoted = map(encode_basestring_ascii, (r.scenario, r.status))
            json_rate = rate if math.isfinite(r.rate) else "null"
            json_rows.append(_JSON_ROW % (loss, json_rate, *quoted, t_eff, xi_eff))
            if r.status == "ok":
                csv_out.write(f"{loss},{r.scenario},{t_eff},{xi_eff},{rate},ok\n")
            else:
                csv_writer.writerow([loss, r.scenario, t_eff, xi_eff, rate, r.status])
        rows = "[\n    " + ",\n    ".join(json_rows) + "\n  ]" if json_rows else "[]"
        json_report = (
            '{\n  "config": ' + json_value(self.config.to_json_dict(), "\n  ")
            + ',\n  "metadata": ' + json_value(self._metadata(), "\n  ")
            + ',\n  "rows": ' + rows + ',\n  "schema": "cvtrust/scan-report/1"\n}\n'
        )
        return json_report, csv_out.getvalue()

    def to_csv_text(self) -> str:
        return self.report_texts()[1]


def loss_db_to_transmittance(loss_db: float) -> float:
    """Convert a loss in dB to a power transmittance."""
    loss_db = float(loss_db)
    if loss_db < 0:
        raise ValueError("loss in dB must be non-negative")
    return 10.0 ** (-loss_db / 10.0)


def run_scan(config: ScanConfig) -> ScanTable:
    """Evaluate the configured scenarios over the loss grid.

    Detectors are harmonized once; the trusted scenario uses the detector
    whose reduced efficiency is the shared minimum.  Each scenario's
    effective parameters come from one array-valued scenario_params call.
    A rate-function failure at one point is recorded in that row's status
    and the scan continues.  Rows are sorted by (scenario, loss_db).
    """
    rate_fn = get_rate_function(config.rate_name)
    harmonized = harmonize(config.detectors)
    eta_e_min = harmonized.eta_e_min
    scenario_spec = {
        IDEAL: None,
        TRUSTED: next(
            a.spec for a in harmonized.adjustments if a.base_plan.eta_e == eta_e_min
        ),
        UNTRUSTED: config.detectors[0],
    }
    channel = ChannelSpec(
        np.array([loss_db_to_transmittance(x) for x in config.loss_db]), config.xi0
    )
    rows = []
    for scenario in sorted(config.scenarios):
        t_effs, xi_effs = scenario_params(channel, scenario_spec[scenario], scenario)
        points = zip(config.loss_db, t_effs.tolist(), xi_effs.tolist())
        for loss_db, t_eff, xi_eff in points:
            try:
                rate = float(
                    rate_fn(t_eff, xi_eff, config.rate_kind, config.rate_params)
                )
                status = "ok"
                if not math.isfinite(rate):
                    rate, status = math.nan, "error: non-finite rate"
            except Exception as exc:  # keep scanning past bad points
                rate, status = math.nan, f"error: {exc}"
            rows.append(
                ScanRow(
                    loss_db=loss_db,
                    scenario=scenario,
                    t_eff=t_eff,
                    xi_eff=xi_eff,
                    rate=rate,
                    status=status,
                )
            )
    return ScanTable(rows=tuple(rows), config=config, eta_e_min=eta_e_min)
