"""Key-rate scans over loss with pluggable rate evaluators.

The harness walks a grid of channel losses, folds a detector's one rescale
plan into the channel under each accounting scenario, and hands the
effective (t_eff, xi_eff) pair to a rate function.  Rate functions are
pluggable and looked up by name; the shipped default evaluates the textbook
asymptotic key rate of a Gaussian-modulated coherent-state protocol with
reverse reconciliation against collective attacks.  Each protocol's rate
kind and receiver are one PROTOCOL_TABLE entry, which ScanConfig checks the
detectors against.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from .channel import SCENARIO_TABLE, SCENARIOS, ChannelSpec, scenario_params
from .detectors import HETERODYNE, HOMODYNE, KINDS, DetectorSpec
from .jsontext import (
    finite_reprs, json_config, json_dataclass, json_dataclasses, json_list, json_object_template,
    real_number, write_json_report,
)
from .rescaling import harmonize

# protocol: (the kind the rate models, the receiver's detector kinds in order)
PROTOCOL_TABLE = {
    "heterodyne": (HETERODYNE, (HETERODYNE,)),
    "hybrid": (HOMODYNE, (HOMODYNE, HETERODYNE)),
}
PROTOCOLS = tuple(PROTOCOL_TABLE)


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
    homodyne = kind == HOMODYNE
    v_mod = params.modulation_variance
    v = v_mod + 1.0

    if homodyne:
        mutual_information = 0.5 * math.log2(1.0 + t * v_mod / (1.0 + xi))
    else:
        mutual_information = math.log2(1.0 + t * v_mod / (2.0 + xi))

    # Two-mode covariance of the equivalent entangled state:
    # diag blocks a I, b I and off-diagonal c sigma_z.  Each floor
    # "y if x < y else x" below is max(x, y), NaN included, without the call.
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
        nu1 = half_gap + math.hypot(half_gap, sqrt_det)
        nu1 = 1.0 if nu1 < 1.0 else nu1
        nu2 = v * ((1.0 - t + xi) / nu1) + t / nu1
        nu2 = 1.0 if nu2 < 1.0 else nu2
    else:
        delta = a * a + b * b - 2.0 * c_sq
        det = a * b - c_sq
        disc = delta * delta - 4.0 * det * det
        disc = math.sqrt(0.0 if disc < 0.0 else disc)
        nu1 = (delta + disc) / 2.0
        nu1 = math.sqrt(1.0 if nu1 < 1.0 else nu1)
        nu2 = (delta - disc) / 2.0
        nu2 = math.sqrt(1.0 if nu2 < 1.0 else nu2)
    if b > _LARGE_NOISE:
        # a - c^2 / b cancels there too; det (sqrt_det is set above for
        # every b > _LARGE_NOISE) and (b + 1) - t (v + 1) = 2 (1 - t) + xi
        # do not.
        if homodyne:
            nu3 = math.sqrt(v / b) * sqrt_det
            nu3 = 1.0 if nu3 < 1.0 else nu3
        else:
            nu3 = 1.0 + v_mod * ((2.0 * (1.0 - t) + xi) / (b + 1.0))
    elif homodyne:
        nu3 = a * (a - c_sq / b)
        nu3 = math.sqrt(1.0 if nu3 < 1.0 else nu3)
    else:
        nu3 = a - c_sq / (b + 1.0)
        nu3 = 1.0 if nu3 < 1.0 else nu3
    holevo = (
        _entropy_photons((nu1 - 1.0) / 2.0)
        + _entropy_photons((nu2 - 1.0) / 2.0)
        - _entropy_photons((nu3 - 1.0) / 2.0)
    )
    rate = params.reconciliation_efficiency * mutual_information - holevo
    return 0.0 if rate < 0.0 else rate


RATE_FUNCTIONS: dict[str, Callable] = {
    "asymptotic-rr-gaussian": reference_rate,
}


def get_rate_function(name: str) -> Callable:
    """Look up a registered rate function by name."""
    if name not in RATE_FUNCTIONS:
        raise ValueError(f"unknown rate function {name!r}; registered: {sorted(RATE_FUNCTIONS)}")
    return RATE_FUNCTIONS[name]


@dataclass(frozen=True, eq=False)
class ScanConfig:
    """A key-rate scan over channel loss.

    Attributes:
        loss_db: Strictly increasing channel losses in dB.
        xi0: Input-referred channel excess noise.
        detectors: The receiver's detectors; one for the all-heterodyne
            protocol, typically a homodyne/heterodyne pair for hybrid.
            Each has one of the protocol's receiver kinds, and at least one
            the kind the rate models, which measures the key.
        scenarios: Which accounting scenarios to evaluate.
        protocol: A PROTOCOL_TABLE key, "heterodyne" or "hybrid"; fixes
            which measurement the rate evaluator models (heterodyne, or
            homodyne for the hybrid protocol's key quadrature) and the
            receiver's detector kinds.
        rate_name: Registry name of the rate function.
        rate_params: Auxiliary parameters passed to the rate function.

    The validated config also holds transmittances (loss_db_to_transmittance
    of each loss), harmonization (harmonize of the detectors, the one rescale
    plan of each) and scenario_detectors (each scenario's SCENARIO_TABLE pick
    among those plans).  Derived, not fields, they are not in the JSON.
    """

    loss_db: tuple[float, ...]
    xi0: float
    detectors: tuple[DetectorSpec, ...]
    scenarios: tuple[str, ...] = SCENARIOS
    protocol: str = "heterodyne"
    rate_name: str = "asymptotic-rr-gaussian"
    rate_params: RateParams = field(default_factory=RateParams)

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
        transmittances = []
        for loss_db in self.loss_db:
            if not math.isfinite(loss_db):
                raise ValueError(f"losses must be finite dB values, got {loss_db!r}")
            transmittances.append(loss_db_to_transmittance(loss_db))
            if transmittances[-1] == 0.0:
                raise ValueError(
                    f"loss {loss_db!r} dB underflows to zero transmittance"
                )
        object.__setattr__(self, "transmittances", tuple(transmittances))
        if not math.isfinite(real_number("xi0", self.xi0)) or self.xi0 < 0:
            raise ValueError("xi0 must be finite and non-negative")
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
        key_kind, receiver = PROTOCOL_TABLE[self.protocol]
        for d in self.detectors:
            if d.kind not in receiver:
                raise ValueError(
                    f"the {self.protocol} protocol's receiver has no {d.kind} detector; "
                    f"its kinds are {receiver}"
                )
        if all(d.kind != key_kind for d in self.detectors):
            raise ValueError(
                f"the {self.protocol} protocol needs a {key_kind} detector, which measures its key"
            )
        if not isinstance(self.rate_name, str):
            raise ValueError(f"rate_name must be a string, got {self.rate_name!r}")
        get_rate_function(self.rate_name)
        object.__setattr__(self, "harmonization", harmonize(self.detectors))
        plans = tuple(a.base_plan for a in self.harmonization.adjustments)
        picks = {s: SCENARIO_TABLE[s][0](plans) for s in self.scenarios}
        object.__setattr__(self, "scenario_detectors", picks)

    @property
    def rate_kind(self) -> str:
        """Measurement the rate evaluator models for this protocol."""
        return PROTOCOL_TABLE[self.protocol][0]

    def to_json_dict(self) -> dict:
        # asdict(self) would deep-copy every loss value; only the nested
        # dataclasses need it.
        return {
            "schema": "cvtrust/scan-config/1",
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "detectors": tuple(asdict(d) for d in self.detectors),
            "rate_params": asdict(self.rate_params),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScanConfig":
        return json_config(
            cls, "cvtrust/scan-config/1", "scan", data,
            detectors=partial(json_dataclasses, DetectorSpec), loss_db=json_list,
            scenarios=json_list, rate_params=partial(json_dataclass, RateParams),
        )


class ScanRow(NamedTuple):
    """One evaluated point of a scan: an immutable tuple of floats and strings."""

    loss_db: float
    scenario: str
    t_eff: float
    xi_eff: float
    rate: float
    status: str


# One row of ScanTable.to_json_dict() as json_text puts it in the "rows" list.
_JSON_ROW = json_object_template(ScanRow._fields, "\n    ")


@dataclass(frozen=True, eq=False)
class ScanTable:
    """A scan's rows and its config, from which every other report fact is read."""

    rows: tuple[ScanRow, ...]
    config: ScanConfig

    @property
    def eta_e_min(self) -> float:
        """The harmonized reduced efficiency of the config's detectors."""
        return self.config.harmonization.eta_e_min

    def _json_head(self) -> dict:
        """The report's JSON object without its "rows"."""
        return {
            "schema": "cvtrust/scan-report/1",
            "config": self.config.to_json_dict(),
            "metadata": {"eta_e_min": self.eta_e_min, "rate_kind": self.config.rate_kind},
        }

    def to_json_dict(self) -> dict:
        return {
            **self._json_head(),
            # A failed point's NaN rate is written as null; the status says why.
            "rows": [
                {**r._asdict(), "rate": r.rate if math.isfinite(r.rate) else None}
                for r in self.rows
            ],
        }

    def write_reports(self, json_fh, csv_fh) -> None:
        """Write the JSON and CSV reports to the two handles in one pass over the rows.

        The JSON is json_text(self.to_json_dict()).  Each float is formatted
        once by repr, as json and csv both do, and shared by both files; a
        row that is not "ok" goes through csv.writer, which quotes its status.
        Each (scenario, status) pair is JSON-quoted once, and each row goes to
        both handles as soon as it is formatted.
        """
        losses = {x: repr(x) for x in self.config.loss_db}  # finite: ScanConfig checks them
        csv_fh.write("loss_dB,scenario,t_eff,xi_eff,rate,status\n")
        csv_writer = csv.writer(csv_fh, lineterminator="\n")

        def json_rows():  # each row's JSON text, its CSV line written as it is taken
            templates = {}  # (scenario, status): _JSON_ROW with both filled in
            for loss_db, scenario, t_eff, xi_eff, rate, status in self.rows:
                loss = losses.get(loss_db) or finite_reprs(loss_db)[0]
                if not (math.isfinite(t_eff) and math.isfinite(xi_eff)):
                    finite_reprs(t_eff, xi_eff)  # raises json_text's ValueError
                t_text, xi_text, rate_text = repr(t_eff), repr(xi_eff), repr(rate)
                key = scenario, status
                template = templates.get(key)
                if template is None:  # keys sort as loss_db, rate, scenario, status, t_eff, xi_eff
                    quoted = [encode_basestring_ascii(x).replace("%", "%%") for x in key]
                    template = templates[key] = _JSON_ROW % ("%s", "%s", *quoted, "%s", "%s")
                if status == "ok":
                    csv_fh.write(f"{loss},{scenario},{t_text},{xi_text},{rate_text},ok\n")
                else:
                    csv_writer.writerow((loss, scenario, t_text, xi_text, rate_text, status))
                json_rate = rate_text if math.isfinite(rate) else "null"
                yield template % (loss, json_rate, t_text, xi_text)

        write_json_report(json_fh, self._json_head(), "rows", json_rows())

    def to_csv_text(self) -> str:
        self.write_reports(io.StringIO(), csv_fh := io.StringIO())
        return csv_fh.getvalue()


def loss_db_to_transmittance(loss_db: float) -> float:
    """Convert a loss in dB to a power transmittance."""
    loss_db = float(loss_db)
    if loss_db < 0:
        raise ValueError("loss in dB must be non-negative")
    return 10.0 ** (-loss_db / 10.0)


def run_scan(config: ScanConfig) -> ScanTable:
    """Evaluate the configured scenarios over the loss grid.

    Each scenario's (t_eff, xi_eff) over all losses come from one
    scenario_params call at its config.scenario_detectors plan.  A failed
    rate is recorded in its row's status and the scan goes on.  The table
    holds the config and the rows, sorted by (scenario, loss_db).
    """
    rate_fn = get_rate_function(config.rate_name)
    channel = ChannelSpec(config.transmittances, config.xi0)
    kind, params = config.rate_kind, config.rate_params
    rows = []
    for scenario in sorted(config.scenarios):
        t_effs, xi_effs = scenario_params(channel, config.scenario_detectors[scenario], scenario)
        for loss_db, t_eff, xi_eff in zip(config.loss_db, t_effs, xi_effs):
            try:
                rate = float(rate_fn(t_eff, xi_eff, kind, params))
                status = "ok"
                if not math.isfinite(rate):
                    rate, status = math.nan, "error: non-finite rate"
            except Exception as exc:  # keep scanning past bad points
                rate, status = math.nan, f"error: {exc}"
            rows.append(ScanRow(loss_db, scenario, t_eff, xi_eff, rate, status))
    return ScanTable(rows=tuple(rows), config=config)
