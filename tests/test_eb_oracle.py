"""The scan's scenario folds and the reduction, checked at the key rate.

tests/eb_oracle.py models the entanglement-based protocol with the noisy
detector inside it (Lodewyck et al., PRA 76, 042305 (2007); Laudenbach et
al., Adv. Quantum Technol. 1, 1800011 (2018)).  Its rates take nothing
from the scan's folds: the ideal, trusted and untrusted rows must come out
of the model, and the noisy detector with its noise kept in Bob's lab must
give Eve what its reduction gives her.
"""

import itertools

import pytest

import eb_oracle as eb
from cvtrust.channel import IDEAL, TRUSTED, UNTRUSTED
from cvtrust.detectors import HETERODYNE, HOMODYNE, DetectorSpec
from cvtrust.keyrate import ScanConfig, run_scan

ETA_DS = (0.5, 0.7, 0.9)
NUS = (1e-3, 1e-2, 5e-2)
LOSSES_DB = (0.5, 3.0, 10.0, 20.0)
XI0 = 0.01  # with the default rate parameters, V_A = 4 and beta = 0.95
TOLERANCE = 1e-12  # bits
# Keeping eta_d where eta_e belongs moves chi_BE by 1.2e-5 bits at the least on this grid.
SABOTAGE_FLOOR = 1e-6

# A heterodyne-protocol scan for heterodyne detectors; a hybrid scan whose
# only detector is homodyne, since hybrid rates model the homodyne key.
PROTOCOL = {HETERODYNE: "heterodyne", HOMODYNE: "hybrid"}


@pytest.fixture(scope="module")
def points():
    """(kind, eta_d, nu, nbar, eta_e, loss_db, transmittance) over the grid."""
    grid = []
    for kind, eta_d, nu in itertools.product(PROTOCOL, ETA_DS, NUS):
        nbar = nu / (1.0 - eta_d)
        eta_e = eb.reduced_efficiency(eta_d, nbar, kind)
        for loss_db in LOSSES_DB:
            grid.append((kind, eta_d, nu, nbar, eta_e, loss_db, 10.0 ** (-loss_db / 10.0)))
    return grid


def test_scan_rows_equal_the_entanglement_based_oracle(points):
    rows = {}
    for kind, eta_d, nu in itertools.product(PROTOCOL, ETA_DS, NUS):
        config = ScanConfig(
            loss_db=LOSSES_DB,
            xi0=XI0,
            detectors=(DetectorSpec.from_noise_product(kind, eta_d, nu=nu),),
            protocol=PROTOCOL[kind],
        )
        for row in run_scan(config).rows:
            assert row.status == "ok"
            rows[kind, eta_d, nu, row.loss_db, row.scenario] = row.rate
    assert len(rows) == 3 * len(points)
    worst = 0.0
    for kind, eta_d, nu, nbar, eta_e, loss_db, t in points:
        oracle = {
            IDEAL: eb.key_rate(t, XI0, 1.0, 0.0, kind),
            TRUSTED: eb.key_rate(t, XI0, eta_e, 0.0, kind),
            UNTRUSTED: eb.key_rate(t, XI0, eta_d, nbar, kind),
        }
        for scenario, rate in oracle.items():
            gap = abs(rows[kind, eta_d, nu, loss_db, scenario] - rate)
            assert gap < TOLERANCE, (kind, eta_d, nu, loss_db, scenario, gap)
            worst = max(worst, gap)
    print(f"worst scan-row gap to the oracle: {worst:.2g} bits")


def test_the_reduction_leaves_eves_information_and_bobs_unchanged(points):
    # The noisy detector with F and G in Bob's lab, against the lossy ideal
    # detector at eta_e with a vacuum port: the outcome scale r changes neither.
    for kind, eta_d, _, nbar, eta_e, loss_db, t in points:
        noisy = eb.covariance(t, XI0, eta_d, nbar)
        reduced = eb.covariance(t, XI0, eta_e, 0.0)
        chi_gap = eb.holevo_bound(noisy, kind, True) - eb.holevo_bound(reduced, kind, True)
        info_gap = eb.mutual_information(noisy, kind) - eb.mutual_information(reduced, kind)
        assert abs(chi_gap) < TOLERANCE, (kind, eta_d, nbar, loss_db, chi_gap)
        assert abs(info_gap) < TOLERANCE, (kind, eta_d, nbar, loss_db, info_gap)


def test_a_reduction_that_keeps_eta_d_is_rejected(points):
    moves = []
    for kind, eta_d, _, nbar, _, _, t in points:
        noisy = eb.covariance(t, XI0, eta_d, nbar)
        wrong = eb.covariance(t, XI0, eta_d, 0.0)
        moves.append(abs(eb.holevo_bound(noisy, kind, True) - eb.holevo_bound(wrong, kind, True)))
    assert min(moves) > SABOTAGE_FLOOR, min(moves)


def test_scenario_rates_are_ordered(points):
    # ideal >= detector-trusted >= trusted >= untrusted: each step hands Eve more.
    for kind, eta_d, _, nbar, eta_e, loss_db, t in points:
        rates = (
            eb.key_rate(t, XI0, 1.0, 0.0, kind),
            eb.key_rate(t, XI0, eta_d, nbar, kind, bob_holds_port=True),
            eb.key_rate(t, XI0, eta_e, 0.0, kind),
            eb.key_rate(t, XI0, eta_d, nbar, kind),
        )
        assert rates == tuple(sorted(rates, reverse=True)), (kind, eta_d, nbar, loss_db, rates)


def test_the_six_mode_state_and_its_conditional_states_are_pure(points):
    # chi_BE = S(held) - S(held without B | outcome) holds only for pure states.
    rest = [m for m in range(eb.N_MODES) if m != eb.B]
    for kind, eta_d, _, nbar, _, loss_db, t in points:
        gamma = eb.covariance(t, XI0, eta_d, nbar)
        assert abs(eb.symplectic_eigenvalues(gamma) - 1.0).max() < TOLERANCE, (kind, eta_d, loss_db)
        assert eb.entropy(eb.conditioned_on_bob(gamma, rest, kind)) < TOLERANCE
