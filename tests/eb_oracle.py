"""Entanglement-based oracle: the key rate of a scan from a six-mode covariance matrix.

Security proofs of Gaussian-modulated protocols work in the
entanglement-based picture, where Alice's coherent states come from her
heterodyne of one half of an EPR pair and Eve purifies the channel.  This
module builds that picture, with the detector inside it, from beam
splitters and EPR pairs, in shot-noise units (vacuum variance 1).  Modes,
in order, each as (x, p):

    A, B    Alice's EPR pair of variance V = V_A + 1; B is sent;
    E1, E2  Eve's entangling cloner, an EPR pair of variance
            W = 1 + T xi0 / (1 - T); E1 is mixed with B at transmittance T,
            a channel of transmittance T and input-referred excess noise xi0;
    F, G    the detector's noise, an EPR pair of variance 2 nbar + 1; F is
            mixed with B at the detector's transmittance eta, then B is
            measured by an ideal homodyne (its x) or heterodyne detector.

The six-mode state is pure, and so is its state conditioned on Bob's
outcome, so with Eve holding every mode outside `held`,

    chi_BE = S(E) - S(E | x_B) = S(held) - S(held without B | x_B).

The untrusted and ideal pictures hand F and G to Eve (held = A, B); the
detector-trusted one keeps them in Bob's lab (held = A, B, F, G).  I_AB is
taken from Bob's variance given Alice's heterodyne of A.  This is the
method of a two-mode covariance rate extended to six modes; nothing here
imports cvtrust.
"""

from __future__ import annotations

import math

import numpy as np

HOMODYNE, HETERODYNE = "homodyne", "heterodyne"
A, B, E1, E2, F, G = range(6)
N_MODES = 6
OMEGA = np.kron(np.eye(N_MODES), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _epr(gamma: np.ndarray, i: int, j: int, v: float) -> None:
    """Put an EPR pair (two-mode squeezed vacuum) of variance v on modes i and j."""
    c = math.sqrt(v * v - 1.0)
    for m in (i, j):
        gamma[2 * m, 2 * m] = gamma[2 * m + 1, 2 * m + 1] = v
    gamma[2 * i, 2 * j] = gamma[2 * j, 2 * i] = c
    gamma[2 * i + 1, 2 * j + 1] = gamma[2 * j + 1, 2 * i + 1] = -c


def _beam_splitter(i: int, j: int, t: float) -> np.ndarray:
    """Symplectic matrix mixing modes i and j at transmittance t (i keeps sqrt(t))."""
    s = np.eye(2 * N_MODES)
    a, b = math.sqrt(t), math.sqrt(1.0 - t)
    for q in (0, 1):
        s[2 * i + q, 2 * i + q] = s[2 * j + q, 2 * j + q] = a
        s[2 * i + q, 2 * j + q], s[2 * j + q, 2 * i + q] = b, -b
    return s


def covariance(
    transmittance: float, xi0: float, eta: float, nbar: float, va: float = 4.0
) -> np.ndarray:
    """Covariance (12 x 12) of A, B, E1, E2, F, G after the channel and the
    detector's beam splitter; 0 < transmittance < 1, as the cloner needs."""
    gamma = np.zeros((2 * N_MODES, 2 * N_MODES))
    _epr(gamma, A, B, va + 1.0)
    _epr(gamma, E1, E2, 1.0 + transmittance * xi0 / (1.0 - transmittance))
    _epr(gamma, F, G, 2.0 * nbar + 1.0)
    s = _beam_splitter(B, F, eta) @ _beam_splitter(B, E1, transmittance)
    return s @ gamma @ s.T


def reduced_efficiency(eta_d: float, nbar: float, kind: str) -> float:
    """eta_e of the lossy ideal detector whose outcomes, times r, are the noisy detector's.

    The detector's beam splitter passes a signal with power gain eta_d and,
    on a vacuum input, leaves B with variance eta_d + (1 - eta_d)(2 nbar + 1);
    a heterodyne detector adds its own vacuum to each outcome.  Matching the
    gain, r^2 eta_e = eta_d, and the vacuum-input outcome variance, r^2 (the
    lossy ideal detector's is that of vacuum), gives eta_e.
    """
    mode_variance = eta_d + (1.0 - eta_d) * (2.0 * nbar + 1.0)
    own = 0.0 if kind == HOMODYNE else 1.0
    r_squared = (mode_variance + own) / (1.0 + own)
    return eta_d / r_squared


def _block(gamma: np.ndarray, rows: list[int], cols: list[int]) -> np.ndarray:
    rows_q = [2 * m + q for m in rows for q in (0, 1)]
    cols_q = [2 * m + q for m in cols for q in (0, 1)]
    return gamma[np.ix_(rows_q, cols_q)]


def symplectic_eigenvalues(gamma: np.ndarray) -> np.ndarray:
    """|eig(i Omega gamma)|, one per mode: the eigenvalues come in (+nu, -nu) pairs."""
    n = gamma.shape[0] // 2
    omega = OMEGA[: 2 * n, : 2 * n]
    return np.sort(np.abs(np.linalg.eigvals(omega @ gamma).imag))[::2]


def entropy(gamma: np.ndarray) -> float:
    """Von Neumann entropy (bits) of a Gaussian state from its covariance matrix."""
    total = 0.0
    for nu in symplectic_eigenvalues(gamma):
        plus, minus = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
        total += plus * math.log2(plus) - (minus * math.log2(minus) if minus > 0.0 else 0.0)
    return total


def conditioned_on_bob(gamma: np.ndarray, rest: list[int], kind: str) -> np.ndarray:
    """Covariance of the modes rest given Bob's homodyne (x) or heterodyne outcome of B.

    Homodyne: gamma_R - sigma (Pi gamma_B Pi)^+ sigma^T with Pi = diag(1, 0);
    heterodyne: gamma_R - sigma (gamma_B + I)^-1 sigma^T.
    """
    g_rest, sigma = _block(gamma, rest, rest), _block(gamma, rest, [B])
    g_b = _block(gamma, [B], [B])
    if kind == HOMODYNE:
        return g_rest - np.outer(sigma[:, 0], sigma[:, 0]) / g_b[0, 0]
    return g_rest - sigma @ np.linalg.inv(g_b + np.eye(2)) @ sigma.T


def holevo_bound(gamma: np.ndarray, kind: str, bob_holds_port: bool) -> float:
    """chi_BE = S(held) - S(held without B | Bob's outcome); Eve holds the rest."""
    held = [A, B, F, G] if bob_holds_port else [A, B]
    rest = [m for m in held if m != B]
    return entropy(_block(gamma, held, held)) - entropy(conditioned_on_bob(gamma, rest, kind))


def mutual_information(gamma: np.ndarray, kind: str) -> float:
    """I_AB (bits) from Bob's x variance, alone and given Alice's heterodyne of A."""
    g_a, g_b, sigma = _block(gamma, [A], [A]), _block(gamma, [B], [B]), _block(gamma, [A], [B])
    v_b = g_b[0, 0]
    v_b_a = (g_b - sigma.T @ np.linalg.inv(g_a + np.eye(2)) @ sigma)[0, 0]
    if kind == HOMODYNE:
        return 0.5 * math.log2(v_b / v_b_a)
    return math.log2((v_b + 1.0) / (v_b_a + 1.0))


def key_rate(
    transmittance: float,
    xi0: float,
    eta: float,
    nbar: float,
    kind: str,
    bob_holds_port: bool = False,
    va: float = 4.0,
    beta: float = 0.95,
) -> float:
    """beta I_AB - chi_BE, clamped at zero, of the six-mode picture."""
    gamma = covariance(transmittance, xi0, eta, nbar, va)
    rate = beta * mutual_information(gamma, kind) - holevo_bound(gamma, kind, bob_holds_port)
    return max(float(rate), 0.0)
