"""Upper tail of the two-sided one-sample Kolmogorov-Smirnov statistic.

kstwo_sf(d, n) is P(D_n >= d), the value scipy's kstwo.sf(d, n) returns,
bit for bit, for integer n > 140.  A Monte Carlo sweep draws mc_samples
>= 10^4 per model, and takes its asymptotic KS p-values at
n = round(mc_samples / 2) >= 5,000.  The port needs scipy.special only,
and so spares a sweep the import of scipy's statistics subpackage.

The code is ported from scipy 1.17.1's scipy/stats/_ksstats.py, the
branches of _kolmogn(n, d, cdf=False) that apply above n = 140, with the
numpy operations in scipy's order and on the same types: d is a 0-d
float64 array, as kstwo.sf hands it on, and the Durbin matrix route keeps
scipy's long-double rescaling.  Its CDF = 1 case at n d^2 >= 18 is not
ported: the survival function returns earlier there.  The method choice
is Simard and L'Ecuyer's, "Computing the Two-Sided Kolmogorov-Smirnov
Distribution", J. Stat. Softw. 39(11) (2011).

The ported file is under scipy's BSD-3-Clause licence:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import numpy as np
from scipy.special import smirnov

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# Stirling coefficients B_{2j} / (2j) / (2j - 1) for j = 8, ..., 1.
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _clip(p) -> float:
    return float(np.clip(p, 0.0, 1.0))


def _log_nfactorial_div_n_pow_n(n):
    """log(n! / n^n) by Stirling's series, with n log(n) taken out up front."""
    rn = 1.0/n
    return np.log(n)/2 - n + _LOG_2PI/2 + rn * np.polyval(_STIRLING_COEFFS, rn/n)


def _kolmogn_DMTW(n, d):
    """P(D_n <= d) for 1 < n d and d < 1/2: Durbin's matrix algorithm, as
    Marsaglia, Tsang and Wang evaluate it.

    With d = (k - h) / n, 0 <= h < 1, it is the k-th diagonal entry of
    (n! / n^n) H^n for an m x m matrix H, m = 2k - 1, with the powers
    rescaled by 2^128 as they grow.
    """
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and, reversed, the last row) of H,
    # v[j] = (1 - h^(j+1)) / (j+1)! but for v[-1]; w[j] = 1 / j!.
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # May underflow, harmlessly.
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # Holds intermediate powers of H
    nn = n
    expnt = 0  # Scaling of Hpwr
    Hexpnt = 0  # Scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # Multiply by n! / n^n; a rescale makes p a long double from then on.
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)

    return np.clip(p, 0.0, 1.0)


def _kolmogn_PelzGood(n, x):
    """Pelz and Good's approximation to P(D_n <= x) for 0 < x < 1.

    Li-Chien and Korolyuk's series K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n^1.5 at z = x sqrt(n), each K_i recast by the Jacobi theta
    functional equation into a form that converges fast at small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # Coefficients of terms in the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner's scheme for sum c_i q^(i^2), a sum over odd integers.
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # The other terms, over all integers k, summed directly:
    # K_2: (pi^2 k^2) q^(k^2); K_3: (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2).
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n

    return sum(K0to3)


def kstwo_sf(d: float, n: int) -> float:
    """P(D_n >= d), bit for bit as scipy's kstwo.sf(d, n), for integer n > 140."""
    if n <= 140:
        raise ValueError(f"kstwo_sf covers n > 140 only, got n = {n}")
    x = np.asarray(d, dtype=np.float64)
    if x >= 1.0:
        return 0.0
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2*t-1))
        return _clip(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip(2 * (1.0 - x)**n)
    if x >= 0.5:  # Exact: 2 * smirnov
        return _clip(2 * smirnov(n, x))
    nxsquared = t * x
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _clip(2 * smirnov(n, x))
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _kolmogn_DMTW(n, x)
    else:
        cdfprob = _kolmogn_PelzGood(n, x)
    return _clip(1.0 - cdfprob)
