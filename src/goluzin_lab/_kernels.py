"""Hot numeric kernels: AGM iteration, Carlson's R_F and the theta series.

``carlson_rf`` is Carlson's duplication algorithm at complex arguments.

Series convention (DLMF 20.2.4 in the variable pi*u): ``theta_series`` sums

    1 + 2*sum_{n=1}^{N} (-1)**n * h**(n*n) * cos(2*pi*n*u)
      = 1 + sum_{n=1}^{N} (-1)**n * (t+_n + t-_n),   t+-_n = h**(n*n) * q**(+-n),

together with its u-derivative, from one exponential q = exp(2*pi*i*u) per
point: t+-_n = t+-_{n-1} * h**(2n-1) * q**(+-1).  Callers reduce u to
``|Im u| <= K'/(2K)``, where ``h = exp(-pi*K'/K)`` keeps every factor at
modulus <= 1, so no partial product overflows while 1/h is finite, and term
n is at most ``2*h**(n*(n-1))``; N is the first n at which that bound drops
below 1e-17, so it depends on the nome alone and every argument gets the
same fixed-length sum.  The terms without their signs (-1)**n sum to the
series at u + 1/2.
"""

from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi

# Kept for benchmark records, which report the kernel path; there is one path.
USE_NUMBA = False


def agm_complete(k: float, k_prime: float | None = None) -> tuple[float, float, float]:
    """Return ``(K(k), E(k), 1 - E/K)`` for a real modulus ``0 <= k <= 1`` by AGM.

    1 - E/K is the AGM's weighted sum of c_n**2: no cancellation at small k.

    Supply ``k_prime`` when the complementary modulus is known exactly:
    it avoids the 1/(1-k^2) error amplification near k = 1, and a positive
    ``k_prime`` keeps K finite even where k itself rounds to 1.
    """
    k = float(k)
    if k == 0.0:
        return math.pi / 2.0, math.pi / 2.0, 0.0
    kp = math.sqrt((1.0 - k) * (1.0 + k)) if k_prime is None else float(k_prime)
    if kp <= 0.0:
        return math.inf, 1.0, 1.0
    a, b, c = 1.0, kp, k
    csum = 0.5 * c * c
    pow2 = 0.5
    for _ in range(64):
        # Stop at rounding level: a and b can settle one ulp apart, and the
        # 2**n weight would then sum that ulp into E on every pass.
        if abs(c) < 1e-15 * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        csum += pow2 * c * c
    big_k = math.pi / (2.0 * a)
    return big_k, big_k * (1.0 - csum), csum


# (3r)**(-1/6) for r = 2**-53: after n duplications the series truncation
# error is below r once _RF_Q * max|A0 - x0|/4**n drops below |A_n|.
_RF_Q = (3.0 * 2.0**-53) ** (-1.0 / 6.0)


def carlson_rf(x, y, z):
    """Carlson's symmetric integral R_F(x, y, z) by duplication (DLMF 19.36.1).

    Complex arguments off the negative real axis, at most one of them zero;
    scalars or broadcastable ndarrays.  Principal square roots throughout,
    so the result is the principal value (Carlson 1995, Numer. Algorithms 10).
    """
    x, y, z = (np.asarray(v, dtype=np.complex128) for v in (x, y, z))
    a0 = (x + y + z) / 3.0
    dx, dy = a0 - x, a0 - y
    q = _RF_Q * np.maximum(np.maximum(np.abs(dx), np.abs(dy)), np.abs(a0 - z))
    a, pow4 = a0, 1.0
    while np.any(q >= pow4 * np.abs(a)):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        pow4 *= 4.0
    big_x, big_y = dx / (pow4 * a), dy / (pow4 * a)
    big_z = -(big_x + big_y)
    e2 = big_x * big_y - big_z * big_z
    e3 = big_x * big_y * big_z
    series = 1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
    return series / np.sqrt(a)


def _term_count(h: float) -> int:
    """Smallest n >= 2 with 2*h**(n*(n-1)) below 1e-17."""
    n = 2
    while 2.0 * h ** (n * (n - 1)) >= 1e-17:
        n += 1
    return n


def theta_series(u, h: float, half_period: bool = False):
    """Evaluate the theta series and its u-derivative at reduced u.

    Accepts a scalar or an ndarray of complex arguments with
    ``|Im u| <= K'/(2K)``; returns ``(value, d/du value, magnitude scale)``
    with matching shape, the scale being 1 plus the sum of the term bounds.
    With ``half_period`` a fourth array follows: the series at u + 1/2, the
    same terms summed without their signs (-1)**n.
    """
    u = np.asarray(u, dtype=np.complex128)
    shape, u = u.shape, u.ravel()
    n = np.arange(1, _term_count(h) + 1)
    # Rows t+_n, t-_n and their bound h**(n*n) * exp(2*pi*n*|Im u|) as running
    # products, taken row by row: np.cumprod is several times slower on short axes.
    q = np.exp(2j * math.pi * u)
    t = (h ** (2 * n - 1))[:, None, None] * np.stack((q, 1.0 / q, np.exp(_TWO_PI * np.abs(u.imag))))
    for k in range(1, len(n)):
        t[k] *= t[k - 1]
    t_plus, t_minus = t[:, 0], t[:, 1]
    t_sum = t_plus + t_minus
    sign = (-1.0) ** n
    val = 1.0 + sign @ t_sum
    dval = 1j * ((sign * _TWO_PI * n) @ (t_plus - t_minus))
    scale = 1.0 + 2.0 * t[:, 2].real.sum(axis=0)
    out = (val, dval, scale) + ((1.0 + t_sum.sum(axis=0),) if half_period else ())
    return tuple(a.reshape(shape) for a in out)
