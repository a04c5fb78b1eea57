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
same fixed-length sum.

``theta_series(u, h, quarter=True)`` returns instead all four theta
functions theta1..theta4 of DLMF 20.2.1-4 at v = pi*u, for u in the quarter
cell ``|Re u| <= 1/4, |Im u| <= K'/(4K)`` (:func:`_quarter_thetas`), with
no derivative.  There the factors h**(2n-1) * q**(+-1) have modulus at most
h**(2n-3/2) <= 1, and the terms of all four series decay at least as fast
as the default mode's bound, so the same N serves.
"""

from __future__ import annotations

import functools
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


def theta_series(u, h: float, quarter: bool = False):
    """Evaluate the theta series and its u-derivative at reduced u.

    Accepts a scalar or an ndarray of complex arguments with
    ``|Im u| <= K'/(2K)``; returns ``(value, d/du value, magnitude scale)``
    with matching shape, the scale being 1 plus the sum of the term bounds.
    With ``quarter`` the arguments lie in the quarter cell
    ``|Re u| <= 1/4, |Im u| <= K'/(4K)`` and the return is
    :func:`_quarter_thetas` instead.
    """
    u = np.asarray(u, dtype=np.complex128)
    shape, u = u.shape, u.ravel()
    n = np.arange(1, _term_count(h) + 1)
    if quarter:
        thetas, scale = _quarter_thetas(u, h, len(n))
        return thetas.reshape((4,) + shape), scale.reshape(shape)
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
    return tuple(a.reshape(shape) for a in (val, dval, scale))


@functools.lru_cache(maxsize=32)
def _quarter_constants(h: float, big_n: int):
    """The h-only data of :func:`_quarter_thetas` for N = ``big_n``.

    Returns the (4, 2N + 1) matrix that maps the rows
    (h**(m*m) x**(2m), h**(m*m) x**(-2m)) for m = 1..N, and a last row of
    ones, to the sums of theta1..theta4; the running-product factors
    h**(2m - 1); and sum_{n=0}^{N} h**(n*n + n/2) for the scale.  The odd
    series weigh x**(+-2m) h**(m*m) by 2 w_m and 2 (-1)**m w_m with
    w_m = sum_{n=m}^{N} (-1)**n h**(n*n + n - m*m); every exponent there
    is >= m >= 0, so nothing overflows.
    """
    m = np.arange(big_n + 1)
    expo = m[None, :] ** 2 + m[None, :] - m[:, None] ** 2
    w = 2.0 * np.where(m[None, :] >= m[:, None], (-1.0) ** m[None, :] * h ** np.maximum(expo, 0), 0.0).sum(axis=1)
    sign = (-1.0) ** m[1:]
    rows = np.repeat(np.stack((w[1:], sign * w[1:], np.ones(big_n), sign)), 2, axis=1)
    weights = np.concatenate((rows, [[w[0]], [w[0]], [1.0], [1.0]]), axis=1)
    factors = h ** (2 * m[1:] - 1)
    weights.flags.writeable = factors.flags.writeable = False  # shared by every caller
    return weights, factors, float(np.sum(h ** (m * (m + 0.5))))


def _complex(re, im):
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _quarter_thetas(u, h: float, big_n: int):
    """theta1..theta4 at v = pi u in the quarter cell (DLMF 20.2.1-4).

    Returns ``(thetas, scale)``: ``thetas`` stacks theta1/h**(1/4),
    theta2/h**(1/4), theta3 and theta4 along a new first axis.  All four
    are real combinations of the rows h**(m*m) x**(+-2m), x = exp(iv),
    m = 1..N, built as running products as in the default mode, so one
    real matrix product of (:func:`_quarter_constants`) with the rows'
    real and imaginary parts sums them.  theta3 and theta4 are 1 plus the
    (signed) sum of both rows.  The odd series, summed over n = 0..N, take
    the Chebyshev forms sin((2n+1)v) = sin v * sum_{|m|<=n} x**(2m) and
    cos((2n+1)v) = cos v * sum_{|m|<=n} (-1)**(n-m) x**(2m), regrouped by
    m; so theta1 is sin v times a sum near 1 and keeps its relative
    accuracy as v -> 0.  sin v, cos v and x come from the real cos and sin
    of Re v and exp and expm1 of Im v, so sin v is not a difference of
    exponentials.  ``scale`` is 1 + 2 exp(|Im v|) sum_{n=0}^{N} h**(n*n + n/2),
    which bounds 1 plus the moduli of the terms of theta1/h**(1/4), since
    exp(2|Im v|) <= h**(-1/2); theta1's zero at v = 0 is the only theta
    zero in the quarter cell.
    """
    weights, factors, bound = _quarter_constants(h, big_n)
    a, b = math.pi * u.real, math.pi * u.imag
    cos_a, sin_a, up, em1 = np.cos(a), np.sin(a), np.exp(b), np.expm1(b)
    down = 1.0 / up
    # e**b - e**-b = expm1(b) (1 + e**-b): no cancellation at small b
    cosh_b, sinh_b = 0.5 * (up + down), 0.5 * em1 * (1.0 + down)
    unit_sq = _complex(cos_a, sin_a) ** 2
    base = np.empty((2,) + u.shape, dtype=np.complex128)
    np.multiply(unit_sq, down * down, out=base[0])
    np.multiply(unit_sq.conjugate(), up * up, out=base[1])
    rows = np.empty((2 * big_n + 1,) + u.shape, dtype=np.complex128)
    rows[-1] = 1.0  # meets the weights' constant column
    t = rows[:-1].reshape((big_n,) + base.shape)
    np.multiply(base, factors[0], out=t[0])
    for k in range(1, big_n):
        np.multiply(t[k - 1], base, out=t[k])
        t[k] *= factors[k]
    thetas = (weights @ rows.view(np.float64)).view(np.complex128)
    thetas[0] *= _complex(sin_a * cosh_b, cos_a * sinh_b)
    thetas[1] *= _complex(cos_a * cosh_b, -sin_a * sinh_b)
    return thetas, 1.0 + (2.0 * bound) * np.maximum(up, down)
