"""Hot numeric kernels: AGM iteration and the theta cosine series.

Series convention (DLMF 20.2.4 in the variable pi*u): ``theta_series`` sums

    1 + 2*sum_{n=1}^{N} (-1)**n * h**(n*n) * cos(2*pi*n*u)

together with its u-derivative.  Callers reduce u to
``|Im u| <= K'/(2K)``, where ``h = exp(-pi*K'/K)`` makes term n at most
``2*h**(n*(n-1))``; N is the first n at which that bound drops below
1e-17, so it depends on the nome alone and every argument gets the same
fixed-length sum.
"""

from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi

# Kept for benchmark records, which report the kernel path; there is one path.
USE_NUMBA = False


def agm_complete(k: float, k_prime: float | None = None) -> tuple[float, float]:
    """Return ``(K(k), E(k))`` for a real modulus ``0 <= k <= 1`` by AGM.

    Supply ``k_prime`` when the complementary modulus is known exactly:
    it avoids the 1/(1-k^2) error amplification near k = 1, and a positive
    ``k_prime`` keeps K finite even where k itself rounds to 1.
    """
    k = float(k)
    if k == 0.0:
        return math.pi / 2.0, math.pi / 2.0
    kp = math.sqrt((1.0 - k) * (1.0 + k)) if k_prime is None else float(k_prime)
    if kp <= 0.0:
        return math.inf, 1.0
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
    return big_k, big_k * (1.0 - csum)


def _term_count(h: float) -> int:
    """Smallest n >= 2 with 2*h**(n*(n-1)) below 1e-17."""
    n = 2
    while 2.0 * h ** (n * (n - 1)) >= 1e-17:
        n += 1
    return n


def theta_series(u, h: float):
    """Evaluate the theta cosine series and its u-derivative at reduced u.

    Accepts a scalar or an ndarray of complex arguments with
    ``|Im u| <= K'/(2K)``; returns ``(value, d/du value, magnitude scale)``
    with matching shape, the scale being 1 plus the sum of the term bounds.
    """
    u = np.asarray(u, dtype=np.complex128)
    n = np.arange(1, _term_count(h) + 1)
    c = _TWO_PI * n
    coef = 2.0 * (-1.0) ** n * h ** (n * n)
    cu = u[..., None] * c
    val = 1.0 + np.cos(cu) @ coef
    dval = -(np.sin(cu) @ (coef * c))
    scale = 1.0 + np.exp(np.abs(u.imag)[..., None] * c) @ np.abs(coef)
    return val, dval, scale
