"""Jacobi theta function theta0, its log-derivative Z, and sn/cn/dn.

theta0, theta0', log|theta0| and Z are built on the single cosine series

    theta0(z) = 1 - 2 h cos(2 pi u) + 2 h^4 cos(4 pi u) - ...,   u = z/(2K),

with nome ``h = exp(-pi*K'/K)`` for the modulus selected by the context.
``theta0`` is entire with simple zeros at ``i K' + 2 m K + 2 i n K'``; Z
raises :class:`PoleError` when theta0 drops below 1e-13 of the
accumulated series scale.  Arguments of any magnitude are brought into the
fundamental cell first; there ``|Im u| <= K'/(2K)``, so the series takes a
fixed number of terms set by the nome alone.  The exact quasi-period
multipliers are reapplied afterwards, so the only hard failure mode is a
multiplier that genuinely exceeds float range (:class:`ThetaOverflowError`).

sn/cn/dn are the theta quotients of DLMF 22.2.4 at one argument t of the
quarter cell ``|Re t| <= K/2, |Im t| <= K'/2``: z is reduced by the
periods 4K and 2iK', then exactly by jK + s iK', and the shift identities
of DLMF 22.4.3 carry the quotients at t back to z.  One series call gives
theta1..theta4 at t.  theta1, the only one of them with a zero in the
quarter cell, is summed as sin v times a series near 1, so sn keeps its
relative accuracy next to its zeros and cn next to its zeros at +-K, where
it is k' sd t.  No multiplier is applied, so nothing overflows; the
quotients raise :class:`PoleError` where their denominator theta1(t = 0)
drops below 1e-13 of its series scale, at the same points iK' + 2mK + 2inK'.
Against mpmath at modulus x0**2 for |zeta| in {1.001, 1.25, 2, 3i, 100},
sn is within 6e-16 relative at |z| = 1e-6 L and cn within 4.2e-13 on
|z - L| = 5e-4 L, where the rounding of L itself sets the floor.

All evaluators accept scalars or ndarrays and are pure; contexts are
frozen and safe to share between threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import theta_series
from .elliptic import EllipticParams
from .errors import DomainError, PoleError, ThetaOverflowError

__all__ = [
    "JacobiContext",
    "theta0",
    "theta0_log_abs",
    "theta0_prime",
    "jacobi_Z",
    "jacobi_sn_cn_dn",
]

_POLE_RTOL = 1e-13
_MULTIPLIER_LOG_MAX = 700.0


@dataclass(frozen=True)
class JacobiContext:
    """Fixed-modulus evaluation context.

    ``modulus_tag`` selects k = kappa (quarter periods K, K') or
    k = x0**2 (quarter periods L, L').
    """

    params: EllipticParams
    modulus_tag: str = "kappa"

    def __post_init__(self):
        if self.modulus_tag not in ("kappa", "x0_squared"):
            raise ValueError(f"unknown modulus_tag {self.modulus_tag!r}")
        if not 0.0 < self.nome < 1.0:
            raise ValueError("nome of the selected modulus must lie in (0, 1)")
        if self.nome * sys.float_info.max < 1.0:
            # theta_series divides by q = exp(2 pi i u), whose modulus reaches 1/nome
            raise DomainError(f"nome {self.nome:.3g} is below 1/DBL_MAX; |zeta| is too large")

    @property
    def k(self) -> float:
        return self.params.kappa if self.modulus_tag == "kappa" else self.params.l

    @property
    def k_prime(self) -> float:
        return self.params.kappa_prime if self.modulus_tag == "kappa" else self.params.l_prime

    @property
    def quarter_K(self) -> float:
        return self.params.K if self.modulus_tag == "kappa" else self.params.L

    @property
    def quarter_Kp(self) -> float:
        return self.params.K_prime if self.modulus_tag == "kappa" else self.params.L_prime

    @property
    def nome(self) -> float:
        return math.exp(-math.pi * self.quarter_Kp / self.quarter_K)

    @cached_property
    def _shift_table(self):
        return _shift_table(self)


def _as_array(z):
    """``(complex array of z, z is a scalar)``; a scalar stays 0-d."""
    arr = np.asarray(z, dtype=np.complex128)
    return arr, arr.ndim == 0


def _out(arr, scalar):
    return complex(arr[()]) if scalar else arr


def _reduce_cell(z, period_re, period_im):
    """Shift z by integer multiples of the periods into the centred cell."""
    m = np.floor((z.real + 0.5 * period_re) / period_re)
    n = np.floor((z.imag + 0.5 * period_im) / period_im)
    z0 = z - m * period_re - 1j * n * period_im
    return z0, m.astype(np.int64), n.astype(np.int64)


def _theta0_reduced(ctx: JacobiContext, z):
    """theta0 at the reduced argument plus the reduction data.

    Returns ``(z0, n_shift, value, d/dz value, scale)`` where ``value`` is
    theta0(z0) before the quasi-period multiplier is applied.
    """
    K, Kp = ctx.quarter_K, ctx.quarter_Kp
    z0, _, n = _reduce_cell(z, 2.0 * K, 2.0 * Kp)
    val, dval_du, scale = theta_series(z0 / (2.0 * K), ctx.nome)
    return z0, n, val, dval_du / (2.0 * K), scale


def _log_abs_multiplier(ctx: JacobiContext, z0, n):
    """log|mu| = pi (K'/K) n^2 + pi n Im(z0)/K of the quasi-period factor mu."""
    K, Kp = ctx.quarter_K, ctx.quarter_Kp
    return math.pi * (Kp / K) * n.astype(np.float64) ** 2 + math.pi * n * z0.imag / K


def _multiplier(ctx: JacobiContext, z0, n):
    """Quasi-period factor mu with theta0(z) = mu * theta0(z0)."""
    log_mag = _log_abs_multiplier(ctx, z0, n)
    if np.any(np.abs(log_mag) > _MULTIPLIER_LOG_MAX):
        raise ThetaOverflowError("quasi-period multiplier exceeds float range")
    phase = -math.pi * n * z0.real / ctx.quarter_K
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    return sign * np.exp(log_mag + 1j * phase)


def theta0(ctx: JacobiContext, z):
    """theta0(z) for the context modulus; entire, zeros at iK' + 2mK + 2inK'."""
    arr, scalar = _as_array(z)
    z0, n, val, _, _ = _theta0_reduced(ctx, arr)
    return _out(_multiplier(ctx, z0, n) * val, scalar)


def theta0_log_abs(ctx: JacobiContext, z):
    """log|theta0(z)| together with a zeros mask.

    Stable for arguments whose quasi-period multiplier would overflow, and
    flags points within rounding distance of a theta zero so callers can
    honour extended-real contracts instead of trusting a residue of size
    ~1e-16 * scale.
    """
    arr, scalar = _as_array(z)
    z0, n, val, _, scale = _theta0_reduced(ctx, arr)
    at_zero = np.abs(val) < _POLE_RTOL * scale
    with np.errstate(divide="ignore"):
        out = _log_abs_multiplier(ctx, z0, n) + np.log(np.abs(val))
    out = np.where(at_zero, -np.inf, out)
    if scalar:
        return float(out[()]), bool(at_zero[()])
    return out, at_zero


def theta0_prime(ctx: JacobiContext, z):
    """d/dz theta0(z), by term-wise differentiation of the series."""
    arr, scalar = _as_array(z)
    z0, n, val, dval, _ = _theta0_reduced(ctx, arr)
    K = ctx.quarter_K
    corr = dval - (1j * math.pi * n / K) * val
    return _out(_multiplier(ctx, z0, n) * corr, scalar)


def jacobi_Z(ctx: JacobiContext, z):
    """Z(z) = theta0'(z)/theta0(z); simple poles at the zeros of theta0."""
    arr, scalar = _as_array(z)
    z0, n, val, dval, scale = _theta0_reduced(ctx, arr)
    if np.any(np.abs(val) < _POLE_RTOL * scale):
        raise PoleError("Z evaluated at a zero of theta0")
    K = ctx.quarter_K
    return _out(dval / val - 1j * math.pi * n / K, scalar)


def _shift_table(ctx: JacobiContext):
    """Gather indices and factors of :func:`jacobi_sn_cn_dn`, one row per case.

    Case ``6 (j + 2) + 2 (s + 1) + odd`` is z0 = t + jK + s iK' with the
    parity ``odd`` of the 2iK' steps.  Its index row picks the numerators
    of sn, cn, dn and the denominator out of (theta1, theta2, theta3,
    theta4) at t, and its factor row scales the three numerators.  At t
    (DLMF 22.2.4, theta1 and theta2 without their factor h**(1/4)):
    sn = a th1/th4, cn = b th2/th4, dn = c th3/th4 with a = h**(1/4)/sqrt(k),
    b = a sqrt(k'), c = sqrt(k').  The shifts are DLMF 22.4.3:
    sn(t+K) = cd t, cn(t+K) = -k' sd t, dn(t+K) = k' nd t, so a shift by
    an odd multiple of K swaps th1 with th2 and th3 with th4;
    sn(w+iK') = ns w/k, cn(w+iK') = -i ds w/k, dn(w+iK') = -i cs w, so a
    shift by +-iK' makes sn's numerator the denominator.  cn and dn change
    sign with each 2iK' step.
    """
    k, kp = ctx.k, ctx.k_prime
    a = ctx.nome**0.25 / math.sqrt(k)
    b, c = a * math.sqrt(kp), math.sqrt(kp)
    # the signs of sn and cn at w = t + jK; dn keeps its sign
    signs = {-2: (-1.0, -1.0), -1: (-1.0, 1.0), 0: (1.0, 1.0), 1: (1.0, -1.0), 2: (-1.0, -1.0)}
    index, factor = [], []
    for j in range(-2, 3):
        order = (1, 0, 3, 2) if j % 2 else (0, 1, 2, 3)
        f_sn, f_cn = signs[j][0] * a, signs[j][1] * b
        for s in (-1, 0, 1):
            if s == 0:
                idx, f = order, (f_sn, f_cn, c)
            else:
                idx, f = order[::-1], (1.0 / (k * f_sn), -1j * s * c / (k * f_sn), -1j * s * f_cn / f_sn)
            for parity in (1.0, -1.0):
                index.append(idx)
                factor.append((f[0], parity * f[1], parity * f[2]))
    return np.array(index).T, np.array(factor, dtype=np.complex128).T


def jacobi_sn_cn_dn(ctx: JacobiContext, z):
    """The triple (sn, cn, dn) at the context modulus.

    Satisfies sn**2 + cn**2 = 1 and dn**2 + k**2 sn**2 = 1 away from poles.
    z is reduced by the periods 4K and 2iK' to z0 and then, exactly, to
    t = z0 - jK - s iK' with |Re t| <= K/2, |Im t| <= K'/2; one series call
    gives the four theta functions at t, and :func:`_shift_table` turns
    them into sn, cn, dn at z.
    """
    arr, scalar = _as_array(z)
    K, Kp = ctx.quarter_K, ctx.quarter_Kp
    z0, _, n_im = _reduce_cell(arr.ravel(), 4.0 * K, 2.0 * Kp)
    j = np.floor(z0.real / K + 0.5)
    s = np.floor(z0.imag / Kp + 0.5)
    t = z0 - (j * K + 1j * (s * Kp))
    thetas, scale = theta_series(t / (2.0 * K), ctx.nome, quarter=True)
    index, factor = ctx._shift_table
    # clipped: a NaN or infinite z makes no case, and its result stays NaN
    case = np.clip((6.0 * j + 2.0 * s + 14.0).astype(np.intp) + (n_im & 1), 0, 29)
    picked = thetas.take(index.take(case, axis=1) * case.size + np.arange(case.size))
    # scale is theta1's: the only denominator with a zero in the quarter cell
    if np.any((np.abs(picked[3]) < _POLE_RTOL * scale) & (index[3].take(case) == 0)):
        raise PoleError("sn/cn/dn evaluated at a pole (iK' + 2mK + 2inK')")
    sn, cn, dn = (factor.take(case, axis=1) * picked[:3] / picked[3]).reshape((3,) + arr.shape)
    return _out(sn, scalar), _out(cn, scalar), _out(dn, scalar)

