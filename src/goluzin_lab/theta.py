"""Jacobi theta function theta0, its log-derivative Z, and sn/cn/dn.

Everything is built on the single cosine series

    theta0(z) = 1 - 2 h cos(2 pi u) + 2 h^4 cos(4 pi u) - ...,   u = z/(2K),

with nome ``h = exp(-pi*K'/K)`` for the modulus selected by the context.
``theta0`` is entire with simple zeros at ``i K' + 2 m K + 2 i n K'``; Z and
the sn/cn/dn quotients therefore raise :class:`PoleError` when a
denominator theta value drops below 1e-13 of the accumulated series scale.

Arguments of any magnitude are brought into the fundamental cell first;
there ``|Im u| <= K'/(2K)``, so the series takes a fixed number of terms
set by the nome alone.  The exact quasi-period multipliers are reapplied
afterwards, so the only hard failure mode is a multiplier that genuinely
exceeds float range (:class:`ThetaOverflowError`).  sn/cn/dn are the theta
quotients of DLMF 22.2.  Their four theta values come from one series call
at two arguments, z and z - iK': theta0(w - K) is the series at w summed
without its alternating signs, and its quasi-period multiplier is that of
theta0(w) up to the sign (-1)**n of the iK' shift count n.

All evaluators accept scalars or ndarrays and are pure; contexts are
frozen and safe to share between threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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
    "landen_sn_sq",
    "sn_shift_residuals",
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


def _multiplier(ctx: JacobiContext, z0, n):
    """Quasi-period factor mu with theta0(z) = mu * theta0(z0)."""
    K, Kp = ctx.quarter_K, ctx.quarter_Kp
    log_mag = math.pi * (Kp / K) * n.astype(np.float64) ** 2 + math.pi * n * z0.imag / K
    if np.any(np.abs(log_mag) > _MULTIPLIER_LOG_MAX):
        raise ThetaOverflowError("quasi-period multiplier exceeds float range")
    phase = -math.pi * n * z0.real / K
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
    K, Kp = ctx.quarter_K, ctx.quarter_Kp
    log_mu = math.pi * (Kp / K) * n.astype(np.float64) ** 2 + math.pi * n * z0.imag / K
    at_zero = np.abs(val) < _POLE_RTOL * scale
    with np.errstate(divide="ignore"):
        out = log_mu + np.log(np.abs(val))
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


def jacobi_sn_cn_dn(ctx: JacobiContext, z):
    """The triple (sn, cn, dn) at the context modulus.

    Satisfies sn**2 + cn**2 = 1 and dn**2 + k**2 sn**2 = 1 away from poles.
    """
    arr, scalar = _as_array(z)
    K, Kp = ctx.quarter_K, ctx.quarter_Kp
    k, kp = ctx.k, ctx.k_prime
    # sn has periods (4K, 2iK'); cn and dn pick up a sign per 2iK' step.
    z0, _, n_im = _reduce_cell(arr, 4.0 * K, 2.0 * Kp)
    parity = np.where(n_im % 2 == 0, 1.0, -1.0)

    # One series call at z0 and z0 - iK' gives all four theta values:
    # theta0(w - K) is the series at w summed without the signs (-1)**n, and
    # its quasi-period multiplier is theta0(w)'s times (-1)**n_shift.
    zr, _, n = _reduce_cell(np.stack((z0, z0 - 1j * Kp)), 2.0 * K, 2.0 * Kp)
    val, _, scale, val_half = theta_series(zr / (2.0 * K), ctx.nome, half_period=True)
    if np.any(np.abs(val[0]) < _POLE_RTOL * scale[0]):
        raise PoleError("sn/cn/dn evaluated at a pole (zero of theta0)")
    mu = _multiplier(ctx, zr, n)
    denom, t_sn = mu * val
    t_dn, t_cn = mu * np.where(n % 2 == 0, 1.0, -1.0) * val_half

    # Quotient prefactors normalised so that sn(0) = 0, cn(0) = dn(0) = 1.
    pref = ctx.nome ** 0.25 * np.exp(-1j * math.pi * z0 / (2.0 * K))
    sn = 1j * pref / math.sqrt(k) * t_sn / denom
    cn = pref * math.sqrt(kp / k) * t_cn / denom
    dn = math.sqrt(kp) * t_dn / denom
    return _out(sn, scalar), _out(parity * cn, scalar), _out(parity * dn, scalar)


def _landen_terms(kp: float, xi, c):
    """``(1 - xi, (1 + kp) - (1 - kp) xi)`` for xi = sn(u; x0**2), c = cn(u; x0**2).

    Landen's transformation reads sn(M (u - L); kappa)**2 as their quotient.
    Next to xi = 1 (u near L, where sn(M(u - L)) vanishes) the difference
    is formed as c**2/(1 + xi), which keeps the relative accuracy of c;
    where Re xi <= 0 it is formed as written, so xi = -1 divides by nothing.
    """
    xi = np.asarray(xi)
    one_minus = np.asarray(1.0 - xi)  # an array also for a 0-d xi, to be written into
    np.divide(np.asarray(c) ** 2, 1.0 + xi, out=one_minus, where=xi.real > 0.0)
    return one_minus, (1.0 + kp) - (1.0 - kp) * xi


def _shifted_sn_cn(ctx_l: JacobiContext, z):
    """sn(z + L) and cn(z + L) at modulus x0**2, and where z is at their poles.

    The poles are z = +-L + iL' modulo the periods; the call is made at
    z = L there instead, and the caller puts in its limit.
    """
    L, Lp = ctx_l.quarter_K, ctx_l.quarter_Kp
    z0, _, _ = _reduce_cell(z, 4.0 * L, 2.0 * Lp)
    at_pole = np.abs(np.abs(z0.real) - L) + np.abs(np.abs(z0.imag) - Lp) < 1e-12 * (L + Lp)
    sn, cn, _ = jacobi_sn_cn_dn(ctx_l, np.where(at_pole, L, z0) + L)
    return sn, cn, at_pole


def landen_sn_sq(ctx_kappa: JacobiContext, z):
    """[sn(M z; kappa)]**2 computed through the modulus-halving bridge.

    With xi = sn(z + L; x0**2) = cn(z; x0**2)/dn(z; x0**2) it is
    (1 - xi)/(1 + kappa' - (1 - kappa')*xi), with 1 - xi taken without
    cancellation next to z = 0 (see :func:`_landen_terms`), and its limit
    1/(1 - kappa') at the poles of xi; agrees with squaring
    ``jacobi_sn_cn_dn`` at modulus kappa evaluated at M*z.
    """
    if ctx_kappa.modulus_tag != "kappa":
        raise ValueError("landen_sn_sq expects a context at modulus kappa")
    arr, scalar = _as_array(z)
    kp = ctx_kappa.k_prime
    xi, c, at_pole = _shifted_sn_cn(JacobiContext(ctx_kappa.params, "x0_squared"), arr)
    one_minus, denom = _landen_terms(kp, xi, c)
    if np.any(np.abs(denom) < 1e-12 * (1.0 + np.abs(xi))):
        raise PoleError("landen_sn_sq denominator vanishes")
    return _out(np.where(at_pole, 1.0 / (1.0 - kp), one_minus / denom), scalar)


def sn_shift_residuals(ctx_l: JacobiContext, u):
    """Residuals of the two sn shift identities at modulus x0**2.

    Returns ``(r_imag, r_real)`` with
    ``r_imag = sn(u + iL') - 1/(x0**2 sn(u))`` and
    ``r_real = sn(u + L) - cn(u)/dn(u)``.
    """
    if ctx_l.modulus_tag != "x0_squared":
        raise ValueError("sn_shift_residuals expects a context at modulus x0**2")
    arr, scalar = _as_array(u)
    L, Lp = ctx_l.quarter_K, ctx_l.quarter_Kp
    x0sq = ctx_l.k
    sn_u, cn_u, dn_u = jacobi_sn_cn_dn(ctx_l, arr)
    sn_u = np.asarray(sn_u)
    sn_shift_im, _, _ = jacobi_sn_cn_dn(ctx_l, arr + 1j * Lp)
    sn_shift_re, _, _ = jacobi_sn_cn_dn(ctx_l, arr + L)
    r_imag = np.asarray(sn_shift_im) - 1.0 / (x0sq * sn_u)
    r_real = np.asarray(sn_shift_re) - np.asarray(cn_u) / np.asarray(dn_u)
    return _out(r_imag, scalar), _out(r_real, scalar)
