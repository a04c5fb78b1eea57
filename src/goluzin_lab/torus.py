"""Rectangle/lattice geometry and the explicit Green-type function on it.

The lattice is generated by ``4L`` and ``2iL'``; the fundamental rectangle
is D = (-2L, 2L) x (-L', L') and the physical subdomain is the half-height
band D_D = [-2L, 2L) x (-L'/2, L'/2) whose horizontal boundary consists of
the two segments gamma(+-) at Im z = +-L'/2.

``green_G`` is the odd, lattice-periodic Green-type function built from
four theta factors and a linear correction; it vanishes on gamma(+-), is
symmetric, and carries logarithmic singularities of opposite signs at
z = zeta and z = -zeta (returned as +-inf).  ``Q_D`` is its zeta-derivative
at zeta = 0, with a ``1/z`` singularity on the lattice orbit of 0; the two
Wirtinger derivatives of Q_D have sn/dn closed forms.  The holomorphic one,
M^2 (E'/K' - 1/sn(M z; kappa)^2), is read from xi = sn(z + L; x0**2) through
Landen's transformation, with 1 - xi taken as cn(z + L)^2/(1 + xi) so the
pole at 0 costs no accuracy to cancellation (:func:`_dz_Q_D_landen`).

G is odd under the mirror z -> -z and changes sign under the boundary
reflection z -> conj(z) + iL' (both modulo the lattice); ``reduce`` brings
any such image back into D, so no surface data structure is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticParams, params_from_x0
from .errors import PoleError
from .quadrature import QuadratureResult, QuadratureSpec, integrate_rect
from .theta import JacobiContext, _as_array, jacobi_Z, jacobi_sn_cn_dn, theta0_log_abs

__all__ = ["TorusGeometry", "GreenEvaluator", "green_G", "Q_D", "dz_Q_D", "dzbar_Q_D", "kernel_norm_integral"]

_POLE_ATOL = 1e-12


@dataclass(frozen=True)
class TorusGeometry:
    """Lattice generated by (4L, 2iL') with its two distinguished rectangles."""

    params: EllipticParams

    @property
    def gen_re(self) -> float:
        return 4.0 * self.params.L

    @property
    def gen_im(self) -> float:
        return 2.0 * self.params.L_prime

    @property
    def rect_D(self) -> tuple[float, float, float, float]:
        p = self.params
        return (-2.0 * p.L, 2.0 * p.L, -p.L_prime, p.L_prime)

    @property
    def rect_DD(self) -> tuple[float, float, float, float]:
        p = self.params
        return (-2.0 * p.L, 2.0 * p.L, -0.5 * p.L_prime, 0.5 * p.L_prime)

    def reduce(self, z):
        """Map z into the fundamental rectangle [-2L, 2L) x [-L', L')."""
        z = np.asarray(z, dtype=np.complex128)
        re = z.real - self.gen_re * np.floor((z.real + 2.0 * self.params.L) / self.gen_re)
        im = z.imag - self.gen_im * np.floor((z.imag + self.params.L_prime) / self.gen_im)
        return re + 1j * im

    def gamma_points(self, n: int, sign: int = 1):
        """n points on the boundary segment gamma(+) (sign=+1) or gamma(-)."""
        p = self.params
        x = np.linspace(-2.0 * p.L, 2.0 * p.L, n, endpoint=False)
        return x + 1j * sign * 0.5 * p.L_prime


@dataclass(frozen=True)
class GreenEvaluator:
    """Green-type function and its derived quantities.

    ``ctx_kappa`` carries the theta functions of G and Q_D, ``ctx_l`` the
    modulus x0**2 that :func:`dz_Q_D` reads through Landen's transformation.
    """

    geometry: TorusGeometry
    ctx_kappa: JacobiContext
    ctx_l: JacobiContext

    @classmethod
    def from_x0(cls, x0: float) -> "GreenEvaluator":
        return cls.from_params(params_from_x0(x0))

    @classmethod
    def from_params(cls, params: EllipticParams) -> "GreenEvaluator":
        return cls(TorusGeometry(params), JacobiContext(params, "kappa"), JacobiContext(params, "x0_squared"))

    @property
    def params(self) -> EllipticParams:
        return self.geometry.params

    @property
    def b_const(self) -> complex:
        """Singularity-matching constant, (i/sqrt 2) sqrt(x0 (1 - x0^4))."""
        x0 = self.params.x0
        return 1j * math.sqrt(0.5 * x0 * (1.0 - x0**4))


def green_G(ev: GreenEvaluator, z, zeta):
    """The explicit Green-type function G(z, zeta), extended-real valued.

    Symmetric, lattice-periodic and odd in z, zero on gamma(+-), harmonic
    off {zeta, -zeta} where it has logarithmic singularities with opposite
    signs (those evaluate to +-inf rather than raising).
    """
    p = ev.params
    zarr, scalar_z = _as_array(z)
    warr, scalar_w = _as_array(zeta)
    zr = ev.geometry.reduce(np.atleast_1d(zarr))
    wr = ev.geometry.reduce(np.atleast_1d(warr))
    M, K, Kp = p.M, p.K, p.K_prime
    ikp = 1j * Kp
    ctx = ev.ctx_kappa
    la1, z1 = theta0_log_abs(ctx, M * zr - M * wr + ikp)
    la2, z2 = theta0_log_abs(ctx, M * np.conj(zr) + M * wr)
    la3, z3 = theta0_log_abs(ctx, M * zr + M * wr - ikp)
    la4, z4 = theta0_log_abs(ctx, M * np.conj(zr) - M * wr)
    lin = -(math.pi * M / K) * ((2.0 * M / Kp) * wr.imag - 1.0) * zr.imag
    num_zero = np.asarray(z1) | np.asarray(z2)
    den_zero = np.asarray(z3) | np.asarray(z4)
    with np.errstate(invalid="ignore"):
        out = -(la1 + la2 - la3 - la4) + lin
    out = np.where(num_zero & ~den_zero, np.inf, out)
    out = np.where(den_zero & ~num_zero, -np.inf, out)
    out = np.where(den_zero & num_zero, np.nan, out)
    return float(out[0]) if scalar_z and scalar_w else out


def Q_D(ev: GreenEvaluator, z):
    """zeta-derivative of G at zeta = 0; lattice-periodic, odd, 1/z at 0."""
    p = ev.params
    arr, scalar = _as_array(z)
    zr = ev.geometry.reduce(np.atleast_1d(arr))
    M, K, Kp = p.M, p.K, p.K_prime
    near_pole = np.abs(zr - ev.geometry.reduce(np.zeros_like(zr))) < _POLE_ATOL * max(p.L, p.L_prime)
    if np.any(near_pole):
        raise PoleError("Q_D evaluated on the lattice orbit of 0")
    val = (
        M * jacobi_Z(ev.ctx_kappa, M * zr + 1j * Kp)
        - M * jacobi_Z(ev.ctx_kappa, M * np.conj(zr))
        + (1j * math.pi * M / (K * Kp)) * (M * zr.imag)
        + 1j * math.pi * M / (2.0 * K)
    )
    return complex(val[0]) if scalar else val


def _dz_Q_D_landen(p: EllipticParams, sn, cn):
    """dz_Q_D at z from sn = sn(z + L; x0**2) and cn = cn(z + L; x0**2).

    Landen's transformation gives 1/sn(M z; kappa)^2 = (1 + kappa' -
    (1 - kappa') sn)/(1 - sn).  Next to sn = 1 (z near 0, the pole) 1 - sn
    is formed as cn^2/(1 + sn), which keeps the relative accuracy of cn;
    where Re sn <= 0 it is formed as written, so sn = -1 divides by nothing.
    Raises :class:`PoleError` where |sn(M z; kappa)| < 1e-12, i.e. on the
    lattice orbit of 0.
    """
    sn = np.asarray(sn)
    one_minus = np.asarray(1.0 - sn)  # an array also for a 0-d sn, to be written into
    np.divide(np.asarray(cn) ** 2, 1.0 + sn, out=one_minus, where=sn.real > 0.0)
    lin = (1.0 + p.kappa_prime) - (1.0 - p.kappa_prime) * sn
    if np.any(np.abs(one_minus) < _POLE_ATOL**2 * np.abs(lin)):
        raise PoleError("dz_Q_D evaluated on the lattice orbit of 0")
    return p.M**2 * (p.E_prime / p.K_prime - lin / one_minus)


def dz_Q_D(ev: GreenEvaluator, z):
    """Holomorphic Wirtinger derivative of Q_D: M^2 (E'/K' - 1/sn(Mz; kappa)^2).

    Evaluated from one sn-cn-dn call at modulus x0**2, at reduce(z) + L,
    through :func:`_dz_Q_D_landen`; raises :class:`PoleError` on the
    lattice orbit of 0.  At z = +-L + iL' modulo the lattice, the poles of
    sn(z + L; x0**2) on the edge of D, the call is made at z = L instead
    and the limit 1/sn(M z; kappa)^2 = 1 - kappa' is put in.
    """
    p = ev.params
    arr, scalar = _as_array(z)
    zr = ev.geometry.reduce(np.atleast_1d(arr))
    at_pole = np.abs(np.abs(zr.real) - p.L) + np.abs(np.abs(zr.imag) - p.L_prime) < _POLE_ATOL * (p.L + p.L_prime)
    sn, cn, _ = jacobi_sn_cn_dn(ev.ctx_l, np.where(at_pole, p.L, zr) + p.L)
    val = np.where(at_pole, p.M**2 * (p.E_prime / p.K_prime - (1.0 - p.kappa_prime)), _dz_Q_D_landen(p, sn, cn))
    return complex(val[0]) if scalar else val


def dzbar_Q_D(ev: GreenEvaluator, z):
    """Anti-holomorphic derivative: M^2 (E/K - pi/(2KK') - dn(M conj z)^2)."""
    p = ev.params
    arr, scalar = _as_array(z)
    zr = ev.geometry.reduce(np.atleast_1d(arr))
    _, _, dn = jacobi_sn_cn_dn(ev.ctx_kappa, p.M * np.conj(zr))
    dn = np.asarray(dn)
    val = p.M**2 * (-(dn**2) + p.E / p.K - math.pi / (2.0 * p.K * p.K_prime))
    return complex(val[0]) if scalar else val


def kernel_norm_integral(ev: GreenEvaluator, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Integral of |dzbar Q_D|^2 over D_D; equals pi M^2 E'/K'.

    The integrand is smooth on the closure of D_D (the dn poles sit on
    Im z = +-L'), so no singular handling is needed.  Callers wanting the
    reproducing-kernel normalisation divide by |b_const|^2.
    """
    spec = spec or QuadratureSpec()

    def f(z):
        return np.abs(dzbar_Q_D(ev, z)) ** 2

    return integrate_rect(f, ev.geometry.rect_DD, spec)
