"""Coordinate bridges between the torus rectangle, the slit sphere, the
exterior disk, and the unit disk, plus branch-tracked square roots.

``sigma`` wraps the rectangle onto the doubly slit sphere through sn at
modulus x0**2; ``tau`` inverts it on the principal sheet in closed form,
the incomplete integral of the first kind as one Carlson R_F, with the
one-sided limit of that form on the slits.  ``eta``/``eta_inv`` are the
Moebius maps between the exterior disk (base point zeta) and the unit disk
(base point x0), and ``phi_from_psi`` converts an exterior-disk map into the
unit-disk map pinned by phi(x0) = 0, phi(-x0) = inf, phi'(x0) = 1.

``marched_sqrt_path`` continues a square root from a base value along a
densified polyline; the tests use it as a path oracle.  The area checks'
square roots, closed form and march, live with the checks in
:mod:`goluzin_lab.inequalities`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import carlson_rf
from .elliptic import EllipticParams, params_from_x0, x0_from_zeta_abs
from .errors import BranchAmbiguityError, BranchCutError, DomainError, PoleError
from .catalog import UnivalentMap
from .theta import JacobiContext, jacobi_sn_cn_dn

__all__ = [
    "BridgeMaps",
    "sigma",
    "sigma_prime",
    "tau",
    "tau_prime",
    "eta",
    "eta_inv",
    "phi_from_psi",
]

_REAL_TOL = 1e-13
_BRANCH_POINT_TOL = 1e-12
_SIDES = ("+", "-", "auto")


@dataclass(frozen=True)
class BridgeMaps:
    """Bridge data for one exterior-disk base point zeta, |zeta| > 1."""

    zeta: complex
    params: EllipticParams
    ctx_l: JacobiContext

    def __post_init__(self):
        x0 = x0_from_zeta_abs(abs(self.zeta))
        if abs(self.params.x0 - x0) > 1e-12:
            raise ValueError("params do not match x0_from_zeta_abs(|zeta|)")
        if self.ctx_l.modulus_tag != "x0_squared":
            raise ValueError("BridgeMaps needs the modulus-x0^2 context")

    @classmethod
    def from_zeta(cls, zeta: complex) -> "BridgeMaps":
        zeta = complex(zeta)
        params = params_from_x0(x0_from_zeta_abs(abs(zeta)))
        return cls(zeta, params, JacobiContext(params, "x0_squared"))

    @property
    def x0(self) -> float:
        return self.params.x0


# ---------------------------------------------------------------------------
# sigma and tau


def sigma(bridge: BridgeMaps, z):
    """x0 * sn(z + L; x0^2), and complex infinity at each node on a pole of sn."""
    p = bridge.params
    z = np.asarray(z, dtype=np.complex128)
    try:
        return p.x0 * jacobi_sn_cn_dn(bridge.ctx_l, z + p.L)[0]
    except PoleError:
        if z.ndim == 0:
            return complex(math.inf, 0.0)
    pole = np.reshape([sigma(bridge, v) == math.inf for v in z.flat], z.shape)
    out = np.full(z.shape, complex(math.inf, 0.0))
    out[~pole] = p.x0 * jacobi_sn_cn_dn(bridge.ctx_l, z[~pole] + p.L)[0]
    return out


def sigma_prime(bridge: BridgeMaps, z):
    """d/dz sigma = x0 * cn(z + L) * dn(z + L) at modulus x0^2."""
    p = bridge.params
    _, cn, dn = jacobi_sn_cn_dn(bridge.ctx_l, np.asarray(z, dtype=np.complex128) + p.L)
    return p.x0 * cn * dn


def tau(bridge: BridgeMaps, w, side: str = "auto") -> complex:
    """Inverse of sigma on the principal sheet.

    ``side`` ('+' or '-') selects the boundary value for real w with
    |w| > x0, where the two sides of the slit map to different edges;
    real w with |w| <= x0 is unambiguous.  Any side other than '+', '-' or
    'auto' raises ``ValueError``, here and in :func:`tau_prime`.  tau(x0) = 0, tau(0) = -L,
    tau(-x0) = -2L, and tau(1/x0) from above is iL'.

    tau(w) = F(arcsin T; x0^4) - L = T R_F(1 - T^2, 1 - x0^4 T^2, 1) - L with
    T = w/x0 (DLMF 19.25(i)).  The arguments are scaled by s^2, s = 1/max(1, |T|),
    which R_F's degree -1/2 turns into the factor s, so no finite w overflows.
    """
    if side not in _SIDES:
        raise ValueError(f"side must be '+', '-' or 'auto', not {side!r}")
    p = bridge.params
    x0 = p.x0
    w = complex(w)
    c = 1.0
    on_slit = abs(w.imag) <= _REAL_TOL * (x0 + abs(w)) and abs(w.real) > x0
    if on_slit:
        if side == "auto":
            raise BranchCutError(
                "tau is two-sided for real w with |w| > x0; pass side='+' or side='-'"
            )
        # The one-sided limit: Im T^2 has the sign of T*side, so x and y reach
        # the negative axis with Im of sign -T*side.  There R_F(x, y, z) =
        # sqrt(c) R_F(cx, cy, cz) for the quarter turn c = +-i of sign T*side,
        # which moves all three arguments off the cut without crossing it.
        w = complex(w.real)
        c = 1j * math.copysign(1.0, w.real) * (1.0 if side == "+" else -1.0)
    r = max(x0, abs(w))
    s = x0 / r
    # s^2 (1 - T^2) and s^2 (1 - x0^4 T^2), free of cancellation near the branch
    # points +-x0 and, through 1 - x0^4 = (1 - x0)(1 + x0)(1 + x0^2), near x0 = 1
    x = (x0 - w) / r * ((x0 + w) / r)
    y = x0**4 * x + (1.0 - x0) * (1.0 + x0) * (1.0 + x0 * x0) * s * s
    if on_slit and abs(r * x0 - 1.0) <= 1e-15:
        y = 0.0  # the slit tip up to rounding: y would enter R_F through its square root
    return w / r * cmath.sqrt(c) * complex(carlson_rf(c * x, c * y, c * s * s)) - p.L


def tau_prime(bridge: BridgeMaps, w, side: str = "auto"):
    """d tau / dw = 1/sqrt((x0^2 - w^2)(1 - x0^2 w^2)) on the principal sheet.

    The four principal-branch factors below are individually analytic on
    the doubly slit plane, so their product is the analytic continuation
    of the positive value 1/x0 at w = 0; real w beyond the slit tips is
    resolved by nudging to the requested side.  Each factor is scaled by
    r = max(x0, |w|), as in :func:`tau`, so no finite w overflows.
    """
    if side not in _SIDES:
        raise ValueError(f"side must be '+', '-' or 'auto', not {side!r}")
    p = bridge.params
    x0 = p.x0
    w = complex(w)
    for bp in (x0, -x0, 1.0 / x0, -1.0 / x0):
        if abs(w - bp) < _BRANCH_POINT_TOL:
            raise PoleError(f"tau_prime is singular at the branch point {bp}")
    if abs(w.imag) <= _REAL_TOL * (1.0 + abs(w)) and abs(w.real) > x0:
        if side == "auto":
            raise BranchCutError("tau_prime needs side='+' or side='-' on the slits")
        w = complex(w.real, (1.0 if side == "+" else -1.0) * 1e-14 * (1.0 + abs(w.real)))
    r = max(x0, abs(w))
    s, v = x0 / r, w / r
    # x0 sqrt(1 -+ w/x0) = sqrt(x0 r) sqrt(s -+ v) and sqrt(1 -+ x0 w) = sqrt(r) sqrt(1/r -+ x0 v)
    root = r * np.sqrt(s - v) * np.sqrt(s + v) * np.sqrt(1.0 / r - x0 * v) * np.sqrt(1.0 / r + x0 * v)
    return 1.0 / root / r


# ---------------------------------------------------------------------------
# Moebius bridge and the induced unit-disk map


def eta(bridge: BridgeMaps, z):
    """Moebius map of the exterior disk onto the unit disk; eta(zeta) = x0."""
    zeta, x0 = bridge.zeta, bridge.x0
    z = np.asarray(z, dtype=np.complex128)
    az = abs(zeta)
    den = np.conj(zeta) * z - x0 * az
    if np.any(np.abs(den) < 1e-290):
        raise PoleError("eta evaluated at its pole")
    return (az - x0 * np.conj(zeta) * z) / den


def eta_inv(bridge: BridgeMaps, w):
    """Inverse Moebius map, (zeta/|zeta|) (1 + x0 w)/(w + x0)."""
    zeta, x0 = bridge.zeta, bridge.x0
    w = np.asarray(w, dtype=np.complex128)
    den = w + x0
    if np.any(np.abs(den) < 1e-290):
        raise PoleError("eta_inv evaluated at its pole -x0")
    return (zeta / abs(zeta)) * (1.0 + x0 * w) / den


def phi_from_psi(bridge: BridgeMaps, psi: UnivalentMap) -> UnivalentMap:
    """Unit-disk map induced by an exterior-disk map psi.

    phi(w) = c * (psi(eta_inv(w)) - psi(zeta)) with c fixed by the chain
    rule so that phi(x0) = 0, phi(-x0) = inf, and phi'(x0) = 1 hold
    exactly.  Its ``quotient`` composes psi's with the divided difference
    of eta_inv, which is exact because eta_inv is Moebius.  Full mappings
    stay full: the complement of the image only moves by the affine
    factor c.  The result records ``(bridge, psi)`` as its ``source``.
    """
    if psi.map_class != "Sigma":
        raise DomainError("phi_from_psi expects an exterior-disk map")
    zeta, x0 = bridge.zeta, bridge.x0
    unit = zeta / abs(zeta)
    psi_zeta = complex(psi.value(np.complex128(zeta)))
    dpsi_zeta = complex(psi.deriv(np.complex128(zeta)))
    if dpsi_zeta == 0:
        raise DomainError("psi'(zeta) vanishes; the induced map is degenerate")

    def d_eta_inv(w):
        return unit * (x0**2 - 1.0) / (w + x0) ** 2

    def d2_eta_inv(w):
        return -2.0 * unit * (x0**2 - 1.0) / (w + x0) ** 3

    c_norm = 1.0 / (dpsi_zeta * d_eta_inv(np.complex128(x0)))

    def value(w):
        w = np.asarray(w, dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            return c_norm * (psi.value(eta_inv(bridge, w)) - psi_zeta)

    def deriv(w):
        w = np.asarray(w, dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            return c_norm * psi.deriv(eta_inv(bridge, w)) * d_eta_inv(w)

    def deriv2(w):
        w = np.asarray(w, dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            zi = eta_inv(bridge, w)
            return c_norm * (psi.deriv2(zi) * d_eta_inv(w) ** 2 + psi.deriv(zi) * d2_eta_inv(w))

    # eta_inv is Moebius: its divided difference is unit (x0^2 - 1)/((w + x0)(v + x0))
    c_quotient = c_norm * unit * (x0**2 - 1.0)

    def quotient(w, v):
        w, v = np.asarray(w, dtype=np.complex128), np.asarray(v, dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            return c_quotient * psi.quotient(eta_inv(bridge, w), eta_inv(bridge, v)) / ((w + x0) * (v + x0))

    return UnivalentMap(
        name=f"phi[{psi.name}]",
        map_class="disk",
        value=value,
        deriv=deriv,
        deriv2=deriv2,
        quotient=quotient,
        coefficients=None,
        full_mapping=psi.full_mapping,
        source=(bridge, psi),
    )


# ---------------------------------------------------------------------------
# branch-tracked square roots


def marched_sqrt_path(func, waypoints, base_value):
    """Continue sqrt(func) along a polyline, densifying legs as needed.

    ``func`` maps a complex ndarray to the (nonvanishing) argument values;
    the continuation refines each leg (8 steps, doubled up to 2048) until
    consecutive arguments stay in the same half-plane, then marches the
    sign.  Returns the sqrt value at the final waypoint.

    The test compares consecutive values only: a leg that passes a double
    zero of ``func`` within one coarse step can turn the argument by over
    270 degrees and return the wrong sign without raising (2 of 24 signs of
    V(w) = (w^2 - x0^2)/phi(w), identity at zeta = 1 + 1e-4, on a 0.0031
    ring around the double zero -x0, continued along [x0, i/2, w]).
    """
    waypoints = np.array([complex(p) for p in waypoints], dtype=np.complex128)
    a, step = waypoints[:-1, None], (waypoints[1:] - waypoints[:-1])[:, None]
    n = 8
    while n <= 2048:
        ts = np.linspace(0.0, 1.0, n + 1)[1:]
        pts = np.concatenate((waypoints[:1], (a + step * ts).reshape(-1)))
        vals = np.asarray(func(pts), dtype=np.complex128)
        ratios = vals[1:] / vals[:-1]
        if np.all(ratios.real > 1e-3 * np.abs(ratios)):
            if np.any(np.abs(vals) < 1e-13 * np.abs(vals).max()):
                raise BranchAmbiguityError("square-root continuation hit a zero argument")
            # the sign is the parity of the flips along the path, as in _MarchedSqrt.block
            root = np.sqrt(vals)
            prev = np.concatenate(([complex(base_value)], root[:-1]))
            odd = np.count_nonzero(np.abs(root - prev) > np.abs(root + prev)) % 2 == 1
            return complex(-root[-1] if odd else root[-1])
        n *= 2
    raise BranchAmbiguityError("could not march the square root along the path")
