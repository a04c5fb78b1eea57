"""Sharp-bound verification for univalent maps.

Implemented checks:

* ``verify_area_sigma`` - the exterior-disk area bound: the weighted area
  integral of |Psi(z, zeta)|^2 / |z - zeta| is at most
  2 pi (E'/K') |zeta|/(|zeta|^2 - 1), with equality exactly for full
  mappings.
* ``verify_area_disk`` - the equivalent unit-disk form for maps pinned by
  phi(x0) = 0, phi(-x0) = inf, phi'(x0) = 1, with weight 1/|w^2 - x0^2|.
* ``pointwise_from_area`` - the diagonal consequence
  |Psi(zeta, zeta)| <= (E'/K') |zeta|/(|zeta|^2 - 1).
* ``goluzin_bound`` - the pointwise estimate on psi''/psi' over the
  exterior disk, in both its E/K and E'/K' algebraic forms (the two are
  tied together by the Legendre relation and cross-checked here).
* ``koebe_bieberbach_bound`` - the classical unit-disk estimate on
  phi''/phi'.
* ``gronwall_check`` - the area theorem, computed both as the area
  integral of |psi' - 1|^2 / pi and as the coefficient sum.
* ``torus_area_crosscheck`` - the same area bound evaluated directly in
  rectangle coordinates through the Green-function machinery (slow; one
  parameter is enough to pin the 3/2-power branch conventions).

All three area checks take their square roots from one root R.
Univalence makes Q(z) = (psi(z) - psi(zeta))/(z - zeta) zero-free on
|z| > 1 with Q(inf) = 1, so R = sqrt(Q) with R(inf) = 1 is single-valued
there (:func:`_quotient_root`).  Q is read from the map's ``quotient``,
never formed by subtracting two values, so it keeps its digits next to
the diagonal and next to a critical point of psi.  Each check's root is
c R^(+-1) with a factor c it has at hand: sqrt(A) = R(zeta)/R(z) in the
field Psi(z, zeta), sqrt(V) = R(zeta)(w + x0)/(sqrt(2 x0) R(z')) in the
disk form and sqrt(phi(sigma)) = k cn R(z')/(sigma + x0) in the torus
check, z' = eta_inv(w) or eta_inv(sigma).  :meth:`_MarchedSqrt.at` signs
R = +-sqrt(Q) from the Q the check computes anyway.  For psi = z + b0 +
b1/z, |b1| <= 1 (every catalog Sigma map), R is the principal root of
1 - b1/(z zeta); every other map, and every node at which that closed form
misses the check's Q by more than 1e-6 relative, takes its sign from a
march along the segment from u = 1/z = 0 to the node
(:class:`_MarchedSqrt`), so a node's sign depends on its position alone
and not on the other nodes of its integrand call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .catalog import UnivalentMap, gronwall_sum
from .elliptic import EllipticParams, params_from_x0, x0_from_zeta_abs
from .errors import BranchAmbiguityError, DomainError, QuadratureError
from .maps import BridgeMaps, phi_from_psi
from .quadrature import QuadratureSpec, integrate_disk, integrate_exterior_disk, integrate_rect
from .theta import jacobi_sn_cn_dn
from .torus import GreenEvaluator, _dz_Q_D_landen

__all__ = [
    "VerificationReport",
    "PsiEvaluator",
    "verify_area_sigma",
    "verify_area_disk",
    "goluzin_bound",
    "koebe_bieberbach_bound",
    "gronwall_check",
    "pointwise_from_area",
    "torus_area_crosscheck",
    "AREA_SPEC",
]

EQ_FLOOR_POINTWISE = 1e-9
EQ_FLOOR_QUADRATURE = 5e-3

#: default quadrature settings for the area-type verifications; accurate
#: enough to separate the 0.5% equality band from genuine inequality.
AREA_SPEC = QuadratureSpec(rel_tol=2e-4, abs_tol=1e-10)

#: |z| from which |z|^3 leaves the float range: 2 (|zeta|^2 - 1) zeta in
#: ``at_diagonal`` overflows from 4.5e102, where Goluzin's rhs ~ 2/|z|^3 is subnormal
_MAX_ABS_Z = 2.0**340


@dataclass
class VerificationReport:
    """Outcome of one inequality check."""

    inequality: str
    lhs: float
    rhs: float
    ratio: float
    error_estimate: float
    status: str  # "holds" | "equality" | "violated"
    inputs: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _report(inequality, lhs, rhs, err, floor, inputs) -> VerificationReport:
    ratio = lhs / rhs
    if not (math.isfinite(ratio) and math.isfinite(err)):
        raise QuadratureError(f"{inequality}: ratio {ratio} with error {err} is not finite")
    band = max(floor, 3.0 * err / rhs)
    if abs(ratio - 1.0) <= band:
        status = "equality"
    elif ratio < 1.0:
        status = "holds"
    else:
        status = "violated"
    return VerificationReport(inequality, float(lhs), float(rhs), float(ratio), float(err), status, inputs)


def _cfmt(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _laurent_b1(psi: UnivalentMap) -> complex | None:
    """b1 when ``coefficients`` say psi = z + b0 + b1/z, else None."""
    coeffs = psi.coefficients
    if coeffs is None or len(coeffs) not in (1, 2):
        return None
    return complex(coeffs[1]) if len(coeffs) == 2 else 0j


class _MarchedSqrt:
    """sqrt(f) continued from the value 1 at 0, where f(0) = 1, along the
    segment from 0 to each node.

    ``f`` must be analytic and zero-free on a convex set holding 0 and the
    nodes.  :meth:`block` marches node x along t x, t = k/n for k = 1..n,
    with n = 8 doubled (up to 2048) for that node alone until every ratio of
    consecutive values lies in the right half-plane; its sign is the parity
    of the flips along its ray, as in the linear chain of
    :func:`~goluzin_lab.maps.sqrt_continued`.  So a node's root depends on
    its position only.  ``closed_arg``, when given, is a formula q for f
    whose principal root is this root where Re q > 0.
    """

    def __init__(self, f: Callable, closed_arg: Callable | None = None):
        self._f, self._q = f, closed_arg

    def block(self, x) -> np.ndarray:
        flat = np.asarray(x, dtype=np.complex128).reshape(-1)
        out = np.ones_like(flat)
        todo = np.flatnonzero(flat != 0.0)
        n = 8
        while n <= 2048:
            if not todo.size:
                return out.reshape(np.shape(x))
            vals = np.asarray(self._f(flat[todo, None] * (np.arange(1, n + 1) / n)))
            ratio = vals / np.concatenate((np.ones((todo.size, 1)), vals[:, :-1]), axis=1)
            ok = np.all(ratio.real > 1e-3 * np.abs(ratio), axis=1)
            root = np.sqrt(vals[ok])
            prev = np.concatenate((np.ones((root.shape[0], 1)), root[:, :-1]), axis=1)
            odd = np.sum(np.abs(root - prev) > np.abs(root + prev), axis=1) % 2 == 1
            out[todo[ok]] = np.where(odd, -root[:, -1], root[:, -1])
            todo, n = todo[~ok], 2 * n
        raise BranchAmbiguityError("could not march the square root along a ray")

    def at(self, x, vals=None) -> np.ndarray:
        """This root, +-sqrt(vals), at the nodes ``x``; ``vals`` defaults to f(x).

        A node takes the principal root where the closed form q has Re q > 0
        and is within 1e-6 relative of ``vals``: the root lies within pi/4 of
        the positive real axis there.  :meth:`block` signs every other node,
        such as every node of a map whose coefficients do not describe its
        value.
        """
        x = np.asarray(x, dtype=np.complex128)
        vals = self._f(x) if vals is None else vals
        g = np.sqrt(vals)
        miss = np.ones(g.shape, dtype=bool)
        if self._q is not None:
            q = self._q(x)
            miss = ~((np.abs(q - vals) <= 1e-6 * np.abs(vals)) & (q.real > 0.0))
        if miss.any():
            gm = g[miss]
            g[miss] = np.where((gm * np.conj(self.block(x[miss]))).real < 0.0, -gm, gm)
        return g


def _quotient_root(psi: UnivalentMap, zeta: complex) -> _MarchedSqrt:
    """R = sqrt(Q) as a function of u = 1/z, with R = 1 at u = 0 (z = inf).

    Q(z) = (psi(z) - psi(zeta))/(z - zeta) is ``psi.quotient(z, zeta)``,
    psi'(zeta) at z = zeta.  The march runs along the ray z/t, t from 0 to
    1, which is the segment [0, u].  For psi = z + b0 + b1/z,
    Q = 1 - (b1/zeta) u has positive real part for |u| < 1 < |zeta| and
    |b1| <= 1, and R is its principal root.
    """
    zeta = complex(zeta)
    b1 = _laurent_b1(psi)
    closed_arg = None if b1 is None else (lambda u: 1.0 - (b1 / zeta) * u)
    return _MarchedSqrt(lambda u: psi.quotient(1.0 / u, zeta), closed_arg)


def _disk_root(source: tuple, x0: float):
    """R of a map that ``phi_from_psi`` made, and the coordinate it takes w in.

    ``source`` is the map's ``(bridge, psi)``; R is psi's
    :func:`_quotient_root` at u = 1/eta_inv(w) = (w + x0)/(unit (1 + x0 w)),
    unit = zeta/|zeta|, which is finite at w = -x0 (u = 0, R = 1).
    """
    bridge, psi = source
    unit = bridge.zeta / abs(bridge.zeta)
    return _quotient_root(psi, bridge.zeta), lambda w: (w + x0) / (unit * (1.0 + x0 * w))


class PsiEvaluator:
    """The three-term field Psi(z, zeta) for one exterior-disk map.

    The first term carries sqrt(A), A(z) = psi'(zeta)/Q(z), continued from
    the value +1 at z = zeta: it is R(zeta)/R(z) with the root R of
    :func:`_quotient_root`, signed by :meth:`_MarchedSqrt.at` from
    Q = ``psi.quotient(z, zeta)``.  With psi(z) - psi(zeta) = (z - zeta) Q
    no term subtracts two values of psi.  Raises ``DomainError`` unless
    1 < |zeta| < 2^340.
    """

    def __init__(self, psi: UnivalentMap, zeta: complex):
        if psi.map_class != "Sigma":
            raise DomainError("PsiEvaluator needs an exterior-disk (Sigma) map")
        zeta = complex(zeta)
        if not 1.0 < abs(zeta) < _MAX_ABS_Z:
            raise DomainError("the base point must satisfy 1 < |zeta| < 2^340")
        self.psi = psi
        self.zeta = zeta
        self.params = params_from_x0(x0_from_zeta_abs(abs(zeta)))
        self.ep_over_kp = self.params.E_prime / self.params.K_prime
        # sqrt(1 - |zeta|^-2) = complementary modulus kappa'
        self.d = math.sqrt(1.0 - 1.0 / abs(zeta) ** 2)
        self.dpsi_zeta = complex(psi.deriv(np.complex128(zeta)))
        self.ddpsi_zeta = complex(psi.deriv2(np.complex128(zeta)))
        self._root = _quotient_root(psi, zeta)
        self._top = complex(self._root.at([1.0 / zeta])[0])  # R(zeta)

    def field(self, z):
        """Psi(z, zeta); z = zeta returns the closed form ``at_diagonal``."""
        zs = np.asarray(z, dtype=np.complex128)
        flat = zs.reshape(-1)
        u = flat - self.zeta
        on = u == 0.0
        if on.any():
            out = np.full_like(flat, self.at_diagonal())
            out[~on] = self._off_diagonal(flat[~on], u[~on])
        else:
            out = self._off_diagonal(flat, u)
        return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)

    def _off_diagonal(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Psi at nodes ``z`` other than zeta, where u = z - zeta."""
        q = self.psi.quotient(z, self.zeta)
        s = np.sqrt(1.0 - 1.0 / (np.conj(self.zeta) * z))
        term1 = self._top * self.psi.deriv(z) / (u * q * self._root.at(1.0 / z, q))
        term2 = (s / self.d) / u
        term3 = self.ep_over_kp / (self.d * s * z)
        return term1 - term2 + term3

    def at_diagonal(self) -> complex:
        """Closed form of Psi(zeta, zeta)."""
        zeta = self.zeta
        a2 = abs(zeta) ** 2
        return (
            self.ddpsi_zeta / (4.0 * self.dpsi_zeta)
            - 1.0 / (2.0 * zeta)
            - (2.0 - a2) / (2.0 * (a2 - 1.0) * zeta)
            + self.ep_over_kp * a2 / ((a2 - 1.0) * zeta)
        )


# ---------------------------------------------------------------------------
# area-type verifications


def verify_area_sigma(psi: UnivalentMap, zeta: complex, spec: QuadratureSpec | None = None) -> VerificationReport:
    """Exterior-disk area bound; equality status iff psi is a full mapping.

    Raises ``DomainError`` from |zeta| = 2^23 (about 8.4e6) on.  The bound
    was set while the polar patch around zeta had radius 1: from there the
    float spacing next to zeta exceeded 1e-4 of its core ring's offset
    1e-5.  The patch now reaches |zeta|/4, so the ring is resolved farther
    out, but the bound stays until that domain is checked.
    """
    spec = spec or AREA_SPEC
    zeta = complex(zeta)
    # the documented domain, set by a radius-1 patch's core ring (see the
    # docstring); ahead of PsiEvaluator, which allows 2^340
    if not abs(zeta) < 2.0**23:
        raise DomainError(f"|zeta| = {abs(zeta):.3g} is too large: the checked domain |zeta| < 2^23 was set by the core ring of a radius-1 patch")
    ev = PsiEvaluator(psi, zeta)

    def f(z):
        return np.abs(ev.field(z)) ** 2 / np.abs(z - zeta)

    res = integrate_exterior_disk(f, spec.with_points(zeta))
    a2 = abs(zeta) ** 2
    rhs = 2.0 * math.pi * ev.ep_over_kp * abs(zeta) / (a2 - 1.0)
    inputs = {
        "map": psi.name,
        "zeta": _cfmt(zeta),
        "rel_tol": spec.rel_tol,
        "abs_tol": spec.abs_tol,
        "full_mapping": psi.full_mapping,
        "n_evals": res.n_evals,
    }
    return _report("area-sigma", res.value, rhs, res.error, EQ_FLOOR_QUADRATURE, inputs)


class _DiskField:
    """Integrand data for the unit-disk form of the area bound.

    phi(w) = (w - x0) q(w) with q = ``phi.quotient(w, x0)``, since
    phi(x0) = 0, so V(w) = (w^2 - x0^2)/phi(w) = (w + x0)/q(w) and the first
    term phi'/phi = phi'/((w - x0) q) subtract no two values of phi.  With
    psi(z) - psi(zeta) = (z - zeta) Q(z) and z - zeta proportional to
    (w - x0)/(w + x0), sqrt(V(w)) = R(zeta) (w + x0)/(sqrt(2 x0) R(z')) at
    z' = eta_inv(w), with the root R of :func:`_disk_root` signed from
    Q(z') = psi'(zeta) (w + x0) q(w)/(2 x0).  A map without a ``source``
    takes R as the root of (w + x0) q(w)/(2 x0), a constant multiple of
    Q(z') that is zero-free on the unit disk and 1 at w = x0, marched in
    s = w - x0 from s = 0: the factors psi'(zeta) and R(zeta) become 1.
    """

    def __init__(self, phi: UnivalentMap, x0: float, params: EllipticParams):
        self.phi = phi
        self.x0 = x0
        ep_over_kp = params.E_prime / params.K_prime
        self.c2 = (1.0 + x0**2) * math.sqrt(2.0 * x0) / math.sqrt(1.0 - x0**4)
        self.c3 = ep_over_kp * (1.0 + x0**2) ** 2 / math.sqrt(2.0 * x0 * (1.0 - x0**4))
        if phi.source is None:
            self._root = _MarchedSqrt(lambda s: (s + x0 + x0) * phi.quotient(s + x0, x0) / (2.0 * x0))
            self._coord, self._scale, top = (lambda w: w - x0), 1.0 / (2.0 * x0), 1.0
        else:
            bridge, psi = phi.source
            self._root, self._coord = _disk_root(phi.source, x0)
            self._scale = complex(psi.deriv(np.complex128(bridge.zeta))) / (2.0 * x0)
            top = complex(self._root.at([self._coord(x0)])[0])
        self._top = top / math.sqrt(2.0 * x0)

    def integrand(self, w):
        w = np.asarray(w, dtype=np.complex128)
        q = self.phi.quotient(w, self.x0)
        r = self._root.at(self._coord(w), self._scale * (w + self.x0) * q)
        t1 = self._top * self.phi.deriv(w) * (w + self.x0) / ((w - self.x0) * q * r)
        t2 = self.c2 * np.sqrt((1.0 - self.x0 * w) / (1.0 + self.x0 * w)) / (w - self.x0)
        t3 = self.c3 / np.sqrt(1.0 - self.x0**2 * w**2)
        return np.abs(t1 - t2 - t3) ** 2 / np.abs(w**2 - self.x0**2)


def verify_area_disk(phi: UnivalentMap, x0: float, spec: QuadratureSpec | None = None) -> VerificationReport:
    """Unit-disk area bound for a map with phi(x0)=0, phi(-x0)=inf, phi'(x0)=1."""
    spec = spec or AREA_SPEC
    params = params_from_x0(x0)
    dphi = complex(phi.deriv(np.complex128(x0)))
    if abs(dphi - 1.0) > 1e-8 or abs(complex(phi.value(np.complex128(x0)))) > 1e-8:
        raise DomainError("phi must satisfy phi(x0) = 0 and phi'(x0) = 1")
    fieldd = _DiskField(phi, x0, params)
    res = integrate_disk(fieldd.integrand, spec.with_points(complex(x0), complex(-x0)))
    rhs = math.pi * (params.E_prime / params.K_prime) * (1.0 + x0**2) / (x0 * (1.0 - x0**2))
    inputs = {
        "map": phi.name,
        "x0": x0,
        "rel_tol": spec.rel_tol,
        "abs_tol": spec.abs_tol,
        "full_mapping": phi.full_mapping,
        "n_evals": res.n_evals,
    }
    return _report("area-disk", res.value, rhs, res.error, EQ_FLOOR_QUADRATURE, inputs)


# ---------------------------------------------------------------------------
# pointwise bounds


def goluzin_bound(psi: UnivalentMap, z: complex) -> VerificationReport:
    """Pointwise bound on psi''/psi' over the exterior disk.

    The reported lhs/rhs use the E/K form at modulus 1/|z|; the E'/K'
    form of the same statement is evaluated independently and the two are
    tied together through the Legendre relation (residuals in ``inputs``).
    Raises ``DomainError`` unless 1 < |z| < 2^340.
    """
    z = complex(z)
    a = abs(z)
    if not 1.0 < a < _MAX_ABS_Z:
        raise DomainError("goluzin_bound needs 1 < |z| < 2^340")
    p = params_from_x0(x0_from_zeta_abs(a))
    ep_over_kp = p.E_prime / p.K_prime
    w = complex(psi.deriv2(np.complex128(z))) / complex(psi.deriv(np.complex128(z)))
    a2 = a * a
    # w + (4a^2-2)/(z(a^2-1)) - 4 conj(z) E/K/(a^2-1), regrouped around 1 - E/K
    inside_pt = w - 2.0 / (z * (a2 - 1.0)) + (4.0 * np.conj(z) / (a2 - 1.0)) * p.E_gap
    rhs_pt = (4.0 * a / (a2 - 1.0)) * p.E_gap
    big_b = a2 / (a2 - 1.0)
    inside_alt = z * w - 2.0 + 2.0 * (a2 - 2.0) / (a2 - 1.0) + 4.0 * big_b * ep_over_kp
    rhs_alt = 4.0 * big_b * ep_over_kp
    shift = 2.0 * math.pi * big_b / (p.K * p.K_prime)
    cross_lhs = abs(inside_alt - (z * inside_pt + shift))
    cross_rhs = abs(rhs_alt - (a * rhs_pt + shift))
    inputs = {
        "map": psi.name,
        "z": _cfmt(z),
        "lhs_alt_form": float(abs(inside_alt)),
        "rhs_alt_form": float(rhs_alt),
        "alt_form_holds": bool(abs(inside_alt) <= rhs_alt * (1.0 + 1e-12) + 1e-12),
        "legendre_bridge_residual": float(max(cross_lhs, cross_rhs)),
    }
    return _report("goluzin", abs(inside_pt), rhs_pt, 1e-14 * rhs_pt, EQ_FLOOR_POINTWISE, inputs)


def koebe_bieberbach_bound(phi: UnivalentMap, z: complex) -> VerificationReport:
    """|phi''/phi' - 2 conj(z)/(1-|z|^2)| <= 4/(1-|z|^2) on the unit disk."""
    z = complex(z)
    if phi.map_class != "S":
        raise DomainError("koebe_bieberbach_bound needs a class-S map")
    if not abs(z) < 1.0:
        raise DomainError("koebe_bieberbach_bound needs |z| < 1")
    w = complex(phi.deriv2(np.complex128(z))) / complex(phi.deriv(np.complex128(z)))
    one_m = 1.0 - abs(z) ** 2
    lhs = abs(w - 2.0 * np.conj(z) / one_m)
    rhs = 4.0 / one_m
    inputs = {"map": phi.name, "z": _cfmt(z)}
    return _report("koebe-bieberbach", lhs, rhs, 1e-14 * rhs, EQ_FLOOR_POINTWISE, inputs)


def pointwise_from_area(ev: PsiEvaluator) -> VerificationReport:
    """|Psi(zeta, zeta)| <= (E'/K') |zeta|/(|zeta|^2 - 1)."""
    a = abs(ev.zeta)
    lhs = abs(ev.at_diagonal())
    rhs = ev.ep_over_kp * a / (a * a - 1.0)
    inputs = {"map": ev.psi.name, "zeta": _cfmt(ev.zeta)}
    return _report("pointwise-from-area", lhs, rhs, 1e-14 * rhs, EQ_FLOOR_POINTWISE, inputs)


def gronwall_check(psi: UnivalentMap, spec: QuadratureSpec | None = None) -> VerificationReport:
    """Area theorem: (1/pi) integral of |psi' - 1|^2 equals sum n |b_n|^2 <= 1.

    The coefficient sum runs to n = 64.  Raises ``QuadratureError`` when the
    two routes disagree by more than the check's band max(1e-6, 3 err): then
    one of them is wrong (coefficients that do not describe ``value``), and
    no error bar should cover it.
    """
    if psi.map_class != "Sigma":
        raise DomainError("gronwall_check needs an exterior-disk (Sigma) map")
    spec = spec or QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)

    def f(z):
        return np.abs(psi.deriv(z) - 1.0) ** 2 / math.pi

    res = integrate_exterior_disk(f, spec)
    coeff = gronwall_sum(psi)
    residual = abs(res.value - coeff)
    if residual > max(1e-6, 3.0 * res.error):
        raise QuadratureError(
            f"area integral {res.value:.10g} and coefficient sum {coeff:.10g} differ by {residual:.3g}", partial=res
        )
    inputs = {
        "map": psi.name,
        "coefficient_sum": coeff,
        "route_residual": residual,
        "n_evals": res.n_evals,
    }
    return _report("gronwall", res.value, 1.0, max(res.error, residual), 1e-6, inputs)


# ---------------------------------------------------------------------------
# rectangle-coordinate cross-check (slow)


def torus_area_crosscheck(psi: UnivalentMap, zeta: complex, spec: QuadratureSpec | None = None) -> VerificationReport:
    """Area bound evaluated directly in rectangle coordinates.

    Integrates |d/dz [ (phi o sigma)^(-1/2) ] - (1/b) dz_Q_D|^2 over the
    fundamental band (-L, 3L) x (-L'/2, L'/2) against pi M^2 E' / (|b|^2 K').
    sn is even about L, so sigma(-z) = sigma(z): the check integrates the
    even integrand over the upper half band (-L, 3L) x (0, L'/2) twice.  Next
    to its edge |sigma| = 1 the integrand can spike, and at rel_tol 1e-3 edge
    cells whose two rules agreed missed spikes; the default budget is 1e-4.

    With sigma^2 - x0^2 = -x0^2 cn^2(z + L), the root is
    sqrt(phi(sigma(z))) = k cn(z + L) R(z')/(sigma + x0) at
    z' = eta_inv(sigma), with the root R of :func:`_disk_root` signed from
    Q(z') = psi'(zeta) (sigma + x0) q(sigma)/(2 x0), q = ``phi.quotient``
    at (sigma, x0).  Since
    phi(sigma) = -(2 x0/psi'(zeta)) x0^2 cn^2(z + L) Q(z')/(sigma + x0)^2,
    k = +-x0 sqrt(-2 x0/psi'(zeta)).  The 1/z^2 poles of the two terms
    cancel for k = -i x0 sqrt(2 x0)/R(zeta), which fixes the sign; k keeps
    the value of the first form.  No value of phi enters, so the root keeps
    its digits at the double zero z = 0.  One sn-cn-dn call at modulus x0^2
    per integrand call gives sigma, sigma', cn(z + L) and, through Landen's
    transformation, dz_Q_D (:func:`~goluzin_lab.torus._dz_Q_D_landen`).

    The integrand is smooth at 0, where the poles cancel, so the band tags no
    point: 0 is a seed corner, 0.016 from the nearest node at zeta = 2.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-4, abs_tol=1e-8)
    zeta = complex(zeta)
    bridge = BridgeMaps.from_zeta(zeta)
    p = bridge.params
    ev = GreenEvaluator.from_params(p)
    phi = phi_from_psi(bridge, psi)
    L, Lp = p.L, p.L_prime
    b = ev.b_const
    root, coord = _disk_root(phi.source, p.x0)
    scale = complex(psi.deriv(np.complex128(zeta))) / (2.0 * p.x0)
    k = p.x0 * cmath.sqrt(-1.0 / scale)
    k = k if (1j * k * complex(root.at([coord(p.x0)])[0])).real > 0.0 else -k

    def integrand(z):
        z = np.asarray(z, dtype=np.complex128)
        # sigma and sigma' with the float operations of ``sigma`` and ``sigma_prime``
        sn, cn, dn = jacobi_sn_cn_dn(bridge.ctx_l, z + L)
        sig, dsig = p.x0 * sn, p.x0 * cn * dn
        r = root.at(coord(sig), scale * (sig + p.x0) * phi.quotient(sig, p.x0))
        g = k * cn * r / (sig + p.x0)
        dphi = phi.deriv(sig) * dsig
        val = -dphi / (2.0 * g**3) - _dz_Q_D_landen(p, sn, cn) / b
        return np.abs(val) ** 2

    half = integrate_rect(integrand, (-L, 3.0 * L, 0.0, 0.5 * Lp), spec)
    value, err = 2.0 * half.value, 2.0 * half.error
    rhs = math.pi * p.M**2 * p.E_prime / (abs(b) ** 2 * p.K_prime)
    inputs = {
        "map": psi.name,
        "zeta": _cfmt(zeta),
        "x0": p.x0,
        "rel_tol": spec.rel_tol,
        "full_mapping": psi.full_mapping,
        "n_evals": half.n_evals,
    }
    # the driver's estimate of a smooth band can fall below rounding: add 1e-10 |value|
    return _report("area-torus", value, rhs, err + 1e-10 * abs(value), 2e-2, inputs)
