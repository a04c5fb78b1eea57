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

The field Psi(z, zeta) combines three terms whose relative signs matter;
its square-root factor sqrt(psi'(zeta)(z - zeta)/(psi(z) - psi(zeta))) is
the analytic continuation of the value +1 at z = zeta inside the exterior
disk.  The disk form and the torus check carry square roots of the same
kind.  For psi = z + b0 + b1/z, |b1| <= 1 (every catalog Sigma map), all
three continuations have closed forms in principal roots of
Q(z) = (psi(z) - psi(zeta))/(z - zeta) = 1 - b1/(z zeta), whose real part
is positive on the exterior disk, and the sign is taken from them (see
:class:`PsiEvaluator`, :class:`_DiskField` and
:func:`torus_area_crosscheck`).  The march of :class:`_MarchedSqrt` runs
for every other map and for a call whose nodes the closed form misses by
more than 1e-6 relative.  No sign is guessed from a principal root of the
argument itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import UnivalentMap, gronwall_sum
from .elliptic import EllipticParams, params_from_x0, x0_from_zeta_abs
from .errors import DomainError
from .maps import BridgeMaps, marched_sqrt_path, phi_from_psi, sigma
from .quadrature import QuadratureSpec, SingularPoint, integrate_disk, integrate_exterior_disk, integrate_rect
from .theta import jacobi_sn_cn_dn
from .torus import GreenEvaluator, dz_Q_D

__all__ = [
    "VerificationReport",
    "PsiEvaluator",
    "psi_field",
    "psi_at_diagonal",
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

#: relative accuracy to which the float spacing next to zeta must resolve the
#: offsets of the core ring zeta + eps e^{i theta} of its polar patch
_RING_OFFSET_ACCURACY = 1e-4


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
        return {
            "inequality": self.inequality,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "error_estimate": self.error_estimate,
            "status": self.status,
            "inputs": self.inputs,
        }


def _report(inequality, lhs, rhs, err, floor, inputs) -> VerificationReport:
    ratio = lhs / rhs
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


def _seg_point_dist(a: np.ndarray, b: np.ndarray, p: complex) -> np.ndarray:
    """Distance from point p to the segments [a_i, b_i]."""
    ab = b - a
    denom = np.abs(ab) ** 2
    t = np.where(denom > 0.0, ((p - a) * np.conj(ab)).real / np.where(denom > 0, denom, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    return np.abs(a + t * ab - p)


def _laurent_b1(psi: UnivalentMap) -> complex | None:
    """b1 when ``coefficients`` say psi = z + b0 + b1/z, else None."""
    coeffs = psi.coefficients
    if coeffs is None or len(coeffs) not in (1, 2):
        return None
    return complex(coeffs[1]) if len(coeffs) == 2 else 0j


def _quotient_in_w(phi: UnivalentMap) -> Callable | None:
    """w -> Q(eta_inv(w)) for a map made by ``phi_from_psi``, else None.

    Q(z) = (psi(z) - psi(zeta))/(z - zeta) = 1 - b1/(z zeta) for
    psi = z + b0 + b1/z; b1/(z zeta) is formed in w directly,
    b1 |zeta| (w + x0)/(zeta^2 (1 + x0 w)), which stays finite at w = -x0
    (Q = 1 there) where ``eta_inv`` has its pole.  For |z|, |zeta| > 1 and
    |b1| <= 1, Re Q > 0, so a principal root of Q is continuous.
    """
    if phi.source is None:
        return None
    bridge, psi = phi.source
    b1 = _laurent_b1(psi)
    if b1 is None:
        return None
    x0, zeta = bridge.x0, bridge.zeta
    c = b1 * abs(zeta) / zeta**2
    return lambda w: 1.0 - c * (w + x0) / (1.0 + x0 * w)


class _MarchedSqrt:
    """Block-continued square root of an analytic argument function.

    ``dangers`` lists (center, radius, order) disks around the argument's
    zeros/poles (order = local power of the argument, e.g. +2 for a double
    zero).  Inside a danger disk the sign is matched against the local
    model g ~ g_ref * ((z-c)/(z_ref-c))**(order/2), which is single-valued
    for even order.

    Outside the danger disks, ``block`` continues the root between nodes of
    the block, as the parent chain of :class:`BranchTracker` does.  The
    first node is marched along the caller's route.  Then, round after
    round, every unresolved node takes its sign from its nearest resolved
    node, provided the argument ratio of the two lies in the right
    half-plane and the segment between them stays clear of every danger
    disk.  A round that resolves nothing marches the first unresolved node
    in full and the rounds go on from there.  Deterministic: everything
    depends on node positions only.

    Invariant: a call must not straddle a line of the driver's seed grid.
    The driver keeps it: a seed's call, ``(5, order, order)``, spans that
    seed cell, and the one ``(16, order, order)`` call per refinement spans
    the refined cell, which lies inside one seed cell.  The first round
    continues every node from the one marched node, over hops as long as
    the call is wide, and the half-plane test cannot vouch for a hop that
    long; a danger disk's reference node (its farthest member) also moves
    with the call's extent.  The torus real axis is a sheet boundary of the
    cross-check's route, so a call spanning it signs nodes on the wrong
    sheet.
    """

    def __init__(self, arg_func: Callable, base_value: complex, route_fn: Callable, dangers: tuple = ()):
        self._func = arg_func
        self._base = complex(base_value)
        self._route = route_fn
        self._dangers = tuple((complex(c), float(r), int(m)) for c, r, m in dangers)
        for _, _, m in self._dangers:
            if m % 2:
                raise ValueError("danger disks must have even local order")

    def at(self, z: complex) -> complex:
        return marched_sqrt_path(self._func, self._route(z), self._base)

    def _danger_index(self, flat: np.ndarray) -> np.ndarray:
        idx = np.full(flat.shape, -1, dtype=np.int64)
        for k, (c, r, _) in enumerate(self._dangers):
            idx[(idx < 0) & (np.abs(flat - c) < r)] = k
        return idx

    def _segments_clear(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ok = np.ones(b.shape, dtype=bool)
        for c, r, _ in self._dangers:
            ok &= _seg_point_dist(a, b, c) >= 0.9 * r
        return ok

    @staticmethod
    def _match(g: np.ndarray, ref) -> np.ndarray:
        flip = (g * np.conj(ref)).real < 0.0
        return np.where(flip, -g, g)

    def signed_like(self, zs: np.ndarray, vals: np.ndarray, ref) -> np.ndarray:
        """+-sqrt(vals) at ``zs`` with the sign of the closed form ``ref``.

        ``vals`` must be the argument function at ``zs``.  Without a closed
        form (``ref`` None), or when ref^2 misses vals by more than 1e-6
        relative at any node, the call is continued by :meth:`block`.
        """
        if ref is not None and np.all(np.abs(ref * ref - vals) <= 1e-6 * np.abs(vals)):
            return self._match(np.sqrt(vals), ref)
        return self.block(zs)

    def block(self, zs: np.ndarray) -> np.ndarray:
        flat = np.asarray(zs, dtype=np.complex128).reshape(-1)
        vals = np.asarray(self._func(flat), dtype=np.complex128)
        g = np.empty_like(vals)
        danger_of = self._danger_index(flat)

        todo = np.flatnonzero(danger_of < 0)
        done = todo[:0]
        while todo.size:
            ok = np.zeros(todo.shape, dtype=bool)
            if done.size:
                step = max(1, 2**20 // done.size)  # rows per chunk: bounds the distance matrix
                near = [np.argmin(np.abs(flat[todo[s : s + step], None] - flat[done]), axis=1) for s in range(0, todo.size, step)]
                ref = done[np.concatenate(near)]
                ratio = vals[todo] / vals[ref]
                ok = (ratio.real > 1e-3 * np.abs(ratio)) & self._segments_clear(flat[ref], flat[todo])
                g[todo[ok]] = self._match(np.sqrt(vals[todo[ok]]), g[ref[ok]])
            if not ok.any():  # no resolved node reaches any: march the first one
                g[todo[0]] = self._match(np.sqrt(vals[todo[0]]), self.at(complex(flat[todo[0]])))
                ok[0] = True
            done, todo = np.append(done, todo[ok]), todo[~ok]

        for k, (c, _, order) in enumerate(self._dangers):
            members = np.flatnonzero(danger_of == k)
            if not members.size:
                continue
            sub = members[np.argmax(np.abs(flat[members] - c))]
            g_sub = self.at(complex(flat[sub]))
            local = ((flat[members] - c) / (flat[sub] - c)) ** (order // 2)
            g[members] = self._match(np.sqrt(vals[members]), g_sub * local)
        return g.reshape(np.shape(zs))


class PsiEvaluator:
    """The three-term field Psi(z, zeta) for one exterior-disk map.

    The root sqrt(A) of the first term is continued from the base value at
    z = zeta.  For maps whose ``coefficients`` are ``(b0,)`` or
    ``(b0, b1)``, i.e. psi(z) = z + b0 + b1/z (identity, the joukowski
    family, ``b1:<c>``), A(z) = (1 - b1/zeta^2)/(1 - b1/(z zeta)).  With
    |z|, |zeta| > 1 and |b1| <= 1 both factors have positive real part, so
    base * sqrt(1 - b1/zeta^2)/sqrt(1 - b1/(z zeta)) with principal roots
    is continuous on the exterior disk and is the continued root.  Only its
    sign is used: the value stays +-sqrt(A) with A computed from ``value``.
    A call any of whose nodes has |ref^2 - A| > 1e-6 |A| (coefficients that
    do not describe ``value``, e.g. only the leading terms of a longer
    expansion) is continued by :class:`_MarchedSqrt` instead, as are all
    other Sigma maps.

    ``flip_sqrt_base`` starts the square-root continuation from -1 instead
    of +1; that flips the first term only and is detectable through the
    diagonal formula (used by the branch-convention tests).
    """

    def __init__(self, psi: UnivalentMap, zeta: complex, params: EllipticParams | None = None, flip_sqrt_base: bool = False):
        if psi.map_class != "Sigma":
            raise DomainError("PsiEvaluator needs an exterior-disk (Sigma) map")
        zeta = complex(zeta)
        if not abs(zeta) > 1.0:
            raise DomainError("the base point must satisfy |zeta| > 1")
        self.psi = psi
        self.zeta = zeta
        self.params = params or params_from_x0(x0_from_zeta_abs(abs(zeta)))
        self.ep_over_kp = self.params.E_prime / self.params.K_prime
        # sqrt(1 - |zeta|^-2) = complementary modulus kappa'
        self.d = math.sqrt(1.0 - 1.0 / abs(zeta) ** 2)
        self.psi_zeta = complex(psi.value(np.complex128(zeta)))
        self.dpsi_zeta = complex(psi.deriv(np.complex128(zeta)))
        self.ddpsi_zeta = complex(psi.deriv2(np.complex128(zeta)))
        self._diag_radius = 1e-7 * (1.0 + abs(zeta))
        base = -1.0 if flip_sqrt_base else 1.0
        self._sqrt_a = _MarchedSqrt(self._ratio_a, base, self._route)
        self._b1 = _laurent_b1(psi)
        if self._b1 is not None:
            self._ref_top = base * np.sqrt(1.0 - self._b1 / zeta**2)

    # -- square-root factor ------------------------------------------------

    def _sqrt_of_a(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        """sqrt(A) at the off-diagonal nodes ``z``, where A(z) = ``a``."""
        ref = None
        if self._b1 is not None:
            ref = self._ref_top / np.sqrt(1.0 - self._b1 / (z * self.zeta))
        return self._sqrt_a.signed_like(z, a, ref)

    def _ratio_a(self, z):
        """A(z) = psi'(zeta)(z - zeta)/(psi(z) - psi(zeta)); A(zeta) = 1."""
        z = np.asarray(z, dtype=np.complex128)
        u = z - self.zeta
        out = np.empty_like(z)
        near = np.abs(u) < self._diag_radius
        far = ~near
        if far.any():
            out[far] = self.dpsi_zeta * u[far] / (self.psi.value(z[far]) - self.psi_zeta)
        if near.any():
            out[near] = 1.0 - 0.5 * (self.ddpsi_zeta / self.dpsi_zeta) * u[near]
        return out

    def _route(self, z: complex):
        """Radial leg, short arc chords, radial leg from zeta to z, inside |z| > 1.

        The arc runs at radius max(|z|, 1.01): a chord of at most 0.2 rad
        dips to 0.995 of its radius, which would cross the unit circle.
        """
        ra = max(abs(z), 1.01)
        t0, t1 = np.angle(self.zeta), np.angle(z)
        dt = (t1 - t0 + math.pi) % (2.0 * math.pi) - math.pi
        pts = [self.zeta, ra * np.exp(1j * t0)]
        n_arc = max(2, int(math.ceil(abs(dt) / 0.2)))
        for k in range(1, n_arc + 1):
            pts.append(ra * np.exp(1j * (t0 + dt * k / n_arc)))
        pts.append(z)
        return pts

    # -- field values --------------------------------------------------------

    def field(self, z):
        """Psi(z, zeta); near-diagonal arguments return the exact limit."""
        zs = np.asarray(z, dtype=np.complex128)
        flat = zs.reshape(-1)
        u = flat - self.zeta
        near = np.abs(u) < self._diag_radius
        if near.any():
            out = np.full_like(flat, self.at_diagonal())
            far = ~near
            if far.any():
                out[far] = self._off_diagonal(flat[far], u[far])
        else:
            out = self._off_diagonal(flat, u)
        return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)

    def _off_diagonal(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Psi at nodes ``z`` outside the diagonal disk, where u = z - zeta."""
        val = self.psi.value(z)
        dv = val - self.psi_zeta
        sq_a = self._sqrt_of_a(z, self.dpsi_zeta * u / dv)
        s = np.sqrt(1.0 - 1.0 / (np.conj(self.zeta) * z))
        term1 = sq_a * self.psi.deriv(z) / dv
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


def psi_field(ev: PsiEvaluator, z):
    return ev.field(z)


def psi_at_diagonal(ev: PsiEvaluator) -> complex:
    return ev.at_diagonal()


# ---------------------------------------------------------------------------
# area-type verifications


def verify_area_sigma(psi: UnivalentMap, zeta: complex, spec: QuadratureSpec | None = None) -> VerificationReport:
    """Exterior-disk area bound; equality status iff psi is a full mapping.

    Raises ``DomainError`` from |zeta| = 2^23 (about 8.4e6) on: there the
    float spacing next to zeta exceeds 1e-4 of the offset eps = 1e-5 of the
    core ring of its polar patch (radius 1), and from |zeta| ~ 3e11 the ring
    rounds onto zeta itself.
    """
    spec = spec or AREA_SPEC
    zeta = complex(zeta)
    point = SingularPoint(zeta, -1.0)
    # the patch radius is at most 1, so no core ring sits farther out than core_fraction
    if math.ulp(abs(zeta)) > _RING_OFFSET_ACCURACY * point.core_fraction:
        raise DomainError(f"|zeta| = {abs(zeta):.3g} is too large: floats next to zeta do not resolve the core ring of its patch")
    ev = PsiEvaluator(psi, zeta)

    def f(z):
        return np.abs(ev.field(z)) ** 2 / np.abs(z - zeta)

    res = integrate_exterior_disk(f, spec.with_points(point))
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

    The root sqrt(V) is continued from sqrt(2 x0) at w = x0.  For a map
    that ``phi_from_psi`` made from psi = z + b0 + b1/z (identity, the
    joukowski family, ``b1:<c>``), psi(z) - psi(zeta) = (z - zeta) Q(z)
    with z - zeta proportional to (w - x0)/(w + x0), so
    sqrt(V(w)) = C (w + x0)/sqrt(Q(eta_inv(w))) with a principal root,
    C = sqrt(2 x0) sqrt(Q(zeta))/(2 x0).  Only its sign is used, by the
    rule of :meth:`_MarchedSqrt.signed_like`; every other map, and a call
    the closed form misses, is continued by the march.
    """

    def __init__(self, phi: UnivalentMap, x0: float, params: EllipticParams):
        self.phi = phi
        self.x0 = x0
        ep_over_kp = params.E_prime / params.K_prime
        self.c2 = (1.0 + x0**2) * math.sqrt(2.0 * x0) / math.sqrt(1.0 - x0**4)
        self.c3 = ep_over_kp * (1.0 + x0**2) ** 2 / math.sqrt(2.0 * x0 * (1.0 - x0**4))
        self._near = 1e-9
        self._lift = min(0.4, 0.7 * (1.0 - x0))
        self._clear = min(0.4 * x0, self._lift / 1.6)
        self._sqrt_v = _MarchedSqrt(
            self._ratio_v,
            math.sqrt(2.0 * x0),
            self._route,
            dangers=((complex(-x0), self._clear, 2),),
        )
        self._q = _quotient_in_w(phi)
        if self._q is not None:
            self._ref_c = math.sqrt(2.0 * x0) * np.sqrt(self._q(x0)) / (2.0 * x0)

    def _ratio_v(self, w):
        """V(w) = (w^2 - x0^2)/phi(w); V(x0) = 2 x0, double zero at -x0."""
        w = np.asarray(w, dtype=np.complex128)
        out = np.empty_like(w)
        near = np.abs(w - self.x0) < self._near
        far = ~near
        if far.any():
            out[far] = (w[far] ** 2 - self.x0**2) / self.phi.value(w[far])
        if near.any():
            out[near] = 2.0 * self.x0
        return out

    def _route(self, w: complex):
        """From x0 to w without crossing the real axis near the zero at -x0.

        Paths travel in the closed half-plane of the target; targets close
        to -x0 are reached along a circle of 1.5x the danger radius and
        then radially, so the argument of V never sweeps more than the
        densification of :func:`marched_sqrt_path` can follow.
        """
        w = complex(w)
        x0, c = self.x0, complex(-self.x0)
        d = w - c
        rd = abs(d)
        ring = 1.5 * self._clear
        sgn = 1.0 if w.imag >= 0 else -1.0
        lift = 1j * sgn * self._lift
        if rd >= ring and float(_seg_point_dist(np.array([x0 + 0j]), np.array([w]), c)[0]) >= ring:
            return [complex(x0), w]
        pts = [complex(x0), x0 + lift]
        if rd >= ring:
            if abs(w.imag) < self._lift:
                pts.append(complex(w.real, sgn * self._lift))
            pts.append(w)
            return pts
        start = sgn * math.pi / 2.0
        target = math.atan2(d.imag, d.real)
        swing = (target - start + math.pi) % (2.0 * math.pi) - math.pi
        steps = max(1, int(math.ceil(abs(swing) / 0.4)))
        pts += [c + lift, c + 1j * sgn * ring]
        for k in range(1, steps + 1):
            pts.append(c + ring * np.exp(1j * (start + swing * k / steps)))
        pts.append(w)
        return pts

    def _sqrt_of_v(self, w: np.ndarray) -> np.ndarray:
        ref = None
        if self._q is not None:
            ref = self._ref_c * (w + self.x0) / np.sqrt(self._q(w))
        return self._sqrt_v.signed_like(w, self._ratio_v(w), ref)

    def integrand(self, w):
        w = np.asarray(w, dtype=np.complex128)
        sqv = self._sqrt_of_v(w)
        t1 = self.phi.deriv(w) / self.phi.value(w) * sqv
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
    points = (SingularPoint(complex(x0), -1.0), SingularPoint(complex(-x0), -1.0))
    res = integrate_disk(fieldd.integrand, spec.with_points(*points))
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
    """
    z = complex(z)
    a = abs(z)
    if not a > 1.0:
        raise DomainError("goluzin_bound needs |z| > 1")
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


def gronwall_check(psi: UnivalentMap, spec: QuadratureSpec | None = None, n_max: int = 64) -> VerificationReport:
    """Area theorem: (1/pi) integral of |psi' - 1|^2 equals sum n |b_n|^2 <= 1."""
    spec = spec or QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)

    def f(z):
        return np.abs(psi.deriv(z) - 1.0) ** 2 / math.pi

    res = integrate_exterior_disk(f, spec)
    coeff = gronwall_sum(psi, n_max)
    inputs = {
        "map": psi.name,
        "coefficient_sum": coeff,
        "route_residual": abs(res.value - coeff),
        "n_evals": res.n_evals,
    }
    return _report("gronwall", res.value, 1.0, max(res.error, abs(res.value - coeff)), 1e-6, inputs)


# ---------------------------------------------------------------------------
# rectangle-coordinate cross-check (slow)


def torus_area_crosscheck(psi: UnivalentMap, zeta: complex, spec: QuadratureSpec | None = None) -> VerificationReport:
    """Area bound evaluated directly in rectangle coordinates.

    Integrates |d/dz [ (phi o sigma)^(-1/2) ] - (1/b) dz_Q_D|^2 over one
    fundamental band (shifted so both covering branch points are interior)
    against pi M^2 E' / (|b|^2 K').  The square root of phi(sigma(z)) is
    continued from a real anchor near 0 whose sign is pinned by requiring
    the 1/z^2 poles of the two terms to cancel.

    For psi = z + b0 + b1/z, sigma^2 - x0^2 = -x0^2 cn^2(z + L) gives
    sqrt(phi(sigma(z))) = K cn(z + L) sqrt(Q(eta_inv(sigma)))/(sigma + x0),
    with K fixed at the anchor and a principal root of Q (see
    :func:`_quotient_in_w`).  Only its sign is used, by the rule of
    :meth:`_MarchedSqrt.signed_like`; every other map, and a call the closed
    form misses, is continued by the march.  One sn-cn-dn call per integrand
    call gives sigma, sigma' and cn.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-3, abs_tol=1e-8)
    zeta = complex(zeta)
    bridge = BridgeMaps.from_zeta(zeta)
    p = bridge.params
    ev = GreenEvaluator.from_params(p)
    phi = phi_from_psi(bridge, psi)
    L, Lp = p.L, p.L_prime
    b = ev.b_const

    def f_arg(z):
        return np.asarray(phi.value(sigma(bridge, np.asarray(z, dtype=np.complex128))), dtype=np.complex128)

    corridor = 0.25 * Lp
    clear = min(0.125 * Lp, 0.2 * L)
    centers = (0.0, 2.0 * L, -2.0 * L)

    # stays on the target's side of the real axis; no cubature call straddles it
    def route(t: complex):
        anchor = 0.05 * L
        sgn = 1.0 if t.imag >= 0 else -1.0
        pts = [anchor, anchor + 1j * sgn * corridor, complex(t.real, sgn * corridor)]
        for c in centers:
            d = t - c
            if abs(d) < clear:
                entry = c + clear * (d / abs(d) if d != 0 else 1.0)
                pts.append(entry)
                break
        pts.append(t)
        return pts

    def on_sphere(z):
        """sigma, sigma' and cn(z + L), with the float operations of ``sigma`` and ``sigma_prime``."""
        sn, cn, dn = jacobi_sn_cn_dn(bridge.ctx_l, z + L)
        return p.x0 * sn, p.x0 * cn * dn, cn

    anchor = 0.05 * L
    sig_a, dsig_a, cn_a = on_sphere(np.array([anchor], dtype=np.complex128))
    f_anchor = complex(phi.value(sig_a)[0])
    q_anchor = dz_Q_D(ev, anchor)
    dphi_anchor = complex((phi.deriv(sig_a) * dsig_a)[0])
    best = None
    for sign in (1.0, -1.0):
        g = sign * complex(np.sqrt(f_anchor))
        cand = abs(-dphi_anchor / (2.0 * g**3) - q_anchor / b)
        if best is None or cand < best[0]:
            best = (cand, sign)
    base_value = best[1] * complex(np.sqrt(f_anchor))
    dangers = (
        (0.0 + 0.0j, clear, 2),
        (complex(2.0 * L), clear, -2),
        (complex(-2.0 * L), clear, -2),
    )
    sqrt_f = _MarchedSqrt(f_arg, base_value, route, dangers=dangers)
    q = _quotient_in_w(phi)
    if q is not None:
        k_ref = base_value * (sig_a[0] + p.x0) / (cn_a[0] * np.sqrt(q(sig_a[0])))

    def integrand(z):
        z = np.asarray(z, dtype=np.complex128)
        sig, dsig, cn = on_sphere(z)
        ref = None if q is None else k_ref * cn * np.sqrt(q(sig)) / (sig + p.x0)
        g = sqrt_f.signed_like(z, phi.value(sig), ref)
        dphi = phi.deriv(sig) * dsig
        val = -dphi / (2.0 * g**3) - dz_Q_D(ev, z) / b
        return np.abs(val) ** 2

    # phi(sigma(z)) ~ z^2 loses relative accuracy below |z| ~ 1e-4 through
    # cancellation in psi(eta_inv) - psi(zeta); keep the excluded core above
    # that scale (its mass is recovered from the ring estimate).
    points = (SingularPoint(0.0 + 0.0j, -1.0, core_fraction=5e-4),)
    rect = (-L, 3.0 * L, -0.5 * Lp, 0.5 * Lp)
    res = integrate_rect(integrand, rect, spec.with_points(*points))
    rhs = math.pi * p.M**2 * p.E_prime / (abs(b) ** 2 * p.K_prime)
    inputs = {
        "map": psi.name,
        "zeta": _cfmt(zeta),
        "x0": p.x0,
        "rel_tol": spec.rel_tol,
        "full_mapping": psi.full_mapping,
        "n_evals": res.n_evals,
    }
    return _report("area-torus", res.value, rhs, res.error, 2e-2, inputs)
