"""Sharp-bound verification for univalent maps.

Implemented checks:

* ``verify_area_sigma`` - the exterior-disk area bound: the weighted area
  integral of |Psi(z, zeta)|^2 / |z - zeta| is at most
  2 pi (E'/K') |zeta|/(|zeta|^2 - 1), with equality exactly for full
  mappings.
* ``verify_area_disk`` - the same bound for a ``phi_from_psi`` map,
  integrated over the unit disk: the exterior-disk integrand pulled back by
  eta_inv, with the disk's own cubature and right-hand side.
* ``pointwise_from_area`` - the diagonal consequence
  |Psi(zeta, zeta)| <= (E'/K') |zeta|/(|zeta|^2 - 1).
* ``goluzin_bound`` - the pointwise estimate on psi''/psi' over the
  exterior disk in its E/K form, cross-checked through the Legendre
  relation against its E'/K' form, 4 zeta Psi(zeta, zeta).
* ``koebe_bieberbach_bound`` - the classical unit-disk estimate on
  phi''/phi'.
* ``gronwall_check`` - the area theorem, computed both as the area
  integral of |psi' - 1|^2 / pi and as the coefficient sum.
* ``torus_area_crosscheck`` - the same area bound evaluated directly in
  rectangle coordinates through the Green-function machinery (slow; one
  parameter is enough to pin the 3/2-power branch conventions).

Psi has one formula, :meth:`PsiEvaluator.field`; the sigma and disk forms
both read it.  All three area checks take their square roots from one
root R per base point, ``PsiEvaluator._root``.  Univalence makes
Q(z) = (psi(z) - psi(zeta))/(z - zeta) zero-free on |z| > 1 with
Q(inf) = 1, so R = sqrt(Q) with R(inf) = 1 is single-valued there.  Q is
read from the map's ``quotient``, never formed by subtracting two values,
so it keeps its digits next to the diagonal and next to a critical point
of psi.  The field's root is sqrt(A) = R(zeta)/R(z); the torus check's is
sqrt(phi(sigma)) = k cn R(z)/(sigma + x0) at z = eta_inv(sigma(u)), with
R from its own evaluator: no check evaluates the unit-disk map phi.
:meth:`_MarchedSqrt.at` signs R = +-sqrt(Q) from the Q the check computes
anyway.  For psi = z + b0 + b1/z, |b1| <= 1 (every catalog Sigma map), R
is the principal root of 1 - b1/(z zeta); every other map, and every node
at which that closed form misses the check's Q by more than 1e-6
relative, takes its sign from a march along the segment from u = 1/z = 0
to the node (:class:`_MarchedSqrt`), so a node's sign depends on its
position alone and not on the other nodes of its integrand call.

What does not involve psi belongs to the base point (:class:`BasePoint`):
the AGM parameters, E'/K', |zeta| and |zeta|^2 - 1, and at each node
z - zeta, |z - zeta|, 1/z and the two zeta-only terms of Psi.  The checks of several maps at one zeta
share it, and the sigma checks also share its exterior-disk plan with
those factors at every seed and ring node; ``sweep`` runs its grid one
base point at a time.  Each map adds Q, psi' and R.  A lone check builds
its own base point and runs the same code.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .catalog import UnivalentMap, gronwall_sum
from .elliptic import params_from_x0, x0_from_zeta_abs
from .errors import BranchAmbiguityError, DomainError, QuadratureError
from .maps import BridgeMaps
from .quadrature import ExteriorDiskPlan, QuadratureSpec, integrate_disk, integrate_exterior_disk, integrate_rect
from .theta import jacobi_sn_cn_dn
from .torus import GreenEvaluator, _dz_Q_D_landen

__all__ = [
    "VerificationReport",
    "BasePoint",
    "PsiEvaluator",
    "verify_area_sigma",
    "verify_area_disk",
    "goluzin_bound",
    "koebe_bieberbach_bound",
    "gronwall_check",
    "pointwise_from_area",
    "torus_area_crosscheck",
    "AREA_SPEC",
    "GRONWALL_SPEC",
]

EQ_FLOOR_POINTWISE = 1e-9
EQ_FLOOR_QUADRATURE = 5e-3

#: default quadrature settings for the area-type verifications; accurate
#: enough to separate the 0.5% equality band from genuine inequality.
AREA_SPEC = QuadratureSpec(rel_tol=2e-4, abs_tol=1e-10)
#: default quadrature settings for ``gronwall_check``'s area integral
GRONWALL_SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)

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


class _MarchedSqrt:
    """sqrt(f) continued from the value 1 at 0, where f(0) = 1, along the
    segment from 0 to each node.

    ``f`` must be analytic and zero-free on a convex set holding 0 and the
    nodes.  :meth:`block` marches node x along t x, t = k/n for k = 1..n,
    with n = 8 doubled (up to 2048) for that node alone until every ratio of
    consecutive values lies in the right half-plane; its sign is the parity
    of the flips along its ray.  So a node's root depends on its position
    only.  ``closed_arg``, when given, is a formula q for f whose principal
    root is this root where Re q > 0.
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
        value.  Usually every node passes, and two reductions show it
        without a modulus: with qmin = min Re q, |vals| >= qmin - |q - vals|,
        so every node passes once each part of q - vals is at most
        1e-6 qmin/(sqrt(2) (1 + 1e-6)); the bound 0.25e-6 qmin leaves room
        for rounding, and the node-by-node test decides when it fails.
        """
        x = np.asarray(x, dtype=np.complex128)
        vals = self._f(x) if vals is None else vals
        g = np.sqrt(vals)
        if self._q is None:
            miss = np.ones(g.shape, dtype=bool)
        else:
            q = self._q(x)
            qmin = float(q.real.min()) if q.size else 0.0
            if 1e-300 < qmin < 1e300 and float(np.abs(np.ravel(q - vals).view(np.float64)).max()) <= 0.25e-6 * qmin:
                return g
            miss = ~((np.abs(q - vals) <= 1e-6 * np.abs(vals)) & (q.real > 0.0))
        if miss.any():
            gm = g[miss]
            g[miss] = np.where((gm * np.conj(self.block(x[miss]))).real < 0.0, -gm, gm)
        return g


class _Nodes(np.ndarray):
    """Complex nodes with the factors of Psi at them that do not involve psi
    (:func:`_psi_nodes`), and ``consts``, the base point's constants they
    were formed from (None on arrays derived from them)."""

    consts = None


def _psi_nodes(consts, z) -> _Nodes:
    """z with the factors of Psi(z, zeta) that do not involve psi, formed
    from ``consts`` = (zeta, 1/conj(zeta), 1/d, (E'/K')/d).

    At the nodes other than zeta (``off``; ``on`` marks the others, None
    when no node is zeta): u = z - zeta, 1/z, sqrt(1 - 1/(z conj(zeta)))/d
    and (E'/K') (1/z)/(d sqrt(...)); at every node |z - zeta| (``dist``, in
    the shape of z).
    """
    zeta, inv_conj_zeta, inv_d, c3 = consts
    zs = np.asarray(z, dtype=np.complex128)
    nodes = zs.view(_Nodes)
    flat = zs.reshape(-1)
    u = flat - zeta
    nodes.dist = np.abs(u).reshape(zs.shape)
    on = u == 0.0
    nodes.on = on if on.any() else None
    if nodes.on is not None:
        flat, u = flat[~on], u[~on]
    iz = 1.0 / flat
    s = np.sqrt(1.0 - inv_conj_zeta * iz)
    nodes.off, nodes.u, nodes.iz = flat, u, iz
    nodes.s_term, nodes.c3_term = s * inv_d, c3 * iz / s
    nodes.consts = consts
    return nodes


class BasePoint:
    """A base point zeta and what every check there shares, whatever the map.

    That is the AGM parameter pack of x0(|zeta|) (``params``, computed
    unless given), E'/K', |zeta| (``abs_zeta``) and |zeta|^2 - 1
    (``abs2_m1``), which every check there reads from here, formed once,
    d = sqrt(1 - |zeta|^-2), Psi's zeta-only factors
    at any nodes (:meth:`nodes`), and for the sigma area check its
    exterior-disk plan with those factors at every node of its seed pass
    (:meth:`exterior_plan`).  A check or a :class:`PsiEvaluator` given a
    base point where it takes zeta reads all of it from there, so
    the checks of several maps at one zeta build it once.  Nothing else
    holds it: it is gone with the base point.  Raises ``DomainError``
    unless 1 < |zeta| < 2^340.
    """

    def __init__(self, zeta: complex, params=None):
        zeta = complex(zeta)
        a = abs(zeta)
        if not 1.0 < a < _MAX_ABS_Z:
            raise DomainError("the base point must satisfy 1 < |zeta| < 2^340")
        self.zeta, self.abs_zeta, self.abs2_m1 = zeta, a, a * a - 1.0
        self.params = params_from_x0(x0_from_zeta_abs(a)) if params is None else params
        self.ep_over_kp = self.params.E_prime / self.params.K_prime
        # sqrt(1 - |zeta|^-2) = complementary modulus kappa'
        self.d = math.sqrt(1.0 - 1.0 / (a * a))
        self._consts = (zeta, 1.0 / zeta.conjugate(), 1.0 / self.d, self.ep_over_kp / self.d)
        self._plans: dict[QuadratureSpec, ExteriorDiskPlan] = {}

    def __complex__(self) -> complex:
        return self.zeta

    def nodes(self, z) -> _Nodes:
        """z with Psi's zeta-only factors at it (:func:`_psi_nodes`)."""
        return _psi_nodes(self._consts, z)

    def exterior_plan(self, spec: QuadratureSpec) -> ExteriorDiskPlan:
        """The sigma check's exterior-disk plan for the budget of ``spec``,
        with zeta tagged and :meth:`nodes` at every node it places; built on
        the first call for each spec.  The plan forms the nodes from the
        constants alone, so it holds no reference back to the base point,
        and the two are freed together without a collector pass."""
        plan = self._plans.get(spec)
        if plan is None:
            plan = self._plans[spec] = ExteriorDiskPlan(spec.with_points(self.zeta), partial(_psi_nodes, self._consts))
        return plan


class PsiEvaluator:
    """The three-term field Psi(z, zeta) for one exterior-disk map.

    The first term carries sqrt(A), A(z) = psi'(zeta)/Q(z), continued from
    the value +1 at z = zeta: it is R(zeta)/R(z) with the root R of
    :attr:`_root`, signed by :meth:`_MarchedSqrt.at` from
    Q = ``psi.quotient(z, zeta)``; the first ``field`` call builds R and
    R(zeta).  With psi(z) - psi(zeta) = (z - zeta) Q no term subtracts two
    values of psi.  ``zeta`` may be a :class:`BasePoint`, whose parameters
    and zeta-only factors the evaluator then reads.  Raises ``DomainError``
    unless 1 < |zeta| < 2^340, or where psi'(zeta) = 0.
    """

    def __init__(self, psi: UnivalentMap, zeta: complex | BasePoint):
        if psi.map_class != "Sigma":
            raise DomainError("PsiEvaluator needs an exterior-disk (Sigma) map")
        base = zeta if isinstance(zeta, BasePoint) else BasePoint(zeta)
        self.psi = psi
        self.base = base
        self.zeta = zeta = base.zeta
        self.params = base.params
        self.ep_over_kp = base.ep_over_kp
        self.d = base.d
        self.dpsi_zeta = complex(psi.deriv(np.complex128(zeta)))
        if self.dpsi_zeta == 0.0:
            raise DomainError(f"psi'({_cfmt(zeta)}) = 0: psi is not univalent there")
        self.ddpsi_zeta = complex(psi.deriv2(np.complex128(zeta)))

    @cached_property
    def _root(self) -> _MarchedSqrt:
        """R = sqrt(Q) as a function of u = 1/z, with R = 1 at u = 0 (z = inf).

        Q(z) = ``psi.quotient(z, zeta)``, psi'(zeta) at z = zeta.  The march
        runs along the ray z/t, t from 0 to 1, which is the segment [0, u].
        Where ``coefficients`` say psi = z + b0 + b1/z, Q = 1 - (b1/zeta) u
        has positive real part for |u| < 1 < |zeta| and |b1| <= 1, and R is
        its principal root.
        """
        psi, zeta = self.psi, self.zeta
        coeffs = psi.coefficients or ()
        b1 = complex(coeffs[1]) if len(coeffs) == 2 else 0j
        closed_arg = (lambda u: 1.0 - (b1 / zeta) * u) if len(coeffs) in (1, 2) else None
        return _MarchedSqrt(lambda u: psi.quotient(1.0 / u, zeta), closed_arg)

    @cached_property
    def _top(self) -> complex:  # R(zeta)
        return complex(self._root.at([1.0 / self.zeta])[0])

    def field(self, z):
        """Psi(z, zeta); z = zeta returns the closed form ``at_diagonal``.

        Nodes the base point made (:meth:`BasePoint.nodes`) bring their
        zeta-only factors; any other z gets them from the same code here.
        Only Q, psi' and R are formed per map.
        """
        nodes = z if getattr(z, "consts", None) == self.base._consts else self.base.nodes(z)
        q = self.psi.quotient(nodes.off, self.zeta)
        t1 = self._top * self.psi.deriv(nodes.off) / (q * self._root.at(nodes.iz, q))
        out = (t1 - nodes.s_term) / nodes.u + nodes.c3_term
        if nodes.on is not None:
            full = np.full(nodes.on.shape, self.at_diagonal(), dtype=np.complex128)
            full[~nodes.on] = out
            out = full
        return complex(out[0]) if nodes.ndim == 0 else out.reshape(nodes.shape)

    def at_diagonal(self) -> complex:
        """Closed form of Psi(zeta, zeta)."""
        zeta, a, m1 = self.zeta, self.base.abs_zeta, self.base.abs2_m1
        return (
            self.ddpsi_zeta / (4.0 * self.dpsi_zeta)
            - 1.0 / (2.0 * zeta)
            - (2.0 - a * a) / (2.0 * m1 * zeta)
            + self.ep_over_kp * (a * a) / (m1 * zeta)
        )


# ---------------------------------------------------------------------------
# area-type verifications


def verify_area_sigma(psi: UnivalentMap, zeta: complex | BasePoint, spec: QuadratureSpec | None = None) -> VerificationReport:
    """Exterior-disk area bound; equality status iff psi is a full mapping.

    ``zeta`` may be a :class:`BasePoint`: the checks of several maps there
    then share its parameters, and its plan with the zeta-only factors of
    Psi at every seed and ring node; only refinement calls form them afresh.

    Raises ``DomainError`` from |zeta| = 2^23 (about 8.4e6) on.  The bound
    was set while the polar patch around zeta had radius 1: from there the
    float spacing next to zeta exceeded 1e-4 of its core ring's offset
    1e-5.  The patch now reaches |zeta|/4, so the ring is resolved farther
    out, but the bound stays until that domain is checked.
    """
    spec = spec or AREA_SPEC
    point, zeta = zeta, complex(zeta)  # point: zeta as given, maybe a BasePoint
    # the documented domain, set by a radius-1 patch's core ring (see the
    # docstring); ahead of PsiEvaluator, which allows 2^340
    if not abs(zeta) < 2.0**23:
        raise DomainError(f"|zeta| = {abs(zeta):.3g} is too large: the checked domain |zeta| < 2^23 was set by the core ring of a radius-1 patch")
    ev = PsiEvaluator(psi, point)

    def f(nodes):
        # the plan hands f the base point's nodes, |z - zeta| among them
        return np.abs(ev.field(nodes)) ** 2 / nodes.dist

    res = integrate_exterior_disk(f, plan=ev.base.exterior_plan(spec))
    rhs = 2.0 * math.pi * ev.ep_over_kp * ev.base.abs_zeta / ev.base.abs2_m1
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
    """The unit-disk form of the area bound: the exterior-disk field pulled
    back by z = eta_inv(w) = unit (1 + x0 w)/(w + x0), unit = zeta/|zeta|.

    With dz/dw = unit (x0^2 - 1)/(w + x0)^2 and the two right-hand sides in
    the ratio (1 - x0^2)/(4 x0^2), the integrand is
    (1 - x0^2)^3/(4 x0^2) |Psi(z, zeta)/(w + x0)^2|^2/|z - zeta|, with Psi
    from one :class:`PsiEvaluator` of the psi and zeta in the ``source`` of a
    ``phi_from_psi`` map.
    """

    def __init__(self, phi: UnivalentMap):
        bridge, psi = phi.source
        x0 = bridge.x0
        self.x0 = x0
        self.ev = PsiEvaluator(psi, BasePoint(bridge.zeta, bridge.params))
        self._unit = bridge.zeta / abs(bridge.zeta)
        self._c = (1.0 - x0**2) ** 3 / (4.0 * x0**2)

    def integrand(self, w):
        w = np.asarray(w, dtype=np.complex128)
        nodes = self.ev.base.nodes(self._unit * (1.0 + self.x0 * w) / (w + self.x0))
        return self._c * np.abs(self.ev.field(nodes) / (w + self.x0) ** 2) ** 2 / nodes.dist


def verify_area_disk(phi: UnivalentMap, x0: float, spec: QuadratureSpec | None = None) -> VerificationReport:
    """Unit-disk area bound for a ``phi_from_psi`` map: phi(x0)=0, phi(-x0)=inf, phi'(x0)=1.
    Raises ``DomainError`` unless ``x0`` is the x0 of phi's bridge within 1e-12."""
    spec = spec or AREA_SPEC
    if phi.source is None:
        raise DomainError("verify_area_disk needs a unit-disk map made by phi_from_psi")
    params = phi.source[0].params
    if not abs(x0 - params.x0) <= 1e-12:
        raise DomainError(f"x0 = {x0!r} is not the x0 = {params.x0!r} of phi's bridge")
    x0, fieldd = params.x0, _DiskField(phi)
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

    The reported lhs/rhs use the E/K form at modulus 1/|z|; the E'/K' form
    is the area field on the diagonal, 4 z Psi(z, z), and the Legendre
    relation ties the two together (residuals in ``inputs``).  Raises
    ``DomainError`` where ``PsiEvaluator`` does: unless psi is in Sigma and
    1 < |z| < 2^340, or where psi'(z) = 0.
    """
    ev = PsiEvaluator(psi, z)
    z, p, a, m1 = ev.zeta, ev.params, ev.base.abs_zeta, ev.base.abs2_m1
    w = ev.ddpsi_zeta / ev.dpsi_zeta
    # w + (4a^2-2)/(z(a^2-1)) - 4 conj(z) E/K/(a^2-1), regrouped around 1 - E/K
    inside_pt = w - 2.0 / (z * m1) + (4.0 * np.conj(z) / m1) * p.E_gap
    rhs_pt = (4.0 * a / m1) * p.E_gap
    big_b = a * a / m1
    inside_alt = 4.0 * z * ev.at_diagonal()
    rhs_alt = 4.0 * big_b * ev.ep_over_kp
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
    """|phi''/phi' - 2 conj(z)/(1-|z|^2)| <= 4/(1-|z|^2) on the unit disk.

    Raises ``DomainError`` unless |z| < 1, or where phi'(z) = 0.
    """
    z = complex(z)
    if phi.map_class != "S":
        raise DomainError("koebe_bieberbach_bound needs a class-S map")
    if not abs(z) < 1.0:
        raise DomainError("koebe_bieberbach_bound needs |z| < 1")
    dphi = complex(phi.deriv(np.complex128(z)))
    if dphi == 0.0:
        raise DomainError(f"phi'({_cfmt(z)}) = 0: phi is not univalent there")
    w = complex(phi.deriv2(np.complex128(z))) / dphi
    a = abs(z)
    one_m = (1.0 - a) * (1.0 + a)  # 1 - |z|^2, factored: exact to rounding next to |z| = 1
    lhs = abs(w - 2.0 * np.conj(z) / one_m)
    rhs = 4.0 / one_m
    inputs = {"map": phi.name, "z": _cfmt(z)}
    return _report("koebe-bieberbach", lhs, rhs, 1e-14 * rhs, EQ_FLOOR_POINTWISE, inputs)


def pointwise_from_area(ev: PsiEvaluator) -> VerificationReport:
    """|Psi(zeta, zeta)| <= (E'/K') |zeta|/(|zeta|^2 - 1)."""
    lhs = abs(ev.at_diagonal())
    rhs = ev.ep_over_kp * ev.base.abs_zeta / ev.base.abs2_m1
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
    spec = spec or GRONWALL_SPEC

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

    The unit-disk map phi = ``phi_from_psi(bridge, psi)`` is never built:
    the check reads psi at z' = eta_inv(sigma) = unit (1 + x0 sigma)/(sigma + x0),
    unit = zeta/|zeta|.  With sigma^2 - x0^2 = -x0^2 cn^2(z + L) and
    Q(z') = ``psi.quotient(z', zeta)``,
    phi(sigma) = -(2 x0/psi'(zeta)) x0^2 cn^2(z + L) Q(z')/(sigma + x0)^2 and
    phi'(sigma) = (2 x0)^2/psi'(zeta) psi'(z')/(sigma + x0)^2.  So the root
    is sqrt(phi(sigma(z))) = k cn(z + L) R(z')/(sigma + x0), with R the root
    of one :class:`PsiEvaluator` at the bridge's base point, signed from that
    Q at u = 1/z' = (sigma + x0)/(unit (1 + x0 sigma)), which is finite at
    sigma = -x0; k = +-x0 sqrt(-2 x0/psi'(zeta)).  The 1/z^2 poles of the two
    terms cancel for k = -i x0 sqrt(2 x0)/R(zeta), which fixes the sign; k
    keeps the value of the first form.  No value of phi or psi enters, so
    the root keeps its digits at the double zero z = 0.  One sn-cn-dn call at
    modulus x0^2 per integrand call gives sigma, sigma', cn(z + L) and,
    through Landen's transformation, dz_Q_D
    (:func:`~goluzin_lab.torus._dz_Q_D_landen`).

    The integrand is smooth at 0, where the poles cancel, so the band tags no
    point: 0 is a seed corner, 0.016 from the nearest node at zeta = 2.
    Raises ``DomainError`` for a map not in Sigma.
    """
    if psi.map_class != "Sigma":
        raise DomainError("torus_area_crosscheck needs an exterior-disk (Sigma) map")
    spec = spec or QuadratureSpec(rel_tol=1e-4, abs_tol=1e-8)
    zeta = complex(zeta)
    bridge = BridgeMaps.from_zeta(zeta)
    p, x0 = bridge.params, bridge.x0
    ev = PsiEvaluator(psi, BasePoint(zeta, p))
    unit = zeta / abs(zeta)
    L, Lp, b = p.L, p.L_prime, GreenEvaluator.from_params(p).b_const
    k = x0 * cmath.sqrt(-1.0 / (ev.dpsi_zeta / (2.0 * x0)))
    k = k if (1j * k * ev._top).real > 0.0 else -k  # _top = R(zeta)

    def integrand(z):
        z = np.asarray(z, dtype=np.complex128)
        # sigma and sigma' with the float operations of ``sigma`` and ``sigma_prime``
        sn, cn, dn = jacobi_sn_cn_dn(bridge.ctx_l, z + L)
        sig, dsig = x0 * sn, x0 * cn * dn
        zp = unit * (1.0 + x0 * sig) / (sig + x0)  # eta_inv(sigma)
        r = ev._root.at((sig + x0) / (unit * (1.0 + x0 * sig)), psi.quotient(zp, zeta))
        dphi = (2.0 * x0) ** 2 / ev.dpsi_zeta * psi.deriv(zp) / (sig + x0) ** 2
        g = k * cn * r / (sig + x0)
        val = -(dphi * dsig) / (2.0 * g**3) - _dz_Q_D_landen(p, sn, cn) / b
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
