"""Coordinate bridges between the torus rectangle, the slit sphere, the
exterior disk, and the unit disk, plus branch-tracked square roots.

``sigma`` wraps the rectangle onto the doubly slit sphere through sn at
modulus x0**2; ``tau`` inverts it on the principal sheet by integrating
``1/sqrt((1-t^2)(1-x0^4 t^2))`` from 0 to w/x0 along a path kept on the
requested side of the real axis, with square-root substitutions at the
branch points for real targets.  ``eta``/``eta_inv`` are the Moebius maps
between the exterior disk (base point zeta) and the unit disk (base point
x0), and ``phi_from_psi`` converts an exterior-disk map into the
unit-disk map pinned by phi(x0) = 0, phi(-x0) = inf, phi'(x0) = 1.

Square roots of analytic data are continued from a base value along an
explicit marching order (``sqrt_continued``); nothing here guesses a
branch from a formula alone.  The closed-form signs of the area checks
live with the checks in :mod:`goluzin_lab.inequalities`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticParams, params_from_x0, x0_from_zeta_abs
from .errors import BranchAmbiguityError, BranchCutError, PoleError, QuadratureError
from .quadrature import _gl_rule
from .catalog import UnivalentMap
from .theta import JacobiContext, jacobi_sn_cn_dn

__all__ = [
    "BridgeMaps",
    "BranchTracker",
    "sigma",
    "sigma_prime",
    "tau",
    "tau_prime",
    "eta",
    "eta_inv",
    "phi_from_psi",
    "sqrt_continued",
    "loop_sign_flip",
    "marched_sqrt_path",
]

_REAL_TOL = 1e-13
_BRANCH_POINT_TOL = 1e-12


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
    """x0 * sn(z + L; x0^2); sn poles are returned as complex infinity."""
    p = bridge.params
    try:
        sn, _, _ = jacobi_sn_cn_dn(bridge.ctx_l, np.asarray(z, dtype=np.complex128) + p.L)
    except PoleError:
        return complex(math.inf, 0.0)
    return p.x0 * sn


def sigma_prime(bridge: BridgeMaps, z):
    """d/dz sigma = x0 * cn(z + L) * dn(z + L) at modulus x0^2."""
    p = bridge.params
    _, cn, dn = jacobi_sn_cn_dn(bridge.ctx_l, np.asarray(z, dtype=np.complex128) + p.L)
    return p.x0 * cn * dn


def _adaptive_1d(f, a, b, tol, depth=0):
    """Recursive GL quadrature of a smooth real/complex integrand."""
    x, w = _gl_rule(24)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    whole = half * np.sum(w * f(mid + half * x))
    left = 0.5 * (mid - a) * np.sum(w * f(0.5 * (a + mid) + 0.5 * (mid - a) * x))
    right = 0.5 * (b - mid) * np.sum(w * f(0.5 * (mid + b) + 0.5 * (b - mid) * x))
    if abs(whole - (left + right)) <= tol or depth >= 30:
        return left + right
    return _adaptive_1d(f, a, mid, 0.5 * tol, depth + 1) + _adaptive_1d(f, mid, b, 0.5 * tol, depth + 1)


def _tau_real_pieces(x0: float, t: float, tol: float):
    """(piece1, piece2, piece3) of the inversion integral for a real target t >= 0.

    piece1 runs to min(t, 1), piece2 covers (1, min(t, X)) and enters with
    a factor +-i, piece3 covers (X, t) and enters negatively; X = 1/x0^2.
    Square-root substitutions remove every endpoint singularity.
    """
    x04 = x0**4
    X = 1.0 / x0**2
    if abs(t - X) <= 1e-15 * X:  # the slit tip up to rounding: sqrt(t - X) would amplify it
        t = X

    def base(s):
        return 1.0 / np.sqrt((1.0 - s**2) * (1.0 - x04 * s**2))

    t1 = min(t, 1.0)
    if t1 <= 0.5:
        p1 = _adaptive_1d(base, 0.0, t1, tol) if t1 > 0 else 0.0
    else:
        p1 = _adaptive_1d(base, 0.0, 0.5, tol)

        def sub1(u):
            s = 1.0 - u**2
            return 2.0 / np.sqrt((1.0 + s) * (1.0 - x04 * s**2))

        p1 += _adaptive_1d(sub1, math.sqrt(1.0 - t1), math.sqrt(0.5), tol)

    p2 = 0.0
    if t > 1.0:
        t2 = min(t, X)
        m = 0.5 * (1.0 + t2)

        def sub2a(u):
            s = 1.0 + u**2
            return 2.0 / np.sqrt((s + 1.0) * (1.0 - x04 * s**2))

        def sub2b(v):
            s = X - v**2
            return 2.0 / (x0 * np.sqrt((s**2 - 1.0) * (1.0 + x0**2 * s)))

        p2 = _adaptive_1d(sub2a, 0.0, math.sqrt(m - 1.0), tol)
        p2 += _adaptive_1d(sub2b, math.sqrt(X - t2), math.sqrt(X - m), tol)

    p3 = 0.0
    if t > X:

        def sub3(u):
            s = X + u**2
            return 2.0 / (x0 * np.sqrt((s**2 - 1.0) * (1.0 + x0**2 * s)))

        p3 = _adaptive_1d(sub3, 0.0, math.sqrt(t - X), tol)
    return p1, p2, p3


def _continue_sqrt_chain(fvals, g_prev):
    """Sign-matched square roots along a chain; None when a step is too wide."""
    fvals = np.asarray(fvals, dtype=np.complex128)
    out = np.empty_like(fvals)
    for i, fv in enumerate(fvals):
        g = complex(np.sqrt(fv))
        if abs(g - g_prev) > abs(g + g_prev):
            g = -g
        if abs(g - g_prev) > 0.8 * (abs(g) + abs(g_prev)):
            return None, g_prev
        out[i] = g
        g_prev = g
    return out, g_prev


def _tau_segment(Ffun, t0, t1, g0, tol, depth=0):
    """Integrate 1/sqrt(F) over [t0, t1] with branch continuity from g0 at t0.

    Returns ``(integral, sqrt(F) at t1)``; subdivides whenever either the
    16-vs-two-8 comparison misses the tolerance or a continuation step is
    too wide to fix the sign safely.
    """
    x, w = _gl_rule(16)
    half = 0.5 * (t1 - t0)
    mid = t0 + half
    nodes = np.concatenate([t0 + half * (x + 1.0), [t1]])
    gv, g_end = _continue_sqrt_chain(Ffun(nodes), g0)
    if gv is not None:
        whole = half * np.sum(w / gv[:-1])
        nodes_l = np.concatenate([t0 + 0.5 * half * (x + 1.0), [mid]])
        gl, g_mid = _continue_sqrt_chain(Ffun(nodes_l), g0)
        if gl is not None:
            nodes_r = np.concatenate([mid + 0.5 * half * (x + 1.0), [t1]])
            gr, g_end2 = _continue_sqrt_chain(Ffun(nodes_r), g_mid)
            if gr is not None and abs(g_end2 - g_end) < 0.5 * (abs(g_end) + abs(g_end2)):
                halves = 0.5 * half * (np.sum(w / gl[:-1]) + np.sum(w / gr[:-1]))
                if abs(whole - halves) <= tol or depth >= 26:
                    return halves, g_end2
    if depth >= 26:
        raise QuadratureError("tau contour integration failed to converge")
    left, g_mid = _tau_segment(Ffun, t0, mid, g0, 0.5 * tol, depth + 1)
    right, g_end = _tau_segment(Ffun, mid, t1, g_mid, 0.5 * tol, depth + 1)
    return left + right, g_end


def tau(bridge: BridgeMaps, w, side: str = "auto", tol: float = 1e-12) -> complex:
    """Inverse of sigma on the principal sheet.

    ``side`` ('+' or '-') selects the boundary value for real w with
    |w| > x0, where the two sides of the slit map to different edges;
    real w with |w| <= x0 is unambiguous.  tau(x0) = 0, tau(0) = -L,
    tau(-x0) = -2L, and tau(1/x0) from above is iL'.
    """
    p = bridge.params
    x0, L = p.x0, p.L
    w = complex(w)
    T = w / x0
    if abs(T.imag) <= _REAL_TOL * (1.0 + abs(T)):
        t = T.real
        if t < 0.0:
            flipped = "auto" if side == "auto" else ("-" if side == "+" else "+")
            return -tau(bridge, -w, flipped, tol) - 2.0 * L
        if abs(t) > 1.0 and side == "auto":
            raise BranchCutError(
                "tau is two-sided for real w with |w| > x0; pass side='+' or side='-'"
            )
        p1, p2, p3 = _tau_real_pieces(x0, t, tol)
        orient = 1.0 if side in ("auto", "+") else -1.0
        return complex(p1 - p3 - L) + 1j * orient * p2

    x04 = x0**4

    def F(ts):
        return (1.0 - ts**2) * (1.0 - x04 * ts**2)

    sgn = 1.0 if T.imag > 0 else -1.0
    lift = 0.2
    if abs(T.imag) >= lift:
        waypoints = [0.0, 1j * T.imag, T]
    else:
        waypoints = [0.0, 1j * sgn * lift, T.real + 1j * sgn * lift, T]
    total = 0.0 + 0.0j
    g = 1.0 + 0.0j
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        if abs(b - a) < 1e-300:
            continue
        seg, g = _tau_segment(lambda s, a=a, b=b: F(a + (b - a) * s), 0.0, 1.0, g, tol, 0)
        total += seg * (b - a)
    return total - L


def tau_prime(bridge: BridgeMaps, w, side: str = "auto"):
    """d tau / dw = 1/sqrt((x0^2 - w^2)(1 - x0^2 w^2)) on the principal sheet.

    The four principal-branch factors below are individually analytic on
    the doubly slit plane, so their product is the analytic continuation
    of the positive value 1/x0 at w = 0; real w beyond the slit tips is
    resolved by nudging to the requested side.
    """
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
    root = (
        x0
        * np.sqrt(1.0 - w / x0)
        * np.sqrt(1.0 + w / x0)
        * np.sqrt(1.0 - x0 * w)
        * np.sqrt(1.0 + x0 * w)
    )
    return 1.0 / root


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
    exactly.  Full mappings stay full: the complement of the image only
    moves by the affine factor c.  The result records ``(bridge, psi)`` as
    its ``source``.
    """
    if psi.map_class != "Sigma":
        raise ValueError("phi_from_psi expects an exterior-disk map")
    zeta, x0 = bridge.zeta, bridge.x0
    unit = zeta / abs(zeta)
    psi_zeta = complex(psi.value(np.complex128(zeta)))
    dpsi_zeta = complex(psi.deriv(np.complex128(zeta)))
    if dpsi_zeta == 0:
        raise ValueError("psi'(zeta) vanishes; the induced map is degenerate")

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

    return UnivalentMap(
        name=f"phi[{psi.name}]",
        map_class="disk",
        value=value,
        deriv=deriv,
        deriv2=deriv2,
        coefficients=None,
        full_mapping=psi.full_mapping,
        source=(bridge, psi),
    )


# ---------------------------------------------------------------------------
# branch-tracked square roots


@dataclass(frozen=True)
class BranchTracker:
    """Continuation data: where the branch is pinned and the marching order.

    ``parents[i]`` is the index each node is continued from (must be
    smaller than i); ``parents[0]`` is ignored, node 0 matches
    ``base_value``.  ``parents=None`` means the linear chain 0,1,2,...
    """

    base_value: complex
    parents: tuple[int, ...] | None = None


def sqrt_continued(args, tracker: BranchTracker):
    """Square roots of ``args`` continued along the tracker's marching order.

    Every output satisfies g**2 == args exactly up to rounding; a value
    within 1e-13 of zero (relative to the largest argument) makes the
    sign choice meaningless and raises :class:`BranchAmbiguityError`.
    """
    args = np.asarray(args, dtype=np.complex128)
    flat = args.reshape(-1)
    scale = float(np.abs(flat).max()) if flat.size else 0.0
    if np.any(np.abs(flat) < 1e-13 * scale) or scale == 0.0:
        raise BranchAmbiguityError("square-root continuation hit a zero argument")
    root = np.sqrt(flat)
    parents = tracker.parents
    if not parents:
        # Node i keeps the sign of node i-1 when the roots r_i, r_{i-1} are
        # closer than r_i, -r_{i-1}, flips it when farther, and takes + on a
        # tie (or NaN); the sign is the parity of the flips since the last tie.
        prev = np.concatenate(([complex(tracker.base_value)], root[:-1]))
        apart, together = np.abs(root - prev), np.abs(root + prev)
        flips = np.cumsum(apart > together)
        tie = ~(apart > together) & ~(together > apart)
        odd = (flips - np.maximum.accumulate(np.where(tie, flips, 0))) % 2 == 1
        return np.where(odd, -root, root).reshape(args.shape)
    out = np.empty_like(flat)
    for i, g in enumerate(root):
        ref = tracker.base_value if i == 0 else out[parents[i]]
        out[i] = -g if abs(g - ref) > abs(g + ref) else g
    return out.reshape(args.shape)


def loop_sign_flip(args) -> bool:
    """True when continuing sqrt around the closed loop ``args`` flips sign.

    ``args`` lists the argument values along the loop; the first entry is
    re-visited implicitly.  A flip means the loop winds an odd number of
    times around 0.
    """
    args = np.asarray(args, dtype=np.complex128).reshape(-1)
    g0 = complex(np.sqrt(args[0]))
    chain = sqrt_continued(np.append(args, args[0]), BranchTracker(base_value=g0))
    return bool(abs(chain[-1] + g0) < abs(chain[-1] - g0))


def marched_sqrt_path(func, waypoints, base_value, max_doublings: int = 8):
    """Continue sqrt(func) along a polyline, densifying legs as needed.

    ``func`` maps a complex ndarray to the (nonvanishing) argument values;
    the continuation refines each leg until consecutive arguments stay in
    the same half-plane, then marches the sign.  Returns the sqrt value at
    the final waypoint.
    """
    waypoints = np.array([complex(p) for p in waypoints], dtype=np.complex128)
    a, step = waypoints[:-1, None], (waypoints[1:] - waypoints[:-1])[:, None]
    n = 8
    for attempt in range(max_doublings + 1):
        ts = np.linspace(0.0, 1.0, n + 1)[1:]
        pts = np.concatenate((waypoints[:1], (a + step * ts).reshape(-1)))
        vals = np.asarray(func(pts), dtype=np.complex128)
        ratios = vals[1:] / vals[:-1]
        if np.all(ratios.real > 1e-3 * np.abs(ratios)):
            g = sqrt_continued(vals, BranchTracker(base_value=base_value))
            return complex(g[-1])
        n *= 2
    raise BranchAmbiguityError("could not march the square root along the path")
