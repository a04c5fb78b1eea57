"""Deterministic adaptive 2D quadrature for rectangles, disks, and the
compactified exterior disk.

The driver keeps a max-heap of cells keyed by a local error estimate
(|tensor Gauss-Legendre on the cell - sum over its four children|) and
refines the worst cell until the summed estimate drops under the budget
``max(abs_tol, rel_tol * |value|)``.  Everything is evaluated in a fixed
order, so identical inputs give identical results.

Integrable point singularities are handled by partition of unity: a
radial bump confines the singular behaviour to a polar patch around each
tagged point, where the area element cancels a ``1/|z - p|`` blow-up
exactly; the leftover mass inside the innermost radius is recovered from
a ring estimate (exponent -1 only).  Integrands must be vectorized maps
from complex ndarrays of any shape to real ndarrays of the same shape, and
must be pure.

The driver calls an integrand once per band of the 4 x 4 seed grid, with
the four seeds of one first-parameter band and the four children of each,
as ``(20, order, order)`` arrays, and then once per cell it refines, with
the four children of each of that cell's four children, its 16
grandchildren, as ``(16, order, order)`` arrays.  No call carries more
than 20 cells.  A cell's sum depends on its own nodes only, so the value
at a node must not depend on the other nodes of its call.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

__all__ = [
    "SingularPoint",
    "QuadratureSpec",
    "QuadratureResult",
    "integrate_rect",
    "integrate_disk",
    "integrate_exterior_disk",
]

_CORE_FRACTION = 1e-5  # inner cutoff of a polar patch, relative to its radius
_MAX_REFINEMENTS = 40_000


@dataclass(frozen=True)
class SingularPoint:
    """A tagged integrable singularity, f ~ c*|z - location|**exponent.

    ``core_fraction`` sets the excluded-core radius as a fraction of the
    polar patch radius; raise it for integrands whose evaluation degrades
    near the singular point (the excluded mass is recovered from a ring
    estimate either way).
    """

    location: complex
    exponent: float = -1.0
    patch_radius: float | None = None
    core_fraction: float = _CORE_FRACTION

    def __post_init__(self):
        if self.exponent not in (-1.0, 0.0):
            raise ValueError("only exponents -1 (1/r) and 0 (bounded) are supported")


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-6
    abs_tol: float = 1e-12
    max_depth: int = 14
    base_order: int = 8
    singular_points: tuple[SingularPoint, ...] = field(default_factory=tuple)

    def with_points(self, *points: SingularPoint) -> "QuadratureSpec":
        return QuadratureSpec(self.rel_tol, self.abs_tol, self.max_depth, self.base_order, tuple(points))


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    n_evals: int
    converged: bool

    def __add__(self, other: "QuadratureResult") -> "QuadratureResult":
        return QuadratureResult(
            self.value + other.value,
            self.error + other.error,
            self.n_evals + other.n_evals,
            self.converged and other.converged,
        )


@lru_cache(maxsize=None)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


class _Accumulator:
    """Shared evaluation counter for one integrate_* call."""

    def __init__(self):
        self.n_evals = 0


def _cells_integral(g, cells, order, acc):
    """Tensor GL sums over each cell from one ``(n_cells, order, order)`` call
    of ``g``; each sum uses its own slice, whatever shares the call."""
    a0, a1, b0, b1 = np.asarray(cells, dtype=np.float64).T
    x, w = _gl_rule(order)
    hx, hy = 0.5 * (a1 - a0), 0.5 * (b1 - b0)
    xs = (0.5 * (a0 + a1))[:, None] + hx[:, None] * x
    ys = (0.5 * (b0 + b1))[:, None] + hy[:, None] * x
    zero = np.zeros((len(cells), order, order))
    vals = np.asarray(g(xs[:, :, None] + zero, ys[:, None, :] + zero), dtype=np.float64)
    acc.n_evals += vals.size
    rows = w @ vals  # w @ vals[k] for every k, bit for bit
    return [float(hx[k]) * float(hy[k]) * float(rows[k] @ w) for k in range(len(cells))]


def _split(cell):
    a0, a1, b0, b1 = cell
    am, bm = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
    return ((a0, am, b0, bm), (am, a1, b0, bm), (a0, am, bm, b1), (am, a1, bm, b1))


def _adaptive_2d(g, domain, spec: QuadratureSpec, acc: _Accumulator):
    """Adaptive tensor GL over the parameter rectangle ``domain``.

    ``g`` receives broadcast 2-d arrays of the two parameters and must
    return the integrand already multiplied by the area-element Jacobian.
    """
    a0, a1, b0, b1 = domain
    order = spec.base_order
    seeds = []
    nx = ny = 4
    for i in range(nx):
        for j in range(ny):
            seeds.append(
                (
                    a0 + (a1 - a0) * i / nx,
                    a0 + (a1 - a0) * (i + 1) / nx,
                    b0 + (b1 - b0) * j / ny,
                    b0 + (b1 - b0) * (j + 1) / ny,
                )
            )

    heap = []
    counter = 0
    value = 0.0
    err_total = 0.0
    frozen_err = 0.0

    def make_node(cell, coarse, fine_parts, depth):
        """Heap entry of ``cell`` from its own rule and its four children's."""
        nonlocal counter
        fine = math.fsum(fine_parts)
        err = abs(fine - coarse)
        if not math.isfinite(err):
            err = math.inf
        counter += 1
        return (-err, counter, cell, fine, depth, tuple(zip(_split(cell), fine_parts)))

    # one call per first-parameter band: seed k of the band sums slice [5k, 5k + 5)
    for i in range(0, len(seeds), ny):
        band = seeds[i : i + ny]
        parts = _cells_integral(g, [c for cell in band for c in (cell, *_split(cell))], order, acc)
        for k, cell in enumerate(band):
            coarse, *fine_parts = parts[5 * k : 5 * k + 5]
            node = make_node(cell, coarse, fine_parts, 0)
            heapq.heappush(heap, node)
            value += node[3]
            err_total += -node[0]

    refinements = 0
    while heap:
        budget = max(spec.abs_tol, spec.rel_tol * abs(value))
        if err_total + frozen_err <= budget:
            break
        neg_err, _, cell, fine, depth, kids = heapq.heappop(heap)
        err = -neg_err
        if depth >= spec.max_depth or refinements >= _MAX_REFINEMENTS:
            frozen_err += err
            err_total -= err
            continue
        refinements += 1
        value -= fine
        err_total -= err
        # one call for the 16 grandchildren; child i sums slice [4i, 4i + 4)
        parts = _cells_integral(g, [gk for child_cell, _ in kids for gk in _split(child_cell)], order, acc)
        for i, (child_cell, child_coarse) in enumerate(kids):
            node = make_node(child_cell, child_coarse, parts[4 * i : 4 * i + 4], depth + 1)
            heapq.heappush(heap, node)
            value += node[3]
            err_total += -node[0]

    total_err = err_total + frozen_err
    budget = max(spec.abs_tol, spec.rel_tol * abs(value))
    return QuadratureResult(value, total_err, acc.n_evals, bool(total_err <= budget))


def _smooth_cut(r, r_in, r_out):
    """C^3 transition: 1 for r <= r_in, 0 for r >= r_out."""
    t = np.clip((r - r_in) / (r_out - r_in), 0.0, 1.0)
    s = t**4 * (35.0 - 84.0 * t + 70.0 * t**2 - 20.0 * t**3)
    return 1.0 - s


def _far_weight(z, patches):
    w = np.ones(z.shape, dtype=np.float64)
    for p, radius in patches:
        w *= 1.0 - _smooth_cut(np.abs(z - p), 0.5 * radius, radius)
    return w


def _masked_far_integrand(f, patches):
    def g(z):
        w = _far_weight(z, patches)
        out = np.zeros(z.shape, dtype=np.float64)
        mask = w > 0.0
        if mask.any():
            out[mask] = np.asarray(f(z[mask]), dtype=np.float64) * w[mask]
        return out

    return g


def _polar_patch(f, point: SingularPoint, radius, spec, acc):
    """Integral of f * bump over the disk around one singular point.

    Polar coordinates absorb a 1/r singularity; the uncovered core
    r < eps is recovered by a ring estimate when exponent == -1.
    """
    p = point.location
    eps = point.core_fraction * radius

    def g(rho, theta):
        z = p + rho * np.exp(1j * theta)
        cut = _smooth_cut(rho, 0.5 * radius, radius)
        return np.asarray(f(z), dtype=np.float64) * cut * rho

    res = _adaptive_2d(g, (eps, radius, 0.0, 2.0 * math.pi), spec, acc)
    if point.exponent == -1.0:
        res = res + _ring_core(f, p, eps, acc)
    return res


def _ring_core(f, center, eps, acc):
    """Mass of a 1/r singularity inside the core |z - center| < eps.

    r*f is nearly constant near the center, so the ring mean at r = eps
    gives the core mass and the ring at 2 eps its error.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    ring1 = np.asarray(f(center + eps * np.exp(1j * theta)), dtype=np.float64)
    ring2 = np.asarray(f(center + 2.0 * eps * np.exp(1j * theta)), dtype=np.float64)
    acc.n_evals += 2 * theta.size
    gamma1 = eps * float(ring1.mean())
    gamma2 = 2.0 * eps * float(ring2.mean())
    return QuadratureResult(2.0 * math.pi * eps * gamma1, 2.0 * math.pi * eps * abs(gamma1 - gamma2), 0, True)


def _patch_radii(points, default_radius, clearance):
    """Disjoint patch radii: respect user overrides, spacing, and clearance."""
    radii = []
    locs = [p.location for p in points]
    for i, p in enumerate(points):
        r = p.patch_radius if p.patch_radius is not None else default_radius
        for j, q in enumerate(locs):
            if j != i:
                r = min(r, 0.4 * abs(p.location - q))
        r = min(r, clearance(p.location))
        if r <= 0.0:
            raise ValueError(f"singular point {p.location} leaves no room for a polar patch")
        radii.append(r)
    return radii


def _check(result: QuadratureResult, what: str) -> QuadratureResult:
    if not result.converged:
        raise QuadratureError(f"{what} did not converge within the refinement budget", partial=result)
    return result


def integrate_rect(f, rect, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Integrate ``f(z) dA`` over the rectangle ``(x0, x1, y0, y1)``.

    Singular points listed in ``spec`` must lie strictly inside the
    rectangle; each gets a polar patch, and the bump-weighted remainder
    is integrated on the rectangle grid.
    """
    spec = spec or QuadratureSpec()
    x0, x1, y0, y1 = (float(v) for v in rect)
    acc = _Accumulator()
    inside = []
    for p in spec.singular_points:
        zx, zy = p.location.real, p.location.imag
        if not (x0 < zx < x1 and y0 < zy < y1):
            raise ValueError(f"singular point {p.location} is not interior to the rectangle")
        inside.append(p)

    def clearance(loc):
        return 0.8 * min(loc.real - x0, x1 - loc.real, loc.imag - y0, y1 - loc.imag)

    default = 0.25 * min(x1 - x0, y1 - y0)
    radii = _patch_radii(inside, default, clearance)
    patches = list(zip((p.location for p in inside), radii))

    far = _masked_far_integrand(f, patches)

    def g(x, y):
        return far(x + 1j * y)

    total = _adaptive_2d(g, (x0, x1, y0, y1), spec, acc)
    for p, r in zip(inside, radii):
        total = total + _polar_patch(f, p, r, spec, acc)
    return _check(total, "integrate_rect")


def integrate_disk(f, spec: QuadratureSpec | None = None, center: complex = 0.0, radius: float = 1.0) -> QuadratureResult:
    """Integrate ``f(z) dA`` over the disk |z - center| < radius."""
    spec = spec or QuadratureSpec()
    acc = _Accumulator()
    center = complex(center)
    radius = float(radius)

    central = [p for p in spec.singular_points if abs(p.location - center) < 1e-12 * radius]
    interior = [p for p in spec.singular_points if p not in central]
    for p in interior:
        if not abs(p.location - center) < radius:
            raise ValueError(f"singular point {p.location} is not inside the disk")

    def clearance(loc):
        return 0.8 * (radius - abs(loc - center))

    radii = _patch_radii(interior, 0.25 * radius, clearance)
    patches = list(zip((p.location for p in interior), radii))
    far = _masked_far_integrand(f, patches)

    rho_in = 0.0
    core = QuadratureResult(0.0, 0.0, 0, True)
    if central:
        rho_in = central[0].core_fraction * radius
        if central[0].exponent == -1.0:
            core = _ring_core(f, center, rho_in, acc)

    def g(rho, theta):
        z = center + rho * np.exp(1j * theta)
        return far(z) * rho

    total = _adaptive_2d(g, (rho_in, radius, 0.0, 2.0 * math.pi), spec, acc) + core
    for p, r in zip(interior, radii):
        total = total + _polar_patch(f, p, r, spec, acc)
    return _check(total, "integrate_disk")


def integrate_exterior_disk(f, spec: QuadratureSpec | None = None, decay_check: bool = True) -> QuadratureResult:
    """Integrate ``f(z) dA`` over |z| > 1 for integrands decaying like |z|**-3.

    The region splits into the annulus 1 < |z| <= R0 (log-polar grid,
    singular points handled by polar patches) and the tail, compactified
    by u = 1/z onto a punctured disk where the image integrand carries an
    exponent -1 singularity at u = 0.
    """
    spec = spec or QuadratureSpec()
    acc = _Accumulator()
    pts = list(spec.singular_points)
    for p in pts:
        if abs(p.location) <= 1.0:
            raise ValueError(f"singular point {p.location} is not in the exterior disk")
    r_max = max((abs(p.location) for p in pts), default=1.0)
    r0 = max(4.0, 2.2 * r_max)

    def clearance(loc):
        return 0.8 * min(abs(loc) - 1.0, r0 - abs(loc))

    radii = _patch_radii(pts, 1.0, clearance)
    patches = list(zip((p.location for p in pts), radii))
    far = _masked_far_integrand(f, patches)

    def g_annulus(s, theta):
        z = np.exp(s + 1j * theta)
        return far(z) * np.exp(2.0 * s)

    total = _adaptive_2d(g_annulus, (0.0, math.log(r0), 0.0, 2.0 * math.pi), spec, acc)
    for p, r in zip(pts, radii):
        total = total + _polar_patch(f, p, r, spec, acc)

    # tail via inversion: dA(z) = dA(u)/|u|^4
    u_out = 1.0 / r0
    eps_u = _CORE_FRACTION * u_out

    def g_cap(rho, theta):
        u = rho * np.exp(1j * theta)
        return np.asarray(f(1.0 / u), dtype=np.float64) / rho**3

    total = total + _adaptive_2d(g_cap, (eps_u, u_out, 0.0, 2.0 * math.pi), spec, acc)

    # Mass of the uncovered core rho < eps_u.  With f = O(|z|^-3) the
    # parameter-space integrand g_cap is bounded near rho = 0, so a
    # midpoint ring estimate recovers it to O(eps^2).
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    g_mid = np.asarray(f(1.0 / (0.5 * eps_u * np.exp(1j * theta))), dtype=np.float64) / (0.5 * eps_u) ** 3
    g_edge = np.asarray(f(1.0 / (eps_u * np.exp(1j * theta))), dtype=np.float64) / eps_u**3
    acc.n_evals += 2 * theta.size
    mid, edge = float(g_mid.mean()), float(g_edge.mean())
    core = 2.0 * math.pi * eps_u * mid
    core_err = 2.0 * math.pi * eps_u * abs(mid - edge)
    total = total + QuadratureResult(core, core_err, 0, True)

    # g_cap growing toward rho = 0 signals decay slower than |z|^-3.
    if decay_check and abs(mid) > spec.abs_tol and abs(mid) > 1.4 * abs(edge):
        warnings.warn(
            "exterior-disk integrand decays more slowly than |z|^-3; tail may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    return _check(total, "integrate_exterior_disk")
