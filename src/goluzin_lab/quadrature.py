"""Deterministic adaptive 2D quadrature for rectangles, the unit disk, and
the compactified exterior disk.

The driver keeps a max-heap of cells keyed by a local error estimate
(|tensor Gauss-Legendre on the cell - sum over its four children|) and
refines the worst cell until the summed estimate drops under the budget
``max(abs_tol, rel_tol * |value|)``.  Everything is evaluated in a fixed
order, so identical inputs give identical results.

One polar drive serves every patch and the tail: the driver in polar
coordinates on eps = 1e-5 radius < |z - c| < radius, where the area
element cancels a ``1/|z - c|`` blow-up exactly, plus a ring estimate of
the core |z - c| < eps.  Integrable point singularities, given as
complex locations, are handled by partition of unity: a radial bump,
1 at each tagged point and fading to 0 over the whole radius r of its
polar patch, gives the patch all of f at the point, and the region's own
grid takes f times one minus every bump, which vanishes like 35 (d/r)**4
at distance d from the point.
The exterior disk is the annulus 1 < |z| < r0 on a log-polar grid plus
the tail |z| > r0, which u = 1/z maps onto the disk |u| < 1/r0: there
the integrand f(1/u)/|u|^4 of an f decaying like |z|**-3 has a 1/|u|
blow-up at u = 0, and one decaying like |z|**-4 is bounded there.

The ring estimate takes the core's integrand to grow like
|z - c|**exponent, with exponent -1 (a 1/r blow-up) or 0 (bounded),
whichever of the two its ring means fit; no caller declares it.

Integrands must be vectorized maps from complex ndarrays of any shape to
real ndarrays of the same shape, and must be pure.  A result's
``n_evals`` is the number of points the integrand received: every drive
node it was called on, and every ring point, each once.  Far-field nodes
where the bumps leave no weight, those within about 3.5e-5 r of a tagged
point, are not passed to it and not counted.

Each drive starts from a list of seed cells sized to its region, and the
driver calls the integrand once per four seeds, with the four children
of each, as ``(20, order, order)`` arrays (the last call takes what is
left).  The rectangle and the polar grid of the unit disk seed 4 x 4, so
each call is one first-parameter band.  The polar patches and the tail,
whose bump or ring core confines the work, seed 1 x 2 in one call: rho
whole, theta halved.  The log-polar annulus seeds 2 rows in log|z| and
about 2 * 2 pi/log r0 columns in theta, cells about square in its
metric, and splits each seed while it is more than 8 times larger than
its distance to a tagged point (or half that point's patch radius): a
cell much larger than its distance to a patch can miss the far field's
fade across it in its own rule and its children's alike, and report a
small error.  Then the driver calls the integrand once per cell it
refines, with the four children of each of that cell's four children,
its 16 grandchildren, as ``(16, order, order)`` arrays.
No call carries more than 20 cells.  A cell's sum depends on its own
nodes only, so the value at a node must not depend on the other nodes of
its call.  A call's two parameter axes come as ``(n, order, 1)`` and
``(n, 1, order)`` arrays, so exp(s), exp(i theta), a radial bump or
|u|**-4 is computed once per axis node, and its n cell sums come from one
batched product, each the dot product of a cell summed alone.
"""

from __future__ import annotations

import cmath
import dataclasses
import heapq
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "integrate_rect",
    "integrate_disk",
    "integrate_exterior_disk",
]

_CORE_FRACTION = 1e-5  # inner cutoff of a polar patch, relative to its radius
_ORDER = 8  # Gauss-Legendre nodes per cell side
_MAX_DEPTH = 14
_MAX_REFINEMENTS = 40_000
_GRADING = 8.0  # annulus seeds split while larger than this times their distance to a bump
_RING = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))


@dataclass(frozen=True)
class QuadratureSpec:
    """Error budget ``max(abs_tol, rel_tol * |value|)``, and the complex
    locations of integrable point singularities, each given a polar patch."""

    rel_tol: float = 1e-6
    abs_tol: float = 1e-12
    singular_points: tuple[complex, ...] = field(default_factory=tuple)

    def with_points(self, *points: complex) -> "QuadratureSpec":
        return dataclasses.replace(self, singular_points=tuple(points))


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
def _gl_rule():
    return np.polynomial.legendre.leggauss(_ORDER)


def _cells_integral(g, cells):
    """Tensor GL sums over each cell from one call of ``g`` on all their
    nodes; each sum uses its own slice, whatever shares the call."""
    a0, a1, b0, b1 = np.asarray(cells, dtype=np.float64).T
    x, w = _gl_rule()
    hx, hy = 0.5 * (a1 - a0), 0.5 * (b1 - b0)
    xs = (0.5 * (a0 + a1))[:, None] + hx[:, None] * x
    ys = (0.5 * (b0 + b1))[:, None] + hy[:, None] * x
    shape = (len(cells), _ORDER, _ORDER)
    vals = np.asarray(g(xs[:, :, None], ys[:, None, :]), dtype=np.float64)
    if vals.shape != shape:
        vals = np.ascontiguousarray(np.broadcast_to(vals, shape))
    rows = w @ vals  # w @ vals[k] for every k, bit for bit
    return (hx * hy * np.matmul(rows[:, None, :], w)[:, 0]).tolist()  # rows[k] @ w, one ddot each


def _split(cell):
    a0, a1, b0, b1 = cell
    am, bm = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
    return ((a0, am, b0, bm), (am, a1, b0, bm), (a0, am, bm, b1), (am, a1, bm, b1))


def _grid(domain, m, n):
    """The m x n grid of cells on the parameter rectangle ``domain``, first
    parameter outermost."""
    a0, a1, b0, b1 = domain
    return [
        (a0 + (a1 - a0) * i / m, a0 + (a1 - a0) * (i + 1) / m, b0 + (b1 - b0) * j / n, b0 + (b1 - b0) * (j + 1) / n)
        for i in range(m)
        for j in range(n)
    ]


def _adaptive_2d(g, seeds, spec: QuadratureSpec) -> QuadratureResult:
    """Adaptive tensor GL over the parameter cells ``seeds``, which tile
    the domain.

    ``g`` takes the parameters as ``(n, order, 1)``, ``(n, 1, order)`` arrays and
    returns, broadcastable to ``(n, order, order)``, f times the Jacobian.
    The seeds go out four to a call, in their order, each with its four
    children, and the last call takes what is left: one call per
    first-parameter band of a 4 x 4 grid, one call for all of a 1 x 2.
    """
    heap = []
    counter = 0
    n_evals = 0
    value = 0.0
    err_total = 0.0
    frozen_err = 0.0

    def make_node(cell, coarse, fine_parts, depth):
        """Heap entry of ``cell`` from its own rule and its four children's;
        the children's cells are split off only if the entry is popped."""
        nonlocal counter
        fine = math.fsum(fine_parts)
        err = abs(fine - coarse)
        if not math.isfinite(err):
            err = math.inf
        counter += 1
        return (-err, counter, cell, fine, depth, fine_parts)

    # four seeds per call: seed k of the call sums slice [5k, 5k + 5)
    for i in range(0, len(seeds), 4):
        band = seeds[i : i + 4]
        cells = [c for cell in band for c in (cell, *_split(cell))]
        parts = _cells_integral(g, cells)
        n_evals += _ORDER**2 * len(cells)
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
        neg_err, _, cell, fine, depth, fine_parts = heapq.heappop(heap)
        err = -neg_err
        if depth >= _MAX_DEPTH or refinements >= _MAX_REFINEMENTS:
            frozen_err += err
            err_total -= err
            continue
        refinements += 1
        value -= fine
        err_total -= err
        # one call for the 16 grandchildren; child i sums slice [4i, 4i + 4)
        kids = _split(cell)
        cells = [gk for child_cell in kids for gk in _split(child_cell)]
        parts = _cells_integral(g, cells)
        n_evals += _ORDER**2 * len(cells)
        for i, (child_cell, child_coarse) in enumerate(zip(kids, fine_parts)):
            node = make_node(child_cell, child_coarse, parts[4 * i : 4 * i + 4], depth + 1)
            heapq.heappush(heap, node)
            value += node[3]
            err_total += -node[0]

    total_err = err_total + frozen_err
    budget = max(spec.abs_tol, spec.rel_tol * abs(value))
    return QuadratureResult(value, total_err, n_evals, bool(total_err <= budget))


def _smooth_cut(t):
    """C^3 bump of t = d/r: 1 at t = 0, 0 for t >= 1.  One minus it,
    s(t) = t^4 (35 - 84 t + 70 t^2 - 20 t^3), vanishes like 35 t^4 at 0.

    s is taken at u = min(t, 1 - t), as 1 - s(u) for t <= 1/2 and as s(u)
    beyond (s(1 - t) = 1 - s(t)): u^4 keeps its relative precision at both
    ends, so the bump is never below 0.  At t itself next to 1 the
    polynomial overshoots 1 by up to 1.4e-14.
    """
    u = np.maximum(np.minimum(t, 1.0 - t), 0.0)
    u2 = u * u
    s = u2 * u2 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))
    return np.where(t <= 0.5, 1.0 - s, s)


def _ring_core(g, center, eps):
    """Mass of g(z, rho) inside the core rho = |z - center| < eps, and the
    ring means gamma(eps), gamma(2 eps) of rho*g.

    For g ~ c*rho**exponent, gamma(rho) grows like rho**(1 + exponent), so
    the core mass is 2 pi eps gamma(eps)/(2 + exponent), and its error is
    how far gamma(2 eps) is from 2**(1 + exponent) gamma(eps), scaled
    alike.  The exponent is -1 (a 1/r blow-up) or 0 (bounded), whichever
    the ratio gamma(2 eps)/gamma(eps) is nearer (1 or 2; the split is at 1.4).
    Both rings go to g in one call, rho as a (2, 1) column.
    """
    rho = np.array([[eps], [2.0 * eps]])
    means = np.asarray(g(center + rho * _RING, rho), dtype=np.float64).mean(axis=1)
    gamma1, gamma2 = eps * float(means[0]), 2.0 * eps * float(means[1])
    exponent = 0.0 if abs(gamma2) > 1.4 * abs(gamma1) else -1.0
    scale = 2.0 * math.pi * eps / (2.0 + exponent)
    growth = 2.0 ** (1.0 + exponent)
    core = QuadratureResult(scale * gamma1, scale * abs(gamma1 - gamma2 / growth), 2 * _RING.size, True)
    return core, gamma1, gamma2


def _polar(g, center, radius, eps, spec):
    """The polar drive: integral of g(z, rho) over rho = |z - center| < radius.

    The driver integrates over eps < rho < radius in polar coordinates from
    a 1 x 2 seed grid, rho whole and theta halved, and the core rho < eps
    comes from the ring estimate.  Returns the result and the ring means.
    """

    def h(rho, theta):
        return g(center + rho * np.exp(1j * theta), rho) * rho

    res = _adaptive_2d(h, _grid((eps, radius, 0.0, 2.0 * math.pi), 1, 2), spec)
    core, *gammas = _ring_core(g, center, eps)
    return res + core, gammas


def _patched(f, points, reach, region, spec, drive) -> QuadratureResult:
    """``drive(far, bumps)`` plus one polar patch per complex location in
    ``points``.

    Each patch integrates f times a radial bump around its point, out to
    the smaller of ``reach(location)`` and 0.4 of the distance to any other
    point.  The bump is ``_smooth_cut`` of d/r over the whole patch radius
    r: the patch takes all of f at its point, and none from r out.  ``far``
    is f times one minus every bump, and ``bumps`` pairs each point with
    its patch radius.  The sum runs (drive + patch_1) + patch_2 + ...; the
    drive's count is the number of points ``far`` passed on to f, which
    leaves out the nodes where one minus a bump rounds to 0, d < 3.5e-5 r.
    """
    bumps = []
    for i, loc in enumerate(points):
        room = reach(loc)
        if not room > 0.0:
            raise ValueError(f"singular point {loc} is not inside the {region}")
        r = min([room] + [0.4 * abs(loc - q) for j, q in enumerate(points) if j != i])
        if not r > 0.0:
            raise ValueError(f"singular point {loc} leaves no room for a polar patch")
        bumps.append((loc, r))

    received = 0

    def far(z):
        nonlocal received
        w = None
        for p, r in bumps:
            d = np.abs(z - p)
            bumped = d < r  # one minus the bump is exactly 1 from d = r out
            if bumped.any():
                if w is None:
                    w = np.ones(z.shape, dtype=np.float64)
                w[bumped] *= 1.0 - _smooth_cut(d[bumped] / r)
        if w is None:  # no node in any bump: f times 1.0 is f
            received += z.size
            return np.asarray(f(z), dtype=np.float64)
        live = w > 0.0
        n_live = int(np.count_nonzero(live))
        received += n_live
        if n_live == z.size:
            return np.asarray(f(z), dtype=np.float64) * w
        out = np.zeros(z.shape, dtype=np.float64)
        if n_live:
            out[live] = np.asarray(f(z[live]), dtype=np.float64) * w[live]
        return out

    def patch(loc, r):
        def bumped(z, rho):
            return np.asarray(f(z), dtype=np.float64) * _smooth_cut(rho / r)

        return _polar(bumped, loc, r, _CORE_FRACTION * r, spec)[0]

    outer = dataclasses.replace(drive(far, bumps), n_evals=received)
    return sum((patch(p, r) for p, r in bumps), outer)


def _sector_distance(cell, p):
    """Distance from the point ``p`` to the annular sector of the log-polar
    cell ``(s0, s1, theta0, theta1)``, theta1 - theta0 <= 2 pi."""
    s0, s1, t0, t1 = cell
    rho, phi = abs(p), cmath.phase(p)
    r_in, r_out = math.exp(s0), math.exp(s1)
    if (phi - t0) % (2.0 * math.pi) <= t1 - t0:
        return max(r_in - rho, rho - r_out, 0.0)
    # the nearest point lies on one of the two radial edges
    return min(abs(p - min(max(rho * math.cos(phi - t), r_in), r_out) * cmath.exp(1j * t)) for t in (t0, t1))


def _annulus_seeds(r0, bumps):
    """A fresh list of the annulus seeds for ``r0`` and the ``(point,
    radius)`` pairs ``bumps`` (:func:`_graded_seeds`)."""
    return list(_graded_seeds(r0, tuple(bumps)))


@lru_cache(maxsize=64)
def _graded_seeds(r0, bumps):
    """Seed cells (s, theta), s = log|z|, of the annulus 1 < |z| < r0:
    about square in its metric, and graded toward each bump.

    Two rows in s and round(2 * 2 pi / log r0) columns in theta; then a
    cell splits into its four children, recursively, while its planar size
    e^s1 max(ds, dtheta) exceeds _GRADING times the larger of its distance
    to a bump's point and half that bump's radius.  So no seed is much
    larger than its distance to a patch, where f times one minus the bump
    fades from f at radius r to 0 at the point, and where a seed's rule
    and its children's could both miss the fade and agree.  The grading
    stops at half the radius: inside the patch one minus the bump vanishes
    like (d/r)**4, which outweighs f's 1/d, so the far field has no
    feature finer than r to grade toward (and a point inside the annulus
    would otherwise split its seeds without end).
    """
    s_out = math.log(r0)
    seeds = []

    def place(cell):
        s0, s1, t0, t1 = cell
        size = math.exp(s1) * max(s1 - s0, t1 - t0)
        if any(size > _GRADING * max(_sector_distance(cell, p), 0.5 * r) for p, r in bumps):
            for kid in _split(cell):
                place(kid)
        else:
            seeds.append(cell)

    for cell in _grid((0.0, s_out, 0.0, 2.0 * math.pi), 2, max(1, round(4.0 * math.pi / s_out))):
        place(cell)
    return tuple(seeds)


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

    def reach(loc):
        return min(0.25 * min(x1 - x0, y1 - y0), 0.8 * min(loc.real - x0, x1 - loc.real, loc.imag - y0, y1 - loc.imag))

    def grid(far, bumps):
        return _adaptive_2d(lambda x, y: far(x + 1j * y), _grid((x0, x1, y0, y1), 4, 4), spec)

    total = _patched(f, spec.singular_points, reach, "rectangle", spec, grid)
    return _check(total, "integrate_rect")


def integrate_disk(f, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Integrate ``f(z) dA`` over the unit disk.

    Each singular point in ``spec``, the origin included, gets a polar
    patch; the bump-weighted remainder goes to the disk's polar grid.
    """
    spec = spec or QuadratureSpec()

    def disk(far, bumps):
        grid = _grid((0.0, 1.0, 0.0, 2.0 * math.pi), 4, 4)
        return _adaptive_2d(lambda rho, theta: far(rho * np.exp(1j * theta)) * rho, grid, spec)

    total = _patched(f, spec.singular_points, lambda loc: min(0.25, 0.8 * (1.0 - abs(loc))), "disk", spec, disk)
    return _check(total, "integrate_disk")


def integrate_exterior_disk(f, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Integrate ``f(z) dA`` over |z| > 1 for integrands decaying like |z|**-3.

    The region splits into the annulus 1 < |z| <= r0 and the tail, the disk
    |u| < 1/r0 under u = 1/z (one polar drive with a ring core at u = 0,
    of exponent -1 for f ~ |z|**-3 and 0 for f ~ |z|**-4, read from its
    ring means).  Each singular point p gets a polar patch of radius
    max(1, |p|/4), kept 0.8 of its distance clear of |z| = 1 and r0; the
    annulus takes the rest on log-polar seeds about square in log|z| and
    theta, graded toward each patch (``_annulus_seeds``).  Warns when the
    tail's ring means say f decays more slowly than |z|**-3.
    """
    spec = spec or QuadratureSpec()
    r0 = max(4.0, 2.2 * max((abs(p) for p in spec.singular_points), default=1.0))

    def reach(loc):
        # a quarter of |loc| out, so that the patch keeps its size in log-polar
        # coordinates far out, where the annulus cells grow like |z|
        return min(max(1.0, 0.25 * abs(loc)), 0.8 * min(abs(loc) - 1.0, r0 - abs(loc)))

    def annulus(far, bumps):
        def g(s, theta):
            # exp(s + i theta) bit for bit, as cexp is exp(s) (cos + i sin)(theta)
            return far(np.exp(s + 0j) * np.exp(1j * theta)) * np.exp(2.0 * s)

        return _adaptive_2d(g, _annulus_seeds(r0, bumps), spec)

    total = _patched(f, spec.singular_points, reach, "exterior disk", spec, annulus)

    def tail(u, rho):
        """The integrand in u = 1/z, rho = |u|: dA(z) = dA(u)/|u|^4."""
        return np.asarray(f(1.0 / u), dtype=np.float64) / rho**4

    u_out = 1.0 / r0
    cap, (gamma1, gamma2) = _polar(tail, 0j, u_out, _CORE_FRACTION * u_out, spec)
    # |u| tail(u) growing toward u = 0 signals decay slower than |z|^-3
    if abs(gamma1) > spec.abs_tol and abs(gamma1) > 1.4 * abs(gamma2):
        warnings.warn(
            "exterior-disk integrand decays more slowly than |z|^-3; tail may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    return _check(total + cap, "integrate_exterior_disk")
