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

Each drive starts from a list of seed cells sized to its region.  The
rectangle and the polar grid of the unit disk seed 4 x 4.  The polar
patches and the tail, whose bump or ring core confines the work, seed
1 x 2: rho whole, theta halved.  The log-polar annulus seeds 2 rows in
log|z| and about 2 * 2 pi/log r0 columns in theta, cells about square in
its metric, and splits each seed while it is more than 8 times larger
than its distance to a tagged point (or half that point's patch radius):
a cell much larger than its distance to a patch can miss the far field's
fade across it in its own rule and its children's alike, and report a
small error.

One seed pass per region opens the integral (``_Region``): every drive's
seeds, each followed by its four children, and every core's two rings,
placed once, reach the integrand in ceil(n/_CALL_NODES) calls of
near-equal size, as flat arrays of their n live nodes.  Then the driver
calls the integrand once per cell it refines, with the four children of
each of that cell's four children, its 16 grandchildren, as ``(16,
order, order)`` arrays.  No call carries more than _CALL_NODES = 4096
nodes.  A call's fixed numpy cost (about 20 us against 38 ns a node)
makes few large calls cheaper than many small ones, until the saving
levels off at a few thousand nodes a call; past that the integrand's
temporaries only grow, and once glibc trims them off its heap after a
call, the next call faults their pages in again.  A cell's sum depends on its own nodes
only, so the value at a node must not depend on the other nodes of its
call.  The cells of a placement come as ``(n, order, 1)`` and ``(n, 1,
order)`` parameter axes, so exp(s), exp(i theta), a radial bump or
|u|**-4 is computed once per axis node, and their n cell sums come from
one batched product, each the dot product of a cell summed alone.

The pass is placed before the integrand is called: each drive's seed
block of cell widths, Jacobian, bump weights and live mask, from the
same code that places a refinement's cells when the driver makes it, and
the nodes of each call.  ``ExteriorDiskPlan`` holds it for the exterior
disk of one spec, and its ``prepare`` hook runs once on the nodes of
each call: integrands over one region share a plan, as the sigma area
checks of several maps at one base point do (about 8,000 planned nodes
there, two calls, against a few hundred refinement nodes).
Nothing at module level holds nodes; ``_graded_seeds`` keeps seed cells.
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
    "ExteriorDiskPlan",
]

_CORE_FRACTION = 1e-5  # inner cutoff of a polar patch, relative to its radius
_ORDER = 8  # Gauss-Legendre nodes per cell side
# most nodes in one integrand call: a call's fixed numpy cost (about 20 us)
# is worth some 500 nodes, so from a few thousand nodes a call the saving
# levels off, while the integrand's temporaries grow with the call and,
# once glibc trims them off its heap after a call, cost page faults anew
_CALL_NODES = 4096
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


def _same(v):
    return v


def _axes(cells):
    """Half-widths of the cells and their GL nodes on each parameter axis,
    as ``(n, order, 1)`` and ``(n, 1, order)`` arrays."""
    a0, a1, b0, b1 = np.asarray(cells, dtype=np.float64).T
    x, _ = _gl_rule()
    hx, hy = 0.5 * (a1 - a0), 0.5 * (b1 - b0)
    xs = (0.5 * (a0 + a1))[:, None] + hx[:, None] * x
    ys = (0.5 * (b0 + b1))[:, None] + hy[:, None] * x
    return hx, hy, xs[:, :, None], ys[:, None, :]


def _gl_sums(vals, hx, hy):
    """Tensor GL sums over each cell of its ``(order, order)`` values; each
    sum uses its own slice, whatever shares the call."""
    shape = (len(hx), _ORDER, _ORDER)
    vals = np.asarray(vals, dtype=np.float64)
    if vals.shape != shape:
        vals = np.ascontiguousarray(np.broadcast_to(vals, shape))
    _, w = _gl_rule()
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


def _far_weight(z, bumps):
    """One minus every bump at the nodes ``z``: ``(live, weight)``, the
    nodes where it is above 0 (None for all of them) and its value there
    (None where no node is inside a bump, for f times 1.0 is f).

    Each bump is taken only at nodes closer to its point than its radius
    r, since one minus the bump is exactly 1 from r out.
    """
    w = None
    for p, r in bumps:
        d = np.abs(z - p)
        bumped = d < r
        if bumped.any():
            if w is None:
                w = np.ones(z.shape, dtype=np.float64)
            w[bumped] *= 1.0 - _smooth_cut(d[bumped] / r)
    if w is None:
        return None, None
    live = w > 0.0
    return (None, w) if live.all() else (live, w[live])


class _Call:
    """Cells placed without calling f, a refinement's call or a drive's seed
    block: the cells and their half-widths, their live nodes (None once a
    seed pass holds them), where the values there go in the ``(n, order,
    order)`` block (``live``, None for all of it), the far weight there,
    and ``weigh``, which turns the block of f's values into the integrand
    in the parameters.  ``size`` is the number of live nodes."""

    __slots__ = ("cells", "hx", "hy", "nodes", "live", "weight", "weigh", "size")

    def __init__(self, cells, hx, hy, nodes, live, weight, weigh, size):
        self.cells, self.hx, self.hy, self.nodes = cells, hx, hy, nodes
        self.live, self.weight, self.weigh, self.size = live, weight, weigh, size

    def weighed(self, vals) -> np.ndarray:
        """The integrand in the parameters on the block, from f's values
        ``vals`` at the live nodes (in the block's shape when all are live)."""
        if self.weight is not None:
            vals = vals * self.weight
        if self.live is not None:
            out = np.zeros(self.live.shape, dtype=np.float64)
            out[self.live] = vals
            vals = out
        return self.weigh(vals)


class _Drive:
    """The cells of one drive and their nodes, built without calling f.

    ``place(x, y)`` takes a call's parameter axes, ``(n, order, 1)`` and
    ``(n, 1, order)``, and returns the points f is to see, broadcast to
    ``(n, order, order)``, with the map ``weigh`` from f's values there to
    the integrand in the parameters: times the Jacobian, a patch's bump or
    the tail's |u|**-4, each computed once per axis node.  A far-field
    drive takes f times one minus every bump in ``bumps``, ``(point,
    radius)`` pairs, and passes f only the nodes where that is above 0.

    ``seed_cells`` lists each seed followed by its four children, the cells
    of the drive's part of its region's seed pass (:class:`_Region`), which
    places them with :meth:`call` too.
    """

    def __init__(self, seeds, place, bumps=()):
        self.seeds = list(seeds)
        self._place, self._bumps = place, tuple(bumps)

    @property
    def seed_cells(self):
        return [c for cell in self.seeds for c in (cell, *_split(cell))]

    def call(self, cells) -> _Call:
        hx, hy, x, y = _axes(cells)
        z, weigh = self._place(x, y)
        live, weight = _far_weight(z, self._bumps)
        if live is not None:
            z = z[live]
        size = len(cells) * _ORDER**2 if live is None else z.size
        return _Call(cells, hx, hy, z, live, weight, weigh, size)

    def values(self, call: _Call, f) -> np.ndarray:
        """The integrand in the parameters at the nodes of ``call``, from one
        call of f on its live nodes (none when no node is live)."""
        return call.weighed(np.asarray(f(call.nodes), dtype=np.float64) if call.size else np.zeros(0))

    def sums(self, call: _Call, f) -> list[float]:
        """The GL sum of each cell of ``call``."""
        return _gl_sums(self.values(call, f), call.hx, call.hy)


def _adaptive_2d(drive: _Drive, f, spec: QuadratureSpec, seeded) -> QuadratureResult:
    """Adaptive tensor GL over the cells of ``drive``, whose seeds tile its
    domain, of f on the nodes the drive places.

    ``seeded`` comes from the region's seed pass: the sums of the drive's
    ``seed_cells``, five per seed (its own rule, then its children's), and
    the number of nodes f received for them.  Then each refined cell is one
    call of f on its 16 grandchildren.  ``n_evals`` counts the nodes f
    received.
    """
    parts, n_evals = seeded
    heap = []
    counter = 0
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

    for k, cell in enumerate(drive.seeds):
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
        call = drive.call([gk for child_cell in kids for gk in _split(child_cell)])
        parts = drive.sums(call, f)
        n_evals += call.size
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


class _Polar:
    """The polar drive: the integral over rho = |z - center| < radius.

    ``radial(z, rho)`` maps a polar point and its rho to the point f sees and
    the map from f's values to the integrand in z (a patch's bump, or the
    tail's |u|**-4 at f(1/u)).  The driver integrates over eps < rho <
    radius in polar coordinates from a 1 x 2 seed grid, rho whole and theta
    halved, and the core rho < eps comes from the ring estimate
    (:meth:`core`), on two rings of 64 points, rho = eps and 2 eps
    (``ring``, ``(2, 64)``), placed once; f receives them in its region's
    seed pass.
    """

    def __init__(self, radial, center, radius, eps):
        def place(rho, theta):
            z, weigh = radial(center + rho * np.exp(1j * theta), rho)
            return z, lambda v: weigh(v) * rho

        self.drive = _Drive(_grid((eps, radius, 0.0, 2.0 * math.pi), 1, 2), place)
        self.eps = eps
        rho = np.array([[eps], [2.0 * eps]])
        self.ring, self._ring_weigh = radial(center + rho * _RING, rho)

    def core(self, vals):
        """Mass of the integrand inside the core, and the ring means
        gamma(eps), gamma(2 eps) of rho times it, from f's values ``vals``
        on ``ring``.

        For an integrand ~ c*rho**exponent, gamma(rho) grows like
        rho**(1 + exponent), so the core mass is 2 pi eps gamma(eps)/(2 +
        exponent), and its error is how far gamma(2 eps) is from
        2**(1 + exponent) gamma(eps), scaled alike.  The exponent is -1 (a 1/r
        blow-up) or 0 (bounded), whichever the ratio gamma(2 eps)/gamma(eps)
        is nearer (1 or 2; the split is at 1.4).
        """
        eps = self.eps
        means = np.asarray(self._ring_weigh(vals), dtype=np.float64).mean(axis=1)
        gamma1, gamma2 = eps * float(means[0]), 2.0 * eps * float(means[1])
        exponent = 0.0 if abs(gamma2) > 1.4 * abs(gamma1) else -1.0
        scale = 2.0 * math.pi * eps / (2.0 + exponent)
        growth = 2.0 ** (1.0 + exponent)
        core = QuadratureResult(scale * gamma1, scale * abs(gamma1 - gamma2 / growth), 2 * _RING.size, True)
        return core, gamma1, gamma2


def _bumped(r):
    """A patch's ``radial``: f at the point, times the bump of rho/r."""

    def radial(z, rho):
        cut = _smooth_cut(rho / r)
        return z, lambda v: v * cut

    return radial


def _inverted(u, rho):
    """The tail's ``radial``: f(1/u) dA(z) = f(1/u) dA(u)/|u|^4, rho = |u|."""
    r4 = rho**4
    return 1.0 / u, lambda v: v / r4


def _patch_radii(points, reach, region):
    """``(point, radius)`` of each patch: the smaller of ``reach(point)`` and
    0.4 of the distance to any other point."""
    bumps = []
    for i, loc in enumerate(points):
        room = reach(loc)
        if not room > 0.0:
            raise ValueError(f"singular point {loc} is not inside the {region}")
        r = min([room] + [0.4 * abs(loc - q) for j, q in enumerate(points) if j != i])
        if not r > 0.0:
            raise ValueError(f"singular point {loc} leaves no room for a polar patch")
        bumps.append((loc, r))
    return bumps


class _Region:
    """A far-field drive and polar drives with their cores, and the seed
    pass that opens their integral.

    The pass places every drive's ``seed_cells`` (far first, then each
    polar in order) and then every core's two rings (in the same polar
    order) once, without calling f.  f receives their live nodes in that
    order, flat, in ceil(n/_CALL_NODES) calls of near-equal size, each as
    ``prepare`` left it (``calls``); ``prepare`` runs on every refinement
    call's nodes too.  Each drive's seed block keeps its widths, live
    mask, far weight and ``weigh``, but no other copy of the nodes, and
    :meth:`seed_pass` keeps nothing f returns, so integrands over one
    region can share it.
    """

    def __init__(self, far: _Drive, polars=(), prepare=_same):
        self.far, self.polars, self.prepare = far, list(polars), prepare
        self._blocks = [drive.call(drive.seed_cells) for drive in self.drives]
        z = np.concatenate([block.nodes.reshape(-1) for block in self._blocks] + [polar.ring.reshape(-1) for polar in self.polars])
        for block in self._blocks:
            block.nodes = None
        n = -(-z.size // _CALL_NODES)
        edges = [z.size * i // n for i in range(n + 1)]
        self.calls = [prepare(z[a:b]) for a, b in zip(edges, edges[1:])]

    @property
    def drives(self):
        return [self.far] + [polar.drive for polar in self.polars]

    def seed_pass(self, f):
        """The ``seeded`` input of :func:`_adaptive_2d` for each drive, each
        from one ``_gl_sums`` over its block, and f's values on each core's
        rings, ``(2, 64)``: one call of f per call of the pass."""
        vals = np.concatenate([np.asarray(f(z), dtype=np.float64).reshape(-1) for z in self.calls])
        seeded, i = [], 0
        for block in self._blocks:
            v = vals[i : i + block.size]
            i += block.size
            if block.live is None:
                v = v.reshape(-1, _ORDER, _ORDER)
            seeded.append((_gl_sums(block.weighed(v), block.hx, block.hy), block.size))
        rings = []
        for polar in self.polars:
            rings.append(vals[i : i + polar.ring.size].reshape(polar.ring.shape))
            i += polar.ring.size
        return seeded, rings

    def integrate(self, f, spec):
        """The far drive plus each polar drive and its core, summed in that
        order, and the last core's ring means (None without a polar)."""
        seeded, rings = self.seed_pass(f)
        g = lambda z: f(self.prepare(z))
        total = _adaptive_2d(self.far, g, spec, seeded[0])
        gammas = None
        for polar, s, ring in zip(self.polars, seeded[1:], rings):
            res = _adaptive_2d(polar.drive, g, spec, s)
            core, *gammas = polar.core(ring)
            total = total + (res + core)
        return total, gammas


def _patched(spec, reach, region, far, prepare=_same, tail=()) -> _Region:
    """A region's far-field drive plus one polar patch per complex location
    in ``spec.singular_points``, and then the polars of ``tail``.

    Each patch integrates f times a radial bump around its point, out to
    its radius r (:func:`_patch_radii`).  The bump is ``_smooth_cut`` of d/r
    over the whole patch radius: the patch takes all of f at its point, and
    none from r out.
    ``far(bumps)`` gives the far drive's seeds and ``place``; that drive
    takes f times one minus every bump, and ``bumps`` pairs each point with
    its patch radius.  The sum runs (far + patch_1) + patch_2 + ...; the far
    count leaves out the nodes where one minus a bump rounds to 0,
    d < 3.5e-5 r.
    """
    bumps = _patch_radii(spec.singular_points, reach, region)
    seeds, place = far(bumps)
    patches = [_Polar(_bumped(r), loc, r, _CORE_FRACTION * r) for loc, r in bumps]
    return _Region(_Drive(seeds, place, bumps), patches + list(tail), prepare)


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

    def grid(bumps):
        return _grid((x0, x1, y0, y1), 4, 4), lambda x, y: (x + 1j * y, _same)

    total, _ = _patched(spec, reach, "rectangle", grid).integrate(f, spec)
    return _check(total, "integrate_rect")


def integrate_disk(f, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Integrate ``f(z) dA`` over the unit disk.

    Each singular point in ``spec``, the origin included, gets a polar
    patch; the bump-weighted remainder goes to the disk's polar grid.
    """
    spec = spec or QuadratureSpec()

    def disk(bumps):
        return _grid((0.0, 1.0, 0.0, 2.0 * math.pi), 4, 4), lambda rho, theta: (rho * np.exp(1j * theta), lambda v: v * rho)

    total, _ = _patched(spec, lambda loc: min(0.25, 0.8 * (1.0 - abs(loc))), "disk", disk).integrate(f, spec)
    return _check(total, "integrate_disk")


class ExteriorDiskPlan:
    """Everything :func:`integrate_exterior_disk` builds for ``spec`` before
    it calls the integrand, so that several integrands on the same region
    share it: the annulus seeds, the patches and the tail, and their seed
    pass (``region``, a :class:`_Region`), the seed cells of the three
    drives with their Jacobian, bump weights and live mask, and their nodes
    and both rings of each core in two or three calls.  ``prepare`` is
    applied once to the nodes of each call, when the plan is built, and the
    integrand receives what it returns; the default passes the nodes on as
    they are.  The seed values of each integrand are passed from its pass
    to its drives, and never stored on the plan.

    The region splits into the annulus 1 < |z| <= r0 and the tail, the disk
    |u| < 1/r0 under u = 1/z (one polar drive with a ring core at u = 0).
    Each singular point p gets a polar patch of radius max(1, |p|/4), kept
    0.8 of its distance clear of |z| = 1 and r0; the annulus takes the rest
    on log-polar seeds about square in log|z| and theta, graded toward each
    patch (``_annulus_seeds``).
    """

    def __init__(self, spec: QuadratureSpec | None = None, prepare=None):
        spec = self.spec = spec or QuadratureSpec()
        prepare = prepare or _same
        r0 = max(4.0, 2.2 * max((abs(p) for p in spec.singular_points), default=1.0))

        def reach(loc):
            # a quarter of |loc| out, so that the patch keeps its size in log-polar
            # coordinates far out, where the annulus cells grow like |z|
            return min(max(1.0, 0.25 * abs(loc)), 0.8 * min(abs(loc) - 1.0, r0 - abs(loc)))

        def annulus(bumps):
            def place(s, theta):
                jac = np.exp(2.0 * s)
                # exp(s + i theta) bit for bit, as cexp is exp(s) (cos + i sin)(theta)
                return np.exp(s + 0j) * np.exp(1j * theta), lambda v: v * jac

            return _annulus_seeds(r0, bumps), place

        u_out = 1.0 / r0
        tail = _Polar(_inverted, 0j, u_out, _CORE_FRACTION * u_out)
        self.region = _patched(spec, reach, "exterior disk", annulus, prepare, [tail])


def integrate_exterior_disk(f, spec: QuadratureSpec | None = None, plan: ExteriorDiskPlan | None = None) -> QuadratureResult:
    """Integrate ``f(z) dA`` over |z| > 1 for integrands decaying like |z|**-3.

    The tail's ring core has exponent -1 for f ~ |z|**-3 and 0 for
    f ~ |z|**-4, read from its ring means; the regions are those of
    :class:`ExteriorDiskPlan`.  ``plan``, built from ``spec``, takes its
    place: the integrand then receives the nodes as the plan's
    ``prepare`` left them.  Warns when the tail's ring means say f decays
    more slowly than |z|**-3.
    """
    if plan is None:
        plan = ExteriorDiskPlan(spec)
    elif spec is not None and spec != plan.spec:
        raise ValueError("the plan was built for another QuadratureSpec")
    total, (gamma1, gamma2) = plan.region.integrate(f, plan.spec)
    # |u| tail(u) growing toward u = 0 signals decay slower than |z|^-3
    if abs(gamma1) > plan.spec.abs_tol and abs(gamma1) > 1.4 * abs(gamma2):
        warnings.warn(
            "exterior-disk integrand decays more slowly than |z|^-3; tail may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    return _check(total, "integrate_exterior_disk")
