import heapq
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goluzin_lab import quadrature
from goluzin_lab.errors import QuadratureError
from goluzin_lab.quadrature import (
    _MAX_REFINEMENTS,
    QuadratureResult,
    QuadratureSpec,
    _grid,
    _split,
    integrate_disk,
    integrate_exterior_disk,
    integrate_rect,
)


_SEEDS = _grid((0.0, 1.0, 0.0, 2.0), 4, 4)


def _passed(v):
    return v


def _in_parameters(g, seeds=()):
    """A drive on ``seeds`` whose nodes are the values of g(x, y), an
    integrand in the parameters; the integrand ``_passed`` hands them on."""
    return quadrature._Drive(seeds, lambda x, y: (g(x, y), _passed))


def _adaptive_2d(g, seeds, spec):
    """The driver on g(x, y) over the cells ``seeds``, opened by their seed
    pass."""
    res, _ = quadrature._Region(_in_parameters(g, seeds)).integrate(_passed, spec)
    return res


def _cells_integral(g, cells):
    """The GL sums of g(x, y) over ``cells``, from one drive call."""
    drive = _in_parameters(g)
    return drive.sums(drive.call(cells), _passed)


class TestDriver:
    @staticmethod
    def peaked(x, y):
        return np.exp(x) * np.cos(3.0 * y) + 1.0 / (0.01 + (x - 0.3) ** 2 + (y - 0.6) ** 2)

    def test_one_call_per_refinement(self):
        shapes = []

        def g(x, y):
            # the two parameter axes, each along its own array axis
            assert x.shape[2] == 1 and y.shape[1] == 1
            shapes.append(np.broadcast_shapes(x.shape, y.shape))
            return self.peaked(x, y)

        res = _adaptive_2d(g, _SEEDS, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14))
        # the seed pass places the 16 seeds, each with its four children, at once
        assert shapes[0] == (80, 8, 8)
        # from then on, one call per refined cell with its 16 grandchildren
        assert len(shapes) > 1 and set(shapes[1:]) == {(16, 8, 8)}
        assert res.n_evals == sum(math.prod(s) for s in shapes)

    def test_seed_block_is_each_seed_then_its_children(self):
        placed = []

        def g(x, y):
            placed.append((x, y))
            return self.peaked(x, y)

        _adaptive_2d(g, _SEEDS, QuadratureSpec(rel_tol=1e-2, abs_tol=1e-2))
        x, y = placed[0]
        assert x.shape == (80, 8, 1) and y.shape == (80, 1, 8)
        for k, (a0, a1, b0, b1) in enumerate(_SEEDS):
            xs, ys = x[5 * k : 5 * k + 5], y[5 * k : 5 * k + 5]
            assert a0 < xs.min() and xs.max() < a1 and b0 < ys.min() and ys.max() < b1

    def test_cell_sum_independent_of_call_layout(self):
        # a cell's sum comes from its own nodes only: alone, in a refinement's
        # call, in a drive's seed block (up to a few hundred cells), or
        # anywhere in a longer call
        rng = np.random.default_rng(3)
        cells = [tuple(np.sort(rng.uniform(0.0, 2.0, 2))) + tuple(np.sort(rng.uniform(-1.0, 1.0, 2))) for _ in range(240)]
        alone = [_cells_integral(self.peaked, [c])[0] for c in cells]
        for n in (5, 16, 20, 80, 240):
            for k in range(0, len(cells), n):
                batch = _cells_integral(self.peaked, cells[k : k + n])
                assert [v.hex() for v in batch] == [v.hex() for v in alone[k : k + n]]
        shuffled = rng.permutation(len(cells))
        batch = _cells_integral(self.peaked, [cells[i] for i in shuffled])
        assert [v.hex() for v in batch] == [alone[i].hex() for i in shuffled]

    def test_batched_sums_match_per_cell_formula(self):
        # each cell summed alone as hx hy ((w @ vals[k]) @ w) on full (order,
        # order) values, for integrands of both axes, of one axis, and constant
        rng = np.random.default_rng(5)
        x, w = np.polynomial.legendre.leggauss(8)
        integrands = (self.peaked, lambda a, b: np.exp(a), lambda a, b: np.cos(3.0 * b), lambda a, b: np.float64(1.7))
        for n in (1, 5, 16, 20, 20, 20):
            cells = [tuple(np.sort(rng.uniform(0.0, 2.0, 2))) + tuple(np.sort(rng.uniform(-1.0, 1.0, 2))) for _ in range(n)]
            a0, a1, b0, b1 = np.asarray(cells).T
            hx, hy = 0.5 * (a1 - a0), 0.5 * (b1 - b0)
            full = np.zeros((n, 8, 8))
            xs = (0.5 * (a0 + a1))[:, None, None] + hx[:, None, None] * x[:, None] + full
            ys = (0.5 * (b0 + b1))[:, None, None] + hy[:, None, None] * x + full
            for g in integrands:
                vals = np.asarray(g(xs, ys)) + full
                want = [float(hx[k]) * float(hy[k]) * float((w @ vals[k]) @ w) for k in range(n)]
                assert [v.hex() for v in _cells_integral(g, cells)] == [v.hex() for v in want]

    def test_refinement_sequence_pinned(self):
        # value, error and evaluation count of the one-cell-per-call driver:
        # batching the children must not change any of them
        res = _adaptive_2d(self.peaked, _SEEDS, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14))
        assert res.value == 11.641648803072352
        assert res.error == 6.977618136061459e-10
        assert res.n_evals == 15360
        assert res.converged


def _four_call_driver(drive, f, spec, seeded=None):
    """The driver as it was with one ``(4, order, order)`` call per new child
    of a refined cell, each cell summed as ``w @ vals[k] @ w``, on the same
    seed cells and nodes; it sums its seeds itself, so ``seeded``, from the
    seed pass, is not read."""
    seeds = drive.seeds
    n_evals = 0
    _, w = np.polynomial.legendre.leggauss(8)

    def cells_integral(cells):
        nonlocal n_evals
        call = drive.call(list(cells))
        vals = np.broadcast_to(drive.values(call, f), (len(cells), 8, 8))
        n_evals += call.size
        return [float(call.hx[k]) * float(call.hy[k]) * float(w @ vals[k] @ w) for k in range(len(cells))]

    heap, counter, value, err_total, frozen_err = [], 0, 0.0, 0.0, 0.0

    def make_node(cell, coarse, depth):
        nonlocal counter
        kids = _split(cell)
        if coarse is None:
            coarse, *fine_parts = cells_integral((cell, *kids))
        else:
            fine_parts = cells_integral(kids)
        fine = math.fsum(fine_parts)
        err = abs(fine - coarse)
        if not math.isfinite(err):
            err = math.inf
        counter += 1
        return (-err, counter, cell, fine, depth, tuple(zip(kids, fine_parts)))

    for cell in seeds:
        node = make_node(cell, None, 0)
        heapq.heappush(heap, node)
        value += node[3]
        err_total += -node[0]
    refinements = 0
    while heap:
        if err_total + frozen_err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
            break
        neg_err, _, cell, fine, depth, kids = heapq.heappop(heap)
        err = -neg_err
        if depth >= quadrature._MAX_DEPTH or refinements >= _MAX_REFINEMENTS:
            frozen_err += err
            err_total -= err
            continue
        refinements += 1
        value -= fine
        err_total -= err
        for child_cell, child_coarse in kids:
            node = make_node(child_cell, child_coarse, depth + 1)
            heapq.heappush(heap, node)
            value += node[3]
            err_total += -node[0]
    total_err = err_total + frozen_err
    return QuadratureResult(value, total_err, n_evals, bool(total_err <= max(spec.abs_tol, spec.rel_tol * abs(value))))


class TestMergedRefinementCall:
    """The driver against the four-calls-per-refinement driver it replaced."""

    @staticmethod
    def same(a, b):
        return (a.value, a.error, a.n_evals, a.converged) == (b.value, b.error, b.n_evals, b.converged)

    @staticmethod
    def both(integrate, monkeypatch):
        new = integrate()
        monkeypatch.setattr(quadrature, "_adaptive_2d", _four_call_driver)
        old = integrate()
        monkeypatch.undo()
        return new, old

    @pytest.mark.parametrize("max_depth", [14, 1])
    def test_peaked_bit_for_bit(self, max_depth, monkeypatch):
        # depth 1 freezes cells at the depth cap
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", max_depth)
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)
        new = _adaptive_2d(TestDriver.peaked, _SEEDS, spec)
        old = _four_call_driver(_in_parameters(TestDriver.peaked, _SEEDS), _passed, spec)
        assert self.same(new, old)
        assert new.converged == (max_depth == 14)

    def test_rect_with_interior_points(self, monkeypatch):
        p, q = 0.2 + 0.1j, -0.5 - 0.3j
        spec = QuadratureSpec(rel_tol=1e-7, singular_points=(p, q))
        f = lambda z: np.cos(z.real) / np.abs(z - p) + 1.0 / np.abs(z - q)
        new, old = self.both(lambda: integrate_rect(f, (-1, 1, -1, 1), spec), monkeypatch)
        assert self.same(new, old)

    def test_disk_with_interior_points(self, monkeypatch):
        p, q = 0.4 + 0.0j, -0.3 + 0.5j
        spec = QuadratureSpec(rel_tol=1e-8, singular_points=(0j, p, q))
        f = lambda z: 1.0 / np.abs(z) + 1.0 / np.abs(z - p) + np.abs(z) ** 2 / np.abs(z - q)
        new, old = self.both(lambda: integrate_disk(f, spec), monkeypatch)
        assert self.same(new, old)

    def test_exterior_disk_with_point_near_unit_circle(self, monkeypatch):
        p = 1.02 * np.exp(0.4j)
        spec = QuadratureSpec(rel_tol=1e-7, singular_points=(p,))
        f = lambda z: np.abs(z) ** -3.0 / np.abs(z - p)
        new, old = self.both(lambda: integrate_exterior_disk(f, spec), monkeypatch)
        assert self.same(new, old)


def _four_seed_pass(region, f):
    """The seed pass as the driver made it before: each drive's seeds four a
    call, each with its four children, through ``_Drive.call``, and a call
    of its own for each core's two rings, each call's nodes as the
    region's ``prepare`` leaves them.  Returns what ``_Region.seed_pass``
    does, and the nodes of each call."""
    seeded, nodes = [], []
    g = lambda z: f(region.prepare(z))
    for drive in region.drives:
        parts, n = [], 0
        for i in range(0, len(drive.seeds), 4):
            call = drive.call([c for cell in drive.seeds[i : i + 4] for c in (cell, *_split(cell))])
            parts += drive.sums(call, g)
            n += call.size
            nodes.append(call.nodes)
        seeded.append((parts, n))
    rings = [np.asarray(g(polar.ring), dtype=np.float64) for polar in region.polars]
    return (seeded, rings), nodes + [polar.ring for polar in region.polars]


def _hex(values):
    return [float(v).hex() for v in values]


class TestSeedPass:
    """A region's seed pass, its seed and ring nodes in ceil(n/4096) calls,
    against the layout it replaced, four seeds a call and a call per core,
    bit for bit: each seed's five GL sums, each core's value, error and
    ring means, and the result."""

    P, Q = 0.4 + 0.1j, -0.3 + 0.5j

    @staticmethod
    def recorded(f):
        seen = []

        def g(z):
            seen.append(z)
            return f(z)

        return g, seen

    def check(self, integrate, f, monkeypatch, n_regions=1):
        runs = []
        seed_pass = quadrature._Region.seed_pass

        def recording(region, g):
            runs.append((region, g, seed_pass(region, g)))
            return runs[-1][-1]

        g, seen = self.recorded(f)
        with monkeypatch.context() as mp:
            mp.setattr(quadrature._Region, "seed_pass", recording)
            new = integrate(g)
        assert len(runs) == n_regions
        assert max(z.size for z in seen) <= quadrature._CALL_NODES
        for region, g, (seeded, rings) in runs:
            (old_seeded, old_rings), old_nodes = _four_seed_pass(region, g)
            # each planned node reaches f once, in the order of the old calls
            assert len(seen) > len(region.calls) and all(z is call for z, call in zip(seen, region.calls))
            planned = np.concatenate([np.ravel(z) for z in region.calls])
            assert np.array_equal(planned, np.concatenate([np.ravel(z) for z in old_nodes]))
            n = planned.size
            assert [z.size for z in region.calls] == [n * (i + 1) // len(region.calls) - n * i // len(region.calls) for i in range(len(region.calls))]
            assert len(region.calls) == -(-n // quadrature._CALL_NODES)
            for (parts, count), (old_parts, old_count) in zip(seeded, old_seeded, strict=True):
                assert count == old_count and _hex(parts) == _hex(old_parts)
            for polar, ring, old_ring in zip(region.polars, rings, old_rings, strict=True):
                (core, *gammas), (old_core, *old_gammas) = polar.core(ring), polar.core(old_ring)
                assert _hex([core.value, core.error, *gammas]) == _hex([old_core.value, old_core.error, *old_gammas])
        with monkeypatch.context() as mp:
            mp.setattr(quadrature._Region, "seed_pass", lambda region, g: _four_seed_pass(region, g)[0])
            old = integrate(f)
        assert _hex([new.value, new.error]) == _hex([old.value, old.error])
        assert (new.n_evals, new.converged) == (old.n_evals, old.converged)
        return new

    def test_rect_with_two_points(self, monkeypatch):
        p, q = self.P, self.Q
        spec = QuadratureSpec(rel_tol=1e-7, singular_points=(p, q))
        f = lambda z: np.cos(z.real) / np.abs(z - p) + 1.0 / np.abs(z - q)
        self.check(lambda g: integrate_rect(g, (-1, 1, -1, 1), spec), f, monkeypatch)

    def test_disk_with_the_origin_and_two_points(self, monkeypatch):
        p, q = self.P, self.Q
        spec = QuadratureSpec(rel_tol=1e-8, singular_points=(0j, p, q))
        f = lambda z: 1.0 / np.abs(z) + 1.0 / np.abs(z - p) + np.abs(z) ** 2 / np.abs(z - q)
        self.check(lambda g: integrate_disk(g, spec), f, monkeypatch)

    def test_exterior_disk_own_plan(self, monkeypatch):
        p = 1.02 * np.exp(0.4j)
        spec = QuadratureSpec(rel_tol=1e-7, singular_points=(p,))
        f = lambda z: np.abs(z) ** -3.0 / np.abs(z - p)
        self.check(lambda g: integrate_exterior_disk(g, spec), f, monkeypatch)

    def test_exterior_disk_shared_plan(self, monkeypatch):
        # two integrands over one plan, whose calls are prepared once, when it is built
        p = 3.0 * np.exp(2.0j)
        spec = QuadratureSpec(rel_tol=1e-7, singular_points=(p,))
        prepared = []

        def prepare(z):
            prepared.append(z.shape)
            return z

        plan = quadrature.ExteriorDiskPlan(spec, prepare)
        calls = list(plan.region.calls)
        assert prepared == [z.shape for z in calls] and len(calls) >= 2
        f = lambda z: np.abs(z) ** -3.0 / np.abs(z - p)
        h = lambda z: np.abs(z) ** -3.0 * (1.5 + np.cos(3.0 * np.angle(z))) / np.abs(z - p)
        results = [self.check(lambda g: integrate_exterior_disk(g, plan=plan), e, monkeypatch) for e in (f, h)]
        assert results[0].value != results[1].value
        assert all(a is b for a, b in zip(plan.region.calls, calls, strict=True))


class TestBumpWeight:
    """The patch weight, the bump of t = d/r, and the far weight, one minus
    it: a partition of unity over the whole patch radius."""

    @staticmethod
    def weights(t):
        patch = float(quadrature._smooth_cut(np.float64(t)))
        return patch, 1.0 - patch

    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    @example(0.0, 1.0)
    @example(0.9999, 0.99991)  # the polynomial at t itself drops 7.7e-15 here
    @example(0.99999, 0.999995)  # and overshoots 1 here
    @settings(max_examples=300, deadline=None)
    def test_partition_of_unity(self, t1, t2):
        t1, t2 = sorted((t1, t2))
        (patch1, far1), (patch2, far2) = self.weights(t1), self.weights(t2)
        for patch, far in ((patch1, far1), (patch2, far2)):
            assert 0.0 <= patch <= 1.0 and 0.0 <= far <= 1.0
            assert abs(patch + far - 1.0) <= math.ulp(1.0)
        # non-decreasing up to rounding: next to t = 1/2 the far weight grows
        # by under one ulp from one float t to the next, and the polynomial is
        # rounded to a few ulps (the largest drop seen, between adjacent t, is 2^-51)
        assert far1 <= far2 + 2.0**-50
        assert far1 > 0.0 or t1 < 1e-4  # the live mask drops only nodes next to the point
        if t1 == 0.0:
            assert far1 == 0.0
        if t2 >= 1.0:
            assert far2 == 1.0


class TestFarWeight:
    """The far-field integrand f times one minus every bump, which takes each
    bump only at nodes closer to its point than its radius r, against the
    weight of every bump at every node, bit for bit."""

    @staticmethod
    def f(z):
        return 1.0 + np.abs(z) ** 2 + np.cos(z.real)

    def far_of(self, points, radius):
        """The far-field integrand of a drive with the bumps of ``points``:
        its values at any nodes z, from one call of the drive (of one cell,
        whose count is not asserted here)."""
        bumps = quadrature._patch_radii(points, lambda loc: radius, "plane")

        def far(z):
            drive = quadrature._Drive([], lambda x, y: (z, _passed), bumps)
            return drive.values(drive.call([(0.0, 1.0, 0.0, 1.0)]), self.f)

        return far

    def every_bump(self, locs, r, z):
        w = np.ones(z.shape)
        for p in locs:
            w *= 1.0 - quadrature._smooth_cut(np.abs(z - p) / r)
        out = np.zeros(z.shape)
        live = w > 0.0
        out[live] = self.f(z[live]) * w[live]
        return out

    @staticmethod
    def same_bits(a, b):
        return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_matches_every_bump_at_every_node(self):
        # two neighbouring patches, r = 0.4 of their distance (patches never
        # overlap), and nodes exactly at d = r, d = r/2 and d = 0 from each point
        p1 = 0.25 + 0.5j
        p2 = p1 + 0.3125
        r = min(0.125, 0.4 * abs(p2 - p1))
        assert r == 0.125
        far = self.far_of((p1, p2), 0.125)
        xs, ys = np.meshgrid(np.linspace(0.0, 0.8, 40), np.linspace(0.25, 0.75, 32))
        grid = (xs + 1j * ys).reshape(4, 8, 40)
        ring = np.array([p + d * e for p in (p1, p2) for d in (r, 0.5 * r, 0.0) for e in (1, -1, 1j, -1j)])
        assert np.all(np.abs(ring - np.repeat([p1, p2], 12)) == np.tile(np.repeat([r, 0.5 * r, 0.0], 4), 2))
        # just inside r, where one minus the bump is below 1 by a few ulps or rounds to 1
        edge = np.array([p + r * (1.0 - 2.0**-k) * np.exp(1j * k) for p in (p1, p2) for k in range(1, 25)])
        for z in (grid, ring.reshape(2, 3, 4), edge.reshape(2, 4, 6)):
            assert self.same_bits(far(z), self.every_bump((p1, p2), r, z))
        got, f = far(ring).reshape(2, 3, 4), self.f(ring.reshape(2, 3, 4))
        assert np.array_equal(got[:, 0], f[:, 0])  # d = r: no bump left
        assert np.array_equal(got[:, 1], 0.5 * f[:, 1])  # d = r/2: half the far field
        assert np.all(got[:, 2] == 0.0)  # d = 0: no far field left

    def test_all_live_and_all_dead_calls(self):
        p = 0.25 + 0.5j
        far = self.far_of((p,), 0.125)
        z = p + np.linspace(0.13, 0.5, 64).reshape(1, 8, 8) * np.exp(1j * np.linspace(0.0, 6.0, 8))
        assert self.same_bits(far(z), self.f(z))
        dead = np.full((1, 8, 8), p)  # nodes at the point itself
        assert self.same_bits(far(dead), np.zeros(dead.shape))
        mixed = np.concatenate([z, dead])
        assert self.same_bits(far(mixed), self.every_bump((p,), 0.125, mixed))


class TestEvaluationCount:
    """``n_evals`` is the number of points the integrand received."""

    @staticmethod
    def counting(f):
        seen = [0]

        def g(z):
            seen[0] += z.size
            return f(z)

        return g, seen

    @pytest.mark.parametrize(
        "integrate",
        [
            lambda f: integrate_disk(f, QuadratureSpec(rel_tol=1e-9)),
            lambda f: integrate_rect(f, (-1.0, 2.0, 1.0, 1.5), QuadratureSpec(rel_tol=1e-9)),
        ],
    )
    def test_patch_free_count_is_points_received(self, integrate):
        # without patches the integrand receives every node
        f, seen = self.counting(lambda z: np.cos(z.real) + z.imag**2)
        assert integrate(f).n_evals == seen[0]

    def test_exterior_disk_count(self):
        # every node of the annulus and of the tail, and the tail's ring
        # points, each once: the annulus's 2 x 9 seeds and their children, 90
        # cells of 64 nodes (5,760), the tail's 2 seeds and their children,
        # 10 cells (640), and two rings of 64 points (128)
        f, seen = self.counting(lambda z: np.abs(z) ** -3.0)
        assert integrate_exterior_disk(f, QuadratureSpec(rel_tol=1e-9)).n_evals == seen[0] == 6_528

    @pytest.mark.parametrize("region", ["rect", "disk", "exterior"])
    def test_tagged_count_is_points_received(self, region):
        # with points tagged the bumps keep far-field nodes out of the
        # integrand's calls; the count holds what it did receive, drive
        # nodes and ring points, and no node it never saw
        p, q = 0.4 + 0.1j, -0.3 + 0.5j
        points = {"rect": (p, q), "disk": (0j, p, q), "exterior": (3 * p, 3 * q)}[region]
        spec = QuadratureSpec(rel_tol=1e-7, singular_points=tuple(points))
        f, seen = self.counting(lambda z: sum(1.0 / np.abs(z - c) for c in points))
        integrate = {
            "rect": lambda: integrate_rect(f, (-1, 1, -1, 1), spec),
            "disk": lambda: integrate_disk(f, spec),
            "exterior": lambda: integrate_exterior_disk(lambda z: f(z) * np.abs(z) ** -3.0, spec),
        }[region]
        assert integrate().n_evals == seen[0]


class TestRingCore:
    """The core reads f on both its rings, eps and 2 eps, as one ``(2, 64)``
    block, and each ring's mean keeps the bits of a call of its own."""

    @staticmethod
    def two_calls(g, center, eps):
        """The core from one 64-point call per ring."""
        gamma1 = eps * float(np.asarray(g(center + eps * quadrature._RING, eps), dtype=np.float64).mean())
        gamma2 = 2.0 * eps * float(np.asarray(g(center + 2.0 * eps * quadrature._RING, 2.0 * eps), dtype=np.float64).mean())
        exponent = 0.0 if abs(gamma2) > 1.4 * abs(gamma1) else -1.0
        scale = 2.0 * math.pi * eps / (2.0 + exponent)
        error = scale * abs(gamma1 - gamma2 / 2.0 ** (1.0 + exponent))
        return scale * gamma1, error, gamma1, gamma2

    @pytest.mark.parametrize(
        "g",
        [
            lambda z, rho: np.cos(z.real) / np.abs(z - (0.3 - 0.2j)) + 0.0 * rho,  # a 1/r blow-up
            lambda z, rho: (1.0 + np.abs(z) ** 2) * (1.0 - rho**2),  # bounded, weighted by rho
            lambda u, rho: np.abs(1.0 / u) ** -3.0 / rho**4,  # the tail of an |z|^-3 integrand
        ],
    )
    @pytest.mark.parametrize("center,eps", [(0.3 - 0.2j, 5e-6), (0j, 2.5e-6), (-1.7 + 4.1j, 1e-5)])
    def test_one_call_same_bits(self, g, center, eps):
        shapes = []

        def counted(z, rho):
            shapes.append(np.broadcast_shapes(z.shape, np.shape(rho)))
            return g(z, rho)

        # a polar drive whose nodes are (z, rho), out to 2 eps: only its rings are read
        polar = quadrature._Polar(lambda z, rho: ((z, rho), _passed), center, 2.0 * eps, eps)
        core, gamma1, gamma2 = polar.core(np.asarray(counted(*polar.ring), dtype=np.float64))
        assert shapes == [(2, 64)]
        got = (core.value, core.error, gamma1, gamma2)
        assert [v.hex() for v in got] == [v.hex() for v in self.two_calls(g, center, eps)]
        assert core.n_evals == 128

    def test_rings_close_the_seed_pass(self):
        # the patch's rings and then the tail's, 256 points at the end of the
        # seed pass's last call; no call of their own
        p = 2.0 + 0.5j
        spec = QuadratureSpec(rel_tol=1e-7, singular_points=(p,))
        plan = quadrature.ExteriorDiskPlan(spec)
        seen = []

        def f(z):
            seen.append(z)
            return np.abs(z) ** -3.0 / np.abs(z - p)

        integrate_exterior_disk(f, plan=plan)
        patch, tail = plan.region.polars
        last = seen[len(plan.region.calls) - 1]
        assert last is plan.region.calls[-1]
        rings = np.concatenate([patch.ring.ravel(), tail.ring.ravel()])
        assert np.array_equal(last[-256:], rings)
        assert np.all(np.abs(rings[:128] - p) < 2e-5) and np.all(np.abs(rings[128:]) > 1e5)
        assert all(z.shape != (2, 64) for z in seen)


class TestSeedGrid:
    """Each drive opens with its seeds and their children in its region's
    seed pass: the rectangle and the unit-disk grid seed 4 x 4, the
    bump-confined polar patches and the tail cap seed 1 x 2, and the
    log-polar annulus seeds cells about square in its metric, graded toward
    each bump.  The pass gives f the region's seed and ring nodes in
    ceil(n/4096) calls of near-equal size; then each refinement is a call
    on 16 cells."""

    @staticmethod
    def drives(integrate, f, monkeypatch):
        """The seeds of each drive in drive order, with the seed sums and seed
        node count the seed pass gave it and the shapes of its refinement
        calls, and the sizes of the integrand's calls."""
        seen, sizes = [], []
        driver = quadrature._adaptive_2d

        def recording(drive, f, spec, seeded):
            shapes = []
            seen.append((drive.seeds, seeded, shapes))
            sums = drive.sums

            def counted(call, f):
                shapes.append((len(call.cells), 8, 8))
                return sums(call, f)

            drive.sums = counted
            return driver(drive, f, spec, seeded)

        def g(z):
            sizes.append(z.size)
            return f(z)

        monkeypatch.setattr(quadrature, "_adaptive_2d", recording)
        integrate(g)
        # the seed pass: every drive's seed nodes and two 64-point rings a core
        n = sum(seeded[1] for _, seeded, _ in seen) + 128 * (len(seen) - 1)
        calls = -(-n // 4096)
        assert sizes[:calls] == [n * (i + 1) // calls - n * i // calls for i in range(calls)]
        assert len(sizes) == calls + sum(len(shapes) for _, _, shapes in seen)
        return seen

    @staticmethod
    def opens_with(drive, grid=None, live=True):
        seeds, (parts, n), shapes = drive
        if grid is not None:
            assert seeds == _grid(*grid)
        assert len(parts) == 5 * len(seeds)
        # a far drive passes f no node where its bumps leave no weight
        assert n == 5 * 64 * len(seeds) if live else n <= 5 * 64 * len(seeds)
        assert set(shapes) <= {(16, 8, 8)}

    def test_exterior_disk(self, monkeypatch):
        # rel_tol 1e-8, so that each of the three drives refines past its seeds
        p = 2.0 + 0.5j
        spec = QuadratureSpec(rel_tol=1e-8, singular_points=(p,))
        f = lambda z: np.abs(z) ** -3.0 / np.abs(z - p)
        annulus, patch, tail = self.drives(lambda g: integrate_exterior_disk(g, spec), f, monkeypatch)
        r0, r = 2.2 * abs(p), 0.8 * (abs(p) - 1.0)  # the patch stays clear of the circle
        assert annulus[0] == quadrature._annulus_seeds(r0, [(p, r)])
        self.opens_with(annulus, live=False)
        self.opens_with(patch, ((1e-5 * r, r, 0.0, 2.0 * math.pi), 1, 2))
        self.opens_with(tail, ((1e-5 / r0, 1.0 / r0, 0.0, 2.0 * math.pi), 1, 2))
        assert all(shapes for _, _, shapes in (annulus, patch, tail))

    def test_disk(self, monkeypatch):
        p, q = 0.4 + 0.1j, -0.3 + 0.5j
        spec = QuadratureSpec(rel_tol=1e-7, singular_points=(0j, p, q))
        f = lambda z: 1.0 / np.abs(z) + 1.0 / np.abs(z - p) + 1.0 / np.abs(z - q)
        grid, *patches = self.drives(lambda g: integrate_disk(g, spec), f, monkeypatch)
        self.opens_with(grid, ((0.0, 1.0, 0.0, 2.0 * math.pi), 4, 4), live=False)
        assert len(patches) == 3  # the origin gets a patch like any other point
        for drive in patches:
            self.opens_with(drive)
            assert len(drive[0]) == 2

    def test_rect(self, monkeypatch):
        p = 0.2 + 0.1j
        spec = QuadratureSpec(rel_tol=1e-7, singular_points=(p,))
        f = lambda z: 1.0 / np.abs(z - p)
        grid, patch = self.drives(lambda g: integrate_rect(g, (-1, 1, -1, 1), spec), f, monkeypatch)
        self.opens_with(grid, ((-1.0, 1.0, -1.0, 1.0), 4, 4), live=False)
        self.opens_with(patch, ((1e-5 * 0.5, 0.5, 0.0, 2.0 * math.pi), 1, 2))


class TestAnnulusSeeds:
    """The annulus seeds: about square in log-polar coordinates, tiling the
    annulus, and graded toward each bump."""

    @staticmethod
    def tile(seeds, r0):
        # the seeds cover the parameter rectangle once: their areas add up
        # and each lies inside it
        assert math.isclose(sum((s1 - s0) * (t1 - t0) for s0, s1, t0, t1 in seeds), 2.0 * math.pi * math.log(r0))
        assert all(0.0 <= s0 < s1 <= math.log(r0) and 0.0 <= t0 < t1 <= 2.0 * math.pi for s0, s1, t0, t1 in seeds)

    def test_untagged_is_two_rows(self):
        seeds = quadrature._annulus_seeds(4.0, [])
        assert seeds == _grid((0.0, math.log(4.0), 0.0, 2.0 * math.pi), 2, 9)
        s0, s1, t0, t1 = seeds[0]
        assert 1.0 < (t1 - t0) / (s1 - s0) < 1.01

    @pytest.mark.parametrize("p,r", [(2.0 + 0.5j, 0.85), (1.00001, 8e-6), (-20.0j, 5.0)])
    def test_graded_toward_the_bump(self, p, r):
        r0 = max(4.0, 2.2 * abs(p))
        seeds = quadrature._annulus_seeds(r0, [(p, r)])
        self.tile(seeds, r0)
        sizes = [math.exp(s1) * max(s1 - s0, t1 - t0) for s0, s1, t0, t1 in seeds]
        dists = [quadrature._sector_distance(c, p) for c in seeds]
        assert all(size <= 8.0 * max(d, 0.5 * r) for size, d in zip(sizes, dists))
        # the two rows of seeds split next to the bump, into a few more cells
        assert 2 * round(4.0 * math.pi / math.log(r0)) < len(seeds) < 400

    def test_sector_distance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s0, s1 = np.sort(rng.uniform(0.0, 2.0, 2))
            t0 = rng.uniform(0.0, 2.0 * math.pi)
            t1 = t0 + rng.uniform(0.01, math.pi)
            p = complex(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))
            rho, theta = np.meshgrid(np.exp(np.linspace(s0, s1, 200)), np.linspace(t0, t1, 200))
            brute = float(np.abs(rho * np.exp(1j * theta) - p).min())
            d = quadrature._sector_distance((s0, s1, t0, t1), p)
            assert d <= brute + 1e-12 and brute - d <= 0.02 * math.exp(s1) * max(s1 - s0, t1 - t0)


def _confined(rho, a):
    """(1 - (rho/a)^2)^2 for rho < a, else 0: C^1 at rho = a."""
    return np.where(rho < a, (1.0 - (rho / a) ** 2) ** 2, 0.0)


class TestSeededErrorBars:
    """The error bar of a 2 x 2-seeded polar drive covers its true error.
    The confined integrands leave one region all the mass and every other
    region exactly zero, so the result is that region's alone; their kink
    at rho = a falls inside a cell, where the driver must refine."""

    TOLS = [2e-4, 1e-6]

    @staticmethod
    def covered(res, exact):
        assert abs(res.value - exact) <= res.error

    @pytest.mark.parametrize("rel_tol", TOLS)
    def test_disk_patch(self, rel_tol):
        # the patch at p has radius 0.25; a = 0.075 < 0.125, where the far field's weight is 0
        p, a = 0.4 + 0.1j, 0.075
        spec = QuadratureSpec(rel_tol=rel_tol, singular_points=(p,))
        res = integrate_disk(lambda z: _confined(np.abs(z - p), a) / np.abs(z - p), spec)
        self.covered(res, 16.0 * math.pi * a / 15.0)

    @pytest.mark.parametrize("rel_tol", TOLS)
    def test_exterior_patch(self, rel_tol):
        # the patch at 2 has radius 0.8 = 0.8 * (|p| - 1)
        p, a = 2.0 + 0.0j, 0.24
        spec = QuadratureSpec(rel_tol=rel_tol, singular_points=(p,))
        res = integrate_exterior_disk(lambda z: _confined(np.abs(z - p), a) / np.abs(z - p), spec)
        self.covered(res, 16.0 * math.pi * a / 15.0)

    @pytest.mark.parametrize("rel_tol", TOLS)
    def test_tail(self, rel_tol):
        # the tail is |u| < 1/4 under u = 1/z, where the integrand is _confined(|u|, a)
        a = 0.075
        res = integrate_exterior_disk(lambda z: _confined(1.0 / np.abs(z), a) / np.abs(z) ** 4, QuadratureSpec(rel_tol=rel_tol))
        self.covered(res, math.pi * a**2 / 3.0)

    @pytest.mark.parametrize("rel_tol", TOLS)
    def test_exterior_quartic_with_a_tagged_point(self, rel_tol):
        spec = QuadratureSpec(rel_tol=rel_tol, singular_points=(2.0 + 0.0j,))
        self.covered(integrate_exterior_disk(lambda z: np.abs(z) ** -4.0, spec), math.pi)

    @pytest.mark.parametrize("rel_tol", TOLS)
    def test_disk_quadratic_with_tagged_points(self, rel_tol):
        spec = QuadratureSpec(rel_tol=rel_tol, singular_points=(0.4 + 0j, -0.3 + 0.5j))
        self.covered(integrate_disk(lambda z: np.abs(z) ** 2, spec), 0.5 * math.pi)


class TestRect:
    def test_constant(self):
        res = integrate_rect(lambda z: np.ones_like(z.real), (0, 1, 0, 1))
        assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_polynomial_design_degree(self):
        # order-8 tensor rule integrates degree (15, 15) exactly
        res = integrate_rect(lambda z: z.real**15 * z.imag**14, (0, 1, 0, 1))
        assert res.value == pytest.approx((1 / 16) * (1 / 15), abs=1e-13)

    def test_inverse_distance_against_deep_reference(self, monkeypatch):
        # reference computed with a 100x tighter tolerance (same oracle family,
        # independent refinement depth); closed form is 8*log(1+sqrt(2))
        sp = 0j
        spec = QuadratureSpec(rel_tol=1e-6, singular_points=(sp,))
        res = integrate_rect(lambda z: 1.0 / np.abs(z), (-1, 1, -1, 1), spec)
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", 16)
        deep = integrate_rect(
            lambda z: 1.0 / np.abs(z),
            (-1, 1, -1, 1),
            QuadratureSpec(rel_tol=1e-8, singular_points=(sp,)),
        )
        assert abs(res.value - deep.value) <= max(res.error, 1e-8)
        assert res.value == pytest.approx(8.0 * math.log(1.0 + math.sqrt(2.0)), rel=1e-6)

    def test_error_estimate_covers_true_error(self):
        sp = 0.2 + 0.1j
        exact = None
        for tol in (1e-5, 1e-7):
            spec = QuadratureSpec(rel_tol=tol, singular_points=(sp,))
            res = integrate_rect(lambda z: 1.0 / np.abs(z - (0.2 + 0.1j)), (-1, 1, -1, 1), spec)
            if exact is None:
                coarse = res
            else:
                assert abs(coarse.value - res.value) <= 2.0 * coarse.error
            exact = res.value

    def test_refinement_monotonicity(self):
        sp = 0j
        errs = []
        for tol in (1e-4, 5e-5, 2.5e-5, 1.25e-5):
            spec = QuadratureSpec(rel_tol=tol, singular_points=(sp,))
            errs.append(integrate_rect(lambda z: 1.0 / np.abs(z), (-1, 1, -1, 1), spec).error)
        assert all(b <= a for a, b in zip(errs, errs[1:]))

    def test_determinism(self):
        sp = 0.3 + 0.2j
        spec = QuadratureSpec(rel_tol=1e-6, singular_points=(sp,))
        f = lambda z: np.cos(z.real) ** 2 / np.abs(z - (0.3 + 0.2j))
        r1 = integrate_rect(f, (-1, 1, -1, 1), spec)
        r2 = integrate_rect(f, (-1, 1, -1, 1), spec)
        assert r1.value == r2.value and r1.error == r2.error and r1.n_evals == r2.n_evals

    def test_singular_point_must_be_interior(self):
        with pytest.raises(ValueError):
            integrate_rect(
                lambda z: np.ones_like(z.real),
                (0, 1, 0, 1),
                QuadratureSpec(singular_points=(2 + 2j,)),
            )

    def test_nonconvergence_carries_partial_result(self, monkeypatch):
        # untagged 1/r singularity cannot converge at shallow depth
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", 3)
        spec = QuadratureSpec(rel_tol=1e-10)
        with pytest.raises(QuadratureError) as exc_info:
            integrate_rect(lambda z: 1.0 / np.abs(z), (-1, 1, -1, 1), spec)
        partial = exc_info.value.partial
        assert partial is not None and partial.value > 0


class TestDisk:
    def test_central_inverse_distance(self):
        spec = QuadratureSpec(rel_tol=1e-8, singular_points=(0j,))
        res = integrate_disk(lambda z: 1.0 / np.abs(z), spec)
        assert res.value == pytest.approx(2.0 * math.pi, rel=1e-8)

    def test_offcenter_vs_deep_reference(self):
        p = 0.4 + 0.0j
        spec = QuadratureSpec(rel_tol=1e-6, singular_points=(p,))
        f = lambda z: 1.0 / np.abs(z - p)
        res = integrate_disk(f, spec)
        deep = integrate_disk(f, QuadratureSpec(rel_tol=1e-9, singular_points=(p,)))
        assert abs(res.value - deep.value) <= max(res.error, 1e-7)

    def test_smooth(self):
        res = integrate_disk(lambda z: np.abs(z) ** 2)
        assert res.value == pytest.approx(math.pi / 2.0, rel=1e-10)


    @pytest.mark.parametrize(
        "f, exact",
        [
            (lambda z: np.ones(z.shape), math.pi),
            # pi + pi/4 + 2 pi J1(1)
            (lambda z: 1.0 + z.real**2 + np.cos(z.imag), 1.25 * math.pi + 2.0 * math.pi * 0.44005058574493355),
        ],
        ids=["constant", "smooth"],
    )
    def test_central_bounded_point_keeps_its_core(self, f, exact):
        # a bounded point at the center still has its core |z| < eps, of
        # mass pi eps^2 f(0) = 3.1e-10 f(0): the ring estimate recovers it
        # rather than doubling or dropping it
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, singular_points=(0j,))
        res = integrate_disk(f, spec)
        assert abs(res.value - exact) <= max(res.error, 1e-14)
        assert abs(res.value - exact) <= 1e-14


class TestExteriorDisk:
    def test_quartic_decay(self):
        res = integrate_exterior_disk(lambda z: np.abs(z) ** -4.0, QuadratureSpec(rel_tol=1e-9))
        assert res.value == pytest.approx(math.pi, rel=1e-8)

    @pytest.mark.parametrize("power, exact", [(-3.0, 2.0 * math.pi), (-4.0, math.pi)])
    def test_tail_core_fits_the_decay(self, power, exact):
        # the tail's core, |u| < 2.5e-6 under u = 1/z, is a 1/|u| blow-up
        # for |z|^-3 and bounded for |z|^-4; a 1/|u| estimate of the latter
        # would double its mass pi (2.5e-6)^2 = 2e-11
        res = integrate_exterior_disk(lambda z: np.abs(z) ** power, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15))
        assert abs(res.value - exact) <= 1e-14

    def test_cubic_decay(self):
        res = integrate_exterior_disk(lambda z: np.abs(z) ** -3.0, QuadratureSpec(rel_tol=1e-9))
        assert res.value == pytest.approx(2.0 * math.pi, rel=1e-8)

    def test_singular_point_with_deep_reference(self):
        p = 2.0 + 0.0j
        f = lambda z: np.abs(z) ** -3.0 / np.abs(z - p)
        r1 = integrate_exterior_disk(f, QuadratureSpec(rel_tol=1e-6, singular_points=(p,)))
        r2 = integrate_exterior_disk(f, QuadratureSpec(rel_tol=1e-8, singular_points=(p,)))
        assert abs(r1.value - r2.value) <= max(2.0 * r1.error, 1e-6)

    def test_decay_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            integrate_exterior_disk(lambda z: np.abs(z) ** -2.2, QuadratureSpec(rel_tol=1e-5))
        assert any("decays more slowly" in str(w.message) for w in caught)

    def test_no_false_decay_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            integrate_exterior_disk(lambda z: np.abs(z) ** -4.0, QuadratureSpec(rel_tol=1e-7))
        assert not any("decays more slowly" in str(w.message) for w in caught)

    def test_point_must_be_exterior(self):
        with pytest.raises(ValueError):
            integrate_exterior_disk(
                lambda z: np.abs(z) ** -4.0,
                QuadratureSpec(singular_points=(0.5 + 0j,)),
            )


class TestSpecValidation:
    def test_with_points(self):
        spec = QuadratureSpec(rel_tol=1e-4)
        sp = 1.5 + 0j
        spec2 = spec.with_points(sp)
        assert spec2.singular_points == (sp,)
        assert spec2.rel_tol == 1e-4
