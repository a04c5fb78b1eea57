import cmath
import dataclasses
import functools
import math

import numpy as np
import pytest

from goluzin_lab.catalog import catalog, resolve_map
from goluzin_lab.elliptic import params_from_x0, x0_from_zeta_abs
from goluzin_lab.errors import DomainError
from goluzin_lab import inequalities
from goluzin_lab.inequalities import (
    PsiEvaluator,
    _DiskField,
    _MarchedSqrt,
    _seg_point_dist,
    goluzin_bound,
    gronwall_check,
    koebe_bieberbach_bound,
    pointwise_from_area,
    psi_at_diagonal,
    psi_field,
    torus_area_crosscheck,
    verify_area_disk,
    verify_area_sigma,
)
from goluzin_lab.maps import BridgeMaps, phi_from_psi
from goluzin_lab.quadrature import QuadratureResult, QuadratureSpec, _Accumulator, _cells_integral, _split

AREA_TEST_SPEC = QuadratureSpec(rel_tol=2e-4, abs_tol=1e-10)


class TestGoluzin:
    @pytest.mark.parametrize("t", [1.2, 1.5, 2.0, 3.0])
    def test_joukowski_equality_at_real_points(self, t):
        r = goluzin_bound(resolve_map("joukowski"), t)
        assert r.status == "equality"
        assert abs(r.ratio - 1.0) < 1e-10

    @pytest.mark.parametrize("name", ["identity", "b1:0.7"])
    @pytest.mark.parametrize(
        "z", [1.2, 1.5, 2.0, 3.0, 1.5 * np.exp(0.25j * math.pi), 2.0j]
    )
    def test_strict_inequality_pairs(self, name, z):
        r = goluzin_bound(resolve_map(name), complex(z))
        assert r.status == "holds"
        assert r.lhs < r.rhs * (1.0 - 1e-6)

    def test_identity_at_two_explicit_values(self):
        # lhs = |(4*4-2)/(2*3) - (4*2/3) E/K|, rhs = (8/3)(1 - E/K) at modulus 1/2
        p = params_from_x0(x0_from_zeta_abs(2.0))
        ek = p.E / p.K
        r = goluzin_bound(resolve_map("identity"), 2.0)
        assert r.lhs == pytest.approx(abs((4 * 4 - 2) / (2 * 3) - (4 * 2 / 3) * ek), abs=1e-14)
        assert r.rhs == pytest.approx((8 / 3) * (1 - ek), abs=1e-14)

    def test_two_forms_agree_through_legendre(self, rng):
        zs = rng.uniform(1.1, 3.5, 10) * np.exp(1j * rng.uniform(0, 2 * math.pi, 10))
        for name in ("joukowski", "b1:0.7", "identity", "joukowski-pi3"):
            for z in zs:
                r = goluzin_bound(resolve_map(name), complex(z))
                scale = max(1.0, r.rhs)
                assert r.inputs["legendre_bridge_residual"] < 1e-12 * scale
                assert r.inputs["alt_form_holds"]

    def test_value_disk_geometry(self):
        # attained complex values over the catalog stay inside the bound disk,
        # and rotations of the full mapping reach the boundary radius
        z = 2.0
        p = params_from_x0(x0_from_zeta_abs(z))
        rhs = (4.0 * z / (z * z - 1.0)) * (1.0 - p.E / p.K)
        best = 0.0
        for theta in np.linspace(0, 2 * math.pi, 24, endpoint=False):
            m = resolve_map(f"b1:{math.cos(theta):.15f}{math.sin(theta):+.15f}i")
            r = goluzin_bound(m, z)
            assert r.lhs <= rhs * (1 + 1e-10)
            best = max(best, r.lhs)
        assert best == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("t", [1e3, 1e8])
    def test_joukowski_equality_at_large_radius(self, t):
        r = goluzin_bound(resolve_map("joukowski"), t)
        assert r.status == "equality"
        assert abs(r.ratio - 1.0) <= 1e-14

    def test_domain_error(self):
        with pytest.raises(DomainError):
            goluzin_bound(resolve_map("joukowski"), 0.8)


class TestKoebeBieberbach:
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.6, 0.9])
    def test_koebe_equality(self, t):
        r = koebe_bieberbach_bound(resolve_map("koebe"), t)
        assert r.status == "equality"
        assert abs(r.ratio - 1.0) < 1e-10

    def test_second_derivative_bound_attained_at_origin(self):
        koebe = resolve_map("koebe")
        assert abs(complex(koebe.deriv2(np.complex128(0.0)))) == pytest.approx(4.0, abs=1e-13)

    def test_identity_strict(self):
        r = koebe_bieberbach_bound(resolve_map("identity-disk"), 0.5)
        assert r.lhs == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert r.rhs == pytest.approx(16.0 / 3.0, abs=1e-14)
        assert r.status == "holds"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            koebe_bieberbach_bound(resolve_map("joukowski"), 0.5)
        with pytest.raises(DomainError):
            koebe_bieberbach_bound(resolve_map("koebe"), 1.5)


class TestPsiField:
    def test_identity_field_decays_like_one_over_z(self):
        ev = PsiEvaluator(resolve_map("identity"), 2.0)
        vals = []
        for radius in (1e2, 1e3, 1e4):
            z = complex(radius, radius / 3)
            vals.append(abs(psi_field(ev, z) * z))
        assert np.ptp(vals) < 0.05 * vals[0]

    def test_diagonal_limit_matches_formula(self):
        ev = PsiEvaluator(resolve_map("joukowski"), 2.0)
        assert abs(psi_field(ev, 2.0) - psi_at_diagonal(ev)) < 1e-12
        approached = psi_field(ev, 2.0 + 1e-5 + 1e-5j)
        assert abs(approached - psi_at_diagonal(ev)) < 1e-4

    def test_joukowski_diagonal_closed_form(self):
        # |Psi(t, t)| = (E'/K') t/(t^2-1) for the full mapping at real t
        for t in (1.2, 2.0, 3.0):
            ev = PsiEvaluator(resolve_map("joukowski"), t)
            assert abs(psi_at_diagonal(ev)) == pytest.approx(
                ev.ep_over_kp * t / (t * t - 1.0), rel=1e-12
            )

    def test_flipped_base_sign_is_detected_by_diagonal(self):
        ev = PsiEvaluator(resolve_map("joukowski"), 2.0)
        flipped = PsiEvaluator(resolve_map("joukowski"), 2.0, flip_sqrt_base=True)
        z = 2.0 + 1e-5
        assert abs(psi_field(ev, z) - psi_at_diagonal(ev)) < 1e-4
        assert abs(psi_field(flipped, z) - psi_at_diagonal(ev)) > 1e3

    def test_field_magnitude_invariant_under_rotation_of_map(self, rng):
        # rotating the omitted-segment direction rotates the field
        # consistently; the modulus on the diagonal obeys the same bound
        for theta in (math.pi / 3, math.pi / 2):
            ev = PsiEvaluator(resolve_map(f"joukowski-pi{3 if theta == math.pi/3 else 2}"), 1.8)
            bound = ev.ep_over_kp * 1.8 / (1.8**2 - 1.0)
            assert abs(psi_at_diagonal(ev)) <= bound * (1 + 1e-12)

    def test_rejects_disk_maps(self):
        with pytest.raises(DomainError):
            PsiEvaluator(resolve_map("koebe"), 2.0)

    def test_route_stays_in_exterior_disk(self):
        # the pole of A at b1/zeta sits just inside the unit circle; a chord
        # that dips inside would pass it and march the wrong sign
        ev = PsiEvaluator(resolve_map("joukowski-pi3"), 1.0 + 1e-6)
        for t in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False):
            route = np.array(ev._route(complex((1.0 + 1e-9) * np.exp(1j * t))))
            assert _seg_point_dist(route[:-1], route[1:], 0j).min() > 1.0


class TestPointwiseFromArea:
    @pytest.mark.parametrize("t", [1.2, 1.5, 2.0, 3.0])
    def test_joukowski_equality(self, t):
        r = pointwise_from_area(PsiEvaluator(resolve_map("joukowski"), t))
        assert r.status == "equality" and abs(r.ratio - 1.0) < 1e-10

    def test_rotated_coefficient_strict(self):
        m = resolve_map(f"b1:{0.7*math.cos(math.pi/4):.15f}{0.7*math.sin(math.pi/4):+.15f}i")
        r = pointwise_from_area(PsiEvaluator(m, 1.8))
        assert r.status == "holds" and r.lhs < r.rhs

    def test_bound_on_sweep_grid(self):
        for m in ("identity", "joukowski", "joukowski-pi3", "joukowski-pi2", "b1:0.3", "b1:0.7"):
            for radius in (1.25, 1.5, 2.0, 3.0):
                for arg in (0.0, math.pi / 4, math.pi / 2):
                    zeta = radius * complex(math.cos(arg), math.sin(arg))
                    r = pointwise_from_area(PsiEvaluator(resolve_map(m), zeta))
                    assert r.lhs <= r.rhs * (1 + 1e-12)

    def test_cauchy_schwarz_consistency_with_area_integral(self):
        # |Psi(zeta,zeta)|^2 <= (area lhs) * (E'/K') |zeta| / ((|zeta|^2-1) 2 pi),
        # with equality for the full mapping
        for name, zeta in (("joukowski", 2.0), ("b1:0.7", 1.5)):
            ev = PsiEvaluator(resolve_map(name), zeta)
            area = verify_area_sigma(resolve_map(name), zeta, AREA_TEST_SPEC)
            factor = ev.ep_over_kp * abs(zeta) / ((abs(zeta) ** 2 - 1.0) * 2.0 * math.pi)
            lhs_sq = abs(psi_at_diagonal(ev)) ** 2
            assert lhs_sq <= area.lhs * factor * (1.0 + 5e-3)


class TestGronwall:
    def test_joukowski_equality_both_routes(self):
        r = gronwall_check(resolve_map("joukowski"))
        assert r.status == "equality"
        assert abs(r.lhs - 1.0) < 1e-6
        assert r.inputs["route_residual"] < 1e-6

    @pytest.mark.parametrize("name,expected", [("b1:0.3", 0.09), ("b1:0.7", 0.49), ("identity", 0.0)])
    def test_single_coefficient_maps(self, name, expected):
        r = gronwall_check(resolve_map(name))
        assert r.lhs == pytest.approx(expected, abs=1e-6)
        assert r.inputs["coefficient_sum"] == pytest.approx(expected, abs=1e-12)
        assert r.inputs["route_residual"] < 1e-6
        assert r.status == ("holds" if expected < 1 else "equality")


class TestAreaSigma:
    def test_joukowski_equality_at_two(self):
        r = verify_area_sigma(resolve_map("joukowski"), 2.0, AREA_TEST_SPEC)
        assert r.status == "equality"
        assert abs(r.ratio - 1.0) < 5e-3

    def test_identity_strictly_below(self):
        r = verify_area_sigma(resolve_map("identity"), 2.0, AREA_TEST_SPEC)
        assert r.status == "holds"
        assert r.ratio < 1.0 - 3.0 * r.error_estimate / r.rhs

    def test_monotone_in_coefficient_with_regression_values(self):
        # frozen after first computation at rel_tol 5e-5; guards quadrature drift
        frozen = {0.0: 0.769705, 0.3: 0.788860, 0.7: 0.870092, 1.0: 1.000000}
        ratios = []
        for b, expected in frozen.items():
            name = "identity" if b == 0 else ("joukowski" if b == 1 else f"b1:{b}")
            r = verify_area_sigma(resolve_map(name), 2.0, AREA_TEST_SPEC)
            ratios.append(r.ratio)
            assert r.ratio == pytest.approx(expected, abs=2e-3)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_equality_iff_full_mapping_on_subgrid(self):
        for name in ("identity", "joukowski", "joukowski-pi3", "joukowski-pi2", "b1:0.3", "b1:0.7"):
            m = resolve_map(name)
            for zeta in (1.5, 2.0):
                r = verify_area_sigma(m, zeta, AREA_TEST_SPEC)
                assert (r.status == "equality") == m.full_mapping, (name, zeta, r.ratio)

    def test_complex_zeta(self):
        r = verify_area_sigma(resolve_map("joukowski"), 1.5 + 0.5j, AREA_TEST_SPEC)
        assert r.status == "equality"
        assert abs(r.ratio - 1.0) < 5e-3

    @pytest.mark.parametrize("zeta", [2.0**23, 1e7j, 3e11, 1e12, 1e20, 1e40, 1e300 * cmath.exp(1j)])
    def test_unresolved_core_ring_raises(self, zeta):
        # the float spacing next to zeta exceeds 1e-4 of the core-ring offset 1e-5
        with pytest.raises(DomainError):
            verify_area_sigma(resolve_map("joukowski"), zeta)

    def test_last_resolved_core_ring_gives_a_verdict(self):
        r = verify_area_sigma(resolve_map("joukowski"), 2.0**23 - 1.0)
        assert r.status == "equality" and math.isfinite(r.lhs) and math.isfinite(r.error_estimate)

    def test_partial_coefficient_sits_between_identity_and_equality(self):
        rid = verify_area_sigma(resolve_map("identity"), 1.5, AREA_TEST_SPEC)
        r07 = verify_area_sigma(resolve_map("b1:0.7"), 1.5, AREA_TEST_SPEC)
        assert rid.ratio < r07.ratio < 1.0


class TestAreaDisk:
    @pytest.mark.parametrize("name,zeta", [("joukowski", 2.0), ("identity", 2.0), ("b1:0.3", 1.5)])
    def test_change_of_variables_consistency(self, name, zeta):
        bridge = BridgeMaps.from_zeta(zeta)
        phi = phi_from_psi(bridge, resolve_map(name))
        rd = verify_area_disk(phi, bridge.x0, AREA_TEST_SPEC)
        rs = verify_area_sigma(resolve_map(name), zeta, AREA_TEST_SPEC)
        assert abs(rd.ratio - rs.ratio) < 1e-3

    def test_joukowski_equality(self):
        bridge = BridgeMaps.from_zeta(2.0)
        phi = phi_from_psi(bridge, resolve_map("joukowski"))
        r = verify_area_disk(phi, bridge.x0, AREA_TEST_SPEC)
        assert r.status == "equality" and abs(r.ratio - 1.0) < 5e-3

    def test_rejects_unnormalised_map(self):
        with pytest.raises(DomainError):
            verify_area_disk(resolve_map("koebe"), 0.3, AREA_TEST_SPEC)


class TestTorusCrossCheck:
    def test_full_mapping_equality_at_half(self):
        # x0 = 0.5 corresponds to |zeta| = 1.25
        r = torus_area_crosscheck(resolve_map("joukowski"), 1.25)
        assert r.status == "equality"
        assert abs(r.ratio - 1.0) < 2e-2

    def test_matches_sigma_ratio_for_identity(self):
        rt = torus_area_crosscheck(resolve_map("identity"), 1.25)
        rs = verify_area_sigma(resolve_map("identity"), 1.25, AREA_TEST_SPEC)
        assert abs(rt.ratio - rs.ratio) < 5e-3


def _driver_block(cell, to_plane, seed=False):
    """The nodes of one driver call: the 16 grandchildren of ``cell`` when the
    driver refines it, (16, 8, 8), or for a seed cell the cell itself and its
    four children, (5, 8, 8)."""
    calls = []

    def g(x, y):
        calls.append(to_plane(x, y))
        return np.zeros(x.shape)

    cells = (cell, *_split(cell)) if seed else [gk for kid in _split(cell) for gk in _split(kid)]
    _cells_integral(g, cells, 8, _Accumulator())
    assert len(calls) == 1 and calls[0].shape == (len(cells), 8, 8)
    return calls[0]


def _polar(center):
    return lambda rho, theta: center + rho * np.exp(1j * theta)


class TestMarchedSqrtBlock:
    """``block`` against the per-point march ``at`` on whole driver calls."""

    @staticmethod
    def check(sq, zs, monkeypatch):
        marches = []
        march = _MarchedSqrt.at

        def counted(self, z):
            marches.append(z)
            return march(self, z)

        monkeypatch.setattr(_MarchedSqrt, "at", counted)
        g = sq.block(zs)
        monkeypatch.setattr(_MarchedSqrt, "at", march)
        flat, gf = zs.reshape(-1), g.reshape(-1)
        ref = np.array([sq.at(complex(z)) for z in flat])
        assert np.all(np.abs(gf - ref) < np.abs(gf + ref))
        assert np.allclose(gf, ref, rtol=1e-9, atol=0.0)
        # one march for the first node outside the danger disks and one per
        # danger disk the block reaches; no per-point fallback
        idx = sq._danger_index(flat)
        assert len(marches) == int((idx < 0).any()) + len(set(idx[idx >= 0].tolist()))
        return idx

    @pytest.mark.parametrize("name", ["joukowski", "b1:0.7"])
    @pytest.mark.parametrize("zeta", [1.25, 2.0, 3j])
    def test_psi_field(self, name, zeta, monkeypatch):
        ev = PsiEvaluator(resolve_map(name), zeta)
        arg = float(np.angle(zeta)) % (2.0 * math.pi)
        th0 = 0.5 * math.pi * math.floor(arg / (0.5 * math.pi))
        log_r0 = math.log(max(4.0, 2.2 * abs(zeta)))
        annulus = lambda s, theta: np.exp(s + 1j * theta)
        # the inner annulus seed cell in the direction of zeta (its seed call
        # and its refinement), and the cells of the polar patch around zeta on
        # either side of its radial line
        seed = (0.0, 0.25 * log_r0, th0, th0 + 0.5 * math.pi)
        for seed_call in (True, False):
            self.check(ev._sqrt_a, _driver_block(seed, annulus, seed_call), monkeypatch)
        for th in (0.0, 1.5 * math.pi):
            block = _driver_block((0.05, 0.2, th, th + 0.5 * math.pi), _polar(complex(zeta)))
            self.check(ev._sqrt_a, block, monkeypatch)

    def test_disk_form_danger_disk(self, monkeypatch):
        bridge = BridgeMaps.from_zeta(2.0)
        x0 = bridge.x0
        fieldd = _DiskField(phi_from_psi(bridge, resolve_map("b1:0.7")), x0, bridge.params)
        sq = fieldd._sqrt_v
        # seed cells of the unit-disk grid next to -x0 (their seed calls and
        # their refinements), and a cell around -x0
        cells = (
            (0.0, (0.25, 0.5, 0.5 * math.pi, math.pi), True),
            (0.0, (0.25, 0.5, math.pi, 1.5 * math.pi), True),
            (0.0, (0.25, 0.5, 0.5 * math.pi, math.pi), False),
            (0.0, (0.25, 0.5, math.pi, 1.5 * math.pi), False),
            (-x0, (0.0, 2.0 * sq._dangers[0][1], 0.0, 0.5 * math.pi), False),
        )
        reached = set()
        for center, cell, seed_call in cells:
            idx = self.check(sq, _driver_block(cell, _polar(complex(center)), seed_call), monkeypatch)
            reached |= set(idx[idx >= 0].tolist())
        assert reached == {0}

    def test_torus_danger_disks(self, monkeypatch):
        made = []

        class Recording(_MarchedSqrt):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(inequalities, "_MarchedSqrt", Recording)
        monkeypatch.setattr(inequalities, "integrate_rect", lambda f, rect, spec: QuadratureResult(1.0, 0.0, 0, True))
        torus_area_crosscheck(resolve_map("b1:0.7"), 2.0)
        (sq,) = made
        p = BridgeMaps.from_zeta(2.0).params
        L, Lp = p.L, p.L_prime
        plane = lambda x, y: x + 1j * y
        # seed cells of the fundamental band that touch the danger disks at 0
        # and 2L: their seed calls and their refinements
        reached = set()
        for cell in ((0.0, L, 0.0, 0.25 * Lp), (-L, 0.0, -0.25 * Lp, 0.0), (L, 2.0 * L, -0.25 * Lp, 0.0),
                     (2.0 * L, 3.0 * L, 0.0, 0.25 * Lp)):
            for seed_call in (True, False):
                idx = self.check(sq, _driver_block(cell, plane, seed_call), monkeypatch)
                reached |= set(idx[idx >= 0].tolist())
        assert reached == {0, 1}


SIGMA_NAMES = [m.name for m in catalog() if m.map_class == "Sigma"] + [
    "b1:0.5i",
    f"b1:{0.99 * cmath.exp(1j)}",
    "b1:-1",
    f"b1:{cmath.exp(1j * math.pi / 3)}",
]


def _oracle_nodes(ev):
    """Nodes next to the unit circle, just outside the diagonal disk of zeta,
    and out to |z| = 1e6."""
    th = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False) + 0.1
    return {
        "circle": np.concatenate([(1.0 + d) * np.exp(1j * th) for d in (1e-9, 1e-3)]),
        "diagonal": ev.zeta + 1.5 * ev._diag_radius * np.exp(1j * th[::2]),
        "far": np.geomspace(2.0, 1e6, 40) * np.exp(1j * (np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False) + 0.1)),
    }


class TestClosedFormSqrt:
    """The sign of sqrt(A) in ``PsiEvaluator.field`` against the per-point march ``at``."""

    @staticmethod
    def field_root(ev, zs, monkeypatch):
        """The root ``field`` uses at ``zs``, and whether ``block`` made it."""
        roots, blocks = [], []
        sqrt_of_a, block = PsiEvaluator._sqrt_of_a, _MarchedSqrt.block

        def recorded(self, z, a):
            roots.append(sqrt_of_a(self, z, a))
            return roots[-1]

        def counted(self, z):
            blocks.append(z)
            return block(self, z)

        monkeypatch.setattr(PsiEvaluator, "_sqrt_of_a", recorded)
        monkeypatch.setattr(_MarchedSqrt, "block", counted)
        ev.field(zs)
        monkeypatch.undo()
        (g,) = roots
        return g, bool(blocks)

    @staticmethod
    def marched(ev, zs):
        return np.array([ev._sqrt_a.at(complex(z)) for z in zs])

    @pytest.mark.parametrize("name", SIGMA_NAMES)
    @pytest.mark.parametrize("zeta", [1.0 + 1e-6, 1.25, 3j, 1e3])
    def test_sign_matches_march(self, name, zeta, monkeypatch):
        ev = PsiEvaluator(resolve_map(name), zeta)
        for group, zs in _oracle_nodes(ev).items():
            g, used_block = self.field_root(ev, zs, monkeypatch)
            ref = self.marched(ev, zs)
            assert np.all(np.abs(g - ref) < np.abs(g + ref)), group
            root = np.sqrt(ev._ratio_a(zs))
            assert np.all((g == root) | (g == -root)), group
            # psi'(zeta) = 1 - zeta^-2 ~ 2e-6: psi(z) - psi(zeta) cancels next
            # to the diagonal and A misses the closed form by 6e-4, beyond the
            # 1e-6 check, so that call is continued by block
            fallback = name == "joukowski" and zeta == 1.0 + 1e-6 and group == "diagonal"
            assert used_block == fallback, group

    def test_coefficients_not_describing_value_take_block(self, monkeypatch):
        # the identity's value with a b1 = 0.3 expansion: ref^2 misses A = 1,
        # except next to zeta, where both are 1 to within 1e-8 and the sign of
        # ref is the sign of the root
        m = dataclasses.replace(resolve_map("identity"), coefficients=(0.0, 0.3))
        ev = PsiEvaluator(m, 2.0)
        for group, zs in _oracle_nodes(ev).items():
            g, used_block = self.field_root(ev, zs, monkeypatch)
            assert used_block == (group != "diagonal"), group
            assert np.allclose(g, self.marched(ev, zs), rtol=1e-12, atol=0.0), group

    @pytest.mark.parametrize("name", ["joukowski", "b1:0.7"])
    @pytest.mark.parametrize("zeta", [1.25, 3j])
    def test_closed_form_and_march_agree_bit_for_bit(self, name, zeta, monkeypatch):
        blocks = []
        block = _MarchedSqrt.block

        def counted(self, z):
            blocks.append(z)
            return block(self, z)

        monkeypatch.setattr(_MarchedSqrt, "block", counted)
        m = resolve_map(name)
        closed = verify_area_sigma(m, zeta)
        assert not blocks
        marched = verify_area_sigma(dataclasses.replace(m, coefficients=None), zeta)
        assert blocks
        assert (closed.ratio, closed.error_estimate, closed.status, closed.inputs["n_evals"]) == (
            marched.ratio,
            marched.error_estimate,
            marched.status,
            marched.inputs["n_evals"],
        )


def _roots_used(call, monkeypatch):
    """Run ``call``; the roots ``signed_like`` returned, in call order, and
    the number of ``block`` calls."""
    roots, blocks = [], []
    signed_like, block = _MarchedSqrt.signed_like, _MarchedSqrt.block

    def recorded(self, zs, vals, ref):
        roots.append(signed_like(self, zs, vals, ref))
        return roots[-1]

    def counted(self, zs):
        blocks.append(zs)
        return block(self, zs)

    with monkeypatch.context() as mp:
        mp.setattr(_MarchedSqrt, "signed_like", recorded)
        mp.setattr(_MarchedSqrt, "block", counted)
        call()
    return roots, len(blocks)


def _disk_field(name, zeta, **changes):
    bridge = BridgeMaps.from_zeta(zeta)
    psi = dataclasses.replace(resolve_map(name), **changes)
    return _DiskField(phi_from_psi(bridge, psi), bridge.x0, bridge.params)


def _disk_nodes(fieldd, n=300):
    """Random nodes of the unit disk, a ring inside the danger disk at -x0,
    and a ring close to x0."""
    rng = np.random.default_rng(7)
    th = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False) + 0.1
    return {
        "disk": np.sqrt(rng.uniform(0.0, 0.998, n)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n)),
        "danger": -fieldd.x0 + 0.5 * fieldd._clear * np.exp(1j * th),
        "near_x0": fieldd.x0 + 1e-4 * (1.0 - fieldd.x0) * np.exp(1j * th),
    }


def _disk_call(seed=True):
    """One integrand call of the cubature on the unit-disk seed cell next to -x0."""
    return _driver_block((0.25, 0.5, 0.5 * math.pi, math.pi), _polar(0j), seed)


def _torus_parts(name, zeta, monkeypatch, **changes):
    """The cross-check's integrand and its march for (psi, zeta), without integrating."""
    made, seen = [], []

    class Recording(_MarchedSqrt):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    def capture(f, rect, spec):
        seen.append(f)
        return QuadratureResult(1.0, 0.0, 0, True)

    with monkeypatch.context() as mp:
        mp.setattr(inequalities, "_MarchedSqrt", Recording)
        mp.setattr(inequalities, "integrate_rect", capture)
        torus_area_crosscheck(dataclasses.replace(resolve_map(name), **changes), zeta)
    (sq,), (f,) = made, seen
    return f, sq


def _torus_nodes(zeta, n=300):
    """Random nodes of the band -L..3L x +-L'/2 and rings inside the danger
    disks at 0 and 2L (outside the excluded core at 0)."""
    p = BridgeMaps.from_zeta(zeta).params
    L, Lp = p.L, p.L_prime
    clear = min(0.125 * Lp, 0.2 * L)
    rng = np.random.default_rng(11)
    th = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False) + 0.1
    return np.concatenate(
        [
            rng.uniform(-L, 3.0 * L, n) + 1j * rng.uniform(-0.5 * Lp, 0.5 * Lp, n),
            0.5 * clear * np.exp(1j * th),
            2.0 * L + 0.5 * clear * np.exp(1j * th),
        ]
    )


def _is_signed_root(g, arg):
    root = np.sqrt(arg)
    return np.all((g == root) | (g == -root))


class TestClosedFormDiskSqrt:
    """The sign of sqrt(V) in the disk form against the per-point march ``at``
    and, for the identity, against the exact root."""

    @pytest.mark.parametrize("name", ["joukowski", "joukowski-pi3", "identity", "b1:0.7", "b1:0.5i"])
    @pytest.mark.parametrize("zeta", [1.25, 2.0, 3j, 1.0 + 1e-4])
    def test_sign_matches_march(self, name, zeta, monkeypatch):
        fieldd = _disk_field(name, zeta)
        for group, w in _disk_nodes(fieldd).items():
            (g,), blocks = _roots_used(lambda: fieldd.integrand(w), monkeypatch)
            ref = np.array([fieldd._sqrt_v.at(complex(x)) for x in w])
            assert np.all(np.abs(g - ref) < np.abs(g + ref)), group
            assert _is_signed_root(g, fieldd._ratio_v(w)), group
            # psi'(zeta) ~ 2e-4: psi(z') - psi(zeta) cancels 1.4e-6 from x0
            # and V misses the closed form by 3e-4, so block takes that call
            fallback = name == "joukowski" and zeta == 1.0 + 1e-4 and group == "near_x0"
            assert blocks == fallback, group

    @pytest.mark.parametrize("zeta", [2.0, 20.0, 50.0, 1000.0])
    def test_identity_matches_exact_root(self, zeta, monkeypatch):
        # Q = 1 for the identity, so sqrt(V(w)) = (w + x0)/sqrt(2 x0) exactly;
        # the march signs some of these nodes wrongly from |zeta| = 20 on
        fieldd = _disk_field("identity", zeta)
        w = np.concatenate(list(_disk_nodes(fieldd).values()))
        (g,), blocks = _roots_used(lambda: fieldd.integrand(w), monkeypatch)
        assert blocks == 0
        exact = (w + fieldd.x0) / math.sqrt(2.0 * fieldd.x0)
        assert np.all(np.abs(g - exact) < np.abs(g + exact))
        assert np.allclose(g, exact, rtol=1e-9, atol=0.0)
        assert _is_signed_root(g, fieldd._ratio_v(w))

    def test_coefficients_not_describing_value_take_block(self, monkeypatch):
        fieldd = _disk_field("identity", 2.0, coefficients=(0.0, 0.3))
        for seed in (True, False):
            w = _disk_call(seed)
            (g,), blocks = _roots_used(lambda: fieldd.integrand(w), monkeypatch)
            assert blocks == 1
            assert np.array_equal(g, fieldd._sqrt_v.block(w))

    def test_maps_without_source_take_block(self, monkeypatch):
        fieldd = _disk_field("b1:0.7", 2.0)
        plain = dataclasses.replace(fieldd.phi, source=None)
        marched = _DiskField(plain, fieldd.x0, BridgeMaps.from_zeta(2.0).params)
        for seed in (True, False):
            w = _disk_call(seed)
            (g,), blocks = _roots_used(lambda: marched.integrand(w), monkeypatch)
            assert blocks == 1
            assert np.array_equal(g, fieldd._sqrt_of_v(w))

    @pytest.mark.parametrize("name", ["joukowski", "b1:0.7"])
    @pytest.mark.parametrize("zeta", [1.25, 3j])
    def test_closed_form_and_march_agree_bit_for_bit(self, name, zeta, monkeypatch):
        bridge = BridgeMaps.from_zeta(zeta)
        psi = resolve_map(name)
        runs = []
        for m in (psi, dataclasses.replace(psi, coefficients=None)):
            roots, blocks = _roots_used(
                lambda m=m: runs.append(verify_area_disk(phi_from_psi(bridge, m), bridge.x0)), monkeypatch
            )
            runs.append(blocks)
        closed, n_closed, marched, n_marched = runs
        assert n_closed == 0 and n_marched == len(roots)
        assert (closed.ratio, closed.error_estimate, closed.status, closed.inputs["n_evals"]) == (
            marched.ratio,
            marched.error_estimate,
            marched.status,
            marched.inputs["n_evals"],
        )


TORUS_PAIRS = [
    ("joukowski", 1.25),
    ("joukowski", 3j),
    ("joukowski-pi3", 2.0),
    ("joukowski-pi3", 1.5 + 0.5j),
    ("identity", 1.25),
    ("identity", 2.0),
    ("identity", 10.0),
    ("b1:0.7", 1.25),
    ("b1:0.7", 3j),
    ("b1:0.5i", 2.0),
    ("b1:0.5i", 1.01),
    ("b1:-1", -2.0),
]


class TestClosedFormTorusSqrt:
    """The sign of sqrt(phi(sigma)) in the torus cross-check against ``at``."""

    @pytest.mark.parametrize("name,zeta", TORUS_PAIRS)
    def test_sign_matches_march(self, name, zeta, monkeypatch):
        f, sq = _torus_parts(name, zeta, monkeypatch)
        z = _torus_nodes(zeta)
        (g,), blocks = _roots_used(lambda: f(z), monkeypatch)
        assert blocks == 0
        ref = np.array([sq.at(complex(t)) for t in z])
        assert np.all(np.abs(g - ref) < np.abs(g + ref))
        assert _is_signed_root(g, sq._func(z))

    def test_coefficients_not_describing_value_take_block(self, monkeypatch):
        f, sq = _torus_parts("identity", 2.0, monkeypatch, coefficients=(0.0, 0.3))
        p = BridgeMaps.from_zeta(2.0).params
        # one integrand call of the cubature on a seed cell above the real axis
        z = _driver_block((0.0, p.L, 0.0, 0.25 * p.L_prime), lambda x, y: x + 1j * y, seed=True)
        (g,), blocks = _roots_used(lambda: f(z), monkeypatch)
        assert blocks == 1
        assert np.array_equal(g, sq.block(z))

    @pytest.mark.parametrize("name", ["joukowski", "b1:0.7"])
    @pytest.mark.parametrize("zeta", [1.25, 3j])
    def test_closed_form_and_march_agree_bit_for_bit(self, name, zeta, monkeypatch):
        psi = resolve_map(name)
        runs = []
        for m in (psi, dataclasses.replace(psi, coefficients=None)):
            roots, blocks = _roots_used(lambda m=m: runs.append(torus_area_crosscheck(m, zeta)), monkeypatch)
            runs.append(blocks)
        closed, n_closed, marched, n_marched = runs
        assert n_closed == 0 and n_marched == len(roots)
        assert (closed.ratio, closed.error_estimate, closed.status, closed.inputs["n_evals"]) == (
            marched.ratio,
            marched.error_estimate,
            marched.status,
            marched.inputs["n_evals"],
        )


class TestDiskFormLargeZeta:
    """The disk form past the reach of the march: no raise, and agreement
    with the other forms."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def disk(name, zeta):
        bridge = BridgeMaps.from_zeta(zeta)
        return verify_area_disk(phi_from_psi(bridge, resolve_map(name)), bridge.x0)

    @pytest.mark.parametrize(
        "name,zeta",
        [
            pytest.param(name, 20.0, marks=pytest.mark.xfail(strict=True, reason=(
                "the sigma form misses by 1.3e-3 at |zeta| = 20 against err/rhs 1e-4 (ROADMAP item 2)"
            )))
            for name in ("identity", "joukowski")
        ]
        + [("identity", 50.0), ("joukowski", 50.0), ("joukowski", 1000.0)],
    )
    def test_agrees_with_sigma_form(self, name, zeta):
        rd = self.disk(name, zeta)
        rs = verify_area_sigma(resolve_map(name), zeta)
        assert abs(rd.ratio - rs.ratio) <= 3.0 * (rd.error_estimate / rd.rhs + rs.error_estimate / rs.rhs)

    @pytest.mark.parametrize("name", ["identity", "joukowski"])
    def test_agrees_with_torus_at_twenty(self, name):
        rd = self.disk(name, 20.0)
        rt = torus_area_crosscheck(resolve_map(name), 20.0)
        assert abs(rd.ratio - rt.ratio) <= 3.0 * (rd.error_estimate / rd.rhs + rt.error_estimate / rt.rhs)

    @pytest.mark.parametrize("zeta", [20.0, 50.0, 1000.0])
    def test_full_mapping_ratio_is_one(self, zeta):
        r = self.disk("joukowski", zeta)
        assert abs(r.ratio - 1.0) <= 3.0 * r.error_estimate / r.rhs
