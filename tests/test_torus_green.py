import math

import mpmath
import numpy as np
import pytest

from goluzin_lab.elliptic import params_from_x0, x0_from_zeta_abs
from goluzin_lab.errors import PoleError
from goluzin_lab.quadrature import QuadratureSpec
from goluzin_lab.torus import (
    GreenEvaluator,
    Q_D,
    dz_Q_D,
    dzbar_Q_D,
    green_G,
    kernel_norm_integral,
)

# the Landen form of dz_Q_D evaluates both of its branches; neither may warn
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _interior_points(p, rng, n=10):
    return rng.uniform(-2 * p.L, 2 * p.L, n) + 1j * rng.uniform(-0.45 * p.L_prime, 0.45 * p.L_prime, n)


class TestGeometry:
    def test_reduction_into_fundamental_domain(self, green_half, rng):
        geo = green_half.geometry
        p = geo.params
        z = rng.uniform(-30, 30, 50) + 1j * rng.uniform(-30, 30, 50)
        zr = geo.reduce(z)
        assert np.all(zr.real >= -2 * p.L) and np.all(zr.real < 2 * p.L)
        assert np.all(zr.imag >= -p.L_prime) and np.all(zr.imag < p.L_prime)
        # reduction shifts by lattice vectors only
        d = z - zr
        m = d.real / (4 * p.L)
        n = d.imag / (2 * p.L_prime)
        assert np.max(np.abs(m - np.round(m))) < 1e-9
        assert np.max(np.abs(n - np.round(n))) < 1e-9

    def test_rectangles_nested(self, green_half):
        x0, x1, y0, y1 = green_half.geometry.rect_DD
        X0, X1, Y0, Y1 = green_half.geometry.rect_D
        assert X0 <= x0 and x1 <= X1 and Y0 < y0 and y1 < Y1

    def test_b_const(self, green_half):
        x0 = green_half.params.x0
        b = green_half.b_const
        assert b.real == 0.0 and b.imag > 0.0
        assert abs(b) ** 2 == pytest.approx(0.5 * x0 * (1 - x0**4), rel=1e-15)


class TestGreenFunction:
    def test_symmetry(self, green_half, rng):
        z = _interior_points(green_half.params, rng)
        w = _interior_points(green_half.params, rng)
        assert np.max(np.abs(green_G(green_half, z, w) - green_G(green_half, w, z))) < 1e-10

    def test_odd(self, green_half, rng):
        z = _interior_points(green_half.params, rng)
        w = _interior_points(green_half.params, rng)
        assert np.max(np.abs(green_G(green_half, -z, w) + green_G(green_half, z, w))) < 1e-10

    def test_lattice_periodic(self, green_half, rng):
        p = green_half.params
        z = _interior_points(p, rng)
        w = _interior_points(p, rng)
        g = green_G(green_half, z, w)
        assert np.max(np.abs(green_G(green_half, z + 4 * p.L, w) - g)) < 1e-10
        assert np.max(np.abs(green_G(green_half, z + 2j * p.L_prime, w) - g)) < 1e-10

    def test_vanishes_on_gamma(self, green_half):
        w = 0.3 * green_half.params.L + 0.1j * green_half.params.L_prime
        for sign in (1, -1):
            pts = green_half.geometry.gamma_points(17, sign)
            assert np.max(np.abs(green_G(green_half, pts, w))) < 1e-10

    def test_reflection_antisymmetry(self, green_half, rng):
        # reflection in the boundary of D_D: z -> conj(z) + iL' flips the sign
        p = green_half.params
        z = _interior_points(p, rng)
        w = _interior_points(p, rng)
        g_ref = green_G(green_half, np.conj(z) + 1j * p.L_prime, w)
        assert np.max(np.abs(g_ref + green_G(green_half, z, w))) < 1e-10

    def test_harmonic_order_two(self, green_half):
        z0 = 0.3 * green_half.params.L + 0.2j * green_half.params.L_prime
        w0 = -0.7 * green_half.params.L - 0.25j * green_half.params.L_prime
        laps = []
        for h in (1e-2, 5e-3, 2.5e-3):
            lap = (
                green_G(green_half, z0 + h, w0)
                + green_G(green_half, z0 - h, w0)
                + green_G(green_half, z0 + 1j * h, w0)
                + green_G(green_half, z0 - 1j * h, w0)
                - 4.0 * green_G(green_half, z0, w0)
            ) / h**2
            laps.append(abs(lap))
        order1 = math.log2(laps[0] / laps[1])
        order2 = math.log2(laps[1] / laps[2])
        assert order1 >= 1.8 and order2 >= 1.8

    def test_log_singularity_signs(self, green_half):
        # G + log|z - w| - log|z + w| stays bounded as z approaches either
        # singular point (the displayed formula's own sign convention, the
        # one that makes the zeta-derivative carry a +1/z singularity)
        w0 = 0.4 * green_half.params.L + 0.15j * green_half.params.L_prime
        vals_plus, vals_minus = [], []
        for r in (1e-2, 1e-4, 1e-6):
            z = w0 + r * np.exp(0.3j)
            vals_plus.append(green_G(green_half, z, w0) + math.log(abs(z - w0)))
            z = -w0 + r * np.exp(0.3j)
            vals_minus.append(green_G(green_half, z, w0) - math.log(abs(z + w0)))
        assert np.ptp(vals_plus) < 1e-2
        assert np.ptp(vals_minus) < 1e-2

    def test_infinite_at_singularities(self, green_half):
        w0 = 0.4 + 0.2j
        assert green_G(green_half, w0, w0) == math.inf
        assert green_G(green_half, -w0, w0) == -math.inf


class TestQD:
    def test_vanishes_on_gamma(self, green_half):
        for sign in (1, -1):
            pts = green_half.geometry.gamma_points(23, sign)
            assert np.max(np.abs(Q_D(green_half, pts))) < 1e-10

    def test_odd(self, green_half, rng):
        z = _interior_points(green_half.params, rng)
        assert np.max(np.abs(Q_D(green_half, -z) + Q_D(green_half, z))) < 1e-10

    def test_lattice_periodic(self, green_half, rng):
        p = green_half.params
        z = _interior_points(p, rng)
        q = Q_D(green_half, z)
        assert np.max(np.abs(Q_D(green_half, z + 4 * p.L) - q)) < 1e-10
        assert np.max(np.abs(Q_D(green_half, z + 2j * p.L_prime) - q)) < 1e-10

    @pytest.mark.parametrize("ray", [1.0, 1j, -1.0, np.exp(0.7j)])
    def test_simple_pole_residue_one(self, green_half, ray):
        # z * Q_D(z) -> 1 along four rays; Richardson extrapolation in t
        ts = np.array([1e-3, 5e-4, 2.5e-4])
        vals = np.array([(t * ray) * Q_D(green_half, t * ray) for t in ts])
        extrapolated = 2.0 * vals[-1] - vals[-2]
        assert abs(extrapolated - 1.0) < 1e-6

    def test_matches_wirtinger_derivative_of_G(self, green_half, rng):
        # independent oracle: numerical d/dzeta of green_G at zeta = 0
        p = green_half.params
        h = 1e-5 * p.L
        for z in _interior_points(p, rng, 6):
            gx = (green_G(green_half, z, h) - green_G(green_half, z, -h)) / (2 * h)
            gy = (green_G(green_half, z, 1j * h) - green_G(green_half, z, -1j * h)) / (2 * h)
            dzeta = 0.5 * (gx - 1j * gy)
            assert abs(dzeta - Q_D(green_half, z)) < 1e-6

    def test_pole_signal(self, green_half):
        with pytest.raises(PoleError):
            Q_D(green_half, 0.0)
        with pytest.raises(PoleError):
            Q_D(green_half, 4.0 * green_half.params.L)


class TestDerivatives:
    def test_closed_forms_match_finite_differences(self, green_half, rng):
        h = 1e-5
        for z in _interior_points(green_half.params, rng, 10):
            qx = (Q_D(green_half, z + h) - Q_D(green_half, z - h)) / (2 * h)
            qy = (Q_D(green_half, z + 1j * h) - Q_D(green_half, z - 1j * h)) / (2 * h)
            dz = 0.5 * (qx - 1j * qy)
            dzb = 0.5 * (qx + 1j * qy)
            assert abs(dz - dz_Q_D(green_half, z)) < 1e-6
            assert abs(dzb - dzbar_Q_D(green_half, z)) < 1e-6

    def test_dz_even(self, green_half, rng):
        z = _interior_points(green_half.params, rng, 8)
        np.testing.assert_allclose(dz_Q_D(green_half, -z), dz_Q_D(green_half, z), rtol=1e-12)

    def test_dzbar_at_zero(self, green_half):
        p = green_half.params
        val = dzbar_Q_D(green_half, 0.0)
        assert abs(val.imag) < 1e-13
        assert abs(val - (-(p.M**2) * p.E_prime / p.K_prime)) < 1e-10

    def test_dzbar_zero_consistent_with_legendre(self, green_half):
        # -M^2 (1 - E/K + pi/(2KK')) = -M^2 E'/K'
        p = green_half.params
        lhs = -(p.M**2) * (1.0 - p.E / p.K + math.pi / (2 * p.K * p.K_prime))
        assert lhs == pytest.approx(-(p.M**2) * p.E_prime / p.K_prime, abs=1e-12)

    def test_dz_pole_signal(self, green_half):
        with pytest.raises(PoleError):
            dz_Q_D(green_half, 0.0)


class TestDzQDOracle:
    """dz_Q_D against M^2 (E'/K' - 1/sn(M z)^2) evaluated by mpmath."""

    @staticmethod
    def _reference(p, z):
        with mpmath.workdps(30):
            kp = mpmath.mpf(p.kappa_prime)
            m = 1 - kp**2  # kappa itself rounds near 1
            big_m = 1 / (1 + kp)
            e_over_k = mpmath.ellipe(kp**2) / mpmath.ellipk(kp**2)
            sn = [mpmath.ellipfun("sn", big_m * mpmath.mpc(x), m=m) for x in z]
            return np.array([complex(big_m**2 * (e_over_k - 1 / s**2)) for s in sn])

    @pytest.mark.parametrize(
        "zeta_abs, rtol",
        [(1.001, 2e-12), (1.25, 2e-14), (2.0, 2e-14), (3.0, 2e-14), (1.0001, 1.5e-11), (10.0, 2e-13), (100.0, 3e-13)],
    )
    def test_rectangle(self, zeta_abs, rtol, rng):
        ev = GreenEvaluator.from_params(params_from_x0(x0_from_zeta_abs(zeta_abs)))
        p = ev.params
        z = rng.uniform(-2.0 * p.L, 2.0 * p.L, 30) + 1j * rng.uniform(-p.L_prime, p.L_prime, 30)
        np.testing.assert_allclose(dz_Q_D(ev, z), self._reference(p, z), rtol=rtol)

    @pytest.mark.parametrize("zeta_abs", [1.0001, 1.001, 1.25, 2.0, 3.0, 10.0, 100.0])
    def test_ring_at_core_radius(self, zeta_abs):
        # the torus cross-check excludes a core of radius 5e-4 L around the pole at 0;
        # there cn(z + L; x0^2) is read off theta sums that cancel next to its zero
        ev = GreenEvaluator.from_params(params_from_x0(x0_from_zeta_abs(zeta_abs)))
        p = ev.params
        z = 5e-4 * p.L * np.exp(2j * math.pi * (np.arange(16) + 0.5) / 16)
        np.testing.assert_allclose(dz_Q_D(ev, z), self._reference(p, z), rtol=6e-12)

    @pytest.mark.parametrize(
        "zeta_abs, rtol",
        [(1.0001, 1.5e-11), (1.001, 1e-12), (1.25, 2e-14), (2.0, 2e-14), (3.0, 2e-14), (10.0, 2e-14), (100.0, 2e-14)],
    )
    def test_near_half_period(self, zeta_abs, rtol):
        # z = +-2L is where sn(z + L; x0^2) = -1, the branch the Landen form takes as 1 - xi
        ev = GreenEvaluator.from_params(params_from_x0(x0_from_zeta_abs(zeta_abs)))
        p = ev.params
        th = 2j * math.pi * (np.arange(8) + 0.5) / 8
        z = np.concatenate(
            [s * 2.0 * p.L + r * p.L * np.exp(th) for s in (1, -1) for r in (1e-2, 1e-5, 1e-8)] + [[2.0 * p.L, -2.0 * p.L]]
        )
        np.testing.assert_allclose(dz_Q_D(ev, z), self._reference(p, z), rtol=rtol)
        # sn(M 2L; kappa) = sn(K; kappa) = 1
        assert dz_Q_D(ev, 2.0 * p.L) == pytest.approx(p.M**2 * (p.E_prime / p.K_prime - 1.0), rel=rtol)

    @pytest.mark.parametrize("z", [1e-5, 1e-6 * (1 + 1j), 1e-3 - 2e-3j, 0.3 + 0.1j])
    def test_small_argument(self, z):
        # 1 - sn(z + L; x0^2) cancels next to z = 0 unless it is taken as cn^2/(1 + sn)
        ev = GreenEvaluator.from_x0(0.27)
        assert dz_Q_D(ev, z) == pytest.approx(self._reference(ev.params, [z])[0], rel=2e-10, abs=0.0)

    @pytest.mark.parametrize("zeta_abs", [1.0001, 1.25, 2.0, 100.0])
    def test_at_poles_of_the_shifted_sn(self, zeta_abs):
        # sn(z + L; x0^2) has poles at z = +-L + iL', where 1/sn(M z; kappa)^2 = 1 - kappa'
        ev = GreenEvaluator.from_params(params_from_x0(x0_from_zeta_abs(zeta_abs)))
        p = ev.params
        corners = np.array([s * p.L + t * 1j * p.L_prime for s in (1, -1) for t in (1, -1)] + [3.0 * p.L + 1j * p.L_prime])
        z = np.concatenate([corners + d * p.L * np.exp(0.7j) for d in (0.0, 1e-11, 1e-6)])
        np.testing.assert_allclose(dz_Q_D(ev, z), self._reference(p, z), rtol=1e-13)

    @pytest.mark.parametrize("zeta_abs", [1.0001, 2.0, 100.0])
    @pytest.mark.parametrize("lattice_point", ["0", "4L", "2iL'", "4L+2iL'"])
    def test_pole_on_lattice_orbit_of_zero(self, zeta_abs, lattice_point):
        ev = GreenEvaluator.from_params(params_from_x0(x0_from_zeta_abs(zeta_abs)))
        p = ev.params
        z = {"0": 0.0, "4L": 4.0 * p.L, "2iL'": 2j * p.L_prime, "4L+2iL'": 4.0 * p.L + 2j * p.L_prime}[lattice_point]
        with pytest.raises(PoleError):
            dz_Q_D(ev, z)
        with pytest.raises(PoleError):
            dz_Q_D(ev, np.array([0.3 * p.L, z]))


class TestKernelNormIntegral:
    @pytest.mark.parametrize("x0", [0.25, 0.5, 0.75])
    def test_matches_closed_form(self, x0):
        ev = GreenEvaluator.from_x0(x0)
        p = ev.params
        res = kernel_norm_integral(ev, QuadratureSpec(rel_tol=1e-8))
        target = math.pi * p.M**2 * p.E_prime / p.K_prime
        assert res.value == pytest.approx(target, rel=1e-6)

    def test_scaled_form(self):
        ev = GreenEvaluator.from_x0(0.5)
        p = ev.params
        res = kernel_norm_integral(ev, QuadratureSpec(rel_tol=1e-8))
        scaled = res.value / abs(ev.b_const) ** 2
        target = math.pi * (1 + p.x0**2) * p.E_prime / (2 * p.x0 * (1 - p.x0**2) * p.K_prime)
        assert scaled == pytest.approx(target, rel=1e-6)
