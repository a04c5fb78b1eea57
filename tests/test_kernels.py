"""The AGM and theta-series kernels against mpmath oracles."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from goluzin_lab import _kernels
from goluzin_lab.elliptic import params_from_x0
from goluzin_lab.errors import PoleError
from goluzin_lab.maps import BridgeMaps
from goluzin_lab.theta import JacobiContext, jacobi_sn_cn_dn

TAGS = ("kappa", "x0_squared")


class TestAgmOracle:
    @pytest.mark.parametrize("k", [0.0, 0.1, 0.5, 0.8, 0.99, 1.0])
    def test_matches_mpmath(self, k):
        big_k, big_e, _ = _kernels.agm_complete(k)
        with mpmath.workdps(30):
            m = mpmath.mpf(k) ** 2
            ref_k, ref_e = float(mpmath.ellipk(m)), float(mpmath.ellipe(m))
        if math.isinf(ref_k):
            assert big_k == math.inf
        else:
            assert big_k == pytest.approx(ref_k, rel=1e-15)
        assert big_e == pytest.approx(ref_e, rel=1e-15)

    @pytest.mark.parametrize("k", [1e-8, 1e-3, 0.1, 0.5, 0.99])
    def test_e_gap_matches_mpmath(self, k):
        # 1 - E/K ~ k^2/2 for small k: formed from E and K it cancels
        with mpmath.workdps(40):
            m = mpmath.mpf(k) ** 2
            ref = float(1 - mpmath.ellipe(m) / mpmath.ellipk(m))
        assert _kernels.agm_complete(k)[2] == pytest.approx(ref, rel=1e-14, abs=0.0)


class TestAgmPaths:
    def test_complement_argument_improves_extreme_moduli(self):
        # near k = 1 the recomputed complement loses ~5 digits; the exact
        # complement keeps the Legendre residual at machine level
        k = 0.9999995
        kp = np.sqrt((1 - k) * (1 + k))
        K1, _, _ = _kernels.agm_complete(k, kp)
        K2, _, _ = _kernels.agm_complete(k)
        assert abs(K1 - K2) < 1e-9 * K1


def _reduced_arguments(ctx, rng, n=40):
    """Random u in the reduced cell |Re u| <= 1/2, |Im u| <= K'/(2K)."""
    y_max = ctx.quarter_Kp / (2.0 * ctx.quarter_K)
    return rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-y_max, y_max, n)


SCALE_RTOL = 1e-15
_TWO_PI = 2.0 * math.pi


def _jtheta4(u, h, dps):
    """mpmath theta_4(pi u, h) and its u-derivative, the series of ``theta_series``."""
    with mpmath.workdps(dps):
        pu = [mpmath.pi * mpmath.mpc(x) for x in u]
        ref = np.array([complex(mpmath.jtheta(4, x, h)) for x in pu])
        dref = np.array([complex(mpmath.pi * mpmath.jtheta(4, x, h, 1)) for x in pu])
    return ref, dref


class TestThetaOracle:
    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("x0", [0.1, 0.5, 0.9, 0.999])
    def test_matches_mpmath_jtheta(self, x0, tag, rng):
        ctx = JacobiContext(params_from_x0(x0), tag)
        u = _reduced_arguments(ctx, rng)
        val, dval, scale = _kernels.theta_series(u, ctx.nome)
        ref, dref = _jtheta4(u, ctx.nome, 30)
        np.testing.assert_allclose(val, ref, rtol=1e-14)
        np.testing.assert_allclose(dval, dref, rtol=1e-14)
        assert np.all(scale >= np.abs(val))

    @pytest.mark.parametrize("tag", TAGS)
    def test_near_degenerate_modulus_within_scale(self, tag, rng):
        # at x0 = 0.99999 the nome of kappa is 0.68 and the terms cancel:
        # the error is bounded against the returned scale, not against |val|
        ctx = JacobiContext(params_from_x0(0.99999), tag)
        u = _reduced_arguments(ctx, rng)
        val, dval, scale = _kernels.theta_series(u, ctx.nome)
        ref, dref = _jtheta4(u, ctx.nome, 30)
        assert np.all(np.abs(val - ref) <= SCALE_RTOL * scale)
        assert np.all(np.abs(dval - dref) <= SCALE_RTOL * _TWO_PI * scale)

    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("x0", [1e-12, 1e-30, 1e-60])
    def test_tiny_nome_on_cell_edge(self, x0, tag, rng):
        # |Im u| = K'/(2K): term n of the cosine form is h**(n*n) * cosh(2 pi n |Im u|),
        # a product of 0 and an overflow at h ~ 1e-241 (x0 = 1e-60 at modulus x0**2)
        ctx = JacobiContext(params_from_x0(x0), tag)
        y_max = ctx.quarter_Kp / (2.0 * ctx.quarter_K)
        u = rng.uniform(-0.5, 0.5, 12) + 1j * y_max * np.tile([1.0, -1.0], 6)
        val, dval, scale = _kernels.theta_series(u, ctx.nome)
        assert np.all(np.isfinite(val)) and np.all(np.isfinite(dval)) and np.all(np.isfinite(scale))
        # jtheta sums cosines that cancel to about 1/h: it needs that many digits
        ref, dref = _jtheta4(u, ctx.nome, int(-math.log10(ctx.nome)) + 30)
        # exp(2 pi i u) carries the rounding of u times |2 pi u|
        tol = SCALE_RTOL * (1.0 + _TWO_PI * np.abs(u)) * scale
        assert np.all(np.abs(val - ref) <= tol)
        assert np.all(np.abs(dval - dref) <= _TWO_PI * tol)
        assert np.all(scale >= np.abs(val))


def _jtheta_all(u, h, dps):
    """mpmath theta_1..theta_4 at pi u, the first two divided by h**(1/4)."""
    with mpmath.workdps(dps):
        h4 = mpmath.mpf(h) ** 0.25
        pu = [mpmath.pi * mpmath.mpc(x) for x in u]
        return np.array(
            [[complex(mpmath.jtheta(i, x, h) / (h4 if i < 3 else 1)) for x in pu] for i in (1, 2, 3, 4)]
        )


class TestQuarterThetas:
    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("x0", [1e-30, 0.1, 0.5, 0.9, 0.999])
    def test_matches_mpmath_jtheta(self, x0, tag, rng):
        ctx = JacobiContext(params_from_x0(x0), tag)
        y_max = ctx.quarter_Kp / (4.0 * ctx.quarter_K)
        u = rng.uniform(-0.25, 0.25, 30) + 1j * rng.uniform(-y_max, y_max, 30)
        thetas, scale = _kernels.theta_series(u, ctx.nome, quarter=True)
        ref = _jtheta_all(u, ctx.nome, 30 + int(-math.log10(ctx.nome)))
        np.testing.assert_allclose(thetas, ref, rtol=1e-14)
        assert np.all(scale >= np.abs(thetas[0]))

    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("x0", [0.1, 0.5, 0.9])
    def test_theta1_relative_next_to_its_zero(self, x0, tag):
        # theta1 ~ 2 pi u h**(1/4) is formed as sin v times a sum near 1
        ctx = JacobiContext(params_from_x0(x0), tag)
        u = np.array([1e-9, -3e-12j, 1e-15 * (1 + 1j), 2e-300 - 1e-300j])
        thetas, _ = _kernels.theta_series(u, ctx.nome, quarter=True)
        np.testing.assert_allclose(thetas[0], _jtheta_all(u, ctx.nome, 30)[0], rtol=1e-15)

    def test_shapes(self):
        thetas, scale = _kernels.theta_series(np.zeros((2, 3)), 0.06, quarter=True)
        assert thetas.shape == (4, 2, 3) and scale.shape == (2, 3)


class TestThetaPaths:
    def test_scalar_shape(self):
        val, dval, scale = _kernels.theta_series(0.25 + 0.1j, 0.06)
        assert np.shape(val) == np.shape(dval) == np.shape(scale) == ()


# About 2.5x the worst relative errors measured with one theta series per
# numerator (1.8e-13 in the cell and 6.4e-13 at 7 cells, both at x0 = 0.99999
# and modulus kappa); reading two numerators off shared terms must not need more.
SNCNDN_RTOL_CELL = 4e-13
SNCNDN_RTOL_FAR = 1.5e-12


class TestSnCnDnOracle:
    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("x0", [0.1, 0.5, 0.9])
    def test_matches_mpmath_ellipfun(self, x0, tag, rng):
        ctx = JacobiContext(params_from_x0(x0), tag)
        K, Kp = ctx.quarter_K, ctx.quarter_Kp
        z = rng.uniform(-2.0 * K, 2.0 * K, 30) + 1j * rng.uniform(-0.9 * Kp, 0.9 * Kp, 30)
        got = jacobi_sn_cn_dn(ctx, z)
        with mpmath.workdps(30):
            m = mpmath.mpf(ctx.k) ** 2
            for name, values in zip(("sn", "cn", "dn"), got):
                ref = np.array([complex(mpmath.ellipfun(name, mpmath.mpc(x), m=m)) for x in z])
                np.testing.assert_allclose(values, ref, rtol=1e-13)

    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("x0", [0.99, 0.999, 0.99999])
    @pytest.mark.parametrize("cells, rtol", [(0, SNCNDN_RTOL_CELL), (7, SNCNDN_RTOL_FAR)])
    def test_near_degenerate_modulus_far_out(self, x0, tag, cells, rtol, rng):
        # the reference modulus is m = 1 - k'**2: k itself rounds near 1, and
        # m = k**2 would be 1.2e-6 off at x0 = 0.99999 (modulus kappa)
        ctx = JacobiContext(params_from_x0(x0), tag)
        K, Kp = ctx.quarter_K, ctx.quarter_Kp
        z = rng.uniform(-2.0 * K, 2.0 * K, 20) + 1j * rng.uniform(-0.9 * Kp, 0.9 * Kp, 20)
        z = z + cells * (4.0 * K * rng.choice([-1, 1], 20) + 2j * Kp * rng.choice([-1, 1], 20))
        got = jacobi_sn_cn_dn(ctx, z)
        with mpmath.workdps(30):
            m = 1 - mpmath.mpf(ctx.k_prime) ** 2
            for name, values in zip(("sn", "cn", "dn"), got):
                ref = np.array([complex(mpmath.ellipfun(name, mpmath.mpc(x), m=m)) for x in z])
                np.testing.assert_allclose(values, ref, rtol=rtol)

    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("x0", [0.1, 0.5, 0.9, 0.99999])
    @pytest.mark.parametrize("cells, rtol", [(0, SNCNDN_RTOL_CELL), (3, SNCNDN_RTOL_FAR)])
    def test_every_reduction_branch(self, x0, tag, cells, rtol, rng):
        # z = t + jK + s iK' for each j in -2..2, s in -1..1, t inside the
        # quarter cell on the side that keeps z in that (j, s) sub-cell, then
        # moved by cells*4K and cells*2iK' steps of both parities
        ctx = JacobiContext(params_from_x0(x0), tag)
        K, Kp = ctx.quarter_K, ctx.quarter_Kp
        z = []
        for j in range(-2, 3):
            for s in (-1, 0, 1):
                x = rng.uniform(-0.45, 0.45, 2) if abs(j) < 2 else -np.sign(j) * rng.uniform(0.0, 0.45, 2)
                y = rng.uniform(-0.45, 0.45, 2) if s == 0 else -s * rng.uniform(0.0, 0.45, 2)
                z.extend((j + x) * K + 1j * (s + y) * Kp)
        z = np.array(z)
        z = z + cells * 4.0 * K * rng.choice([-1, 1], z.size) + 2j * Kp * rng.integers(-cells, cells + 1, z.size)
        got = jacobi_sn_cn_dn(ctx, z)
        with mpmath.workdps(30):
            m = 1 - mpmath.mpf(ctx.k_prime) ** 2 if ctx.k_prime < ctx.k else mpmath.mpf(ctx.k) ** 2
            for name, values in zip(("sn", "cn", "dn"), got):
                ref = np.array([complex(mpmath.ellipfun(name, mpmath.mpc(x), m=m)) for x in z])
                np.testing.assert_allclose(values, ref, rtol=rtol)

    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("x0", [0.1, 0.5, 0.99999])
    @pytest.mark.parametrize("m, n", [(0, 0), (1, 0), (-1, 1), (2, -1), (0, -2), (-3, 3)])
    def test_pole_signal_on_the_lattice(self, x0, tag, m, n):
        ctx = JacobiContext(params_from_x0(x0), tag)
        K, Kp = ctx.quarter_K, ctx.quarter_Kp
        with pytest.raises(PoleError):
            jacobi_sn_cn_dn(ctx, 1j * Kp + 2 * m * K + 2j * n * Kp)

    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("x0", [0.1, 0.5, 0.99999])
    def test_no_pole_at_the_zeros_of_dn(self, x0, tag):
        # K + iK' and its images: dn = 0, sn = +-1/k and cn = -+ik'/k are finite
        ctx = JacobiContext(params_from_x0(x0), tag)
        K, Kp, k, kp = ctx.quarter_K, ctx.quarter_Kp, ctx.k, ctx.k_prime
        z = np.array([K + 1j * Kp, -K + 1j * Kp, K - 1j * Kp, 3 * K + 3j * Kp])
        sn, cn, dn = jacobi_sn_cn_dn(ctx, z)
        np.testing.assert_allclose(sn * k * np.array([1, -1, 1, -1]), 1.0, rtol=1e-14)
        np.testing.assert_allclose(cn * k / kp * np.array([1, -1, -1, 1]), -1j, rtol=1e-14)
        assert np.all(np.abs(dn) < 1e-14)

    def test_non_finite_arguments_give_nan(self):
        ctx = JacobiContext(params_from_x0(0.5), "x0_squared")
        with np.errstate(invalid="ignore"):
            got = jacobi_sn_cn_dn(ctx, np.array([np.nan, complex(np.inf, 0.0), complex(0.2, np.nan), 0.3]))
        for values in got:
            assert np.all(np.isnan(values[:3])) and np.isfinite(values[3])

    @pytest.mark.parametrize("x0", [1e-40, 1e-60])
    def test_tiny_modulus_real_axis(self, x0):
        # z - iK' lies on the edge of the series' cell: a cosine series term
        # h**(n*n) * cosh(2 pi n |Im u|) is 0 * inf there once h**2 < 1/DBL_MAX
        ctx = JacobiContext(params_from_x0(x0), "x0_squared")
        z = ctx.quarter_K * np.array([0.3, -0.7, 1.1, 1.9, 2.6]) + 0j
        got = jacobi_sn_cn_dn(ctx, z)
        with mpmath.workdps(30):
            m = mpmath.mpf(ctx.k) ** 2
            for name, values in zip(("sn", "cn", "dn"), got):
                ref = np.array([complex(mpmath.ellipfun(name, mpmath.mpc(x), m=m)) for x in z])
                np.testing.assert_allclose(values, ref, rtol=1e-13)

    @pytest.mark.parametrize("x0", [1e-40, 1e-60])
    def test_tiny_modulus_off_axis(self, x0, rng):
        # |x**(+-2)| reaches 1/sqrt(h) ~ 1e80 on the quarter cell's edge while
        # theta3 and theta4 stay near 1: only theta1 may signal a pole.
        # ellipfun sums cancelling terms there and needs digits like 1/h
        ctx = JacobiContext(params_from_x0(x0), "x0_squared")
        K, Kp = ctx.quarter_K, ctx.quarter_Kp
        z = rng.uniform(-2.0 * K, 2.0 * K, 12) + 1j * Kp * np.linspace(-0.95, 0.95, 12)
        got = jacobi_sn_cn_dn(ctx, z)
        with mpmath.workdps(int(-math.log10(ctx.nome)) + 30):
            m = mpmath.mpf(ctx.k) ** 2
            for name, values in zip(("sn", "cn", "dn"), got):
                ref = np.array([complex(mpmath.ellipfun(name, mpmath.mpc(x), m=m)) for x in z])
                np.testing.assert_allclose(values, ref, rtol=1e-13)

    def test_smallest_nome_in_float_range(self):
        # |zeta| = 1e76 gives the nome 3.9e-307 at modulus x0**2, just above
        # the 1/DBL_MAX that JacobiContext accepts
        ctx = BridgeMaps.from_zeta(1e76).ctx_l
        assert 1e-307 < ctx.nome < 1e-306
        z = np.array([0.3 * ctx.quarter_K, 0.1 + 0.2j])
        sn, _, _ = jacobi_sn_cn_dn(ctx, z)
        with mpmath.workdps(40):
            m = mpmath.mpf(ctx.k) ** 2
            ref = np.array([complex(mpmath.ellipfun("sn", mpmath.mpc(x), m=m)) for x in z])
        assert np.all(np.isfinite(sn))
        np.testing.assert_allclose(sn, ref, rtol=1e-12)


class TestCarlsonRF:
    # Carlson (1995), Numer. Algorithms 10, section 3: the published check values
    @pytest.mark.parametrize(
        "args, ref",
        [
            ((1.0, 2.0, 0.0), 1.3110287771461),
            ((1j, -1j, 0.0), 1.8540746773014),
            ((1j - 1.0, 1j, 0.0), 0.79612586584234 - 1.2138566698365j),
            ((2.0, 3.0, 4.0), 0.58408284167715),
            ((1j - 1.0, 1j, 1.0 - 1j), 0.93912050218619 - 0.53296252018635j),
        ],
    )
    def test_published_values(self, args, ref):
        # the references carry 14 significant digits
        assert abs(complex(_kernels.carlson_rf(*args)) - ref) < 1e-13

    def test_matches_scipy_off_the_cut(self, rng):
        def draw(n=400):
            return 10.0 ** rng.uniform(-8, 8, n) * np.exp(1j * rng.uniform(-0.999 * math.pi, 0.999 * math.pi, n))

        x, y, z = draw(), draw(), draw()
        got = _kernels.carlson_rf(x, y, z)
        np.testing.assert_allclose(got, scipy.special.elliprf(x, y, z), rtol=2e-15)

    @pytest.mark.parametrize("x0", [1e-6, 0.3, 0.9])
    def test_one_argument_zero(self, x0):
        # tau's arguments at the branch point w = x0, R_F(0, 1 - x0**4, 1) = K(x0**2),
        # and at the slit tip w = 1/x0, scaled by x0**4 and turned off the cut by i
        got = complex(_kernels.carlson_rf(0.0, (1.0 - x0**2) * (1.0 + x0**2), 1.0))
        with mpmath.workdps(40):
            ref = float(mpmath.ellipk(mpmath.mpf(x0) ** 4))
        assert got == pytest.approx(ref, rel=2e-15)
        tip = (1j * (x0**4 - 1.0), 0.0, 1j * x0**4)
        got = complex(_kernels.carlson_rf(*tip))
        assert got == pytest.approx(complex(scipy.special.elliprf(*tip)), rel=2e-15)

    def test_broadcasts(self):
        got = _kernels.carlson_rf(np.array([[1.0], [2.0]]), np.array([2.0, 3.0, 4.0]), 4.0)
        assert got.shape == (2, 3)
        assert complex(got[1, 1]) == pytest.approx(0.58408284167715, rel=1e-13)
