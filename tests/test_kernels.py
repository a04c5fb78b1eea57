"""The AGM and theta-series kernels against mpmath oracles."""

import math

import mpmath
import numpy as np
import pytest

from goluzin_lab import _kernels
from goluzin_lab.elliptic import params_from_x0
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


class TestThetaOracle:
    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("x0", [0.1, 0.5, 0.9, 0.999])
    def test_matches_mpmath_jtheta(self, x0, tag, rng):
        ctx = JacobiContext(params_from_x0(x0), tag)
        u = _reduced_arguments(ctx, rng)
        val, dval, scale = _kernels.theta_series(u, ctx.nome)
        with mpmath.workdps(30):
            pu = [mpmath.pi * mpmath.mpc(x) for x in u]
            ref = np.array([complex(mpmath.jtheta(4, x, ctx.nome)) for x in pu])
            dref = np.array([complex(mpmath.pi * mpmath.jtheta(4, x, ctx.nome, 1)) for x in pu])
        np.testing.assert_allclose(val, ref, rtol=1e-14)
        np.testing.assert_allclose(dval, dref, rtol=1e-14)
        assert np.all(scale >= np.abs(val))


class TestThetaPaths:
    def test_scalar_shape(self):
        val, dval, scale = _kernels.theta_series(0.25 + 0.1j, 0.06)
        assert np.shape(val) == np.shape(dval) == np.shape(scale) == ()


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
