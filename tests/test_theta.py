import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goluzin_lab.elliptic import params_from_x0
from goluzin_lab.errors import PoleError, ThetaOverflowError
from goluzin_lab.maps import BridgeMaps
from goluzin_lab.theta import (
    JacobiContext,
    jacobi_Z,
    jacobi_sn_cn_dn,
    landen_sn_sq,
    theta0,
    theta0_prime,
)

# the Landen form evaluates both of its branches; neither may warn
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _grid_away_from_zeros(p, n=20):
    """n x n grid in the fundamental rectangle, clear of the theta zeros."""
    K, Kp = p.K, p.K_prime
    margin = 0.05 * min(2.0 * K, 2.0 * Kp)
    xs = np.linspace(-K + 0.07, K - 0.07, n)
    ys = np.linspace(-Kp + 0.07, Kp - 0.07, n)
    z = (xs[:, None] + 1j * ys[None, :]).ravel()
    zeros = np.array(
        [1j * Kp + 2 * m * K + 2j * nn * Kp for m in (-1, 0, 1) for nn in (-2, -1, 0, 1)]
    )
    d = np.abs(z[:, None] - zeros[None, :]).min(axis=1)
    return z[d > margin]


class TestTheta0:
    def test_period_2K(self, ctx_kappa, params_half, rng):
        z = _grid_away_from_zeros(params_half)
        np.testing.assert_allclose(theta0(ctx_kappa, z + 2 * params_half.K), theta0(ctx_kappa, z), rtol=1e-12)

    def test_quasi_period_2iKp(self, ctx_kappa, params_half):
        p = params_half
        z = _grid_away_from_zeros(p)
        lhs = theta0(ctx_kappa, z + 2j * p.K_prime)
        rhs = -np.exp(-1j * math.pi * z / p.K) / p.nome_h * theta0(ctx_kappa, z)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-10

    def test_zero_at_iKp(self, ctx_kappa, params_half):
        val = theta0(ctx_kappa, 1j * params_half.K_prime)
        assert abs(val) < 1e-12

    def test_even(self, ctx_kappa, rng):
        z = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
        np.testing.assert_allclose(theta0(ctx_kappa, -z), theta0(ctx_kappa, z), rtol=1e-13)

    def test_prime_matches_finite_differences(self, ctx_kappa, rng):
        z = rng.uniform(-1.5, 1.5, 10) + 1j * rng.uniform(-1.0, 1.0, 10)
        h = 1e-6
        fd = (theta0(ctx_kappa, z + h) - theta0(ctx_kappa, z - h)) / (2 * h)
        np.testing.assert_allclose(theta0_prime(ctx_kappa, z), fd, rtol=1e-8, atol=1e-10)

    def test_overflow_signal_for_huge_imaginary_part(self, ctx_kappa):
        with pytest.raises(ThetaOverflowError):
            theta0(ctx_kappa, 1j * 1e4)


class TestZ:
    def test_zero_at_origin(self, ctx_kappa):
        assert abs(jacobi_Z(ctx_kappa, 0.0)) < 1e-14

    def test_period_and_shift(self, ctx_kappa, params_half):
        p = params_half
        z = _grid_away_from_zeros(p)
        zz = jacobi_Z(ctx_kappa, z)
        np.testing.assert_allclose(jacobi_Z(ctx_kappa, z + 2 * p.K), zz, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(
            jacobi_Z(ctx_kappa, z + 2j * p.K_prime), zz - 1j * math.pi / p.K, rtol=1e-10, atol=1e-10
        )

    def test_derivative_identity_on_real_axis(self, ctx_kappa, params_half):
        # Z'(u) = dn(u)^2 - E/K, checked by central differences at 50 points
        p = params_half
        u = np.linspace(-1.8, 1.8, 50)
        h = 1e-5
        fd = (jacobi_Z(ctx_kappa, (u + h).astype(complex)) - jacobi_Z(ctx_kappa, (u - h).astype(complex))) / (2 * h)
        _, _, dn = jacobi_sn_cn_dn(ctx_kappa, u.astype(complex))
        assert np.max(np.abs(fd - (dn**2 - p.E / p.K))) < 1e-6

    def test_pole_signal(self, ctx_kappa, params_half):
        with pytest.raises(PoleError):
            jacobi_Z(ctx_kappa, 1j * params_half.K_prime)


class TestSnCnDn:
    def test_values_at_zero(self, ctx_kappa):
        sn, cn, dn = jacobi_sn_cn_dn(ctx_kappa, 0.0)
        assert abs(sn) < 1e-14
        assert cn == pytest.approx(1.0, abs=1e-14)
        assert dn == pytest.approx(1.0, abs=1e-14)

    def test_algebraic_identities_on_grid(self, ctx_kappa, params_half):
        z = _grid_away_from_zeros(params_half)
        k = params_half.kappa
        sn, cn, dn = jacobi_sn_cn_dn(ctx_kappa, z)
        assert np.max(np.abs(sn**2 + cn**2 - 1.0)) < 1e-10
        assert np.max(np.abs(dn**2 + k * k * sn**2 - 1.0)) < 1e-10

    def test_dn_shift_by_iKp(self, ctx_kappa, params_half):
        u = np.array([0.37, 0.9, 1.4, -0.6], dtype=complex)
        sn, cn, _ = jacobi_sn_cn_dn(ctx_kappa, u)
        _, _, dn_shift = jacobi_sn_cn_dn(ctx_kappa, u + 1j * params_half.K_prime)
        np.testing.assert_allclose(dn_shift, -1j * cn / sn, rtol=1e-10)

    def test_against_real_axis_reference(self, ctx_kappa, params_half):
        ellipj = pytest.importorskip("scipy.special").ellipj
        u = np.linspace(-3.0, 3.0, 13)
        sn, cn, dn = jacobi_sn_cn_dn(ctx_kappa, u.astype(complex))
        s, c, d, _ = ellipj(u, params_half.kappa**2)
        np.testing.assert_allclose(sn.real, s, atol=1e-12)
        np.testing.assert_allclose(cn.real, c, atol=1e-12)
        np.testing.assert_allclose(dn.real, d, atol=1e-12)

    def test_pole_signal(self, ctx_kappa, params_half):
        with pytest.raises(PoleError):
            jacobi_sn_cn_dn(ctx_kappa, 1j * params_half.K_prime)

    @given(st.floats(-1.5, 1.5), st.floats(-0.7, 0.7))
    @settings(max_examples=40, deadline=None)
    def test_identity_property(self, x, y):
        p = params_from_x0(0.5)
        ctx = JacobiContext(p, "kappa")
        z = complex(x, y * p.K_prime)
        if abs(theta0(ctx, z)) < 1e-6:
            return
        sn, cn, dn = jacobi_sn_cn_dn(ctx, z)
        assert abs(sn**2 + cn**2 - 1.0) < 1e-10


def _ellipfun_at(ctx, name, z):
    """mpmath's Jacobi function at the rounded arguments z, modulus ctx.k, 30 digits."""
    with mpmath.workdps(30):
        m = mpmath.mpf(ctx.k) ** 2
        return np.array([complex(mpmath.ellipfun(name, mpmath.mpc(x), m=m)) for x in z])


BRIDGE_ZETAS = [1.001, 1.25, 2.0, 3j, 100.0]


class TestNextToZeros:
    """Relative accuracy next to the zeros of sn (at 0) and cn (at L), at the
    modulus x0**2 of the bridge: theta1 is summed as sin v times a series
    near 1, so a small argument costs no digits."""

    ANGLES = np.exp(2j * math.pi * np.arange(8) / 8 + 0.3j)

    @pytest.mark.parametrize("zeta", BRIDGE_ZETAS)
    def test_sn_next_to_its_zero(self, zeta):
        ctx = BridgeMaps.from_zeta(zeta).ctx_l
        z = 1e-6 * ctx.quarter_K * self.ANGLES
        sn, _, _ = jacobi_sn_cn_dn(ctx, z)
        np.testing.assert_allclose(sn, _ellipfun_at(ctx, "sn", z), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("zeta", BRIDGE_ZETAS)
    def test_cn_next_to_its_zero(self, zeta):
        # the floor is the rounding of L itself: cn ~ -k'(z - L) there, and
        # z - L carries L's last bit, 1.1e-16 L against |z - L| = 5e-4 L
        ctx = BridgeMaps.from_zeta(zeta).ctx_l
        L = ctx.quarter_K
        z = L + 5e-4 * L * self.ANGLES
        _, cn, _ = jacobi_sn_cn_dn(ctx, z)
        np.testing.assert_allclose(cn, _ellipfun_at(ctx, "cn", z), rtol=6e-13, atol=0.0)


class TestLanden:
    def test_bridge_matches_direct_square(self, ctx_kappa, params_half, rng):
        p = params_half
        z = rng.uniform(-p.L, p.L, 20) + 1j * rng.uniform(-0.4 * p.L_prime, 0.4 * p.L_prime, 20)
        lhs = landen_sn_sq(ctx_kappa, z)
        sn, _, _ = jacobi_sn_cn_dn(ctx_kappa, p.M * z)
        rel = np.abs(lhs - sn**2) / (1.0 + np.abs(sn**2))
        assert np.max(rel) < 1e-9

    def test_zero_at_origin(self, ctx_kappa):
        assert abs(landen_sn_sq(ctx_kappa, 0.0)) < 1e-12

    @pytest.mark.parametrize("z", [1e-5, 1e-6 * (1 + 1j), 1e-3 - 2e-3j, 0.3 + 0.1j])
    def test_small_argument_against_mpmath(self, z):
        # 1 - cn/dn cancels next to z = 0: 3.5e-6 off at z = 1e-5 when formed by subtraction
        p = params_from_x0(0.27)
        with mpmath.workdps(30):
            kp = mpmath.mpf(p.kappa_prime)
            ref = complex(mpmath.ellipfun("sn", mpmath.mpc(z) / (1 + kp), m=1 - kp**2) ** 2)
        assert landen_sn_sq(JacobiContext(p, "kappa"), z) == pytest.approx(ref, rel=2e-10, abs=0.0)

    def test_pole_signal(self, ctx_kappa, params_half):
        # sn(M z; kappa) has a pole where M z = iK'
        with pytest.raises(PoleError):
            landen_sn_sq(ctx_kappa, 1j * params_half.K_prime / params_half.M)

    def test_at_poles_of_the_shifted_sn(self, ctx_kappa, params_half):
        # xi = sn(z + L; x0^2) has poles at z = +-L + iL', where sn(M z; kappa)^2 = 1/(1 - kappa')
        p = params_half
        for z in (p.L + 1j * p.L_prime, -p.L + 1j * p.L_prime, 3.0 * p.L - 1j * p.L_prime):
            assert landen_sn_sq(ctx_kappa, z) == pytest.approx(1.0 / (1.0 - p.kappa_prime), rel=1e-14)

    def test_half_period(self, ctx_kappa, params_half):
        # z = 2L gives xi = -1 and sn(M 2L; kappa) = sn(K; kappa) = 1
        assert landen_sn_sq(ctx_kappa, 2.0 * params_half.L) == pytest.approx(1.0, rel=1e-14)

    def test_requires_kappa_context(self, ctx_l):
        with pytest.raises(ValueError):
            landen_sn_sq(ctx_l, 0.3)


class TestShiftIdentities:
    def test_at_L(self, ctx_l, params_half):
        p = params_half
        sn_L, _, _ = jacobi_sn_cn_dn(ctx_l, complex(p.L))
        sn_shift, _, _ = jacobi_sn_cn_dn(ctx_l, p.L + 1j * p.L_prime)
        assert abs(sn_shift * p.l * sn_L - 1.0) < 1e-10

    def test_normalization_at_zero(self, ctx_l, params_half):
        sn_L, _, _ = jacobi_sn_cn_dn(ctx_l, complex(params_half.L))
        assert sn_L == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shift", ["iL'", "L"])
    def test_random_sweep(self, ctx_l, params_half, rng, shift):
        # the kernel applies the shift identities itself, so mpmath is the check
        p = params_half
        u = rng.uniform(-p.L, p.L, 20) + 1j * rng.uniform(0.05 * p.L_prime, 0.45 * p.L_prime, 20)
        z = u + (1j * p.L_prime if shift == "iL'" else p.L)
        for name, got in zip(("sn", "cn", "dn"), jacobi_sn_cn_dn(ctx_l, z)):
            np.testing.assert_allclose(got, _ellipfun_at(ctx_l, name, z), rtol=1e-12, atol=0.0, err_msg=name)


class TestContext:
    def test_rejects_bad_tag(self, params_half):
        with pytest.raises(ValueError):
            JacobiContext(params_half, "bogus")

    def test_modulus_selection(self, params_half):
        ctx_k = JacobiContext(params_half, "kappa")
        ctx_l = JacobiContext(params_half, "x0_squared")
        assert ctx_k.k == params_half.kappa and ctx_k.quarter_K == params_half.K
        assert ctx_l.k == params_half.l and ctx_l.quarter_K == params_half.L
        assert 0.0 < ctx_k.nome < 1.0 and 0.0 < ctx_l.nome < 1.0

