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
    theta0,
    theta0_prime,
)

# no evaluator may warn
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


def _landen_sn_sq(p, z):
    """[sn(M z; kappa)]**2 from xi = sn(z + L; x0**2) and cn(z + L; x0**2).

    Landen's transformation reads it as (1 - xi)/(1 + kappa' - (1 - kappa') xi);
    where Re xi > 0, 1 - xi is taken as cn**2/(1 + xi), as the torus layer does
    next to z = 0; elsewhere as written, so xi = -1 divides by nothing.
    """
    xi, cn, _ = jacobi_sn_cn_dn(JacobiContext(p, "x0_squared"), np.asarray(z) + p.L)
    kp = p.kappa_prime
    one_minus = np.asarray(1.0 - xi)
    np.divide(cn**2, 1.0 + xi, out=one_minus, where=xi.real > 0.0)
    return one_minus / ((1.0 + kp) - (1.0 - kp) * xi)


class TestLanden:
    """sn and cn at modulus x0**2 against sn at modulus kappa through Landen's transformation."""

    def test_bridge_matches_direct_square(self, ctx_kappa, params_half, rng):
        p = params_half
        z = rng.uniform(-0.9 * p.L, 0.9 * p.L, 20) + 1j * rng.uniform(-0.4 * p.L_prime, 0.4 * p.L_prime, 20)
        lhs = _landen_sn_sq(p, z)
        sn, _, _ = jacobi_sn_cn_dn(ctx_kappa, p.M * z)
        rel = np.abs(lhs - sn**2) / (1.0 + np.abs(sn**2))
        assert np.max(rel) < 1e-9

    def test_zero_at_origin(self, params_half):
        # cn(L; x0^2) = 0
        assert abs(_landen_sn_sq(params_half, 0.0)) < 1e-12

    @pytest.mark.parametrize("z", [1e-5, 1e-6 * (1 + 1j), 1e-3 - 2e-3j, 0.3 + 0.1j])
    def test_small_argument_against_mpmath(self, z):
        # cn(z + L; x0^2) keeps its relative accuracy next to its zero at z = 0
        p = params_from_x0(0.27)
        with mpmath.workdps(30):
            kp = mpmath.mpf(p.kappa_prime)
            ref = complex(mpmath.ellipfun("sn", mpmath.mpc(z) / (1 + kp), m=1 - kp**2) ** 2)
        assert complex(_landen_sn_sq(p, z)) == pytest.approx(ref, rel=2e-10, abs=0.0)

    def test_pole_signal(self, ctx_kappa, ctx_l, params_half):
        # M z = iK' is z = iL', where xi = sn(L + iL'; x0^2) = 1/l zeroes the bridge's denominator
        p = params_half
        xi, _, _ = jacobi_sn_cn_dn(ctx_l, p.L + 1j * p.L_prime)
        assert xi == pytest.approx(1.0 / p.l, rel=1e-12)
        with pytest.raises(PoleError):
            jacobi_sn_cn_dn(ctx_kappa, 1j * p.K_prime)
        assert 1j * p.K_prime / p.M == pytest.approx(1j * p.L_prime, rel=1e-13)

    def test_at_poles_of_the_shifted_sn(self, ctx_kappa, ctx_l, params_half):
        # xi = sn(z + L; x0^2) has poles at z = +-L + iL', where sn(M z; kappa)^2 = 1/(1 - kappa')
        p = params_half
        for z in (p.L + 1j * p.L_prime, -p.L + 1j * p.L_prime, 3.0 * p.L - 1j * p.L_prime):
            with pytest.raises(PoleError):
                jacobi_sn_cn_dn(ctx_l, z + p.L)
            sn, _, _ = jacobi_sn_cn_dn(ctx_kappa, p.M * z)
            assert sn**2 == pytest.approx(1.0 / (1.0 - p.kappa_prime), rel=1e-12)

    def test_half_period(self, ctx_kappa, params_half):
        # z = 2L gives xi = -1 and sn(M 2L; kappa) = sn(K; kappa) = 1
        p = params_half
        assert complex(_landen_sn_sq(p, 2.0 * p.L)) == pytest.approx(1.0, rel=1e-14)
        sn, _, _ = jacobi_sn_cn_dn(ctx_kappa, p.M * 2.0 * p.L)
        assert sn**2 == pytest.approx(1.0, rel=1e-14)

    def test_requires_kappa_context(self, ctx_kappa, ctx_l, params_half):
        # the bridge joins the two contexts: l = (1 - kappa')/(1 + kappa') and K = 2 M L
        kp = ctx_kappa.k_prime
        assert ctx_l.k == pytest.approx((1.0 - kp) / (1.0 + kp), rel=1e-14)
        assert ctx_kappa.quarter_K == pytest.approx(2.0 * params_half.M * ctx_l.quarter_K, rel=1e-14)
        assert ctx_kappa.modulus_tag == "kappa" and ctx_l.modulus_tag == "x0_squared"


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

