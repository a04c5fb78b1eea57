import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from goluzin_lab.elliptic import complete_E, complete_K, params_from_x0, x0_from_zeta_abs
from goluzin_lab.errors import DomainError

X0_GRID = np.arange(0.05, 0.951, 0.05)


def quad_K(lam):
    """Adaptive quadrature of the defining integral (independent oracle)."""
    f = lambda t: 1.0 / math.sqrt((1.0 - lam * lam * t * t) * (1.0 + t))
    val, _ = quad(f, 0.0, 1.0, weight="alg", wvar=(0, -0.5), epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def quad_E(lam):
    f = lambda t: math.sqrt((1.0 - lam * lam * t * t) / (1.0 + t))
    val, _ = quad(f, 0.0, 1.0, weight="alg", wvar=(0, -0.5), epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


class TestCompleteIntegrals:
    def test_K_at_zero(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_E_endpoints(self):
        assert complete_E(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert complete_E(1.0) == 1.0

    def test_K_against_quadrature_oracle(self):
        # frozen from the oracle: quad_K(1/sqrt(2)) = 1.8540746773013725
        lam = 1.0 / math.sqrt(2.0)
        assert complete_K(lam) == pytest.approx(1.8540746773013725, rel=1e-13)
        assert complete_K(lam) == pytest.approx(quad_K(lam), rel=1e-12)

    def test_E_against_quadrature_oracle(self):
        # frozen from the oracle: quad_E(0.6) = 1.418083394448724
        assert complete_E(0.6) == pytest.approx(1.418083394448724, rel=1e-12)
        assert complete_E(0.6) == pytest.approx(quad_E(0.6), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.1, 0.35, 0.6, 0.85, 0.97])
    def test_agm_matches_quadrature_on_grid(self, lam):
        assert complete_K(lam) == pytest.approx(quad_K(lam), rel=1e-10)
        assert complete_E(lam) == pytest.approx(quad_E(lam), rel=1e-10)

    def test_K_monotone_increasing_E_decreasing(self):
        lams = np.linspace(0.0, 0.99, 40)
        ks = [complete_K(l) for l in lams]
        es = [complete_E(l) for l in lams]
        assert all(b > a for a, b in zip(ks, ks[1:]))
        assert all(b < a for a, b in zip(es, es[1:]))

    def test_E_strictly_below_K_inside(self):
        for lam in np.linspace(0.01, 0.99, 25):
            assert complete_E(lam) < complete_K(lam)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            complete_K(1.0)
        with pytest.raises(DomainError):
            complete_K(-0.1)
        with pytest.raises(DomainError):
            complete_E(1.0 + 1e-12)
        with pytest.raises(DomainError):
            complete_E(-1e-12)


class TestParamsFromX0:
    def test_rational_values_at_half(self):
        p = params_from_x0(0.5)
        assert p.kappa == pytest.approx(0.8, abs=1e-15)
        assert p.kappa_prime == pytest.approx(0.6, abs=1e-15)
        assert p.l == pytest.approx(0.25, abs=1e-15)
        assert p.M == pytest.approx(0.625, abs=1e-15)
        assert p.zeta_abs == pytest.approx(1.25, abs=1e-15)

    def test_l_equals_x0_squared_on_grid(self):
        for x0 in X0_GRID:
            assert params_from_x0(float(x0)).l == pytest.approx(x0 * x0, abs=1e-15)

    def test_landen_relations(self):
        for x0 in X0_GRID:
            p = params_from_x0(float(x0))
            r1, r2 = p.landen_residuals()
            assert abs(r1) < 1e-12 * p.K
            assert abs(r2) < 1e-12 * p.K

    def test_legendre_relation(self):
        for x0 in X0_GRID:
            assert abs(params_from_x0(float(x0)).legendre_residual()) < 1e-12

    def test_small_x0_keeps_complementary_periods_finite(self):
        # l' rounds to 1.0 here; the exact complement l = 1e-12 must still
        # give a finite L' instead of the k = 1 shortcut
        p = params_from_x0(1e-6)
        assert math.isfinite(p.L_prime) and p.L_prime == pytest.approx(29.0173, rel=1e-5)
        r1, r2 = p.landen_residuals()
        assert abs(r1) < 1e-12 * p.K and abs(r2) < 1e-12 * p.K_prime
        assert abs(p.legendre_residual()) < 1e-12

    def test_nome_in_unit_interval(self):
        for x0 in (0.05, 0.5, 0.95):
            assert 0.0 < params_from_x0(x0).nome_h < 1.0

    def test_domain_error(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                params_from_x0(bad)

    @given(st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=30, deadline=None)
    def test_invariants_property(self, x0):
        p = params_from_x0(x0)
        assert p.kappa**2 + p.kappa_prime**2 == pytest.approx(1.0, abs=1e-14)
        assert p.l == pytest.approx((1.0 - p.kappa_prime) / (1.0 + p.kappa_prime), abs=1e-14)
        assert p.zeta_abs * 2.0 * x0 == pytest.approx(1.0 + x0 * x0, abs=1e-14)
        assert p.kappa == pytest.approx(1.0 / p.zeta_abs, abs=1e-14)


class TestX0FromZetaAbs:
    def test_value_at_two(self):
        assert x0_from_zeta_abs(2.0) == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-15)
        x0 = x0_from_zeta_abs(2.0)
        assert (1.0 + x0 * x0) / (2.0 * x0) == pytest.approx(2.0, abs=1e-14)

    def test_kappa_is_inverse_radius(self):
        for a in (1.05, 1.25, 1.5, 2.0, 3.0, 10.0):
            p = params_from_x0(x0_from_zeta_abs(a))
            assert p.kappa == pytest.approx(1.0 / a, abs=1e-14)

    def test_mutual_inverse(self):
        for x0 in X0_GRID:
            a = (1.0 + x0 * x0) / (2.0 * x0)
            assert x0_from_zeta_abs(a) == pytest.approx(float(x0), abs=1e-14)

    def test_sqrt_corrected_algebraic_form(self):
        # x0 also equals sqrt((1-s)/(1+s)) with s = sqrt(1 - a^-2)
        for a in (1.2, 1.5, 2.0, 4.0):
            s = math.sqrt(1.0 - a**-2)
            assert x0_from_zeta_abs(a) == pytest.approx(math.sqrt((1.0 - s) / (1.0 + s)), abs=1e-14)

    def test_domain_error(self):
        for bad in (1.0, 0.5, -2.0):
            with pytest.raises(DomainError):
                x0_from_zeta_abs(bad)
