import math
import types
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goluzin_lab.catalog import catalog, resolve_map
from goluzin_lab.elliptic import params_from_x0
from goluzin_lab.errors import BranchAmbiguityError, BranchCutError, DomainError, PoleError
from goluzin_lab.maps import (
    BridgeMaps,
    eta,
    eta_inv,
    marched_sqrt_path,
    phi_from_psi,
    sigma,
    sigma_prime,
    tau,
    tau_prime,
)

ZETAS = (1.25, 1.5, 2.0, 3.0, 1.5 + 0.5j)


@pytest.fixture(scope="module")
def bridge():
    return BridgeMaps.from_zeta(2.0)


class TestSigmaTau:
    def test_nome_below_float_range_rejected(self):
        # |zeta| = 1e80 gives the nome 4e-323 at modulus x0**2; sn was NaN there
        with pytest.raises(DomainError):
            BridgeMaps.from_zeta(1e80)

    def test_boundary_triple(self, bridge):
        p = bridge.params
        assert abs(tau(bridge, p.x0)) < 1e-12
        assert abs(tau(bridge, 0.0) + p.L) < 1e-12
        assert abs(tau(bridge, -p.x0) + 2 * p.L) < 1e-12

    def test_slit_tip_limits(self, bridge):
        p = bridge.params
        assert abs(tau(bridge, 1 / p.x0, "+") - 1j * p.L_prime) < 1e-11
        assert abs(tau(bridge, 1 / p.x0, "-") + 1j * p.L_prime) < 1e-11
        assert abs(tau(bridge, -1 / p.x0, "+") - (-2 * p.L + 1j * p.L_prime)) < 1e-11

    def test_sigma_special_points(self, bridge):
        p = bridge.params
        assert abs(sigma(bridge, 0.0) - p.x0) < 1e-13
        assert abs(sigma(bridge, -p.L)) < 1e-13
        assert abs(sigma(bridge, -2.0 * p.L) + p.x0) < 1e-13

    def test_sigma_branch_point_derivative_vanishes(self, bridge):
        # the covering is 2-to-1 at the branch points, so sigma'(0) = 0
        assert abs(sigma_prime(bridge, 0.0)) < 1e-13

    def test_sigma_pole_returns_infinity(self, bridge):
        p = bridge.params
        assert sigma(bridge, -p.L + 1j * p.L_prime) == complex(math.inf, 0.0)

    def test_sigma_pole_in_an_array_is_infinite_only_there(self, bridge):
        # one pole used to turn the whole array into one scalar inf
        p = bridge.params
        pole = -p.L + 1j * p.L_prime
        for z in (np.array([0.1, pole, 0.3]), np.array([[0.1, pole], [0.3, pole + 2.0 * p.L]])):
            got = sigma(bridge, z)
            poles = np.isin(z, [pole, pole + 2.0 * p.L])
            assert got.shape == z.shape
            assert np.all(got[poles] == complex(math.inf, 0.0))
            # the regular nodes keep the bits of a call without the poles
            assert np.array_equal(got[~poles].view(np.uint64), sigma(bridge, z[~poles]).view(np.uint64))

    def test_round_trip_sigma_tau(self, bridge, rng):
        ws = rng.uniform(-2.5, 2.5, 25) + 1j * rng.uniform(0.05, 2.5, 25)
        ws = np.concatenate([ws, np.conj(ws)])
        for w in ws:
            z = tau(bridge, complex(w))
            assert abs(complex(sigma(bridge, z)) - w) < 1e-9

    def test_round_trip_tau_sigma_in_rectangle(self, bridge, rng):
        # tau inverts sigma on the open left rectangle (principal sheet)
        p = bridge.params
        zs = rng.uniform(-2 * p.L + 0.1, -0.1, 12) + 1j * rng.uniform(-p.L_prime + 0.1, p.L_prime - 0.1, 12)
        zs = zs[np.abs(zs.imag) > 0.05]
        for z in zs:
            w = complex(sigma(bridge, complex(z)))
            assert abs(tau(bridge, w) - z) < 1e-9

    def test_branch_cut_signal(self, bridge):
        p = bridge.params
        with pytest.raises(BranchCutError):
            tau(bridge, 0.7 * (p.x0 + 1 / p.x0))
        with pytest.raises(BranchCutError):
            tau_prime(bridge, 0.6 * (p.x0 + 1 / p.x0))

    @pytest.mark.parametrize("side", ["x", "", "+-", None])
    @pytest.mark.parametrize("f", [tau, tau_prime])
    def test_unknown_side_raises(self, bridge, f, side):
        # on the slit an unknown side read as '-'; off it, it was ignored
        p = bridge.params
        for w in (0.7 * (p.x0 + 1 / p.x0), 0.1 + 0.2j):
            with pytest.raises(ValueError, match="side"):
                f(bridge, w, side=side)

    def test_interior_slit_segment_is_unambiguous(self, bridge):
        # real w with |w| <= x0 maps to the real segment [-2L, 0]
        p = bridge.params
        for w in np.linspace(-0.9 * p.x0, 0.9 * p.x0, 7):
            z = tau(bridge, float(w))
            assert abs(z.imag) < 1e-12
            assert -2 * p.L < z.real < 0.0


def _tau_reference(params, w, side=None):
    """T R_F(1 - T^2, 1 - x0^4 T^2, 1) - L at 40 digits, T = w/x0.

    On the slits T is moved off the axis by 1e-60 |T| to the requested side.
    L is the package's own: params_from_x0 rounds it as x0 -> 1, and tau only
    subtracts it.
    """
    with mpmath.workdps(40):
        t = mpmath.mpc(w) / params.x0
        if side is not None:
            t += (1 if side == "+" else -1) * 1j * mpmath.mpf(10) ** -60 * abs(t)
        rf = mpmath.elliprf(1 - t**2, 1 - mpmath.mpf(params.x0) ** 4 * t**2, 1)
        return complex(t * rf) - params.L


def _tau_close(params, got, ref):
    return abs(got - ref) <= 1e-14 * (abs(ref) + params.L_prime)


class TestTauOracle:
    @pytest.mark.parametrize(
        "zeta, w",
        [
            (1e3, 1e8j),  # the contour integration raised QuadratureError here
            (1e8, 1e8j),
            (1e8, 1000 + 1j),  # and returned -0.000968 + 26.714706i here
            (2.0, 1e150 * (1 + 1j)),  # and overflowed on T**2 here
            (2.0, 1e200j),
        ],
    )
    def test_far_from_the_tested_grid(self, zeta, w):
        bridge = BridgeMaps.from_zeta(zeta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tau(bridge, w)
        assert _tau_close(bridge.params, got, _tau_reference(bridge.params, w))

    @pytest.mark.parametrize("side", ["+", "-"])
    @pytest.mark.parametrize("t", [1.5, 0.999, 1.001, 1e3, 1e6])
    def test_slits(self, bridge, t, side):
        # t in units of the slit tip 1/x0, on both slits
        p = bridge.params
        for w in (t / p.x0, -t / p.x0):
            got = tau(bridge, w, side)
            assert _tau_close(p, got, _tau_reference(p, w, side))

    @given(
        x0=st.floats(1e-12, 1.0 - 1e-9),
        log_r=st.floats(-300.0, 300.0),
        arg=st.floats(-math.pi, math.pi, exclude_min=True),
        on_slit=st.booleans(),
        side=st.sampled_from(["+", "-"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_whole_domain(self, x0, log_r, arg, on_slit, side):
        # tau reads only bridge.params; x0 within 1e-8 of 1 has no float |zeta| > 1
        params = params_from_x0(x0)
        bridge = types.SimpleNamespace(params=params)
        w = 10.0**log_r * (math.copysign(1.0, arg) if on_slit else complex(math.cos(arg), math.sin(arg)))
        if abs(w.imag) <= 1e-13 * (x0 + abs(w)) and abs(w.real) > x0:
            w = w.real  # tau reads w within 1e-13 relative of a slit as on it
        else:
            side = None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tau(bridge, w, side or "auto")
        assert math.isfinite(got.real) and math.isfinite(got.imag)
        assert _tau_close(params, got, _tau_reference(params, w, side))


class TestTauPrime:
    def test_matches_finite_differences(self, bridge):
        h = 1e-6
        for w in (0.1 + 0.3j, -0.5 + 0.8j, 1.3 + 0.4j, 0.2 - 1.1j, 2.5 + 0.6j, -2.0 - 0.3j):
            fd_x = (tau(bridge, w + h) - tau(bridge, w - h)) / (2 * h)
            fd_y = (tau(bridge, w + 1j * h) - tau(bridge, w - 1j * h)) / (2j * h)
            tp = tau_prime(bridge, w)
            assert abs(fd_x - tp) < 1e-6
            assert abs(fd_y - tp) < 1e-6

    def test_value_at_zero(self, bridge):
        assert tau_prime(bridge, 0.0) == pytest.approx(1.0 / bridge.x0, abs=1e-13)

    def test_axis_aligned_on_slit_segment(self, bridge):
        # (x0, 1/x0) maps to the vertical rectangle edge, so the boundary
        # derivative from above is purely imaginary with positive imag part
        p = bridge.params
        for s in (p.x0 + 0.1, 1.0, 1 / p.x0 - 0.1):
            v = tau_prime(bridge, s, "+")
            assert abs(v.real) < 1e-10 * abs(v)
            assert v.imag > 0

    def test_inverse_square_root_blowup(self, bridge):
        p = bridge.params
        prods = []
        for r in (1e-2, 1e-4, 1e-6):
            w = p.x0 + r * np.exp(0.4j)
            prods.append(abs(tau_prime(bridge, w)) * math.sqrt(abs(w - p.x0)))
        assert np.ptp(prods) < 0.05 * prods[0]

    def test_branch_point_signal(self, bridge):
        p = bridge.params
        for bp in (p.x0, -p.x0, 1 / p.x0, -1 / p.x0):
            with pytest.raises(PoleError):
                tau_prime(bridge, bp)

    @pytest.mark.parametrize(
        "w", [0.1 + 0.3j, -2.0 - 0.3j, 1e10 * (1 + 2j), 1e100 * (1 + 1j), 1e154 * (-1 + 0.5j), 1e160j, 1e200 * (1 + 1j), 1e300j]
    )
    def test_large_arguments_against_mpmath(self, bridge, w):
        # the unscaled product overflowed from |w| ~ 1e154 on
        x0 = mpmath.mpf(bridge.x0)
        with mpmath.workdps(40):
            t = mpmath.mpc(w)
            ref = 1 / (x0 * mpmath.sqrt(1 - t / x0) * mpmath.sqrt(1 + t / x0) * mpmath.sqrt(1 - x0 * t) * mpmath.sqrt(1 + x0 * t))
            ref = complex(ref)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = complex(tau_prime(bridge, w))
        # the true value is subnormal or zero from |w| ~ 1e155 on
        assert abs(got - ref) <= 1e-15 * abs(ref) + 2.0 * math.ulp(0.0)


class TestMoebius:
    def test_inverse_pair(self, bridge, rng):
        z = rng.uniform(1.1, 3.0, 20) * np.exp(1j * rng.uniform(0, 2 * math.pi, 20))
        assert np.max(np.abs(eta_inv(bridge, eta(bridge, z)) - z)) < 1e-12

    def test_special_values(self, bridge):
        assert abs(complex(eta(bridge, bridge.zeta)) - bridge.x0) < 1e-14
        assert abs(complex(eta(bridge, 1e12)) + bridge.x0) < 1e-11

    def test_cross_ratio_preserved(self, bridge):
        z = np.array([1.3 + 0.4j, 2.0 - 1.0j, -1.7 + 0.2j, 3.0 + 3.0j])
        w = eta(bridge, z)

        def cross(q):
            return (q[0] - q[2]) * (q[1] - q[3]) / ((q[0] - q[3]) * (q[1] - q[2]))

        assert abs(cross(z) - cross(w)) < 1e-12

    def test_complex_zeta(self):
        br = BridgeMaps.from_zeta(1.5 + 0.5j)
        assert abs(complex(eta(br, br.zeta)) - br.x0) < 1e-14
        z = np.array([2.0 + 0.1j, 1.2 - 0.9j])
        assert np.max(np.abs(eta_inv(br, eta(br, z)) - z)) < 1e-12


class TestPhiFromPsi:
    @pytest.mark.parametrize("name", ["identity", "joukowski", "joukowski-pi2", "b1:0.3", "b1:0.7"])
    @pytest.mark.parametrize("zeta", ZETAS)
    def test_normalisation_triple(self, name, zeta):
        br = BridgeMaps.from_zeta(zeta)
        phi = phi_from_psi(br, resolve_map(name))
        x0 = br.x0
        assert abs(complex(phi.value(np.complex128(x0)))) < 1e-12
        assert abs(complex(phi.deriv(np.complex128(x0))) - 1.0) < 1e-12
        h = 1e-6
        fd = (phi.value(np.complex128(x0 + h)) - phi.value(np.complex128(x0 - h))) / (2 * h)
        assert abs(complex(fd) - 1.0) < 1e-8
        assert abs(complex(phi.value(np.complex128(-x0 + 1e-9)))) > 1e6

    def test_identity_reduces_to_moebius(self):
        # for psi = id the induced map collapses to 2 x0 (w - x0)/(w + x0),
        # independently of the phase of zeta
        for zeta in (2.0, 1.5 + 0.5j):
            br = BridgeMaps.from_zeta(zeta)
            phi = phi_from_psi(br, resolve_map("identity"))
            x0 = br.x0
            for w in (0.1 + 0.2j, -0.3, 0.6j, 0.5 - 0.4j, 0.05):
                expected = 2 * x0 * (w - x0) / (w + x0)
                assert abs(complex(phi.value(np.complex128(w))) - expected) < 1e-12

    def test_derivative_chain(self, rng):
        br = BridgeMaps.from_zeta(1.5)
        phi = phi_from_psi(br, resolve_map("joukowski"))
        w = rng.uniform(-0.5, 0.5, 8) + 1j * rng.uniform(-0.5, 0.5, 8)
        h = 1e-6
        fd2 = (phi.deriv(w + h) - phi.deriv(w - h)) / (2 * h)
        assert np.max(np.abs(fd2 - phi.deriv2(w))) < 1e-6

    def test_rejects_disk_maps(self, bridge):
        with pytest.raises(ValueError):
            phi_from_psi(bridge, resolve_map("koebe"))

    def test_full_mapping_inherited(self, bridge):
        assert phi_from_psi(bridge, resolve_map("joukowski")).full_mapping
        assert not phi_from_psi(bridge, resolve_map("b1:0.3")).full_mapping


def _quotient_maps():
    """Every catalog map, and the unit-disk map of each catalog Sigma map at
    zeta = 1.25 and 3i."""
    out = catalog()
    for zeta in (1.25, 3j):
        bridge = BridgeMaps.from_zeta(zeta)
        out += [phi_from_psi(bridge, m) for m in catalog() if m.map_class == "Sigma"]
    return out


QUOTIENT_MAPS = _quotient_maps()


def _domain_point(m, t, arg):
    """A point of the map's domain at radius parameter t in [0, 1]: |z| from
    1.05 to 100 for a Sigma map, up to 0.95 for a unit-disk map, clear of
    the critical points on the unit circle."""
    r = 1.05 * (100.0 / 1.05) ** t if m.map_class == "Sigma" else 0.95 * t
    return np.complex128(r * complex(math.cos(arg), math.sin(arg)))


class TestQuotient:
    """``quotient(z, w)`` is (value(z) - value(w))/(z - w) without the
    subtraction, and deriv(w) at z = w."""

    @given(
        m=st.sampled_from(QUOTIENT_MAPS),
        t=st.floats(0.0, 1.0),
        a=st.floats(0.0, 2.0 * math.pi),
        s=st.floats(0.0, 1.0),
        b=st.floats(0.0, 2.0 * math.pi),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_subtraction_off_the_diagonal(self, m, t, a, s, b):
        z, w = _domain_point(m, t, a), _domain_point(m, s, b)
        assume(abs(z - w) >= 1e-3)
        got = complex(m.quotient(z, w))
        assert abs(got - (m.value(z) - m.value(w)) / (z - w)) <= 1e-10 * abs(got)

    @given(m=st.sampled_from(QUOTIENT_MAPS), t=st.floats(0.0, 1.0), a=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_is_the_derivative_on_the_diagonal(self, m, t, a):
        w = _domain_point(m, t, a)
        deriv = complex(m.deriv(w))
        assert abs(complex(m.quotient(w, w)) - deriv) <= 1e-14 * abs(deriv)


class TestMarchedSqrtPath:
    def test_zero_on_path_raises(self):
        # a double zero at 0.5, a node of every densification of [0, 1]: the
        # argument ratios all stay positive, so the zero-argument check has
        # to catch it
        with pytest.raises(BranchAmbiguityError, match="zero argument"):
            marched_sqrt_path(lambda z: (z - 0.5) ** 2 + 1e-20, [0.0, 1.0], 1.0)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_tracks_beyond_principal_branch(self, k):
        # f(z) = z along k + 0.6 half-turns: the continued root is
        # exp(i theta/2), while np.sqrt changes sign at each of the
        # (k + 1) // 2 crossings of the negative axis
        theta = (k + 0.6) * math.pi
        target = np.exp(1j * theta)
        arc = np.exp(1j * np.linspace(0.0, theta, 8 * k + 9))
        val = marched_sqrt_path(lambda z: z, arc, 1.0)
        assert abs(val - np.exp(0.5j * theta)) < 1e-12
        assert abs(val - (-1) ** ((k + 1) // 2) * np.sqrt(target)) < 1e-12

    def test_densification(self):
        # a coarse polyline whose argument rotates fast gets refined
        val = marched_sqrt_path(lambda z: z**2, [1.0, 1j, -1.0], 1.0)
        assert abs(val - (-1.0)) < 1e-12
