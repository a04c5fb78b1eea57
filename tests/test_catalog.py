import dataclasses
import math

import numpy as np
import pytest

from goluzin_lab.catalog import catalog, gronwall_sum, laurent_coefficients, resolve_map


def _sigma_maps():
    return [m for m in catalog() if m.map_class == "Sigma"]


def _disk_maps():
    return [m for m in catalog() if m.map_class == "S"]


class TestNormalisation:
    def test_sigma_maps_fix_infinity(self):
        z = 1e6 * np.exp(1j * np.linspace(0, 2 * math.pi, 7))
        for m in _sigma_maps():
            assert np.max(np.abs(m.value(z) / z - 1.0)) < 1e-5

    def test_disk_maps_fix_origin(self):
        for m in _disk_maps():
            assert abs(complex(m.value(np.complex128(0.0)))) < 1e-14
            assert complex(m.deriv(np.complex128(0.0))) == pytest.approx(1.0, abs=1e-14)

    def test_expected_members(self):
        names = {m.name for m in catalog()}
        assert {"identity", "joukowski", "joukowski-pi3", "joukowski-pi2", "b1:0.3", "b1:0.7", "koebe", "identity-disk"} <= names

    def test_full_mapping_flags(self):
        flags = {m.name: m.full_mapping for m in catalog()}
        assert flags["joukowski"] and flags["joukowski-pi3"] and flags["joukowski-pi2"] and flags["koebe"]
        assert not flags["identity"] and not flags["b1:0.3"] and not flags["b1:0.7"] and not flags["identity-disk"]


class TestDerivatives:
    @pytest.mark.parametrize("m", catalog(), ids=lambda m: m.name)
    def test_finite_difference_consistency(self, m, rng):
        if m.map_class == "Sigma":
            pts = rng.uniform(1.2, 3.0, 20) * np.exp(1j * rng.uniform(0, 2 * math.pi, 20))
        else:
            pts = rng.uniform(0.0, 0.8, 20) * np.exp(1j * rng.uniform(0, 2 * math.pi, 20))
        h = 1e-6
        fd1 = (m.value(pts + h) - m.value(pts - h)) / (2 * h)
        fd2 = (m.deriv(pts + h) - m.deriv(pts - h)) / (2 * h)
        assert np.max(np.abs(fd1 - m.deriv(pts))) < 1e-7
        assert np.max(np.abs(fd2 - m.deriv2(pts))) < 1e-7

    def test_koebe_log_derivative(self, rng):
        # phi''/phi' = (4 + 2z)/(1 - z^2), verified numerically
        m = resolve_map("koebe")
        z = rng.uniform(-0.7, 0.7, 10) + 1j * rng.uniform(-0.5, 0.5, 10)
        ratio = m.deriv2(z) / m.deriv(z)
        np.testing.assert_allclose(ratio, (4.0 + 2.0 * z) / (1.0 - z**2), rtol=1e-12)

    def test_identity_log_derivative_vanishes(self):
        m = resolve_map("identity")
        z = np.array([1.5 + 0.2j, 3.0, -2.0 + 1j])
        assert np.max(np.abs(m.deriv2(z))) == 0.0


class TestUnivalenceSpotCheck:
    @pytest.mark.parametrize("m", catalog(), ids=lambda m: m.name)
    def test_pairwise_distinct_on_mesh(self, m):
        if m.map_class == "Sigma":
            r = np.linspace(1.05, 4.0, 10)
        else:
            r = np.linspace(0.05, 0.92, 10)
        t = np.linspace(0, 2 * math.pi, 20, endpoint=False)
        pts = (r[:, None] * np.exp(1j * t[None, :])).ravel()
        vals = m.value(pts)
        dist = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > 1e-10


class TestCoefficients:
    def test_joukowski(self):
        m = resolve_map("joukowski")
        assert m.coefficients == (0.0, 1.0)
        assert gronwall_sum(m) == pytest.approx(1.0, abs=1e-15)

    def test_b1_values(self):
        assert gronwall_sum(resolve_map("b1:0.7")) == pytest.approx(0.49, abs=1e-15)
        assert gronwall_sum(resolve_map("b1:0.3")) == pytest.approx(0.09, abs=1e-15)
        assert gronwall_sum(resolve_map("identity")) == 0.0

    @pytest.mark.parametrize("name", ["b1:nan", "b1:nan+0.1i", "b1:inf"])
    def test_non_finite_coefficient_rejected(self, name):
        with pytest.raises(KeyError):
            resolve_map(name)

    def test_extraction_matches_closed_form(self):
        for name in ("joukowski", "b1:0.7", "joukowski-pi3"):
            m = resolve_map(name)
            bs = laurent_coefficients(m, 8)
            closed = np.zeros(9, dtype=complex)
            closed[: len(m.coefficients)] = m.coefficients
            np.testing.assert_allclose(bs, closed, atol=1e-13)

    def test_extraction_route_in_gronwall_sum(self):
        m = dataclasses.replace(resolve_map("b1:0.7"), coefficients=None)
        assert gronwall_sum(m, 24) == pytest.approx(0.49, abs=1e-10)

    def test_area_bound_on_catalog(self):
        for m in _sigma_maps():
            assert gronwall_sum(m) <= 1.0 + 1e-10


class TestResolver:
    def test_dynamic_b1(self):
        m = resolve_map("b1:0.5")
        assert complex(m.value(np.complex128(2.0))) == pytest.approx(2.25)
        m2 = resolve_map("b1:0.3+0.4i")
        assert m2.coefficients[1] == pytest.approx(0.3 + 0.4j)

    def test_unknown_map(self):
        with pytest.raises(KeyError):
            resolve_map("nope")

    def test_non_univalent_b1_rejected(self):
        with pytest.raises(KeyError):
            resolve_map("b1:1.5")

    def test_bad_literal(self):
        with pytest.raises(KeyError):
            resolve_map("b1:xyz")
