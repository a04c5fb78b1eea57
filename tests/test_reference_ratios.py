"""Area ratios against reference values from an independent cubature route.

The references integrate |Psi|^2 in polar coordinates around zeta,
z = zeta + r e^{i theta}, where the weight 1/|z - zeta| cancels against
r dr: for each theta, r runs over [0, inf) minus the chord the ray cuts
from the closed unit disk, by nested ``scipy.integrate.quad`` at epsrel
1e-11 and limit 400.  Psi comes from ``PsiEvaluator.field``, so only the
cubature is independent; the full-mapping row also checks the field,
whose exact ratio is 1.

Every check must land within three of its own error bars, err/rhs, of the
reference.  The torus form, whose error bar is about 1e-10 of rhs,
matches every reference to about 1e-11.
"""

import functools

import pytest

from goluzin_lab.catalog import resolve_map
from goluzin_lab.inequalities import torus_area_crosscheck, verify_area_disk, verify_area_sigma
from goluzin_lab.maps import BridgeMaps, phi_from_psi

REFERENCE = [
    ("joukowski", 2.0, 1.0),
    ("identity", 2.0, 0.769705196974),
    ("b1:0.7", 3j, 0.929331446086),
    ("identity", 20.0, 0.994544600425),
]


def _ids(cases):
    return [f"{name}-{zeta}" for name, zeta, _ in cases]


def _disk(psi, zeta):
    bridge = BridgeMaps.from_zeta(zeta)
    return verify_area_disk(phi_from_psi(bridge, psi), bridge.x0)


@functools.lru_cache(maxsize=None)
def _check(form, name, zeta):
    psi = resolve_map(name)
    run = {"sigma": verify_area_sigma, "disk": _disk, "torus": torus_area_crosscheck}[form]
    return run(psi, zeta)


def _misses(r, ref):
    """|ratio - ref| in units of the check's own err/rhs."""
    return abs(r.ratio - ref) / (r.error_estimate / r.rhs)


@pytest.mark.parametrize("name,zeta,ref", REFERENCE, ids=_ids(REFERENCE))
def test_sigma_form(name, zeta, ref):
    assert _misses(_check("sigma", name, zeta), ref) <= 3.0


@pytest.mark.parametrize("name,zeta,ref", REFERENCE, ids=_ids(REFERENCE))
def test_disk_form(name, zeta, ref):
    assert _misses(_check("disk", name, zeta), ref) <= 3.0


@pytest.mark.parametrize("name,zeta,ref", REFERENCE, ids=_ids(REFERENCE))
def test_torus_form(name, zeta, ref):
    assert _misses(_check("torus", name, zeta), ref) <= 3.0
