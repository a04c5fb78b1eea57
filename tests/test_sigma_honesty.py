"""The sigma form's error bar against references it does not share.

A check passes when it does not raise and lands within three of its error
bars of its reference, |ratio - ref| <= 3 err/rhs.  For a full mapping
the reference is exactly 1.  For the other maps it is the torus form at
rel_tol 1e-7, whose own bar, about 1e-8 of rhs, is added to the sigma
form's.  The cases cover the far field out to |zeta| = 1000 and zeta next
to the unit circle, 1e-5 out.  When the annulus seeded 4 x 4 cells, 4.5
times longer in theta than in log r, it missed nine of them: its cells
and their children both missed the bump edge around zeta and agreed (up
to 10 err off), or ran into the refinement cap next to the circle.
"""

import cmath
import functools

import pytest

from goluzin_lab.catalog import resolve_map
from goluzin_lab import quadrature
from goluzin_lab.errors import QuadratureError
from goluzin_lab.inequalities import torus_area_crosscheck, verify_area_sigma
from goluzin_lab.quadrature import QuadratureSpec

TORUS_SPEC = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-12)
TOLS = [2e-4, 1e-6]


def _bar(r):
    return r.error_estimate / r.rhs


@functools.lru_cache(maxsize=None)
def _torus(name, zeta):
    return torus_area_crosscheck(resolve_map(name), zeta, TORUS_SPEC)


@pytest.mark.parametrize(
    "name,zeta",
    [("b1:-0.9", 2.5 * cmath.exp(0.7j)), ("joukowski-pi3", 3.0 * cmath.exp(2j)), ("joukowski", 20.0)],
    ids=["b1:-0.9-2.5e^0.7i", "joukowski-pi3-3e^2i", "joukowski-20"],
)
def test_against_the_torus_form(name, zeta):
    rt = _torus(name, zeta)
    rs = verify_area_sigma(resolve_map(name), zeta)
    assert abs(rs.ratio - rt.ratio) <= 3.0 * (_bar(rs) + _bar(rt))


def _full_cases():
    for name, arg in (("joukowski", 0.0), ("joukowski-pi3", 0.7)):
        for radius in (1.0 + 1e-5, 1.01, 20.0, 50.0, 1000.0):
            for rel_tol in TOLS:
                if (name, radius, rel_tol) != ("joukowski", 1.0 + 1e-5, 1e-6):  # the next test's
                    yield name, arg, radius, rel_tol


@pytest.mark.parametrize("name,arg,radius,rel_tol", _full_cases())
def test_full_mapping_reads_one(name, arg, radius, rel_tol):
    r = verify_area_sigma(resolve_map(name), radius * cmath.exp(1j * arg), QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-10))
    assert abs(r.ratio - 1.0) <= 3.0 * _bar(r)


@pytest.mark.xfail(strict=True, raises=QuadratureError, reason=(
    "zeta is 1e-5 from the critical point 1 of joukowski, where psi'(zeta) = 2e-5: psi(z) - psi(zeta) "
    "loses 4e-5 of itself to rounding at |z - zeta| ~ 5e-7, and the patch around zeta refines that "
    "noise until its refinement cap (ROADMAP item 4)"
))
def test_full_mapping_next_to_a_critical_point(monkeypatch):
    # the converging checks above take under 100 refinements per drive; at the
    # full cap of 40,000 this one raises only after 45 s
    monkeypatch.setattr(quadrature, "_MAX_REFINEMENTS", 1_000)
    test_full_mapping_reads_one("joukowski", 0.0, 1.0 + 1e-5, 1e-6)
