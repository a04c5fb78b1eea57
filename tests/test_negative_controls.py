"""Negative controls: z + b/z with |b| > 1 is not univalent on |z| > 1, so
the checks must be able to read ``violated``.  Every map the CLI can name
is univalent, so these maps are built directly and handed to the CLI by
monkeypatching ``cli.resolve_map`` (which rejects |b1| > 1).

For such a map Q(z) = 1 - b/(z zeta) vanishes at b/zeta.  The area forms
take their root R = sqrt(Q) from a march over |z| > 1, which cannot pass
that zero once |b/zeta| > 1: they raise ``BranchAmbiguityError`` (exit 2)
there.  The pointwise checks are closed forms at zeta and build no root,
so they give a verdict everywhere in the domain.

In class S the control is phi = z + a z^2, univalent on |z| < 1 iff
|a| <= 1/2: for |a| > 1/2 its critical point -1/(2a) lies in the disk, and
Koebe-Bieberbach must read ``violated`` next to it."""

import math

import pytest

from goluzin_lab import cli
from goluzin_lab.catalog import UnivalentMap
from goluzin_lab.errors import BranchAmbiguityError
from goluzin_lab.inequalities import (
    PsiEvaluator,
    goluzin_bound,
    gronwall_check,
    koebe_bieberbach_bound,
    pointwise_from_area,
    torus_area_crosscheck,
    verify_area_sigma,
)


def _laurent(b):
    """z + b/z as a UnivalentMap, whatever |b| is."""
    b = complex(b)
    return UnivalentMap(f"z+({b})/z", "Sigma", lambda z: z + b / z, lambda z: 1.0 - b / z**2,
                        lambda z: 2.0 * b / z**3, lambda z, w: 1.0 - b / (z * w), (0.0, b), False)


def _cli(monkeypatch, psi, argv):
    monkeypatch.setattr(cli, "resolve_map", lambda name: psi)
    return cli.main(argv)


B12 = _laurent(1.2)
C12 = math.sqrt(1.2)  # |zeta| at which the zero b/zeta of Q reaches the unit circle


class TestGronwall:
    @pytest.mark.parametrize("b", [1.2, 1.5, 2.0, 1.2j])
    def test_reads_violated_at_b_squared(self, b):
        r = gronwall_check(_laurent(b))
        assert r.status == "violated"
        assert r.ratio == pytest.approx(abs(b) ** 2, rel=1e-12)


class TestAreaForms:
    @pytest.mark.parametrize("zeta,ratio", [(1.2 * C12, 2.0195), (2.0, 1.15342), (3.286, 1.05597)])
    def test_sigma_and_torus_read_violated_and_agree(self, zeta, ratio):
        s, t = verify_area_sigma(B12, zeta), torus_area_crosscheck(B12, zeta)
        assert s.status == t.status == "violated"
        assert abs(s.ratio - t.ratio) <= (s.error_estimate / s.rhs + t.error_estimate / t.rhs)
        assert s.ratio == pytest.approx(ratio, abs=1e-4)

    @pytest.mark.parametrize("check", [verify_area_sigma, torus_area_crosscheck])
    def test_zero_of_q_outside_the_circle_raises(self, check):
        # b/zeta lies outside the unit circle at 1.01 c: no march reaches R there
        with pytest.raises(BranchAmbiguityError):
            check(B12, 1.01 * C12)


class TestPointwise:
    """The closed forms read a verdict where the area forms cannot march."""

    @pytest.mark.parametrize(
        "b,zeta,goluzin,from_area",
        [
            (1.5, 1.2, ("violated", 9.4751), ("violated", 3.9587)),
            (1.5, 1.1, ("holds", 0.7231), ("holds", 0.0539)),
            (1.2, 1.01 * C12, ("violated", 9.4254), ("violated", 5.5754)),
        ],
    )
    def test_verdicts(self, b, zeta, goluzin, from_area):
        psi = _laurent(b)
        for r, (status, ratio) in ((goluzin_bound(psi, zeta), goluzin),
                                   (pointwise_from_area(PsiEvaluator(psi, zeta)), from_area)):
            assert r.status == status
            assert r.ratio == pytest.approx(ratio, abs=1e-4)


class TestExitCodes:
    @pytest.mark.parametrize("b,z", [(1.5, 1.2), (1.2, 1.01 * C12)])
    def test_pointwise_violated_is_1(self, b, z, monkeypatch, capsys):
        assert _cli(monkeypatch, _laurent(b), ["pointwise", "--map", "x", "--z", repr(z)]) == cli.EXIT_VIOLATION
        assert capsys.readouterr().out.count("status=violated") == 2

    def test_area_violated_is_1(self, monkeypatch, capsys):
        assert _cli(monkeypatch, B12, ["area", "--map", "x", "--zeta", repr(1.2 * C12)]) == cli.EXIT_VIOLATION

    def test_area_without_a_root_is_2(self, monkeypatch, capsys):
        assert _cli(monkeypatch, B12, ["area", "--map", "x", "--zeta", repr(1.01 * C12)]) == cli.EXIT_NONCONVERGENCE



def _quadratic(a):
    """z + a z^2 as a class-S UnivalentMap, whatever a is."""
    return UnivalentMap(f"z+{a}z^2", "S", lambda z: z + a * z**2, lambda z: 1.0 + 2.0 * a * z,
                        lambda z: 2.0 * a + 0.0 * z, lambda z, w: 1.0 + a * (z + w), (a,), False)


def _kb_ratio(a, z):
    """|phi''/phi' - 2z/(1 - z^2)| (1 - z^2)/4 for phi = z + a z^2 at real z."""
    return abs(2.0 * a / (1.0 + 2.0 * a * z) - 2.0 * z / (1.0 - z * z)) * (1.0 - z * z) / 4.0


class TestKoebeBieberbach:
    @pytest.mark.parametrize("a,ratio", [(0.6, 8.3270833), (1.0, 36.99625)])
    def test_reads_violated_next_to_the_critical_point(self, a, ratio):
        z = -1.01 / (2.0 * a)
        r = koebe_bieberbach_bound(_quadratic(a), z)
        assert r.status == "violated"
        assert r.ratio == pytest.approx(_kb_ratio(a, z), rel=1e-12)
        assert r.ratio == pytest.approx(ratio, abs=1e-7)

    def test_reads_holds_away_from_it(self):
        r = koebe_bieberbach_bound(_quadratic(0.6), -0.875)
        assert r.status == "holds"
        assert r.ratio == pytest.approx(0.96875, rel=1e-12)

    @pytest.mark.parametrize("a", [0.6, 1.0])
    def test_pointwise_violated_is_1(self, a, monkeypatch, capsys):
        z = -1.01 / (2.0 * a)
        assert _cli(monkeypatch, _quadratic(a), ["pointwise", "--map", "x", "--z", repr(z)]) == cli.EXIT_VIOLATION
        assert capsys.readouterr().out.count("status=violated") == 1
