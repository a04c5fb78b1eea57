"""The benchmark's workloads: inputs from a seed, one pass, verdict checks.

A pass runs the workload's whole fixed input set, split into units that
a run times one by one: the whole sweep (one CLI call), each bridge
check, or the whole grid.  ``verdicts`` turns a unit's outcome into one
``Verdict`` per check together with the bytes that must repeat exactly
(the sweep CSV, or the ratios and error estimates in order).  Every
verdict is checked against facts that do not come from the program:
an area check reaches ``equality`` exactly for full mappings, and no
catalog map is ever ``violated``.
"""

from __future__ import annotations

import csv
import io
import math
import os
import statistics
from dataclasses import dataclass
from functools import partial

import numpy as np

SIGMA_MAPS = ("identity", "joukowski", "joukowski-pi3", "joukowski-pi2", "b1:0.3", "b1:0.7")
S_MAPS = ("koebe", "identity-disk")
# z + b1/z with |b1| = 1 maps the exterior disk onto the sphere minus a
# segment, and Koebe's map omits a ray: both leave a complement of zero area.
FULL_MAPPINGS = frozenset({"joukowski", "joukowski-pi3", "joukowski-pi2", "koebe"})
AREA_CHECKS = frozenset({"area-sigma", "area-disk", "area-torus"})

# The fixed probe set whose ratios later changes must not move by more
# than their error estimates.
PROBE_MAPS = ("joukowski", "identity", "b1:0.7")
PROBE_ZETAS = {"1.25": 1.25 + 0j, "2": 2.0 + 0j, "3i": 3j}


@dataclass(frozen=True)
class Verdict:
    inequality: str
    map: str
    point: complex
    ratio: float
    error_estimate: float
    rhs: float
    status: str  # holds | equality | violated | raised:<exception type>

    @property
    def wrong(self) -> bool:
        if self.status.startswith("raised:") or self.status == "violated":
            return True
        if self.inequality in AREA_CHECKS:
            return (self.status == "equality") != (self.map in FULL_MAPPINGS)
        return False


def _verdict(inequality: str, name: str, point: complex, outcome) -> Verdict:
    """One verdict from a VerificationReport, or from the exception raised instead."""
    if isinstance(outcome, Exception):
        return Verdict(inequality, name, point, math.nan, math.nan, math.nan, f"raised:{type(outcome).__name__}")
    return Verdict(outcome.inequality, name, point, outcome.ratio, outcome.error_estimate, outcome.rhs, outcome.status)


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a failed verdict is data: it is counted, not fatal
        return exc


def _probe_label(point: complex) -> str | None:
    for label, zeta in PROBE_ZETAS.items():
        if abs(point - zeta) < 1e-9:
            return label
    return None


def probes(verdicts) -> dict[str, dict]:
    """Ratio and error estimate of every probe verdict, keyed by check/map/point."""
    out = {}
    for v in verdicts:
        label = _probe_label(v.point)
        if v.inequality in AREA_CHECKS and v.map in PROBE_MAPS and label is not None:
            out[f"{v.inequality}/{v.map}/{label}"] = {
                "ratio": v.ratio,
                "error_estimate": v.error_estimate,
                "rhs": v.rhs,
                "status": v.status,
            }
    return out


def accuracy(verdicts) -> dict[str, float]:
    """eq_dev_max and err_rel_p50 over the area checks that returned."""
    area = [v for v in verdicts if v.inequality in AREA_CHECKS and not v.status.startswith("raised:")]
    out = {}
    full = [abs(v.ratio - 1.0) for v in area if v.map in FULL_MAPPINGS]
    if full:
        out["eq_dev_max"] = max(full)
    if area:
        out["err_rel_p50"] = statistics.median(v.error_estimate / v.rhs for v in area)
    return out


class Sweep:
    """``goluzin-lab sweep --area --format csv`` run in-process through cli.main."""

    def __init__(self, jobs: int, small: bool, workdir: str):
        self.jobs = jobs
        self.maps = ("joukowski",) if small else SIGMA_MAPS
        self.out_path = os.path.join(workdir, f"sweep-j{jobs}.csv")
        # 12 base points per map; each gets goluzin, pointwise-from-area and area-sigma.
        self.expected = 3 * 12 * len(self.maps)

    def run_pass(self, jobs: int | None = None):
        """Run the sweep once; returns cli.main's exit code or the exception it raised."""
        from goluzin_lab import cli

        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = ["sweep", "--area", "--format", "csv", "--jobs", str(jobs or self.jobs), "--out", self.out_path]
        if self.maps != SIGMA_MAPS:
            argv += ["--maps", *self.maps]
        return _call(cli.main, argv)

    def units(self):
        return [self.run_pass]

    def verdicts(self, outcome):
        """Verdicts parsed from the CSV the pass wrote, and the CSV bytes."""
        if not os.path.exists(self.out_path):
            status = outcome if isinstance(outcome, Exception) else RuntimeError(f"exit code {outcome}, no report")
            return [_verdict("sweep", "", 0j, status)] * self.expected, b""
        with open(self.out_path, "rb") as fh:
            blob = fh.read()
        rows = list(csv.DictReader(io.StringIO(blob.decode("utf-8"))))
        found = [
            Verdict(
                r["inequality"],
                r["map"],
                complex(r["point"].replace("i", "j")),
                float(r["ratio"]),
                float(r["error_estimate"]),
                float(r["rhs"]),
                r["status"],
            )
            for r in rows
        ]
        missing = [_verdict("sweep", "", 0j, LookupError("row missing"))] * (self.expected - len(found))
        return found + missing, blob


def _replayable(verdicts) -> bytes:
    return repr([(v.ratio, v.error_estimate, v.status) for v in verdicts]).encode()


class BridgeArea:
    """Disk form and torus cross-check for the probe maps at the probe points."""

    def __init__(self, small: bool):
        from goluzin_lab import resolve_map

        names = ("joukowski",) if small else PROBE_MAPS
        zetas = [PROBE_ZETAS["2"]] if small else list(PROBE_ZETAS.values())
        self.pairs = [(resolve_map(n), z) for n in names for z in zetas]
        self.expected = 2 * len(self.pairs)

    @staticmethod
    def _disk_form(psi, zeta):
        from goluzin_lab import BridgeMaps, phi_from_psi, verify_area_disk

        def disk_form():
            bridge = BridgeMaps.from_zeta(zeta)
            return verify_area_disk(phi_from_psi(bridge, psi), bridge.x0)

        return [_verdict("area-disk", psi.name, zeta, _call(disk_form))]

    @staticmethod
    def _torus(psi, zeta):
        from goluzin_lab import torus_area_crosscheck

        return [_verdict("area-torus", psi.name, zeta, _call(torus_area_crosscheck, psi, zeta))]

    def units(self):
        """One unit per check, each returning its one verdict in a list."""
        return [partial(check, psi, zeta) for psi, zeta in self.pairs for check in (self._disk_form, self._torus)]

    def verdicts(self, outcome):
        return outcome, _replayable(outcome)


class PointwiseGrid:
    """Seeded points over the whole documented |zeta| and |w| domains."""

    def __init__(self, seed: int, small: bool):
        from goluzin_lab import resolve_map

        n = 50 if small else 5000
        rng = np.random.default_rng(seed)
        self.sigma = []
        for name in SIGMA_MAPS:
            u, t = rng.uniform(-6.0, 8.0, n), rng.uniform(0.0, 2.0 * math.pi, n)
            self.sigma.append((resolve_map(name), [complex(z) for z in (1.0 + 10.0**u) * np.exp(1j * t)]))
        self.s = []
        for name in S_MAPS:
            u, t = rng.uniform(-6.0, 0.0, n), rng.uniform(0.0, 2.0 * math.pi, n)
            self.s.append((resolve_map(name), [complex(w) for w in (1.0 - 10.0**u) * np.exp(1j * t)]))
        self.expected = n * (2 * len(SIGMA_MAPS) + len(S_MAPS))

    def run_pass(self):
        from goluzin_lab import PsiEvaluator, goluzin_bound, koebe_bieberbach_bound, pointwise_from_area

        def from_area(psi, zeta):
            return pointwise_from_area(PsiEvaluator(psi, zeta))

        out = []
        add = out.append
        for psi, points in self.sigma:
            for zeta in points:
                add(_verdict("goluzin", psi.name, zeta, _call(goluzin_bound, psi, zeta)))
                add(_verdict("pointwise-from-area", psi.name, zeta, _call(from_area, psi, zeta)))
        for phi, points in self.s:
            for w in points:
                add(_verdict("koebe-bieberbach", phi.name, w, _call(koebe_bieberbach_bound, phi, w)))
        return out

    def units(self):
        return [self.run_pass]

    def verdicts(self, outcome):
        return outcome, _replayable(outcome)


WORKLOADS = ("sweep-area", "sweep-area-j2", "bridge-area", "pointwise-grid")


def build(name: str, seed: int, small: bool, workdir: str):
    """The workload's inputs; sweep and bridge inputs are fixed, the grid is seeded."""
    if name == "sweep-area":
        return Sweep(1, small, workdir)
    if name == "sweep-area-j2":
        return Sweep(2, small, workdir)
    if name == "bridge-area":
        return BridgeArea(small)
    if name == "pointwise-grid":
        return PointwiseGrid(seed, small)
    raise ValueError(f"unknown workload {name!r}")
