"""Command-line front end.

Subcommands: ``params`` (parameter-pack inspection), ``pointwise`` (the
derivative-ratio bounds at one point), ``area`` (the area-type bound for
one map and base point), ``gronwall`` (the coefficient area theorem),
``sweep`` (a grid of pointwise checks, optionally with area checks), and
``selftest`` (fast internal invariant suite).

Exit codes: 0 all checks hold (or reach their expected equality), 1 a
bound is violated beyond tolerance, 2 numerical non-convergence (also a
square-root continuation that cannot fix a sign), 64 usage error.
Complex literals use the form ``1.5+0.5i`` with no spaces.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .catalog import catalog, resolve_map
from .elliptic import params_from_x0, x0_from_zeta_abs
from .errors import BranchAmbiguityError, QuadratureError
from .inequalities import (
    AREA_SPEC,
    GRONWALL_SPEC,
    BasePoint,
    PsiEvaluator,
    VerificationReport,
    goluzin_bound,
    gronwall_check,
    koebe_bieberbach_bound,
    pointwise_from_area,
    torus_area_crosscheck,
    verify_area_disk,
    verify_area_sigma,
)
from .maps import BridgeMaps, phi_from_psi
from .quadrature import QuadratureSpec

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_USAGE = 64

CSV_COLUMNS = [
    "inequality",
    "lhs",
    "rhs",
    "ratio",
    "error_estimate",
    "status",
    "map",
    "point",
    "rel_tol",
    "abs_tol",
]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(convert, ok, what):
    """An argparse ``type`` that rejects values failing ``ok`` (exit 64)."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


_jobs = _checked(int, lambda n: n >= 1, "a worker count of at least 1")
_rel_tol = _checked(float, lambda t: math.isfinite(t) and t > 0.0, "a finite positive tolerance")
_abs_tol = _checked(float, lambda t: math.isfinite(t) and t >= 0.0, "a finite non-negative tolerance")
_out = _checked(str, lambda path: os.path.isdir(os.path.dirname(os.path.abspath(path))), "in an existing directory")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' / 'a' / 'bi' literals (no spaces)."""
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex literal {text!r}") from exc


def _point(inputs: dict):
    return inputs.get("zeta", inputs.get("z", inputs.get("x0", "")))


def _emit(reports: list[VerificationReport], fmt: str, out_path: str | None) -> int:
    """Write the reports; return their exit code."""
    if fmt == "json":
        text = json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2, sort_keys=True)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for r in reports:
            # the report's fields as they are: to_dict() would deep-copy inputs
            writer.writerow({
                "inequality": r.inequality,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "ratio": r.ratio,
                "error_estimate": r.error_estimate,
                "status": r.status,
                "map": r.inputs.get("map", ""),
                "point": _point(r.inputs),
                "rel_tol": r.inputs.get("rel_tol", ""),
                "abs_tol": r.inputs.get("abs_tol", ""),
            })
        text = buf.getvalue()
    else:
        lines = []
        for r in reports:
            inputs = r.inputs
            where = _point(inputs)
            lines.append(
                f"{r.inequality:<20s} map={inputs.get('map', '-'):<16s} at={where!s:<22s} "
                f"lhs={r.lhs:.10g} rhs={r.rhs:.10g} ratio={r.ratio:.8f} "
                f"err={r.error_estimate:.2e} status={r.status}"
            )
        text = "\n".join(lines) + "\n"
    _write(text, out_path)
    return EXIT_VIOLATION if any(r.status == "violated" for r in reports) else EXIT_OK


def _write(text: str, out_path: str | None) -> None:
    try:
        out = open(out_path, "w", encoding="utf-8") if out_path else contextlib.nullcontext(sys.stdout)
    except OSError as exc:  # a usage error (exit 64), not a verdict
        raise ValueError(f"cannot write the report: {exc}") from exc
    with out as stream:
        stream.write(text)


def _spec_from_args(args, default: QuadratureSpec) -> QuadratureSpec:
    return QuadratureSpec(
        rel_tol=args.rel_tol if args.rel_tol is not None else default.rel_tol,
        abs_tol=args.abs_tol if args.abs_tol is not None else default.abs_tol,
    )


def _cmd_params(args) -> int:
    params = params_from_x0(args.x0 if args.x0 is not None else x0_from_zeta_abs(args.zeta_abs))
    payload = params.to_dict()
    if args.format == "csv":  # csv.writer quotes the list of Landen residuals as one field
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(sorted(payload.items()))
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(text, args.out)
    return EXIT_OK


def _cmd_pointwise(args) -> int:
    m = resolve_map(args.map)
    z = parse_complex(args.z)
    reports = []
    if m.map_class == "S":
        reports.append(koebe_bieberbach_bound(m, z))
    else:
        reports.append(goluzin_bound(m, z))
        reports.append(pointwise_from_area(PsiEvaluator(m, z)))
    return _emit(reports, args.format, args.out)


def _cmd_area(args) -> int:
    m = resolve_map(args.map)
    zeta = parse_complex(args.zeta)
    spec = _spec_from_args(args, AREA_SPEC)
    reports = [verify_area_sigma(m, zeta, spec)]
    if args.with_disk_form:
        bridge = BridgeMaps.from_zeta(zeta)
        reports.append(verify_area_disk(phi_from_psi(bridge, m), bridge.x0, spec))
    return _emit(reports, args.format, args.out)


def _cmd_gronwall(args) -> int:
    m = resolve_map(args.map)
    spec = _spec_from_args(args, GRONWALL_SPEC)
    reports = [gronwall_check(m, spec)]
    return _emit(reports, args.format, args.out)


def _sweep_grid():
    for radius in (1.25, 1.5, 2.0, 3.0):
        for arg in (0.0, math.pi / 4.0, math.pi / 2.0):
            yield radius * complex(math.cos(arg), math.sin(arg))


def _sweep_task(names: list[str], zeta: complex, spec: QuadratureSpec | None) -> list[list[VerificationReport]]:
    """The checks of every map in ``names`` at one sweep grid point, a list
    per map; module level so workers can run it.  The maps share one
    ``BasePoint``, which lives as long as this call."""
    base = BasePoint(zeta)
    out = []
    for m in map(resolve_map, names):
        checks = [goluzin_bound(m, base), pointwise_from_area(PsiEvaluator(m, base))]
        if spec is not None:
            checks.append(verify_area_sigma(m, base, spec))
        out.append(checks)
    return out


def _cmd_sweep(args) -> int:
    names = [resolve_map(n).name for n in args.maps or [m.name for m in catalog() if m.map_class == "Sigma"]]
    spec = _spec_from_args(args, AREA_SPEC) if args.area else None
    tasks = [(names, zeta, spec) for zeta in _sweep_grid()]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
            by_point = list(pool.map(_sweep_task, *zip(*tasks)))
    else:
        by_point = [_sweep_task(*t) for t in tasks]
    # run by base point, written by map: map i at point j is by_point[j][i]
    reports = [r for i in range(len(names)) for checks in by_point for r in checks[i]]
    return _emit(reports, args.format, args.out)


def _cmd_selftest(args) -> int:
    checks: list[tuple[str, bool, str]] = []

    def record(name, ok, detail=""):
        checks.append((name, bool(ok), detail))
        print(f"{'PASS' if ok else 'FAIL'}  {name}{(' : ' + detail) if detail else ''}")

    xs = np.arange(0.05, 0.951, 0.05)
    leg = max(abs(params_from_x0(float(x)).legendre_residual()) for x in xs)
    record("legendre-relation", leg < 1e-12, f"max residual {leg:.2e}")
    lan = max(max(abs(r) for r in params_from_x0(float(x)).landen_residuals()) for x in xs)
    record("landen-relations", lan < 1e-12 * params_from_x0(0.5).K, f"max residual {lan:.2e}")

    from .theta import JacobiContext, jacobi_sn_cn_dn

    p = params_from_x0(0.5)
    ctx = JacobiContext(p, "kappa")
    rng = np.random.default_rng(0)
    z = rng.uniform(-p.K, p.K, 16) + 1j * rng.uniform(-0.45 * p.K_prime, 0.45 * p.K_prime, 16)
    sn, cn, dn = jacobi_sn_cn_dn(ctx, z)
    res = float(np.abs(sn**2 + cn**2 - 1.0).max())
    record("sn2+cn2=1", res < 1e-10, f"max residual {res:.2e}")

    jk = resolve_map("joukowski")
    ok = all(goluzin_bound(jk, t).status == "equality" for t in (1.2, 1.5, 2.0, 3.0))
    record("goluzin-joukowski-equality", ok)
    kb = resolve_map("koebe")
    ok = all(koebe_bieberbach_bound(kb, t).status == "equality" for t in (0.0, 0.3, 0.6, 0.9))
    record("koebe-bieberbach-equality", ok)
    gr = gronwall_check(jk)
    record("gronwall-joukowski", gr.status == "equality" and gr.inputs["route_residual"] < 1e-6)

    r = verify_area_sigma(jk, 2.0)
    record("area-sigma-joukowski", r.status == "equality", f"ratio {r.ratio:.6f}")
    r = torus_area_crosscheck(jk, 2.0)
    record("area-torus-joukowski", r.status == "equality", f"ratio {r.ratio:.6f}")

    failed = [c for c in checks if not c[1]]
    print(f"{len(checks) - len(failed)}/{len(checks)} selftest checks passed")
    return EXIT_OK if not failed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="goluzin-lab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tolerances=True):
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", type=_out, default=None, help="write the report to this path instead of stdout")
        if tolerances:  # the quadrature budget; the closed-form pointwise checks have none
            p.add_argument("--rel-tol", type=_rel_tol, default=None)
            p.add_argument("--abs-tol", type=_abs_tol, default=None)

    p = sub.add_parser("params", help="print the elliptic parameter pack")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--x0", type=float)
    grp.add_argument("--zeta-abs", type=float)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=_out, default=None)
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("pointwise", help="pointwise derivative-ratio bounds at one point")
    p.add_argument("--map", required=True)
    p.add_argument("--z", required=True, help="evaluation point, e.g. 1.5+0.5i")
    add_common(p, tolerances=False)
    p.set_defaults(fn=_cmd_pointwise)

    p = sub.add_parser("area", help="area-type bound for one map / base point")
    p.add_argument("--map", required=True)
    p.add_argument("--zeta", required=True)
    p.add_argument("--with-disk-form", action="store_true", help="also run the unit-disk form")
    add_common(p)
    p.set_defaults(fn=_cmd_area)

    p = sub.add_parser("gronwall", help="coefficient area theorem for one map")
    p.add_argument("--map", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_gronwall)

    p = sub.add_parser("sweep", help="grid of checks over the catalog")
    p.add_argument("--maps", nargs="+", default=None)
    p.add_argument("--area", action="store_true", help="include the (slow) area checks")
    p.add_argument("--jobs", type=_jobs, default=1)
    add_common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("selftest", help="fast internal invariant suite")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (QuadratureError, BranchAmbiguityError) as exc:  # before ValueError, which the latter subclasses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
