"""Outside-in layer tracing for goluzin_lab.

The tracer wraps public functions of the package at every module that
binds them (and methods on their classes), so nothing under ``src/``
changes.  Each wrapped call is a span: its duration is added to the
layer's total time, and to the child time of the span that caused it on
the same thread, so a layer's self time is its total minus the time its
traced callees took.  Spans are aggregated as they close rather than
kept, which keeps memory flat on the large workloads.

The benchmark calls into the package on a closed loop with no queue, so
no layer has waiting time to report.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

import numpy as np

# (defining module, attribute path, metric prefix, index of the argument
# that holds the evaluation points, or None for one point per call).
# Method indices count ``self``.
LAYERS = (
    ("goluzin_lab.elliptic", "params_from_x0", "elliptic.params_from_x0", None),
    ("goluzin_lab._kernels", "theta_series", "theta.theta_series", 0),
    ("goluzin_lab.theta", "jacobi_sn_cn_dn", "theta.jacobi_sn_cn_dn", 1),
    ("goluzin_lab.torus", "dz_Q_D", "torus.dz_Q_D", 1),
    ("goluzin_lab.maps", "sigma", "maps.sigma", 1),
    ("goluzin_lab.maps", "sigma_prime", "maps.sigma_prime", 1),
    ("goluzin_lab.maps", "marched_sqrt_path", "maps.marched_sqrt_path", 1),
    ("goluzin_lab.inequalities", "PsiEvaluator.field", "inequalities.PsiEvaluator.field", 1),
    ("goluzin_lab.inequalities", "_DiskField.integrand", "inequalities._DiskField.integrand", 1),
    ("goluzin_lab.inequalities", "_MarchedSqrt.block", "inequalities._MarchedSqrt.block", 1),
    ("goluzin_lab.inequalities", "verify_area_sigma", "inequalities.verify_area_sigma", None),
    ("goluzin_lab.inequalities", "verify_area_disk", "inequalities.verify_area_disk", None),
    ("goluzin_lab.inequalities", "torus_area_crosscheck", "inequalities.torus_area_crosscheck", None),
    ("goluzin_lab.inequalities", "goluzin_bound", "inequalities.goluzin_bound", None),
    ("goluzin_lab.inequalities", "pointwise_from_area", "inequalities.pointwise_from_area", None),
    ("goluzin_lab.inequalities", "koebe_bieberbach_bound", "inequalities.koebe_bieberbach_bound", None),
    ("goluzin_lab.quadrature", "integrate_exterior_disk", "quadrature.integrate_exterior_disk", None),
    ("goluzin_lab.quadrature", "integrate_disk", "quadrature.integrate_disk", None),
    ("goluzin_lab.quadrature", "integrate_rect", "quadrature.integrate_rect", None),
    ("goluzin_lab.cli", "main", "cli.main", None),
)
INTEGRAND = "quadrature.integrand"
N_EVALS = "quadrature.n_evals"
INTEGRATORS = frozenset(name for _, _, name, _ in LAYERS if name.startswith("quadrature.integrate_"))
SPAN_NAMES = tuple(name for _, _, name, _ in LAYERS) + (INTEGRAND,)
FIELDS = ("calls", "points", "total_s", "self_s", "errors")
UNITS = {"calls": "count", "points": "count", "total_s": "s", "self_s": "s", "errors": "count"}


class Tracer:
    """Aggregates spans per layer; one stack and one table per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            table = {name: [0, 0, 0.0, 0.0, 0] for name in SPAN_NAMES}
            table[N_EVALS] = [0]
            state = self._local.state = ([], table)
            with self._lock:
                self._tables.append(table)
        return state

    def wrap(self, name: str, fn, point_arg: int | None):
        """Return ``fn`` recorded as a span of layer ``name``."""
        clock = time.perf_counter
        integrator = name in INTEGRATORS

        def traced(*args, **kwargs):
            stack, table = self._state()
            if integrator:
                args = (self.wrap(INTEGRAND, args[0], 0),) + args[1:]
                points = 0
            elif point_arg is None:
                points = 1
            else:
                points = int(np.size(args[point_arg]))
            frame = [0.0, points]  # child time, points
            stack.append(frame)
            failed = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if integrator:
                    table[N_EVALS][0] += result.n_evals
                return result
            except BaseException:
                failed = True
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                row = table[name]
                row[0] += 1
                row[1] += frame[1]
                row[2] += dt
                row[3] += dt - frame[0]
                row[4] += failed
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    if name == INTEGRAND:
                        parent[1] += frame[1]

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer function wherever a goluzin_lab module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "goluzin_lab" or n.startswith("goluzin_lab.")]
        for module_name, path, name, point_arg in LAYERS:
            owner = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self.wrap(name, original, point_arg))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(name, original, point_arg)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self) -> tuple[dict[str, dict[str, float]], int]:
        """Per-layer sums over all threads, keyed by layer then field, and
        the evaluation count the integrators reported (``n_evals``)."""
        with self._lock:
            tables = list(self._tables)
        out = {name: dict.fromkeys(FIELDS, 0) for name in SPAN_NAMES}
        n_evals = 0
        for table in tables:
            n_evals += table[N_EVALS][0]
            for name in SPAN_NAMES:
                for field, value in zip(FIELDS, table[name]):
                    out[name][field] += value
        return out, n_evals
