"""Layered verdict benchmark for goluzin_lab.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-area --seed 0 --seconds 52 --trace 0 [--out result.json]

One process runs one workload on a closed loop: the next pass starts when
the previous one has returned all its verdicts, on at most two threads.
With ``--trace 0`` it times the units of a pass (the whole sweep, or each
bridge check) pass after pass until ``--seconds`` is used up and reports
the end-to-end metrics; with ``--trace 1`` it runs one traced
pass between two untraced ones and reports the per-layer metrics.  Every
verdict of every pass is checked.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` count verdicts,
and ``metrics`` maps each metric name to its value and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7  # fresh processes per run; setup_s is their median

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "eq_dev_max": "1", "err_rel_p50": "1", "peak_rss_mb": "MiB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=52.0, help="time budget for the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced input set, for the smoke test")
    ap.add_argument("--out", default=None, help="also write the full result record to this JSON file")
    return ap.parse_args(argv)


def import_package():
    """Import goluzin_lab from this checkout's src/, and nowhere else."""
    if not (SRC / "goluzin_lab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no goluzin_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import goluzin_lab

    if Path(goluzin_lab.__file__).resolve().parent != SRC / "goluzin_lab":
        raise SystemExit(f"perfbench: imported goluzin_lab from {goluzin_lab.__file__}, not from {SRC}")
    return goluzin_lab


def machine_and_code() -> dict:
    import numpy

    from goluzin_lab import _kernels

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((SRC / "goluzin_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "use_numba": bool(_kernels.USE_NUMBA),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def setup_seconds(args, workdir: Path) -> list[float]:
    """Set-up times of fresh processes that import the package and build the inputs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed), str(int(args.small)), str(workdir)]
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return times


def timing_summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it, and the count."""
    out = {"n": len(samples), "median": statistics.median(samples), "samples": samples}
    if len(samples) >= 11:
        ordered = sorted(samples)
        out[f"p{100 * (len(samples) - 10) // len(samples)}"] = ordered[len(samples) - 11]
    return out


class Checker:
    """Checks every unit's verdicts and its replayable bytes."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()
        self.reference: dict[int, bytes] = {}
        self.latest: dict[int, list] = {}

    def check(self, outcome, unit: int = 0) -> None:
        verdicts, blob = self.wl.verdicts(outcome)
        wrong = [v for v in verdicts if v.wrong]
        self.failures.update(f"{v.inequality}:{v.status}" for v in wrong)
        if blob == self.reference.setdefault(unit, blob):
            self.failed += len(wrong)
        else:
            # Identical inputs must give identical outputs: a unit that
            # differs from its first run counts all its verdicts as failed.
            self.failures["nondeterministic"] += len(verdicts)
            self.failed += len(verdicts)
        self.attempted += len(verdicts)
        self.latest[unit] = verdicts

    @property
    def last(self) -> list:
        """The latest verdicts of every unit, in pass order."""
        return [v for unit in sorted(self.latest) for v in self.latest[unit]]


def timed_pass(wl, checker: Checker) -> float:
    units = wl.units()
    t0 = time.perf_counter()
    outcomes = [unit() for unit in units]
    dt = time.perf_counter() - t0
    for i, outcome in enumerate(outcomes):
        checker.check(outcome, i)
    return dt


def timed_units(wl, checker: Checker, seconds: float) -> list[list[float]]:
    """Run the workload's units pass after pass on a closed loop, timing each.

    Stops before the unit whose median time would take the run past
    ``seconds``, so a run can end between the checks of a pass; the first
    pass always completes.  Returns every unit's times.
    """
    units = wl.units()
    times: list[list[float]] = [[] for _ in units]
    start = time.perf_counter()
    while True:
        for i, unit in enumerate(units):
            if times[i] and time.perf_counter() - start + statistics.median(times[i]) > seconds:
                return times
            t0 = time.perf_counter()
            outcome = unit()
            times[i].append(time.perf_counter() - t0)
            checker.check(outcome, i)


def layer_metrics(totals: dict, n_evals: int, overhead: float) -> dict:
    metrics = {}
    for name, fields in totals.items():
        for field, value in fields.items():
            metrics[f"{name}.{field}"] = {"value": value, "unit": layertrace.UNITS[field]}

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    integrand = totals[layertrace.INTEGRAND]
    theta = totals["theta.theta_series"]
    derived = {
        "quadrature.points_per_call": (ratio(integrand["points"], integrand["calls"]), "pts/call"),
        "quadrature.n_evals": (n_evals, "count"),
        "quadrature.live_frac": (ratio(integrand["points"], n_evals), "1"),
        "maps.marched_sqrt_path.per_kpt": (
            ratio(totals["maps.marched_sqrt_path"]["calls"], totals["inequalities._MarchedSqrt.block"]["points"], 1000.0),
            "1/kpt",
        ),
        "theta.theta_series.points_per_call": (ratio(theta["points"], theta["calls"]), "pts/call"),
        "trace.overhead_frac": (overhead, "1"),
    }
    for name, (value, unit) in derived.items():
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run(args) -> dict:
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "small": args.small, "machine": machine_and_code()}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = workloads.build(args.workload, args.seed, args.small, str(workdir))
        checker = Checker(wl)
        if args.workload == "sweep-area-j2":
            # The serial sweep is the reference the threaded CSV must match byte for byte.
            checker.check(wl.run_pass(jobs=1))
        # Warm-up, untimed: one pass of the reduced input set imports what
        # the package loads lazily and fills its quadrature-node caches.
        warm = workloads.build(args.workload, args.seed, True, str(workdir))
        for unit in warm.units():
            unit()
        metrics = {}
        if args.trace:
            # Untraced passes on both sides of the traced one, so that a
            # machine drifting in speed biases the overhead less.
            before = timed_pass(wl, checker)
            with layertrace.Tracer() as tracer:
                traced = timed_pass(wl, checker)
            after = timed_pass(wl, checker)
            totals, n_evals = tracer.totals()
            metrics = layer_metrics(totals, n_evals, 2.0 * traced / (before + after) - 1.0)
            record["passes"] = {"untraced_s": [before, after], "traced_s": traced}
            record["waiting"] = "none: closed loop with no queue, so no layer waits for work"
        else:
            setup = setup_seconds(args, workdir)
            unit_times = timed_units(wl, checker, args.seconds)
            # One pass's time: the sum of each unit's median time.  For a
            # one-unit workload that is the median pass time.
            wall = timing_summary([sum(ts) for ts in zip(*unit_times)])
            wall["unit_median_sum"] = sum(statistics.median(ts) for ts in unit_times)
            wall["unit_times"] = unit_times
            e2e = {
                "setup_s": statistics.median(setup),
                "wall_s": wall["unit_median_sum"],
                **workloads.accuracy(checker.last),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
            record["setup_s_samples"] = setup
            record["wall_s"] = wall
        record["probes"] = workloads.probes(checker.last)
        record["fail_frac"] = checker.failed / checker.attempted
        record["failures"] = checker.failures
        record["result"] = {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": metrics,
        }
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    record = run(args)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={m['python']} numpy={m['numpy']} "
          f"nproc={m['nproc']} numba={m['use_numba']} commit={m['commit']} src={m['src_sha256'][:12]}")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"fail_frac {record['fail_frac']:.6g} ({record['result']['failed']}/{record['result']['attempted']})")
    for key, count in sorted(record["failures"].items()):
        print(f"  failed {key} x{count}")
    for key, probe in sorted(record["probes"].items()):
        print(f"probe {key} ratio={probe['ratio']!r} err={probe['error_estimate']!r} {probe['status']}")
    if "wall_s" in record:
        wall = record["wall_s"]
        tail = " ".join(f"{k}={v:.6g}" for k, v in wall.items() if k.startswith("p"))
        counts = [len(ts) for ts in wall["unit_times"]]
        print(f"# wall_s: sum of unit medians={wall['unit_median_sum']:.6g} over {len(counts)} units "
              f"of {min(counts)}-{max(counts)} samples; "
              f"whole passes n={wall['n']} median={wall['median']:.6g} {tail}".rstrip())
    if args.trace:
        print(f"# waiting time: {record['waiting']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
