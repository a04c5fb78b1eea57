"""The benchmark drives the CLI by argv and the checks by their signatures
(``perfbench/workloads.py``); a change that stops parsing that argv, or
breaks a call the other workloads make, must fail here rather than leave
a benchmark run without its verdicts."""

import importlib.util
import pathlib
import sys

import pytest

from goluzin_lab import cli

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("small", [False, True], ids=["all-maps", "small"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_argv_parses(jobs, small, tmp_path, monkeypatch):
    seen = []

    def main(argv=None):
        seen.append(argv)
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "main", main)
    assert workloads.Sweep(jobs, small, str(tmp_path)).run_pass() == cli.EXIT_OK
    (argv,) = seen
    args = cli.build_parser().parse_args(argv)
    assert args.fn is cli._cmd_sweep and args.area and args.jobs == jobs


@pytest.mark.parametrize(
    "build", [lambda: workloads.BridgeArea(small=False), lambda: workloads.PointwiseGrid(0, small=True)],
    ids=["bridge-area", "pointwise-grid"],
)
def test_other_workloads_give_right_verdicts(build):
    workload = build()
    verdicts = [v for unit in workload.units() for v in workload.verdicts(unit())[0]]
    assert len(verdicts) == workload.expected
    assert [v for v in verdicts if v.wrong] == []
