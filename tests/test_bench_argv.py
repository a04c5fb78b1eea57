"""The benchmark drives the CLI by argv (``perfbench/workloads.py``); a CLI
change that stops parsing that argv must fail here rather than leave a
benchmark run without its sweep."""

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
