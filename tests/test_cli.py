import csv
import functools
import gc
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest

import goluzin_lab
from goluzin_lab import cli, inequalities, quadrature
from goluzin_lab.catalog import UnivalentMap, resolve_map
from goluzin_lab.cli import CSV_COLUMNS, EXIT_OK, EXIT_USAGE, main, parse_complex
from goluzin_lab.inequalities import _cfmt, torus_area_crosscheck, verify_area_disk
from goluzin_lab.maps import BridgeMaps, phi_from_psi

SCHEMA_PATH = pathlib.Path(__file__).resolve().parents[1] / "docs" / "report.schema.json"


@pytest.fixture(scope="module")
def schema():
    """A validator for the report schema: only the tests that take it skip
    when jsonschema is not installed."""
    jsonschema = pytest.importorskip("jsonschema")
    spec = json.loads(SCHEMA_PATH.read_text())
    cls = jsonschema.validators.validator_for(spec)
    cls.check_schema(spec)
    return cls(spec)


class TestComplexLiterals:
    @pytest.mark.parametrize("text", ["1.5+0.5i", "2", "3i", "-1.25-0.75i", "1e2+1e-3i"])
    def test_round_trip(self, text):
        z = parse_complex(text)
        assert parse_complex(_cfmt(z)) == z

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_complex("1.5 + 0.5i")


class TestParams:
    def test_zeta_abs_two(self, capsys):
        assert main(["params", "--zeta-abs", "2.0"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["x0"] == pytest.approx(0.2679491924, abs=1e-9)
        assert payload["kappa"] == pytest.approx(0.5, abs=1e-12)
        assert abs(payload["legendre_residual"]) < 1e-12

    def test_x0_route(self, capsys):
        assert main(["params", "--x0", "0.5"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["M"] == pytest.approx(0.625)

    @pytest.mark.parametrize("argv", [["--zeta-abs", "2.0"], ["--x0", "0.5"]])
    def test_csv_rows_have_two_fields(self, argv, capsys):
        # landen_residuals,[4.44e-16, 4.44e-16] read as 3 fields
        assert main(["params", *argv, "--format", "csv"]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows and all(len(row) == 2 for row in rows)
        assert len(json.loads(dict(rows)["landen_residuals"])) == 2


class TestReports:
    def test_area_joukowski_json_matches_schema(self, capsys, schema):
        code = main(["area", "--map", "joukowski", "--zeta", "2.0", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        schema.validate(payload)
        (report,) = payload["reports"]
        assert report["status"] == "equality"
        assert abs(report["ratio"] - 1.0) < 5e-3

    def test_pointwise_json_schema(self, capsys, schema):
        assert main(["pointwise", "--map", "joukowski", "--z", "2.0", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        schema.validate(payload)
        assert {r["inequality"] for r in payload["reports"]} == {"goluzin", "pointwise-from-area"}

    def test_pointwise_class_s(self, capsys, schema):
        assert main(["pointwise", "--map", "koebe", "--z", "0.5", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        schema.validate(payload)
        assert payload["reports"][0]["inequality"] == "koebe-bieberbach"

    def test_gronwall(self, capsys):
        assert main(["gronwall", "--map", "b1:0.7", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["lhs"] == pytest.approx(0.49, abs=1e-6)

    def test_csv_column_order(self, capsys):
        assert main(["pointwise", "--map", "joukowski", "--z", "2.0", "--format", "csv"]) == EXIT_OK
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "inequality,lhs,rhs,ratio,error_estimate,status,map,point,rel_tol,abs_tol"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["pointwise", "--map", "joukowski", "--z", "2.0", "--format", "json", "--out", str(target)]) == EXIT_OK
        assert json.loads(target.read_text())["reports"]
        assert capsys.readouterr().out == ""

    def test_determinism(self, capsys):
        main(["area", "--map", "b1:0.3", "--zeta", "1.5", "--format", "json"])
        first = capsys.readouterr().out
        main(["area", "--map", "b1:0.3", "--zeta", "1.5", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second


class TestSweep:
    def test_small_sweep_with_jobs(self, capsys):
        code = main(["sweep", "--maps", "identity", "joukowski", "--jobs", "3", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        # 2 maps x 12 grid points x 2 pointwise checks, input-ordered
        assert len(payload["reports"]) == 48
        names = [r["inputs"]["map"] for r in payload["reports"]]
        assert names == sorted(names, key=lambda n: n != "identity")

    @staticmethod
    def dict_csv(reports):
        """The CSV as it was written from each report's ``to_dict()``."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for r in reports:
            row = dict(r.to_dict())
            inputs = row.pop("inputs", {})
            row["map"] = inputs.get("map", "")
            row["point"] = inputs.get("zeta", inputs.get("z", inputs.get("x0", "")))
            row["rel_tol"] = inputs.get("rel_tol", "")
            row["abs_tol"] = inputs.get("abs_tol", "")
            writer.writerow(row)
        return buf.getvalue()

    def test_area_sweep_csv_bytes_as_from_to_dict(self, tmp_path, monkeypatch):
        # rows built from the report fields, without deep copies, write the
        # same bytes as rows built from to_dict()
        seen = []
        emit = cli._emit

        def recording(reports, fmt, out_path):
            seen.append(reports)
            return emit(reports, fmt, out_path)

        monkeypatch.setattr(cli, "_emit", recording)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--area", "--format", "csv", "--out", str(out)]) == EXIT_OK
        assert len(seen[0]) == 216
        assert out.read_bytes() == self.dict_csv(seen[0]).encode("utf-8")

    def test_area_evaluation_budget(self, capsys):
        # the sweep's 72 area checks at the default budget, a count that
        # repeats exactly: a change that adds work to them fails here, not
        # only in the benchmark (703,360 with 2 x 2 polar seeds)
        assert main(["sweep", "--area", "--format", "json"]) == EXIT_OK
        area = [r for r in json.loads(capsys.readouterr().out)["reports"] if r["inequality"] == "area-sigma"]
        assert len(area) == 72
        assert sum(r["inputs"]["n_evals"] for r in area) == 611_200

    def test_bridge_evaluation_budget(self):
        # the 18 checks of the bridge-area benchmark at the default budget:
        # the disk form and the torus form of joukowski, identity and b1:0.7
        # at 1.25, 2 and 3i, with counts that repeat exactly
        used = {"area-disk": 0, "area-torus": 0}
        for name in ("joukowski", "identity", "b1:0.7"):
            psi = resolve_map(name)
            for zeta in (1.25, 2.0, 3j):
                bridge = BridgeMaps.from_zeta(zeta)
                for r in (verify_area_disk(phi_from_psi(bridge, psi), bridge.x0), torus_area_crosscheck(psi, zeta)):
                    assert r.status == ("equality" if psi.full_mapping else "holds"), (r.inequality, name, zeta)
                    used[r.inequality] += r.inputs["n_evals"]
        assert used == {"area-disk": 66_048, "area-torus": 46_080}

    def test_area_call_budget(self, monkeypatch, capsys):
        # the PsiEvaluator.field calls of the sweep, a count that repeats
        # exactly: each base point's seed pass in two or three calls shared
        # by its six maps' checks, and one call per refinement (706 while
        # each drive took four seeds a call and each core a call of its own)
        calls = []
        field = inequalities.PsiEvaluator.field
        monkeypatch.setattr(inequalities.PsiEvaluator, "field", lambda ev, z: calls.append(np.size(z)) or field(ev, z))
        assert main(["sweep", "--area", "--format", "csv"]) == EXIT_OK
        assert len(calls) == 202

    def test_bridge_call_budget(self, monkeypatch):
        # the integrand calls of the 18 bridge checks, each form's seed pass
        # and its refinements (78 disk and 36 torus calls while each drive
        # took four seeds a call and each core a call of its own)
        used = {"area-disk": 0, "area-torus": 0}
        integrand, integrate = inequalities._DiskField.integrand, inequalities.integrate_rect

        def counted(key, f):
            return lambda *args: used.__setitem__(key, used[key] + 1) or f(*args)

        monkeypatch.setattr(inequalities._DiskField, "integrand", counted("area-disk", integrand))
        monkeypatch.setattr(inequalities, "integrate_rect", lambda f, rect, spec: integrate(counted("area-torus", f), rect, spec))
        for name in ("joukowski", "identity", "b1:0.7"):
            psi = resolve_map(name)
            for zeta in (1.25, 2.0, 3j):
                bridge = BridgeMaps.from_zeta(zeta)
                verify_area_disk(phi_from_psi(bridge, psi), bridge.x0)
                torus_area_crosscheck(psi, zeta)
        assert used == {"area-disk": 24, "area-torus": 18}

    def test_area_sweep_csv_sha256(self, tmp_path):
        # the default area sweep's CSV bytes (x86_64, glibc libm, numpy 2.4
        # with OpenBLAS), as the sweep wrote them when it ran map by map
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--area", "--format", "csv", "--out", str(out)]) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "0a702e6ba545c64d302ba8ddab0e0b06ec9c77eb0f166b7e351386adc59b3a92"

    def test_area_sweep_with_jobs_is_the_serial_run(self, tmp_path):
        # the workers each run whole base points; the rows still come map by map
        runs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"sweep-j{jobs}.csv"
            argv = ["sweep", "--area", "--maps", "b1:0.7", "joukowski", "--jobs", jobs, "--format", "csv", "--out", str(out)]
            assert main(argv) == EXIT_OK
            runs[jobs] = out.read_bytes()
        assert runs["1"] == runs["2"]
        rows = list(csv.DictReader(io.StringIO(runs["1"].decode("utf-8"))))
        assert [r["map"] for r in rows] == ["b1:0.7"] * 36 + ["joukowski"] * 36

    def test_nothing_outlives_a_base_point(self, monkeypatch):
        # each base point's plan and the nodes it holds are freed with it,
        # at once (no reference cycle keeps them for the collector)
        refs = []
        plan_of = inequalities.BasePoint.exterior_plan

        def recording(self, spec):
            plan = plan_of(self, spec)
            refs.append((weakref.ref(self), weakref.ref(plan), weakref.ref(plan.region.calls[0])))
            return plan

        monkeypatch.setattr(inequalities.BasePoint, "exterior_plan", recording)
        gc.disable()  # so that only reference counts can free them
        try:
            assert main(["sweep", "--area", "--maps", "joukowski", "identity", "--format", "csv"]) == EXIT_OK
            assert all(ref() is None for triple in refs for ref in triple)
        finally:
            gc.enable()
        assert len(refs) == 24  # 12 base points, two maps each

    def test_no_module_level_node_data(self, capsys):
        # after a sweep no module of the package holds an array larger than
        # the 64-point ring, and the only caches are the GL rule, the theta
        # constants and the annulus seed cells
        assert main(["sweep", "--area", "--maps", "b1:0.3", "--format", "csv"]) == EXIT_OK
        modules = [m for name, m in vars(goluzin_lab).items() if isinstance(m, type(goluzin_lab))]

        def arrays(value, depth=0):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, dict) and depth < 4:
                for v in value.values():
                    yield from arrays(v, depth + 1)
            elif isinstance(value, (list, tuple, set, frozenset)) and depth < 4:
                for v in value:
                    yield from arrays(v, depth + 1)

        sizes = [a.size for m in modules for v in vars(m).values() for a in arrays(v)]
        assert sizes and max(sizes) <= 64
        caches = {
            f"{m.__name__}.{name}"
            for m in modules
            for name, v in vars(m).items()
            if isinstance(v, functools._lru_cache_wrapper) and v.__module__ == m.__name__
        }
        assert caches == {"goluzin_lab.quadrature._gl_rule", "goluzin_lab._kernels._quarter_constants", "goluzin_lab.quadrature._graded_seeds"}
        seeds = quadrature._graded_seeds(4.0, ())
        assert all(isinstance(c, tuple) and len(c) == 4 and all(isinstance(v, float) for v in c) for c in seeds)

    def test_ordering_deterministic_across_jobs(self, capsys):
        main(["sweep", "--maps", "b1:0.3", "--jobs", "1", "--format", "csv"])
        serial = capsys.readouterr().out
        main(["sweep", "--maps", "b1:0.3", "--jobs", "4", "--format", "csv"])
        parallel = capsys.readouterr().out
        assert serial == parallel


class TestExitCodes:
    def test_usage_error_is_64(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["area", "--map", "joukowski"])  # missing --zeta
        assert exc_info.value.code == EXIT_USAGE

    def test_unknown_map_is_64(self, capsys):
        assert main(["pointwise", "--map", "nope", "--z", "2.0"]) == EXIT_USAGE

    @pytest.mark.xfail(strict=True, reason=(
        "joukowski is a full mapping, but next to its critical point 1 both pointwise "
        "ratios miss 1 by more than the floor 1e-9 (1 + 1.22e-9 and 1 + 1.10e-9): both "
        "rows read violated and the command exits 1 (ROADMAP item 12)"
    ))
    def test_full_mapping_next_to_a_critical_point_is_0(self, capsys):
        assert main(["pointwise", "--map", "joukowski", "--z", "1.00000001"]) == EXIT_OK

    def test_koebe_next_to_the_boundary_is_0(self, capsys):
        assert main(["pointwise", "--map", "koebe", "--z", "0.9999999968"]) == EXIT_OK
        assert "status=equality" in capsys.readouterr().out

    def test_critical_point_is_64(self, monkeypatch, capsys):
        # z + 4/z is not univalent, and resolve_map rejects it: hand it to the command
        psi = UnivalentMap("z+4/z", "Sigma", lambda z: z + 4.0 / z, lambda z: 1.0 - 4.0 / z**2, lambda z: 8.0 / z**3,
                           lambda z, w: 1.0 - 4.0 / (z * w), (0.0, 4.0), False)
        monkeypatch.setattr(cli, "resolve_map", lambda name: psi)
        assert main(["pointwise", "--map", "z+4/z", "--z", "2.0"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv", [["pointwise", "--map", "b1:nan", "--z", "2.0"], ["gronwall", "--map", "b1:nan"]]
    )
    def test_nan_coefficient_is_64(self, argv, capsys):
        assert main(argv) == EXIT_USAGE

    def test_bad_complex_is_64(self, capsys):
        assert main(["pointwise", "--map", "joukowski", "--z", "2 + 3i"]) == EXIT_USAGE

    @staticmethod
    def code_of(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    def test_sweep_maps_without_a_name_is_64(self, monkeypatch, capsys):
        # an empty --maps ran every catalog map: 144 rows, exit 0
        def ran(*args, **kwargs):
            raise AssertionError("the sweep ran without a map named")

        monkeypatch.setattr(cli, "_sweep_task", ran)
        assert self.code_of(["sweep", "--maps"]) == EXIT_USAGE
        assert self.code_of(["sweep", "--maps", "--area"]) == EXIT_USAGE

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_64(self, jobs, capsys):
        # used to run serially and exit 0
        assert self.code_of(["sweep", "--maps", "identity", "--jobs", jobs]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, value",
        [("--rel-tol", "-1"), ("--rel-tol", "0"), ("--rel-tol", "nan"), ("--rel-tol", "inf"),
         ("--abs-tol", "-1e-12"), ("--abs-tol", "nan"), ("--abs-tol", "inf")],
    )
    def test_bad_tolerance_is_64(self, flag, value, monkeypatch, capsys):
        # a bad rel-tol used to leave the abs-tol budget alone in charge and exit 0
        import goluzin_lab.cli as cli_mod

        def ran(*args, **kwargs):
            raise AssertionError("a check ran with a bad tolerance")

        monkeypatch.setattr(cli_mod, "verify_area_sigma", ran)
        monkeypatch.setattr(cli_mod, "gronwall_check", ran)
        assert self.code_of(["area", "--map", "joukowski", "--zeta", "2.0", flag, value]) == EXIT_USAGE
        assert self.code_of(["gronwall", "--map", "joukowski", flag, value]) == EXIT_USAGE

    def test_class_s_gronwall_is_64_without_integrating(self, monkeypatch, capsys):
        # koebe ran 12.6 s of cubature, warned about slow decay and exited 2
        from goluzin_lab import inequalities

        def integrated(*args, **kwargs):
            raise AssertionError("the area integral ran for a class S map")

        monkeypatch.setattr(inequalities, "integrate_exterior_disk", integrated)
        assert main(["gronwall", "--map", "koebe"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name, z", [("identity", "1e103"), ("joukowski", "1e154"), ("b1:0.7", "1e308")])
    def test_pointwise_beyond_the_float_range_of_z_cubed_is_64(self, name, z, capsys):
        # identity at 1e103 read violated (ratio 119.28) and exited 1;
        # joukowski at 1e154 exited 1 with a ZeroDivisionError traceback
        assert self.code_of(["pointwise", "--map", name, "--z", z]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("value, error", [(float("inf"), float("inf")), (float("nan"), 1e-3)], ids=["inf", "nan"])
    def test_non_finite_area_is_2(self, value, error, monkeypatch, capsys):
        # an inf ratio with an inf error read equality (exit 0), a NaN ratio violated (exit 1)
        from goluzin_lab import inequalities
        from goluzin_lab.quadrature import QuadratureResult

        monkeypatch.setattr(inequalities, "integrate_exterior_disk", lambda f, spec=None, plan=None: QuadratureResult(value, error, 0, True))
        assert main(["area", "--map", "identity", "--zeta", "2.0"]) == cli.EXIT_NONCONVERGENCE
        assert capsys.readouterr().err.startswith("error: ")

    def test_zero_abs_tol_is_accepted(self, capsys):
        assert main(["gronwall", "--map", "joukowski", "--abs-tol", "0"]) == EXIT_OK

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_selftest_always_runs_its_area_check(self, capsys):
        # it ran only under --full, which no test turned on
        assert main(["selftest"]) == EXIT_OK
        assert "PASS  area-sigma-joukowski" in capsys.readouterr().out
        assert self.code_of(["selftest", "--full"]) == EXIT_USAGE

    def test_selftest_runs_the_torus_form(self, capsys):
        # green-symmetry, q-odd and dzbar-q-at-0 checked the Green function,
        # Q_D and dzbar Q_D, which no verdict reads; the torus form does run
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS  area-torus-joukowski" in out
        assert not any(name in out for name in ("green-symmetry", "q-odd", "dzbar-q-at-0"))

    @pytest.mark.parametrize("flag, value", [("--rel-tol", "1e-3"), ("--abs-tol", "5")])
    def test_pointwise_takes_no_tolerance(self, flag, value, capsys):
        # the closed forms ignored them, and the command exited 0
        assert self.code_of(["pointwise", "--map", "joukowski", "--z", "2.0", flag, value]) == EXIT_USAGE


class TestUnwritableOut:
    """An --out that cannot be written is a usage error: exit 64 with a
    message and no traceback (it exited 1, the violated code, with an
    uncaught FileNotFoundError)."""

    COMMANDS = {
        "params": ["params", "--x0", "0.5"],
        "pointwise": ["pointwise", "--map", "joukowski", "--z", "2.0"],
        "sweep": ["sweep", "--maps", "joukowski"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_missing_directory_is_64_before_any_check(self, command, tmp_path, monkeypatch, capsys):
        # sweep --area computed every check before failing
        import goluzin_lab.cli as cli_mod

        def ran(*args, **kwargs):
            raise AssertionError("a check ran before the report path was refused")

        for name in ("params_from_x0", "goluzin_bound", "_sweep_task"):
            monkeypatch.setattr(cli_mod, name, ran)
        target = tmp_path / "missing" / "report"
        argv = self.COMMANDS[command] + ["--area"] * (command == "sweep") + ["--out", str(target)]
        assert TestExitCodes.code_of(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not target.parent.exists()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unopenable_report_is_64_in_one_line(self, command, tmp_path, capsys):
        # the path is a directory: only opening it tells
        assert main(self.COMMANDS[command] + ["--out", str(tmp_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestNonConvergenceExit:
    def test_quadrature_error_maps_to_exit_2(self, monkeypatch, capsys):
        import goluzin_lab.cli as cli_mod
        from goluzin_lab.errors import QuadratureError

        def boom(*args, **kwargs):
            raise QuadratureError("synthetic non-convergence")

        monkeypatch.setattr(cli_mod, "verify_area_sigma", boom)
        assert main(["area", "--map", "joukowski", "--zeta", "2.0"]) == 2

    def test_disagreeing_gronwall_routes_exit_2(self, monkeypatch, capsys):
        # coefficients that do not describe the map's value: the two routes
        # of the area theorem disagree beyond the check's band
        import dataclasses

        import goluzin_lab.cli as cli_mod

        wrong = dataclasses.replace(resolve_map("b1:0.5"), coefficients=(0.0, 0.9))
        monkeypatch.setattr(cli_mod, "resolve_map", lambda name: wrong)
        assert main(["gronwall", "--map", "b1:0.5"]) == 2

    def test_branch_ambiguity_maps_to_exit_2(self, monkeypatch, capsys):
        # BranchAmbiguityError subclasses ValueError; it is numeric, not usage
        import goluzin_lab.cli as cli_mod
        from goluzin_lab.errors import BranchAmbiguityError

        def boom(*args, **kwargs):
            raise BranchAmbiguityError("synthetic sign failure")

        monkeypatch.setattr(cli_mod, "verify_area_disk", boom)
        assert main(["area", "--map", "identity", "--zeta", "2.0", "--with-disk-form"]) == 2
        assert "error: synthetic sign failure" in capsys.readouterr().err


def _run_cli(args, **env):
    """The CLI run as its own process, with the package importable and
    ``env`` added to the environment."""
    path = os.pathsep.join(filter(None, [str(pathlib.Path(goluzin_lab.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path, **env}
    )


class TestOneErrorChannel:
    """stderr carries one line per failure, and no environment variable
    changes what the CLI does; run as a process, since capsys does not see
    what a logging handler writes to the stderr it was given."""

    def test_non_convergence_prints_one_line(self):
        # it printed ERROR:goluzin_lab:non-convergence: ... and then error: ...
        script = (
            "import sys\n"
            "from goluzin_lab import cli\n"
            "from goluzin_lab.errors import QuadratureError\n"
            "def boom(*args, **kwargs):\n"
            "    raise QuadratureError('synthetic non-convergence')\n"
            "cli.verify_area_sigma = boom\n"
            "sys.exit(cli.main(['area', '--map', 'joukowski', '--zeta', '2.0']))\n"
        )
        done = _run_cli(["-c", script])
        assert done.returncode == cli.EXIT_NONCONVERGENCE
        assert done.stderr == "error: synthetic non-convergence\n"

    def test_log_variable_changes_nothing(self):
        # GOLUZIN_LAB_LOG=verbose died in logging.basicConfig with a
        # traceback and exit 1, the violated code
        argv = ["-m", "goluzin_lab.cli", "pointwise", "--map", "joukowski", "--z", "2"]
        plain, verbose = _run_cli(argv), _run_cli(argv, GOLUZIN_LAB_LOG="verbose")
        assert verbose.returncode == EXIT_OK
        assert (verbose.stdout, verbose.stderr) == (plain.stdout, "")


class TestLargeZetaDiskForm:
    def test_identity_at_fifty_exits_0(self, capsys):
        assert main(["area", "--map", "identity", "--zeta", "50", "--with-disk-form"]) == EXIT_OK
        assert "area-disk" in capsys.readouterr().out


class TestNearCircleSigmaForm:
    def test_identity_a_hundred_millionth_out_holds(self, capsys):
        # printed ratio 1.4708, status violated, and exited 1 while the field
        # took its diagonal limit inside 1e-7 (1 + |zeta|) of zeta, a disk
        # that covered the whole patch around zeta
        assert main(["area", "--map", "identity", "--zeta=1.00000001"]) == EXIT_OK
        assert "status=holds" in capsys.readouterr().out


class TestLargeZetaSigmaForm:
    @pytest.mark.parametrize("zeta", ["3e11", "1e12", "1e20", "1e40"])
    def test_unresolved_core_ring_exits_64(self, zeta, capsys):
        # these printed lhs=inf err=nan status=violated and exited 1
        assert main(["area", "--map", "joukowski", "--zeta", zeta]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "core ring" in captured.err
