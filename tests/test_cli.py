import csv
import io
import json
import pathlib

import pytest

jsonschema = pytest.importorskip("jsonschema")

from goluzin_lab import cli
from goluzin_lab.catalog import resolve_map
from goluzin_lab.cli import CSV_COLUMNS, EXIT_OK, EXIT_USAGE, main, parse_complex
from goluzin_lab.inequalities import _cfmt

SCHEMA_PATH = pathlib.Path(__file__).resolve().parents[1] / "docs" / "report.schema.json"


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


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


class TestReports:
    def test_area_joukowski_json_matches_schema(self, capsys, schema):
        code = main(["area", "--map", "joukowski", "--zeta", "2.0", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, schema)
        (report,) = payload["reports"]
        assert report["status"] == "equality"
        assert abs(report["ratio"] - 1.0) < 5e-3

    def test_pointwise_json_schema(self, capsys, schema):
        assert main(["pointwise", "--map", "joukowski", "--z", "2.0", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, schema)
        assert {r["inequality"] for r in payload["reports"]} == {"goluzin", "pointwise-from-area"}

    def test_pointwise_class_s(self, capsys, schema):
        assert main(["pointwise", "--map", "koebe", "--z", "0.5", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, schema)
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

        monkeypatch.setattr(inequalities, "integrate_exterior_disk", lambda f, spec: QuadratureResult(value, error, 0, True))
        assert main(["area", "--map", "identity", "--zeta", "2.0"]) == cli.EXIT_NONCONVERGENCE
        assert capsys.readouterr().err.startswith("error: ")

    def test_zero_abs_tol_is_accepted(self, capsys):
        assert main(["gronwall", "--map", "joukowski", "--abs-tol", "0"]) == EXIT_OK

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out


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
