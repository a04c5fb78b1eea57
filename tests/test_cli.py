import json
import pathlib

import pytest

jsonschema = pytest.importorskip("jsonschema")

from goluzin_lab.cli import EXIT_OK, EXIT_USAGE, format_complex, main, parse_complex

SCHEMA_PATH = pathlib.Path(__file__).resolve().parents[1] / "docs" / "report.schema.json"


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


class TestComplexLiterals:
    @pytest.mark.parametrize("text", ["1.5+0.5i", "2", "3i", "-1.25-0.75i", "1e2+1e-3i"])
    def test_round_trip(self, text):
        z = parse_complex(text)
        assert parse_complex(format_complex(z)) == z

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

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out


class TestNonConvergenceExit:
    def test_quadrature_error_maps_to_exit_2(self, monkeypatch, capsys):
        import goluzin_lab.cli as cli_mod
        from goluzin_lab.errors import QuadratureError

        def boom(*args, **kwargs):
            raise QuadratureError("synthetic non-convergence")

        monkeypatch.setattr(cli_mod, "verify_area_sigma", boom)
        assert main(["area", "--map", "joukowski", "--zeta", "2.0"]) == 2
