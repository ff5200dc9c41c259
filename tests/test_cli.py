"""CLI contract tests: parsing, exit codes, output formats, determinism."""

import csv
import io
import json
import math

import pytest

from expunbias.cli import main

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("# comment line\n1.5\n2.5\n\n2.0\n")
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_quantile_json(self, data_file, capsys):
        code, out, _ = run(["estimate", "--kind", "quantile", "--q", "0.5",
                            "--data", data_file], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        row = doc["results"][0]
        assert row["value"] == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
        assert row["n"] == 3
        assert row["family"] == "closed-form-unbiased"
        assert doc["manifest"]["command"] == "estimate"
        assert doc["manifest"]["tool_version"]

    def test_moment_p1_returns_mean(self, data_file, capsys):
        code, out, _ = run(["estimate", "--kind", "moment", "--p", "1",
                            "--data", data_file], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["results"][0]["value"] == pytest.approx(2.0)

    def test_rate_power_domain_error(self, data_file, capsys):
        code, _, err = run(["estimate", "--kind", "rate-power", "--p", "9",
                            "--data", data_file], capsys)
        assert code == EXIT_DOMAIN
        assert "p < n" in err

    def test_missing_file(self, capsys):
        code, _, err = run(["estimate", "--kind", "quantile", "--q", "0.5",
                            "--data", "/nonexistent/obs.txt"], capsys)
        assert code == EXIT_INPUT

    def test_bad_datum_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n-3.0\n")
        code, _, err = run(["estimate", "--kind", "quantile", "--q", "0.5",
                            "--data", str(path)], capsys)
        assert code == EXIT_INPUT
        assert ":2:" in err

    def test_non_numeric_datum(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nabc\n")
        code, _, err = run(["estimate", "--kind", "quantile", "--q", "0.5",
                            "--data", str(path)], capsys)
        assert code == EXIT_INPUT
        assert ":2:" in err

    def test_csv_round_trip(self, data_file, capsys):
        code, out, _ = run(["estimate", "--kind", "survival", "--t", "1",
                            "--data", data_file, "--format", "csv"], capsys)
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        manifest = json.loads(rows[0]["manifest"])
        assert manifest["command"] == "estimate"
        assert float(rows[0]["value"]) > 0.0

    def test_laplace_engine_matches_closed_form(self, data_file, capsys):
        code, out, _ = run(["estimate", "--kind", "quantile", "--q", "0.5",
                            "--data", data_file, "--engine", "talbot"], capsys)
        assert code == EXIT_OK
        row = json.loads(out)["results"][0]
        assert row["family"] == "generic-laplace"
        assert row["value"] == pytest.approx(2.0 * math.log(2.0), rel=1e-8)

    def test_laplace_engine_rejects_delta_kinds(self, data_file, capsys):
        code, _, err = run(["estimate", "--kind", "survival", "--t", "1",
                            "--data", data_file, "--engine", "talbot"], capsys)
        assert code == EXIT_DOMAIN
        assert "distributional" in err


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(["verify", "--kinds", "quantile,survival,mgf",
                            "--n", "2,5", "--lambda", "1.0"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert all(r["rel_bias"] < 1e-7 for r in doc["results"])

    def test_unachievable_tolerance(self, capsys):
        code, _, err = run(["verify", "--kinds", "survival", "--n", "5",
                            "--lambda", "1.0", "--rel-tol", "1e-30"], capsys)
        assert code == EXIT_NUMERICAL

    def test_tate_mode(self, capsys):
        code, out, _ = run(["verify", "--tate", "--n", "3,5", "--lambda", "1.0"],
                           capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["manifest"]["parameters"]["tate"] is True
        for row in doc["results"]:
            assert row["family"] == "tate-biased"
            # the bias reproduction is tight AND visibly different from the
            # corrected target
            assert row["rel_bias"] < 1e-7
            assert abs(row["tate_minus_corrected"]) > 1e-4

    def test_unknown_kind(self, capsys):
        code, _, err = run(["verify", "--kinds", "nonsense"], capsys)
        assert code == EXIT_DOMAIN


class TestCompare:
    def test_frozen_closed_columns(self, capsys):
        code, out, _ = run(["compare", "--p", "2", "--n", "5", "--lambda", "1",
                            "--reps", "20000", "--seed", "5"], capsys)
        assert code == EXIT_OK
        row = json.loads(out)["results"][0]
        assert row["closed_unbiased"] == pytest.approx(52.0 / 15.0, rel=1e-10)
        assert row["closed_mle"] == pytest.approx(4.0, rel=1e-10)
        assert row["empirical_unbiased"] < row["empirical_mle"]

    def test_equality_case(self, capsys):
        code, out, _ = run(["compare", "--p", "1", "--n", "5", "--lambda", "1",
                            "--reps", "1000", "--seed", "5"], capsys)
        row = json.loads(out)["results"][0]
        assert row["closed_unbiased"] == pytest.approx(row["closed_mle"], rel=1e-12)

    def test_domain_error(self, capsys):
        code, _, _ = run(["compare", "--p", "-0.6", "--n", "5", "--lambda", "1"],
                         capsys)
        assert code == EXIT_DOMAIN


class TestClt:
    def test_basic_run_with_histogram(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        code, out, _ = run(["clt", "--kind", "moment", "--p", "2", "--n", "50",
                            "--lambda", "1", "--reps", "5000", "--seed", "1",
                            "--hist", str(hist), "--hist-bins", "40"], capsys)
        assert code == EXIT_OK
        row = json.loads(out)["results"][0]
        assert 0.0 < row["ks_statistic"] < 1.0
        lines = hist.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 43  # header + 40 bins + 2 overflow rows
        counts = sum(int(r.split(",")[2]) for r in lines[1:])
        assert counts == 5000

    def test_degenerate_exit(self, capsys):
        # survival with 1/lambda inside the flat indicator region
        code, _, err = run(["clt", "--kind", "survival", "--t", "1", "--n", "2",
                            "--lambda", "5", "--reps", "100", "--seed", "1"],
                           capsys)
        assert code == EXIT_DOMAIN

    def test_seed_repeatability_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["clt", "--kind", "quantile", "--q", "0.5", "--n", "50",
                "--lambda", "1", "--reps", "5000", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestVerifyOverflow:
    @pytest.mark.parametrize("lam", ["1.0", "2.0"])
    def test_mgf_large_n_certifies(self, lam, capsys):
        # the n = 200 MGF estimator is Kummer's M(1, n, n t mean), finite
        # wherever the oracle integrates it; both rates must certify
        code, out, _ = run(["verify", "--kinds", "mgf", "--n", "200",
                            "--lambda", lam], capsys)
        assert code == EXIT_OK
        rows = json.loads(out)["results"]
        assert rows and all(r["rel_bias"] <= 1e-9 for r in rows)


class TestVerifyTinyRate:
    def test_cutoff_overflow_names_lambda(self, capsys):
        code, out, err = run(["verify", "--kinds", "quantile", "--lambda", "1e-320"], capsys)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: lambda = 1e-320") and err.count("\n") == 1


class TestVerifyEmptyGrid:
    # each exited 0 with no rows; a grid with no cell in the domain is an error
    @pytest.mark.parametrize("argv", [
        ["verify", "--kinds", "rate-power", "--n", "0"],
        ["verify", "--kinds", "mgf", "--lambda=-1"],
        ["verify", "--kinds", "mgf", "--lambda", "0"],
        ["verify", "--tate", "--kinds", "quantile", "--n", "1"],
        ["verify", "--kinds", "quantile", "--n", "0"],
        ["verify", "--kinds", "mgf", "--t", "2", "--lambda", "1"],
    ], ids=["n-0", "lambda-negative", "lambda-0", "tate-n-1", "quantile-n-0", "mgf-t-above-lambda"])
    def test_exits_3_with_one_line(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # a cell is in the grid when its estimator builds and its rate lies above
    # the target's pole: each builder boundary, with the cells kept
    @pytest.mark.parametrize("argv,key,kept", [
        (["--tate", "--kinds", "quantile", "--n", "1,3"], "n", [3]),
        (["--tate", "--kinds", "rate-power", "--p", "1.5", "--n", "1,2,3,4"], "n", [3, 4]),
        (["--kinds", "rate-power", "--p", "2.5", "--n", "1,2,3"], "n", [3]),
        (["--kinds", "pdf", "--n", "1,2"], "n", [2]),
        (["--kinds", "mgf", "--t", "0.5", "--n", "2", "--lambda", "0.25,0.5,1"], "lambda",
         [1.0]),
    ], ids=["tate-quantile", "tate-rate-power", "rate-power", "pdf", "mgf"])
    def test_some_cells_in_the_domain_run(self, argv, key, kept, capsys):
        code, out, _ = run(["verify", *argv], capsys)
        assert code == EXIT_OK
        assert [row[key] for row in json.loads(out)["results"]] == kept


class TestCltSmallSlope:
    # the finite-difference check refused these correct derivatives: exit 3
    @pytest.mark.parametrize("argv", [
        ["--kind", "moment", "--p=1e-07", "--n", "16406", "--lambda=1.0000001"],
        ["--kind", "mgf", "--t=8.918e-05", "--n", "8202", "--lambda=32.13"],
    ], ids=["moment", "mgf"])
    def test_exits_0(self, argv, capsys):
        code, out, err = run(["clt", *argv, "--reps", "2000", "--seed", "1"], capsys)
        assert code == EXIT_OK and err == ""


class TestMalformedInput:
    # every malformed option value is an input error: exit 2 and one line on
    # stderr, never a traceback or a silently odd output
    @pytest.mark.parametrize("argv", [
        ["verify", "--kinds", "quantile", "--n", "2,x"],
        ["verify", "--kinds", "quantile", "--n", ""],
        ["verify", "--kinds", "quantile", "--lambda", "1,abc"],
        ["verify", "--kinds", "quantile", "--n", "2.5"],
        ["verify", "--kinds", "quantile", "--lambda", "1,,2"],
        ["verify", "--kinds", "quantile", "--threshold", "nan"],
        ["verify", "--kinds", "quantile", "--threshold", "0"],
        ["verify", "--kinds", "quantile", "--threshold=-1e-7"],
        ["verify", "--kinds", "quantile", "--threshold", "inf"],
        ["verify", "--kinds", "quantile", "--rel-tol", "nan"],
        ["verify", "--kinds", "quantile", "--rel-tol", "0"],
        ["verify", "--kinds", "quantile", "--rel-tol=-1e-9"],
        ["verify", "--kinds", "quantile", "--rel-tol", "inf"],
    ], ids=["n-not-integer", "n-empty", "lambda-not-number", "n-fractional",
            "lambda-empty-item", "threshold-nan", "threshold-0",
            "threshold-negative", "threshold-inf", "rel-tol-nan", "rel-tol-0",
            "rel-tol-negative", "rel-tol-inf"])
    def test_exits_with_input_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "--kinds", "quantile", "--n", "2", "--out", "{missing}/out.json"],
        ["clt", "--kind", "quantile", "--q", "0.5", "--n", "5", "--lambda", "1",
         "--reps", "100", "--seed", "1", "--hist", "{missing}/h.csv"],
    ], ids=["verify-out", "clt-hist"])
    def test_unwritable_path_is_input_error(self, argv, tmp_path, capsys):
        # an OSError from writing escaped as a traceback with exit 1, the
        # code of a failed verification; clt also left its full result on stdout
        missing = tmp_path / "no" / "such" / "dir"
        code, out, err = run([a.format(missing=missing) for a in argv], capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert str(missing) in err

    @pytest.mark.parametrize("bins", ["-3", "0"])
    def test_hist_bins_must_be_positive(self, bins, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        code, out, err = run(["clt", "--kind", "quantile", "--q", "0.5", "--n", "5",
                              "--lambda", "1", "--reps", "100", "--seed", "1",
                              "--hist", str(hist), "--hist-bins", bins], capsys)
        assert code == EXIT_INPUT
        assert out == "" and not hist.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
