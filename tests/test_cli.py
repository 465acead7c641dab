"""End-to-end tests of the command-line interface.

Operator and function inputs are literal JSON strings on purpose: the
accepted wire schema is part of the contract, so drift breaks here.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import fracpde
from fracpde.cli import main, run_cli
from fracpde.fracops import fourier_differint
from fracpde.functions import SampledCurve, gaussian, step
from fracpde.sobolev import estimate_regularity
from fracpde.spectral import BoxGrid, sample_field, solve_elliptic
from fracpde.symbols import FracSymbol

MONO_07 = '{"dim": 1, "terms": [{"c": [1.0, 0.0], "alpha": [0.7]}]}'
MONO_05 = '{"dim": 1, "terms": [{"c": [1.0, 0.0], "alpha": [0.5]}]}'
FRAC_LAP_2D = (
    '{"dim": 2, "terms": [{"c": [1.0, 0.0], "alpha": [0.5, 0.0]},'
    ' {"c": [1.0, 0.0], "alpha": [0.0, 0.5]}]}'
)
SADDLE_2D = (
    '{"dim": 2, "terms": [{"c": [1.0, 0.0], "alpha": [0.5, 0.0]},'
    ' {"c": [-1.0, 0.0], "alpha": [0.0, 0.5]}]}'
)

# D^{1/2} x at x = 1 is 2/sqrt(pi).
TWO_OVER_ROOT_PI = 1.1283791670955126


@pytest.fixture()
def runner():
    return CliRunner()


def _module_loaded_after(code: str, module: str, cwd=None) -> bool:
    """Whether a fresh interpreter has loaded ``module`` after importing the CLI and running ``code``."""
    # The child interpreter finds the package where this process did.
    src = str(Path(fracpde.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = f"import sys, fracpde.cli\n{code}\nprint({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def _significant_digits(token: str) -> int:
    mantissa = token.split("e")[0].split("E")[0].replace("-", "").replace(".", "")
    return len(mantissa.lstrip("0"))


class TestDifferint:
    def test_power_half_derivative_at_one(self, runner):
        result = runner.invoke(main, ["differint", "--func", "power", "--nu", "0.5", "--at", "1"])
        assert result.exit_code == 0
        value = float(result.output.strip())
        assert value == pytest.approx(TWO_OVER_ROOT_PI, rel=1e-6)
        assert _significant_digits(result.output.strip()) >= 12

    def test_grid_output_is_csv(self, runner):
        args = ["-m", "64", "-L", "20", "-N", "128",
                "differint", "--func", "gaussian", "--nu", "0.5", "--c", "-inf", "--grid"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "x,re,im"
        assert len(lines) == 65
        x, re, im = map(float, lines[40].split(","))
        assert math.isfinite(re) and abs(im) < 1e-10

    def test_grid_csv_matches_row_by_row_formatting(self, runner):
        args = ["-m", "64", "-L", "20", "differint", "--func", "gaussian", "--nu", "0.5",
                "--c", "-inf", "--method", "fourier", "--grid"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        grid = BoxGrid(1, 64, 20.0)
        xs = grid.axis()
        curve = SampledCurve(float(xs[0]), float(xs[1] - xs[0]), gaussian(0.0, 1.0).value(xs))
        vals = fourier_differint(curve, 0.5).values
        want = "x,re,im\n" + "".join(
            f"{x:.12g},{complex(v).real:.12g},{complex(v).imag:.12g}\n" for x, v in zip(xs, vals))
        assert result.output == want

    def test_fourier_agrees_with_quadrature_on_a_grid_point(self, runner):
        # x = 2.5 lies exactly on the 4096-point axis of [-20, 20), so the
        # comparison sees engine error only, not interpolation error.
        base = ["differint", "--func", "gaussian", "--nu", "0.5", "--c", "-inf", "--at", "2.5"]
        quad = runner.invoke(main, base + ["--method", "quadrature"])
        four = runner.invoke(main, base + ["--method", "fourier"])
        assert quad.exit_code == 0 and four.exit_code == 0
        assert abs(float(quad.output) - float(four.output)) < 2e-4

    def test_both_targets_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["differint", "--func", "power", "--nu", "0.5", "--at", "1", "--grid"])
        assert result.exit_code == 2

    def test_no_target_is_usage_error(self, runner):
        result = runner.invoke(main, ["differint", "--func", "power", "--nu", "0.5"])
        assert result.exit_code == 2

    def test_fourier_needs_infinite_base(self, runner):
        result = runner.invoke(
            main,
            ["differint", "--func", "gaussian", "--nu", "0.5", "--method", "fourier", "--at", "1"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("option, message", [
        (["--nu", "inf"], "order must be finite"),
        (["--nu", "nan"], "order must be finite"),
        (["--nu", "0.5", "--c", "nan"], "base point must be finite or -inf"),
        (["--nu", "0.5", "--c", "inf"], "base point must be finite or -inf"),
    ])
    def test_nonfinite_order_or_base_is_usage_error(self, runner, option, message):
        result = runner.invoke(main, ["differint", "--func", "power", *option, "--at", "1"])
        assert result.exit_code == 2
        assert message in result.output

    def test_unknown_function_reports_error_class(self, runner):
        result = runner.invoke(
            main, ["differint", "--func", "nosuch", "--nu", "0.5", "--at", "1"])
        assert result.exit_code == 1
        assert "UnknownCatalogEntry" in result.stderr


class TestSymbol:
    def test_fractional_laplacian_report(self, runner):
        result = runner.invoke(main, ["symbol", "--op", FRAC_LAP_2D])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["elliptic"] is True
        assert doc["order"] == pytest.approx(0.5)
        assert doc["homogeneous"] is True
        assert doc["min_modulus"] == pytest.approx(1.0)
        assert doc["bounds"]["C"] > 0
        assert doc["bounds"]["R"] > 0

    def test_saddle_is_not_elliptic(self, runner):
        result = runner.invoke(main, ["symbol", "--op", SADDLE_2D])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["elliptic"] is False
        assert doc["bounds"] is None

    # sha256 of the report bytes, taken before the polish moved from
    # scipy.optimize.minimize to the private Nelder-Mead.
    @pytest.mark.parametrize(
        "op, digest",
        [
            (MONO_07, "1bed970e264967f15c2262075f4fd33ae18d475075eefa41e1b3b8e26af9072d"),
            ('{"dim": 1, "terms": [{"c": [1.0, 0.0], "alpha": [2.0]}, {"c": [-100.0, 0.0], "alpha": [0.0]}]}',
             "d823aad98cc9c1b2207e8cb9b3d6a5fa6f8e060b66ce8f6b75f33fedaca80f5e"),
            (FRAC_LAP_2D, "7315bbc038794b0b68a64da4eab5a2f8919cefcff2144792893a21408fde636f"),
            (SADDLE_2D, "a4c796e905c7c27953edb8f1882ef8d149ef2b65173e418d3bf51a55f8efc08d"),
            ('{"dim": 2, "terms": [{"c": [1.0, 0.5], "alpha": [1.2, 0.0]}, {"c": [2.0, 0.0], "alpha": [0.0, 1.2]},'
             ' {"c": [-3.0, 0.0], "alpha": [0.3, 0.0]}]}',
             "ce85a06ed7ebb1273ffd7e3b824333d37e52d902a40df15b5669ef3ca0c4f8c6"),
            ('{"dim": 3, "terms": [{"c": [1.0, 0.0], "alpha": [2.0, 0.0, 0.0]},'
             ' {"c": [1.0, 0.0], "alpha": [0.0, 2.0, 0.0]}, {"c": [1.0, 0.0], "alpha": [0.0, 0.0, 2.0]},'
             ' {"c": [-5.0, 1.0], "alpha": [0.0, 0.0, 1.0]}]}',
             "5481c6d5ed76841a9be1498cba0fa8c97cac200ee0a9b858a99655250268d41b"),
        ],
        ids=["mono-1d", "zero-1d", "frac-laplacian-2d", "saddle-2d", "complex-2d", "shifted-3d"],
    )
    def test_report_bytes_are_pinned(self, runner, op, digest):
        result = runner.invoke(main, ["symbol", "--op", op])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest

    def test_malformed_symbol_exits_one(self, runner):
        result = runner.invoke(main, ["symbol", "--op", '{"dim": 1}'])
        assert result.exit_code == 1
        assert "ValueError" in result.stderr


class TestSolveAndSobolev:
    def test_field_file_roundtrip_is_bit_exact(self, runner, tmp_path):
        solve = runner.invoke(
            main,
            ["--outdir", str(tmp_path), "-R", "4",
             "solve", "--op", MONO_07, "--forcing", "step", "--output", "u.field"],
        )
        assert solve.exit_code == 0
        report = json.loads(solve.output)
        assert report["confined"] is True
        assert report["cutoff_radius"] == pytest.approx(4.0)
        field_file = tmp_path / "u.field"
        assert field_file.exists()

        est_cli = runner.invoke(
            main, ["sobolev", "--field", str(field_file), "--min-radius", "10"])
        assert est_cli.exit_code == 0

        grid = BoxGrid(1, 4096, 40.0)
        f = sample_field(grid, step(-1.0, 1.0).value)
        res = solve_elliptic(FracSymbol.from_json(MONO_07), f, 4.0)
        expected = estimate_regularity(res.u, bands_per_octave=3, min_radius=10.0)
        assert est_cli.output.strip() == expected.to_json()

    def test_solve_json_is_pinned(self, runner, tmp_path):
        op = ('{"dim": 2, "terms": [{"c": [1.0, 0.5], "alpha": [1.5, 0.0]},'
              ' {"c": [1.0, 0.0], "alpha": [0.0, 1.5]}, {"c": [0.25, 0.0], "alpha": [0.0, 0.0]}]}')
        result = runner.invoke(
            main, ["-n", "2", "-m", "64", "-L", "20", "--outdir", str(tmp_path), "solve",
                   "--op", op, "--forcing", '{"kind": "bump", "center": 0.25, "radius": 2.0}',
                   "--output", "v.field"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc.pop("field_file") == str(tmp_path / "v.field")
        assert doc == {
            "cutoff_radius": 1.0,
            "f_hat_sup": 5.827525615791913,
            "residual_sup_outside": 0.0,
            "confined": True,
            "grid": {"dim": 2, "m": 64, "length": 20.0},
        }

    def test_sobolev_norm_of_catalog_function(self, runner):
        result = runner.invoke(
            main, ["-m", "256", "-L", "20", "sobolev", "--func", "gaussian", "--s", "0"])
        assert result.exit_code == 0
        # Plancherel in the integral-transform normalization: the H^0 norm
        # is sqrt(2 pi) times the L2 norm, so sqrt(2 pi) * pi^(1/4) here.
        expected = math.sqrt(2.0 * math.pi) * math.pi ** 0.25
        assert float(result.output) == pytest.approx(expected, rel=1e-6)
        assert _significant_digits(result.output.strip()) >= 12

    def test_solve_dimension_mismatch_is_usage_error(self, runner):
        result = runner.invoke(main, ["solve", "--op", FRAC_LAP_2D, "--forcing", "gaussian"])
        assert result.exit_code == 2

    def test_sobolev_needs_exactly_one_input(self, runner):
        result = runner.invoke(main, ["sobolev"])
        assert result.exit_code == 2

    def test_zero_bands_per_octave_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["-m", "256", "sobolev", "--func", "gaussian", "--bands-per-octave", "0"])
        assert result.exit_code == 2
        assert "--bands-per-octave" in result.output


class TestVerifyCommand:
    def test_subset_green_and_report_written(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--outdir", str(tmp_path), "verify",
             "--only", "osler_product,power_rule", "--report", "checks.json"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("osler_product: pass")
        assert lines[1].startswith("power_rule: pass")
        doc = json.loads((tmp_path / "checks.json").read_text())
        assert [entry["check_id"] for entry in doc] == ["osler_product", "power_rule"]
        assert all(set(entry) == {"check_id", "max_error", "tolerance", "pass"} for entry in doc)
        assert all(entry["pass"] for entry in doc)

    def test_unknown_check_id_exits_one(self, runner):
        result = runner.invoke(main, ["verify", "--only", "no_such_check"])
        assert result.exit_code == 1
        assert "UnknownCheckId" in result.stderr


class TestExperimentCommand:
    def test_single_row_matrix(self, runner, tmp_path):
        matrix = json.dumps({
            "operators": [json.loads(MONO_05)],
            "forcings": ["step"],
        })
        result = runner.invoke(
            main,
            ["--outdir", str(tmp_path), "experiment", "regularity",
             "--matrix", matrix, "--csv", "gains.csv"],
        )
        assert result.exit_code == 0

        table = (tmp_path / "gains.csv").read_text().strip().splitlines()
        assert table[0] == "operator_id,nu,s_f,s_u,gain,expected_gain,pass"
        assert len(table) == 2
        cells = table[1].split(",")
        assert cells[0] == "D^0.5"
        assert float(cells[4]) == pytest.approx(0.5, abs=0.15)
        assert cells[6] == "true"

        plots = sorted(tmp_path.glob("bands_*.dat"))
        assert len(plots) == 1
        lines = plots[0].read_text().strip().splitlines()
        assert lines[0] == "# shell_center forcing_energy solution_energy"
        assert len(lines) > 10
        assert all(len(line.split()) == 3 for line in lines[1:])

    def test_outdir_env_var(self, runner, tmp_path):
        matrix = json.dumps({"operators": [json.loads(MONO_05)], "forcings": ["step"]})
        result = runner.invoke(
            main,
            ["experiment", "regularity", "--matrix", matrix],
            env={"FRACPDE_OUTDIR": str(tmp_path)},
        )
        assert result.exit_code == 0
        assert (tmp_path / "regularity_gains.csv").exists()


class TestTopLevel:
    def test_module_entry_point(self):
        # The child interpreter finds the package where this process did.
        src = str(Path(fracpde.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fracpde", "--help"],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "Usage" in proc.stdout

    def test_bad_grid_size_is_usage_error(self, runner):
        result = runner.invoke(main, ["-m", "17", "verify"])
        assert result.exit_code == 2

    def test_grid_size_not_a_power_of_two_is_usage_error(self, runner):
        result = runner.invoke(main, ["-m", "48", "sobolev", "--func", "step"])
        assert result.exit_code == 2
        assert "power of two" in result.output

    @pytest.mark.parametrize("module", ["scipy.signal", "scipy.optimize", "scipy.special", "scipy.linalg"])
    def test_import_leaves_scipy_module_out(self, module):
        assert not _module_loaded_after("", module)

    @pytest.mark.parametrize(
        "commands, loaded",
        [
            ([["-n", "2", "-m", "64", "-L", "20", "solve", "--op", FRAC_LAP_2D, "--forcing", "step",
               "--output", "u.field"],
              ["-n", "2", "-m", "64", "-L", "20", "sobolev", "--field", "u.field"]], False),
            ([["symbol", "--op", FRAC_LAP_2D]], False),
            ([["experiment", "regularity"]], False),
            ([["differint", "--func", "power", "--nu", "0.5", "--at", "1"]], True),
        ],
        ids=["solve-sobolev", "symbol", "experiment", "differint"],
    )
    def test_scipy_special_loads_at_the_first_gamma_value(self, tmp_path, commands, loaded):
        code = "".join(f"assert run_cli({argv!r}) == 0\n" for argv in commands)
        assert _module_loaded_after(f"from fracpde.cli import run_cli\n{code}", "scipy.special", tmp_path) == loaded

    HALF_AT_ONE = ["differint", "--func", "power", "--nu", "0.5", "--at", "1"]

    def test_few_subintervals_run(self, runner):
        result = runner.invoke(main, ["-N", "8", *self.HALF_AT_ONE])
        assert result.exit_code == 0, result.output
        assert float(result.output.strip()) == pytest.approx(TWO_OVER_ROOT_PI, rel=1e-2)

    @pytest.mark.parametrize(
        "option, message",
        [
            (["-N", "1"], "need at least 2 subintervals"),
            (["--grading", "0.5"], "grading exponent must be >= 1"),
            (["--grading", "nan"], "grading exponent must be >= 1"),
            (["--truncation", "-1"], "truncation length must be positive"),
            (["--truncation", "nan"], "truncation length must be positive"),
        ],
    )
    def test_quadrature_options_are_checked_by_the_library(self, runner, option, message):
        result = runner.invoke(main, [*option, *self.HALF_AT_ONE])
        assert result.exit_code == 2
        assert message in result.output

    def test_seed_option_is_gone(self, runner):
        result = runner.invoke(main, ["--seed", "3", *self.HALF_AT_ONE])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_bad_dimension_is_usage_error(self, runner):
        result = runner.invoke(main, ["-n", "4", "verify"])
        assert result.exit_code == 2

    def test_run_cli_returns_exit_codes(self, capsys):
        assert run_cli(["differint", "--func", "power", "--nu", "0.5", "--at", "1"]) == 0
        assert run_cli(["differint", "--func", "nosuch", "--nu", "0.5", "--at", "1"]) == 1
        assert run_cli(["differint", "--func", "power", "--nu", "0.5"]) == 2
        out = capsys.readouterr().out
        assert float(out.strip().splitlines()[0]) == pytest.approx(TWO_OVER_ROOT_PI, rel=1e-6)
