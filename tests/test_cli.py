"""End-to-end tests of the command-line interface.

Operator and function inputs are literal JSON strings on purpose: the
accepted wire schema is part of the contract, so drift breaks here.
"""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import click
import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

import fracpde
from fracpde.cli import main, run_cli
from fracpde.fileio import atomic_write_bytes
from fracpde.fracops import DifferintOrder, QuadratureConfig, caputo_derivative, differint, fourier_differint
from fracpde.functions import FunctionSpec, SampledCurve, bump, gaussian, step
from fracpde.sobolev import estimate_regularity
from fracpde.spectral import BoxGrid, Field, sample_field, sample_separable, save_field, solve_elliptic
from fracpde.symbols import FracSymbol
from fracpde.verify import CANONICAL_CHECK_IDS, VerifyConfig

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


def _module_loaded_after(code: str, module: str, cwd=None, prelude: str = "") -> bool:
    """Whether a fresh interpreter has loaded ``module`` after ``prelude``, importing the CLI and running ``code``."""
    # The child interpreter finds the package where this process did.
    src = str(Path(fracpde.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = f"{prelude}\nimport sys, fracpde.cli\n{code}\nprint({module!r} in sys.modules)"
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

    def test_grid_with_the_base_inside_the_box_fails_before_evaluation(self, runner, monkeypatch):
        import fracpde.cli as cli

        monkeypatch.setattr(cli, "differint", lambda *args, **kwargs: pytest.fail("evaluated"))
        result = runner.invoke(main, ["differint", "--func", "bump", "--nu", "0.5", "--c", "0", "--grid"])
        assert result.exit_code == 2
        assert "-L/2" in result.output

    @pytest.mark.parametrize("at", ["nan", "inf", "-inf"])
    def test_nonfinite_point_is_usage_error_before_evaluation(self, capsys, monkeypatch, at):
        import fracpde.cli as cli

        for engine in ("differint", "caputo_derivative", "hankel_differintegral", "fourier_differint"):
            monkeypatch.setattr(cli, engine, lambda *args, **kwargs: pytest.fail("evaluated"))
        assert run_cli(["differint", "--func", "gaussian", "--nu", "0.5", "--at", at]) == 2
        assert "--at must be a finite number" in capsys.readouterr().err

    def test_hankel_with_infinite_base_is_usage_error(self, capsys, monkeypatch):
        import fracpde.cli as cli

        monkeypatch.setattr(cli, "hankel_differintegral", lambda *args, **kwargs: pytest.fail("evaluated"))
        argv = ["differint", "--func", "gaussian", "--nu", "0.5", "--c", "-inf", "--method", "hankel", "--at", "1"]
        assert run_cli(argv) == 2
        assert "--method hankel needs a finite base --c" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", ['{"center": 0}', '{"kind": "power"}', '{"kind": "gaussian", "center": {}}'])
    def test_malformed_function_json_is_a_computation_error(self, capsys, doc):
        assert run_cli(["differint", "--func", doc, "--nu", "0.5", "--at", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError: malformed function document: ") and "Traceback" not in err

    @pytest.mark.parametrize("base", ["1", "2"])
    def test_base_at_or_above_the_support_end_prints_zero(self, capsys, base):
        # The step vanishes on (c, 2.5]: once NaN with a warning, once a closed-end leak.
        argv = ["differint", "--func", '{"kind": "step", "a": 0, "b": 1}', "--nu", "-0.5", "--c", base,
                "--at", "2.5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv) == 0
        assert capsys.readouterr().out.strip() == "0"

    @pytest.mark.parametrize("nu", ["170.5", "1500.5"])
    def test_order_beyond_float64_is_a_computation_error(self, capsys, nu):
        # The moment path's coefficients overflow: exit 1, not warnings and a NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["differint", "--func", "gaussian", "--nu", nu, "--at", "0.3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("NonConvergent: ") and "Warning" not in err

    @pytest.mark.parametrize("at", ["9.5", "30"])
    def test_order_beyond_float64_above_a_support_is_a_computation_error(self, capsys, at):
        # Above a gaussian's support 1/Gamma(-200.5), beyond float64, scales the
        # kernel moments: exit 1 with one line, not a warning and -inf+nanj.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["differint", "--func", "gaussian", "--nu", "200.5", "--c", "-inf", "--at", at]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("NonConvergent: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("nu, base", [("170.5", "-3"), ("200.5", "-3"), ("300.5", "0.29")])
    def test_hankel_order_beyond_float64_is_a_computation_error(self, capsys, nu, base):
        # Gamma(nu + 1), the loop kernel or their product overflows: exit 1, not a NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["differint", "--func", "gaussian", "--method", "hankel", "--nu", nu,
                            "--c", base, "--at", "0.3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("NonConvergent: ") and "Warning" not in err

    @pytest.mark.parametrize("where", [["--at", "0.3"], ["--grid"]], ids=["at", "grid"])
    def test_fourier_order_beyond_float64_is_a_computation_error(self, capsys, where):
        # |lambda|^nu overflows the multiplier: exit 1, not warnings and NaN rows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["differint", "--func", "gaussian", "--method", "fourier", "--nu", "200.5",
                            "--c", "-inf", *where]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("NonConvergent: ") and "Warning" not in captured.err

    @pytest.mark.parametrize("args", [
        ["--nu", "-0.5", "--at", "710"],
        ["--nu", "0.5", "--at", "800"],
        ["--nu", "0.5", "--at", "800", "--method", "caputo"],
    ], ids=["integral", "derivative", "caputo"])
    def test_exponential_overflow_at_the_point_is_a_computation_error(self, capsys, args):
        # e^(a x) or its sum beyond float64: exit 1, not warnings and inf+nanj or NotSmoothEnough.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["differint", "--func", '{"kind": "exponential", "a": 1}', "--c", "-inf",
                            *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("NonConvergent: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("nu", ["-5.5", "-10.5", "-17.5", "-20.5", "-30.5", "-80.5"])
    def test_high_integral_order_of_the_exponential_is_one_or_one_error_line(self, capsys, nu):
        # D^nu e^y = e^y: 1 at 0.  Below order -17.5 the tail cut at 45/a loses
        # more than 1e-6 of the value, so those orders are one error line.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["differint", "--func", "exp", "--nu", nu, "--c", "-inf", "--at", "0"])
        captured = capsys.readouterr()
        if float(nu) < -17.5:
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("NonConvergent: ") and captured.err.count("\n") == 1
        else:
            assert code == 0 and captured.err == ""
            assert float(captured.out) == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("method", ["quadrature", "caputo"])
    def test_exponential_derivative_beyond_float64_from_a_finite_base_is_a_computation_error(self, capsys,
                                                                                            method):
        # a**n beyond float64 in the input's own derivative: one NonConvergent line, no traceback.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["differint", "--func", '{"kind": "exponential", "a": 2}', "--nu", "1100.5",
                            "--c", "0", "--at", "1", "--method", method]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("NonConvergent: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("base", ["-inf", "0"])
    @pytest.mark.parametrize("nu, at", [("0.5", "1e308"), ("-0.5", "1e308"), ("0.5", "1e300"), ("-0.5", "1e6"),
                                        ("-1.5", "1e308"), ("-2.5", "1e308")])
    def test_far_point_prints_its_leading_term_or_one_error_line(self, capsys, base, nu, at):
        # Far above a unit gaussian its D^nu is x^(-nu-1) sqrt(2 pi) / Gamma(-nu),
        # half of that from base 0.  Where that value is beyond float64 the
        # moments overflow with it: one NonConvergent line.  Never nan or a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["differint", "--func", "gaussian", "--c", base, "--nu", nu, "--at", at])
        captured = capsys.readouterr()
        with mpmath.workdps(30):
            lead = mpmath.mpf(at) ** (-float(nu) - 1) * mpmath.sqrt(2 * mpmath.pi) * mpmath.rgamma(-float(nu))
            lead = float(lead / 2 if base == "0" else lead)
        if math.isinf(lead):
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("NonConvergent: ") and captured.err.count("\n") == 1
        else:
            assert code == 0 and captured.err == ""
            assert abs(float(captured.out) - lead) <= 1e-5 * abs(lead)

    @pytest.mark.parametrize("method, error", [("quadrature", "NonConvergent"), ("caputo", "NotSmoothEnough")],
                             ids=["quadrature", "caputo"])
    def test_grid_order_beyond_the_inputs_derivatives_keeps_its_error(self, capsys, method, error):
        # f^(301) of a gaussian is not finite on its support, so the lattice
        # declines and the graded path reports it, quietly: the kernel
        # (x - y)^(-301.5) overflows just above the support first, and the
        # Caputo derivative evaluates f^(301) there.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["differint", "--func", "gaussian", "--nu", "300.5", "--c", "-inf",
                            "--method", method, "--grid"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{error}: ") and captured.err.count("\n") == 1

    def test_grid_order_within_the_inputs_derivatives_matches_mpmath(self, capsys):
        # Over its support f^(201) of a gaussian is finite, and the lattice
        # follows the parabolic cylinder form, exp(-x^2/4) D_nu(-x), to 7.5e-7 of the peak.
        assert run_cli(["differint", "--func", "gaussian", "--nu", "200.5", "--c", "-inf", "--grid"]) == 0
        rows = np.array([line.split(",") for line in capsys.readouterr().out.splitlines()[1:]], dtype=float)
        peak = np.max(np.abs(rows[:, 1]))
        with mpmath.workdps(30):
            for k in (1024, 1792, 2048, 2304, 3072):
                z = mpmath.mpf(rows[k, 0])
                want = float(mpmath.exp(-z * z / 4) * mpmath.pcfd(200.5, -z))
                assert abs(rows[k, 1] - want) <= 1e-5 * peak

    @pytest.mark.parametrize("method, nu", [("quadrature", "-0.7"), ("quadrature", "1.3"), ("caputo", "0.4")])
    def test_grid_rows_agree_with_single_points(self, capsys, method, nu):
        # --grid takes the lattice rule, --at the graded path: within 5e-5 of the peak for width >= 1.
        func = '{"kind": "gaussian", "center": 0.3, "width": 1.1}'
        base = ["differint", "--func", func, "--nu", nu, "--c", "-inf", "--method", method]
        assert run_cli([*base, "--grid"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        grid = np.array([[float(x), float(re)] for x, re, _ in rows])
        peak = np.max(np.abs(grid[:, 1]))
        for k in (1800, 2048, 2100, 2300):
            assert run_cli([*base, "--at", repr(float(grid[k, 0]))]) == 0
            assert abs(float(capsys.readouterr().out) - grid[k, 1]) <= 5e-5 * peak

    @pytest.mark.parametrize("func, nu, base, method", [
        ('{"kind": "exponential", "a": 1.3}', "0.6", "-inf", "quadrature"),
        ('{"kind": "exponential", "a": 0.8}', "1.2", "-inf", "caputo"),
        ('{"kind": "step", "a": -1, "b": 1}', "-0.5", "-inf", "quadrature"),
        ("gaussian", "0.5", "-30", "quadrature"),
        ("gaussian", "0.5", "-30", "caputo"),
    ], ids=["exp", "exp-caputo", "step", "finite-base", "finite-base-caputo"])
    def test_grids_off_the_lattice_are_the_engines_rows(self, capsys, func, nu, base, method):
        argv = ["-m", "256", "-N", "256", "differint", "--func", func, "--nu", nu, "--c", base,
                "--method", method, "--grid"]
        assert run_cli(argv) == 0
        xs = BoxGrid(1, 256, 40.0).axis()
        engine = differint if method == "quadrature" else caputo_derivative
        f = FunctionSpec.from_json(func) if func.startswith("{") else gaussian(0.0, 1.0)
        vals = engine(f, DifferintOrder(float(nu), float(base)), xs, QuadratureConfig(256))
        want = "x,re,im\n" + "".join(f"{x:.12g},{v.real:.12g},{v.imag:.12g}\n" for x, v in zip(xs, vals))
        assert capsys.readouterr().out == want

    def test_run_cli_keeps_no_captured_stream_alive(self):
        # click.echo without a file caches every stream it sees, and the stream with it.
        alive = []
        for k in range(50):
            out, err = io.StringIO(), io.StringIO()
            ok = k % 2 == 1  # every other command fails, so stderr is written too
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                argv = ["differint", "--func", "power" if ok else "nosuch", "--nu", "0.5", "--at", "1"]
                assert run_cli(argv) == (0 if ok else 1)
            alive += [weakref.ref(out), weakref.ref(err)]
            del out, err
        gc.collect()
        assert [ref for ref in alive if ref() is not None] == []

    def test_fourier_high_finite_order_keeps_its_value(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["differint", "--func", "gaussian", "--method", "fourier", "--nu", "60.5",
                            "--c", "-inf", "--at", "0.3"]) == 0
        # Rounding noise of |lambda_max|^60.5 * eps, pinned so that a change to the engine shows.
        assert capsys.readouterr().out == "6.84221016588364e+134+8.46710329529045e+134j\n"

    def test_power_from_minus_inf_is_a_computation_error(self, capsys):
        assert run_cli(["differint", "--func", "power", "--nu", "0.5", "--c", "-inf", "--at", "0.3"]) == 1
        assert capsys.readouterr().err == "NonConvergent: input does not decay toward -inf; integral diverges\n"

    # The grid starts at -L/2 = -10: a derivative needs every x > c, an
    # integral (and a Caputo derivative, an integral of f') allows x = c.
    @pytest.mark.parametrize("nu, base, method, code", [
        ("0.5", "-10", "quadrature", 2),
        ("-0.5", "-9.5", "quadrature", 2),
        ("0.5", "-9.5", "caputo", 2),
        ("-0.5", "-10", "quadrature", 0),
        ("0.5", "-10", "caputo", 0),
        ("0.5", "-10.5", "quadrature", 0),
    ])
    def test_grid_base_follows_the_library_domain_rule(self, runner, nu, base, method, code):
        result = runner.invoke(main, ["-m", "64", "-L", "20", "differint", "--func", "bump",
                                      "--nu", nu, "--c", base, "--method", method, "--grid"])
        assert result.exit_code == code, result.output
        assert ("-L/2" in result.output) == (code == 2)

    def test_grid_below_the_box_matches_the_library(self, runner):
        result = runner.invoke(main, ["-m", "64", "differint", "--func", "bump", "--nu", "0.5",
                                      "--c", "-30", "--grid"])
        assert result.exit_code == 0
        xs = BoxGrid(1, 64, 40.0).axis()
        vals = differint(bump(0.0, 1.0), DifferintOrder(0.5, -30.0), xs)
        want = "x,re,im\n" + "".join(f"{x:.12g},{v.real:.12g},{v.imag:.12g}\n" for x, v in zip(xs, vals))
        assert result.output == want

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
        expected = estimate_regularity(res.u, min_radius=10.0)
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

    def test_sobolev_of_a_missing_field_file_is_a_computation_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.field"
        assert run_cli(["sobolev", "--field", str(missing), "--s", "1.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"FileNotFoundError: [Errno 2] No such file or directory: {str(missing)!r}\n"

    @pytest.mark.parametrize("option", [["--min-radius", "50"], ["--min-radius=7"],
                                        ["--min-radius", "0"]])
    def test_norm_order_with_fit_options_is_usage_error(self, runner, option):
        result = runner.invoke(main, ["-m", "256", "sobolev", "--func", "gaussian", "--s", "1", *option])
        assert result.exit_code == 2
        assert "--s evaluates a norm" in result.output

    def test_bands_per_octave_option_is_gone(self, runner):
        result = runner.invoke(
            main, ["-m", "256", "sobolev", "--func", "gaussian", "--bands-per-octave", "3"])
        assert result.exit_code == 2
        assert "No such option" in result.output

    # sha256 of the report bytes, taken while the shell resolution was still
    # a parameter (3 bands per octave, 5 fit octaves by default).
    @pytest.mark.parametrize("args, digest", [
        (["sobolev", "--func", "step"],
         "3324bedd561f7ca82c140773aec5cf96d9776ea485332dd90096d07bbcc278cb"),
        (["-n", "2", "-m", "512", "sobolev", "--func", "step", "--min-radius", "4"],
         "6b58da3037f35e37bf7a9c19c8b0aed40bec6e4244d9df1373f60df2a0e71dc0"),
    ], ids=["step-1d", "step-2d-min-radius"])
    def test_regularity_report_bytes_are_pinned(self, runner, args, digest):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest

    # sha256 of the report bytes, taken while the shell spectrum still
    # transformed and binned the whole grid.
    @pytest.mark.parametrize("grid, op, digest", [
        (["-n", "2", "-m", "2048", "-L", "40"],
         '{"dim": 2, "terms": [{"c": [1.0, 0.0], "alpha": [1.5, 0.0]}, {"c": [1.3, 0.0], "alpha": [0.0, 1.5]}]}',
         "62af0e16308632e6fc19d7f1dab8cb4e279c6c780456d5e2d55ad1e443d78c2a"),
        (["-n", "3", "-m", "128", "-L", "20"],
         '{"dim": 3, "terms": [{"c": [1.0, 0.0], "alpha": [1.4, 0.0, 0.0]}, {"c": [1.1, 0.0], "alpha": [0.0, 1.4, 0.0]},'
         ' {"c": [0.9, 0.0], "alpha": [0.0, 0.0, 1.4]}]}',
         "303bcd30add8188572d2e235658c5d15ac23bf88cb3eef7d50954745d74b91c8"),
    ], ids=["solve-2d-m2048", "solve-3d-m128"])
    def test_regularity_report_of_a_solve_field_is_pinned(self, runner, tmp_path, grid, op, digest):
        solve = runner.invoke(main, [*grid, "--outdir", str(tmp_path), "solve", "--op", op,
                                     "--forcing", '{"kind": "step", "a": -1.0, "b": 1.2}', "--output", "u.field"])
        assert solve.exit_code == 0
        result = runner.invoke(main, ["sobolev", "--field", str(tmp_path / "u.field"), "--min-radius", "4.0"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_field_is_a_computation_error(self, capsys, tmp_path, bad):
        g = BoxGrid(2, 256, 40.0)
        vals = sample_separable(g, step(-1.0, 1.0).value).values.copy()
        vals[128, 128] = float(bad)
        save_field(Field(g, vals), tmp_path / "u.field")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["sobolev", "--field", str(tmp_path / "u.field")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ValueError: field holds non-finite values\n"

    @pytest.mark.parametrize("option", [["--s", "nan"], ["--s", "inf"], ["--s", "-inf"],
                                        ["--min-radius", "nan"], ["--min-radius", "inf"], ["--min-radius", "-inf"]])
    def test_non_finite_number_is_usage_error(self, capsys, monkeypatch, option):
        import fracpde.cli as cli

        for engine in ("sobolev_norm", "estimate_regularity"):
            monkeypatch.setattr(cli, engine, lambda *args, **kwargs: pytest.fail("evaluated"))
        assert run_cli(["-m", "256", "sobolev", "--func", "step", *option]) == 2
        assert f"{option[0]} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("func, s", [("gaussian", "400"), ("step", "1e6")])
    def test_overflowing_norm_is_a_computation_error(self, capsys, func, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["sobolev", "--func", func, "--s", s]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("NonConvergent: ") and captured.err.count("\n") == 1

    def test_large_finite_norm_keeps_its_digits(self, capsys):
        assert run_cli(["sobolev", "--func", "step", "--s", "40"]) == 0
        assert capsys.readouterr().out == "3.89752974664925e+98\n"


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

    def test_malformed_forcing_is_a_computation_error(self, capsys, monkeypatch, tmp_path):
        import fracpde.cli as cli

        monkeypatch.setattr(cli, "run_regularity_experiment", lambda *args, **kwargs: pytest.fail("computed"))
        matrix = json.dumps({"operators": [json.loads(MONO_05)], "forcings": [{"kind": "power"}]})
        assert run_cli(["--outdir", str(tmp_path), "experiment", "regularity", "--matrix", matrix]) == 1
        assert capsys.readouterr().err == "ValueError: malformed function document: 'p'\n"

    def test_outdir_env_var(self, runner, tmp_path):
        matrix = json.dumps({"operators": [json.loads(MONO_05)], "forcings": ["step"]})
        result = runner.invoke(
            main,
            ["experiment", "regularity", "--matrix", matrix],
            env={"FRACPDE_OUTDIR": str(tmp_path)},
        )
        assert result.exit_code == 0
        assert (tmp_path / "regularity_gains.csv").exists()


class TestOutputFiles:
    # Each command that writes a named file, with the name option last.
    COMMANDS = {
        "verify": ["verify", "--only", "power_rule", "--report"],
        "experiment": ["experiment", "regularity", "--matrix",
                       json.dumps({"operators": [json.loads(MONO_05)], "forcings": ["step"]}), "--csv"],
        "solve": ["-R", "4", "solve", "--op", MONO_07, "--forcing", "step", "--output"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("name", ["../x.json", "sub/x.json", "x.json/", "", ".", "..", "ABSOLUTE"])
    def test_name_outside_the_outdir_is_usage_error(self, runner, tmp_path, command, name):
        outdir = tmp_path / "out"
        if name == "ABSOLUTE":
            name = str(tmp_path / "x.json")
        result = runner.invoke(main, ["--outdir", str(outdir), *self.COMMANDS[command], name])
        assert result.exit_code == 2
        assert "is not a plain file name inside --outdir" in result.output
        assert not (tmp_path / "x.json").exists() and not outdir.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    def test_existing_target_that_is_not_a_file_is_kept(self, runner, tmp_path, command, kind):
        target = tmp_path / "target"
        target.mkdir() if kind == "directory" else os.mkfifo(target)
        mode = os.stat(target).st_mode
        result = runner.invoke(main, ["--outdir", str(tmp_path), *self.COMMANDS[command], "target"])
        assert result.exit_code == 1
        assert "ValueError" in result.stderr and "not a regular file" in result.stderr
        assert os.stat(target).st_mode == mode
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".target.")) == []

    @pytest.mark.parametrize("command, engine", [
        ("verify", "run_identity_suite"),
        ("experiment", "run_regularity_experiment"),
        ("solve", "solve_elliptic"),
    ])
    def test_target_is_refused_before_the_computation(self, runner, tmp_path, monkeypatch, command, engine):
        import fracpde.cli as cli

        monkeypatch.setattr(cli, engine, lambda *args, **kwargs: pytest.fail("computed"))
        (tmp_path / "target").mkdir()
        result = runner.invoke(main, ["--outdir", str(tmp_path), *self.COMMANDS[command], "target"])
        assert result.exit_code == 1
        assert result.stderr == f"ValueError: {tmp_path / 'target'} exists and is not a regular file\n"

    def test_atomic_write_refuses_a_fifo_and_replaces_a_file(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        with pytest.raises(ValueError, match="not a regular file"):
            atomic_write_bytes(fifo, b"data")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        plain = tmp_path / "plain"
        plain.write_bytes(b"old")
        atomic_write_bytes(plain, b"new")
        assert plain.read_bytes() == b"new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "plain"]


def _long_options(command: click.Command) -> set[str]:
    """Long options of ``command`` and of every subcommand under it."""
    opts = {opt for param in command.get_params(click.Context(command))
            for opt in (*param.opts, *param.secondary_opts) if opt.startswith("--")}
    for sub in getattr(command, "commands", {}).values():
        opts |= _long_options(sub)
    return opts


class TestTopLevel:
    def test_readme_command_line_section_matches_the_options(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
        group = {opt for param in main.params for opt in param.opts if opt.startswith("--")}
        assert group - named == set(), "group options missing from README"
        assert named - _long_options(main) == set(), "README names options the CLI lacks"

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

    # A finder ahead of all others refuses every scipy module and records
    # the attempt, so an import that a caller catches still fails the test.
    REFUSE_SCIPY = """
import importlib.abc, sys
refused = []
class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            refused.append(name)
            raise ImportError(f"{name} is refused")
sys.meta_path.insert(0, Refuse())
"""

    def _loads_no_scipy(self, code, cwd=None):
        """Whether ``code`` runs with every scipy import refused and none attempted."""
        code = f"from fracpde.cli import run_cli\n{code}\nassert not refused, refused"
        return not _module_loaded_after(code, "scipy", cwd, prelude=self.REFUSE_SCIPY)

    @pytest.mark.parametrize(
        "commands",
        [
            [["-n", "2", "-m", "64", "-L", "20", "solve", "--op", FRAC_LAP_2D, "--forcing", "step",
              "--output", "u.field"],
             ["-n", "2", "-m", "64", "-L", "20", "sobolev", "--field", "u.field"]],
            [["symbol", "--op", FRAC_LAP_2D]],
            [["experiment", "regularity"]],
            [["differint", "--func", "power", "--nu", "0.5", "--at", "1"]],
        ],
        ids=["solve-sobolev", "symbol", "experiment", "differint"],
    )
    def test_scipy_special_loads_at_the_first_gamma_value(self, tmp_path, commands):
        """Neither the command nor the first Gamma value off the real axis after it loads scipy."""
        code = "".join(f"assert run_cli({argv!r}) == 0\n" for argv in commands)
        assert self._loads_no_scipy(f"{code}from fracpde import fracops\nfracops._gamma(0.5 + 0.2j)", tmp_path)

    def test_real_order_commands_load_no_scipy_module(self, tmp_path):
        # Every differint method at one point and on the grid, and every identity check.
        gauss = ["differint", "--func", "gaussian", "--nu", "0.5"]
        commands = [
            *([*gauss, "--c", base, "--method", method, *where]
              for method, base in [("quadrature", "-inf"), ("caputo", "-inf"), ("fourier", "-inf")]
              for where in (["--at", "0.3"], ["--grid"])),
            [*gauss, "--c", "-3", "--method", "hankel", "--at", "0.3"],
            ["differint", "--func", "power", "--nu", "0.5", "--at", "1"],
            *(["verify", "--only", check] for check in CANONICAL_CHECK_IDS),
        ]
        assert self._loads_no_scipy("\n".join(f"assert run_cli({argv!r}) == 0, {argv!r}" for argv in commands),
                                    tmp_path)

    def test_complex_order_engines_load_no_scipy_module(self):
        curve = "SampledCurve(-10.0, 0.3125, np.exp(-(0.3125 * np.arange(64) - 10.0) ** 2))"
        engines = [
            "rl_integral(power(1.0), DifferintOrder(-0.5 + 0.2j, 0.0), 1.0)",
            "rl_derivative(gaussian(0.0, 1.0), DifferintOrder(0.5 + 0.2j, -math.inf), 0.3)",
            "caputo_derivative(power(2.0), DifferintOrder(0.5 + 0.2j, 0.0), 1.0)",
            "hankel_differintegral(gaussian(0.0, 1.0), DifferintOrder(0.5 + 0.2j, -3.0), 0.3)",
            f"fourier_differint({curve}, 0.5 + 0.2j).values",
            "closed_form_oracle(power(1.0), DifferintOrder(0.5 + 0.2j, 0.0), 1.0)",
        ]
        code = "\n".join([
            "import math",
            "import numpy as np",
            "from fracpde.fracops import (DifferintOrder, caputo_derivative, closed_form_oracle, fourier_differint,",
            "                             hankel_differintegral, rl_derivative, rl_integral)",
            "from fracpde.functions import SampledCurve, gaussian, power",
            *(f"assert np.all(np.isfinite({call})), {call!r}" for call in engines),
        ])
        assert self._loads_no_scipy(code)

    HALF_AT_ONE = ["differint", "--func", "power", "--nu", "0.5", "--at", "1"]

    def test_few_subintervals_run(self, runner):
        result = runner.invoke(main, ["-N", "8", *self.HALF_AT_ONE])
        assert result.exit_code == 0, result.output
        assert float(result.output.strip()) == pytest.approx(TWO_OVER_ROOT_PI, rel=1e-2)

    @pytest.mark.parametrize(
        "option, message",
        [
            (["-N", "1"], "need at least 2 subintervals"),
        ],
    )
    def test_quadrature_options_are_checked_by_the_library(self, runner, option, message):
        result = runner.invoke(main, [*option, *self.HALF_AT_ONE])
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("option", [["--seed", "3"], ["--truncation", "0.5"], ["--grading", "2"]],
                             ids=["seed", "truncation", "grading"])
    def test_seed_option_is_gone(self, runner, option):
        result = runner.invoke(main, [*option, *self.HALF_AT_ONE])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def _built_config(self, runner, monkeypatch, tmp_path, options):
        import fracpde.cli as cli

        seen = []
        monkeypatch.setattr(cli, "run_identity_suite", lambda selector, config: seen.append(config) or [])
        result = runner.invoke(main, ["--outdir", str(tmp_path), *options, "verify"])
        assert result.exit_code == 0, result.output
        return seen[0]

    def test_no_options_build_the_default_verify_config(self, runner, monkeypatch, tmp_path):
        assert self._built_config(runner, monkeypatch, tmp_path, []) == VerifyConfig()

    def test_group_options_reach_the_verify_config(self, runner, monkeypatch, tmp_path):
        options = ["-m", "2048", "-L", "30", "-N", "512",
                   "-R", "3", "--gain-tolerance-1d", "0.3", "--gain-tolerance-2d", "0.4"]
        want = VerifyConfig(grid_m=2048, grid_length=30.0, cutoff_radius=3.0,
                            quadrature=QuadratureConfig(512),
                            gain_tolerance_1d=0.3, gain_tolerance_2d=0.4)
        assert self._built_config(runner, monkeypatch, tmp_path, options) == want

    @pytest.mark.parametrize("option, field, value", [
        (["-R", "0"], "cutoff_radius", 0.0),
        (["--gain-tolerance-1d", "-1"], "gain_tolerance_1d", -1.0),
        (["-m", "100"], "grid_m", 100),
    ])
    def test_usage_error_is_the_library_error(self, runner, option, field, value):
        with pytest.raises(ValueError) as exc:
            VerifyConfig(**{field: value})
        result = runner.invoke(main, [*option, *self.HALF_AT_ONE])
        assert result.exit_code == 2
        assert str(exc.value) in result.output

    def test_bad_dimension_is_usage_error(self, runner):
        result = runner.invoke(main, ["-n", "4", "verify"])
        assert result.exit_code == 2

    def test_run_cli_returns_exit_codes(self, capsys):
        assert run_cli(["differint", "--func", "power", "--nu", "0.5", "--at", "1"]) == 0
        assert run_cli(["differint", "--func", "nosuch", "--nu", "0.5", "--at", "1"]) == 1
        assert run_cli(["differint", "--func", "power", "--nu", "0.5"]) == 2
        out = capsys.readouterr().out
        assert float(out.strip().splitlines()[0]) == pytest.approx(TWO_OVER_ROOT_PI, rel=1e-6)
