"""Command-line front end.

The group options build one :class:`~fracpde.verify.VerifyConfig` (grid,
quadrature, experiment cutoff, gain tolerances) and one :class:`RunConfig`
around it, both checked before any subcommand runs.  Computation failures
exit with code 1 and the error class name on stderr; option misuse exits 2
via click.  All numeric output carries at least twelve significant digits,
and every file lands atomically.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from .errors import FracpdeError, NoRFound
from .fileio import atomic_write_text, regular_file_target
from .fracops import (
    DifferintOrder,
    QuadratureConfig,
    caputo_derivative,
    differint,
    fourier_differint,
    hankel_differintegral,
    _on_lattice,
)
from .functions import FunctionSpec, SampledCurve, catalog_lookup
from .sobolev import estimate_regularity, sobolev_norm
from .spectral import BoxGrid, load_field, sample_separable, save_field, solve_elliptic
from .symbols import FracSymbol, check_ellipticity, estimate_bounds, order_and_gap, principal_symbol
from .verify import (
    VerifyConfig,
    run_identity_suite,
    run_regularity_experiment,
    write_experiment_csv,
    write_identity_report,
)

# One ``x,re,im`` CSV row; ``%`` formats exactly as ``f"{x:.12g}"``.
_CSV_ROW = "%.12g,%.12g,%.12g"


@dataclass(frozen=True)
class RunConfig:
    """What the subcommands read beyond :class:`VerifyConfig`.

    ``grid_dim`` is the dimension of the grid ``differint``, ``solve`` and
    ``sobolev --func`` sample on (with ``verify.grid_m`` points per axis and
    side ``verify.grid_length``), ``cutoff_radius`` the parametrix cutoff of
    ``solve`` (``None`` runs the bound scan), and ``outdir`` where files land.
    """

    verify: VerifyConfig = field(default_factory=VerifyConfig)
    grid_dim: int = 1
    cutoff_radius: float | None = None
    outdir: Path = Path(".")

    def __post_init__(self):
        self.box()

    def box(self, dim: int | None = None) -> BoxGrid:
        return BoxGrid(dim if dim is not None else self.grid_dim, self.verify.grid_m, self.verify.grid_length)


_DEFAULTS = RunConfig()


def _echo(text: str, stream=None) -> None:
    """``click.echo`` to ``stream``, by default the ``sys.stdout`` of the moment.

    Without an explicit file click looks the stream up in a cache keyed
    weakly by it whose value is the stream itself, so every stream a caller
    swaps in (``contextlib.redirect_stdout`` around ``run_cli``) stays alive
    with all its output.
    """
    click.echo(text, file=sys.stdout if stream is None else stream)


def _computation(fn):
    """Map library errors, and a file that cannot be read or written, to exit code 1 with the class name on stderr."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BrokenPipeError:
            raise  # a closed stdout: click's own handler exits quietly
        except (FracpdeError, ValueError, OSError) as exc:
            _echo(f"{type(exc).__name__}: {exc}", sys.stderr)
            sys.exit(1)

    return wrapper


def _parse_func(text: str) -> FunctionSpec:
    text = text.strip()
    if text.startswith("{"):
        return FunctionSpec.from_json(text)
    return catalog_lookup(text)


def _parse_symbol(text: str) -> FracSymbol:
    return FracSymbol.from_json(text)


def _parse_base(text: str) -> float:
    if text.strip().lower() in ("-inf", "-infinity"):
        return -math.inf
    try:
        return float(text)
    except ValueError:
        raise click.UsageError(f"base point must be a number or -inf, got {text!r}") from None


def _format_scalar(z: complex) -> str:
    z = complex(z)
    if abs(z.imag) <= 1e-13 * max(1.0, abs(z.real)):
        return f"{z.real:.15g}"
    return f"{z.real:.15g}{z.imag:+.15g}j"


def _file_name(ctx, param, name: str) -> str:
    """A file name for inside ``--outdir``: no directory part, and not empty, ``.`` or ``..``."""
    if name in ("", ".", "..") or Path(name).name != name:
        raise click.BadParameter(f"{name!r} is not a plain file name inside --outdir")
    return name


def _ensure_outdir(cfg: RunConfig) -> Path:
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    return cfg.outdir


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--grid-m", "-m", default=_DEFAULTS.verify.grid_m, show_default=True,
              help="Grid points per axis.")
@click.option("--grid-length", "-L", default=_DEFAULTS.verify.grid_length, show_default=True,
              help="Box side length.")
@click.option("--grid-dim", "-n", default=_DEFAULTS.grid_dim, show_default=True, help="Grid dimension.")
@click.option("--subintervals", "-N", default=_DEFAULTS.verify.quadrature.subintervals, show_default=True,
              help="Quadrature subintervals.")
@click.option("--cutoff-radius", "-R", type=float, default=None,
              help=f"Parametrix cutoff radius (default: bound scan for solve, "
                   f"{_DEFAULTS.verify.cutoff_radius:g} for verify and experiment).")
@click.option("--gain-tolerance-1d", default=_DEFAULTS.verify.gain_tolerance_1d, show_default=True,
              help="Allowed |gain - order| on 1-d experiment rows.")
@click.option("--gain-tolerance-2d", default=_DEFAULTS.verify.gain_tolerance_2d, show_default=True,
              help="Allowed |gain - order| on higher-dimensional rows.")
@click.option("--outdir", type=click.Path(path_type=Path), default=_DEFAULTS.outdir,
              envvar="FRACPDE_OUTDIR", show_default=True,
              help="Output directory (env: FRACPDE_OUTDIR).")
@click.pass_context
def main(ctx, grid_m, grid_length, grid_dim, subintervals, cutoff_radius,
         gain_tolerance_1d, gain_tolerance_2d, outdir):
    """Fractional differintegrals, elliptic symbols, solves, and estimates."""
    radius = {} if cutoff_radius is None else {"cutoff_radius": cutoff_radius}
    try:
        verify = VerifyConfig(
            grid_m=grid_m,
            grid_length=grid_length,
            quadrature=QuadratureConfig(subintervals),
            gain_tolerance_1d=gain_tolerance_1d,
            gain_tolerance_2d=gain_tolerance_2d,
            **radius,
        )
        ctx.obj = RunConfig(verify, grid_dim, cutoff_radius, outdir)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def run_cli(argv: list[str] | None = None) -> int:
    """Run the command line programmatically and return its exit code."""
    try:
        main.main(args=argv, standalone_mode=True)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    return 0


@main.command("differint")
@click.option("--func", required=True, help="FunctionSpec JSON or catalog name.")
@click.option("--nu", type=float, required=True, help="Differintegral order.")
@click.option("--c", "base", default="0", show_default=True, help="Base point, or -inf.")
@click.option("--method", type=click.Choice(["quadrature", "fourier", "hankel", "caputo"]),
              default="quadrature", show_default=True)
@click.option("--at", "at_x", type=float, default=None, help="Evaluate at one point.")
@click.option("--grid", "on_grid", is_flag=True, help="Evaluate on the config grid (CSV).")
@click.pass_obj
@_computation
def differint_command(cfg: RunConfig, func, nu, base, method, at_x, on_grid):
    """Evaluate a differintegral of a catalog or JSON function."""
    if (at_x is None) == (not on_grid):
        raise click.UsageError("pass exactly one of --at and --grid")
    if at_x is not None and not math.isfinite(at_x):
        raise click.UsageError(f"--at must be a finite number, got {at_x}")
    f = _parse_func(func)
    try:
        order = DifferintOrder(nu, _parse_base(base))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    quad = cfg.verify.quadrature
    axis = cfg.box(1).axis()
    if on_grid and not order.lower_infinite:
        # The library's domain rule: a derivative needs x > c, an integral x >= c.
        strict = method == "quadrature" and order.nu.real >= 0
        start = float(axis[0])
        if order.c > start or (strict and order.c == start):
            raise click.UsageError(f"--grid starts at -L/2 = {start:g}; a finite base --c must lie "
                                   f"{'below' if strict else 'at or below'} it")
    xs = np.array([at_x]) if at_x is not None else axis

    if method in ("quadrature", "caputo"):
        engine = differint if method == "quadrature" else caputo_derivative
        vals = engine(f, order, xs, config=quad) if at_x is not None else _on_lattice(engine, f, order, xs, quad)
    elif method == "hankel":
        if at_x is None:
            raise click.UsageError("--method hankel evaluates single points; pass --at")
        if order.lower_infinite:
            raise click.UsageError("--method hankel needs a finite base --c")
        vals = np.array([hankel_differintegral(f, order, at_x)])
    else:
        if not order.lower_infinite:
            raise click.UsageError("--method fourier needs --c -inf")
        curve = SampledCurve(float(axis[0]), float(axis[1] - axis[0]), np.asarray(f.value(axis)))
        out = fourier_differint(curve, nu)
        vals = out.value(xs) if at_x is not None else out.values

    if at_x is not None:
        _echo(_format_scalar(vals[0]))
    else:
        vals = np.asarray(vals, dtype=complex)
        rows = map(_CSV_ROW.__mod__, zip(xs.tolist(), vals.real.tolist(), vals.imag.tolist()))
        _echo("\n".join(["x,re,im", *rows]))


@main.command("symbol")
@click.option("--op", required=True, help="FracSymbol JSON.")
@click.pass_obj
@_computation
def symbol_command(cfg: RunConfig, op):
    """Order, principal part, ellipticity, and bound constants of a symbol."""
    sym = _parse_symbol(op)
    info = order_and_gap(sym)
    report = check_ellipticity(sym)
    doc = {
        "dim": sym.dim,
        "order": info.order,
        "gap": info.gap,
        "homogeneous": info.homogeneous,
        "principal": principal_symbol(sym).to_dict(),
        "elliptic": report.elliptic,
        "min_modulus": report.min_modulus,
        "witness": list(report.witness),
        "threshold": report.threshold,
        "samples_used": report.samples_used,
        "bounds": None,
    }
    if report.elliptic:
        try:
            est = estimate_bounds(sym)
            doc["bounds"] = {"C": est.lower, "R": est.radius,
                             "upper": est.upper, "scan_max": est.scan_max}
        except NoRFound as exc:
            doc["bounds_error"] = f"NoRFound: {exc}"
    _echo(json.dumps(doc, indent=2))


@main.command("solve")
@click.option("--op", required=True, help="FracSymbol JSON.")
@click.option("--forcing", required=True, help="FunctionSpec JSON or catalog name.")
@click.option("--output", default="solution.field", show_default=True, callback=_file_name,
              help="Field file name inside the output directory.")
@click.pass_obj
@_computation
def solve_command(cfg: RunConfig, op, forcing, output):
    """Solve P(D)u = f through the parametrix and report residual support."""
    sym = _parse_symbol(op)
    if sym.dim != cfg.grid_dim:
        raise click.UsageError(
            f"operator dimension {sym.dim} needs -n {sym.dim} (and a grid size to match)"
        )
    grid = cfg.box(sym.dim)
    path = regular_file_target(cfg.outdir / output)
    res = solve_elliptic(sym, sample_separable(grid, _parse_func(forcing).value), cfg.cutoff_radius)
    _ensure_outdir(cfg)
    save_field(res.u, path)

    f_hat_sup, residual_sup, confined = res.confinement()
    _echo(json.dumps({
        "field_file": str(path),
        "cutoff_radius": res.parametrix.radius,
        "f_hat_sup": f_hat_sup,
        "residual_sup_outside": residual_sup,
        "confined": confined,
        "grid": {"dim": grid.dim, "m": grid.m, "length": grid.length},
    }, indent=2))


@main.command("sobolev")
@click.option("--field", "field_file", type=click.Path(path_type=Path), default=None,
              help="Field file written by solve.")
@click.option("--func", default=None, help="FunctionSpec JSON or catalog name.")
@click.option("--s", "s_order", type=float, default=None, help="Norm order to evaluate.")
@click.option("--min-radius", default=0.0, show_default=True,
              help="Lowest shell edge used by the regularity fit.")
@click.pass_obj
@_computation
def sobolev_command(cfg: RunConfig, field_file, func, s_order, min_radius):
    """Sobolev norm or regularity estimate of a field or catalog function."""
    if (field_file is None) == (func is None):
        raise click.UsageError("pass exactly one of --field and --func")
    if s_order is not None and not math.isfinite(s_order):
        raise click.UsageError(f"--s must be a finite number, got {s_order}")
    if not math.isfinite(min_radius):
        raise click.UsageError(f"--min-radius must be a finite number, got {min_radius}")
    source = click.get_current_context().get_parameter_source("min_radius")
    if s_order is not None and source is not ParameterSource.DEFAULT:
        raise click.UsageError("--min-radius sets the regularity fit; --s evaluates a norm without one")
    u = load_field(field_file) if field_file is not None else sample_separable(
        cfg.box(), _parse_func(func).value)
    if s_order is not None:
        _echo(_format_scalar(sobolev_norm(u, s_order)))
        return
    est = estimate_regularity(u, min_radius=min_radius)
    _echo(est.to_json())


@main.command("verify")
@click.option("--only", default=None, help="Comma-separated check ids (default: all).")
@click.option("--report", default="identity_report.json", show_default=True, callback=_file_name,
              help="Report file name inside the output directory.")
@click.pass_obj
@_computation
def verify_command(cfg: RunConfig, only, report):
    """Run the identity-check suite; nonzero exit if any check fails."""
    selector = None
    if only is not None:
        selector = {part.strip() for part in only.split(",") if part.strip()}
    path = regular_file_target(cfg.outdir / report)
    results = run_identity_suite(selector, cfg.verify)
    _ensure_outdir(cfg)
    write_identity_report(results, path)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        _echo(f"{r.check_id}: {status} (max_error={r.max_error:.6e}, tolerance={r.tolerance:g})")
    _echo(f"report: {path}")
    if not all(r.passed for r in results):
        sys.exit(1)


@main.group("experiment")
def experiment_group():
    """End-to-end numerical experiments."""


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "", text) or "row"


@experiment_group.command("regularity")
@click.option("--matrix", default=None,
              help='JSON {"operators": [symbol...], "forcings": [spec-or-name...]}.')
@click.option("--csv", "csv_name", default="regularity_gains.csv", show_default=True, callback=_file_name,
              help="Gain table file name inside the output directory.")
@click.pass_obj
@_computation
def experiment_regularity(cfg: RunConfig, matrix, csv_name):
    """Measure Sobolev gains over the operator/forcing matrix."""
    operators = forcings = None
    if matrix is not None:
        doc = json.loads(matrix)
        if "operators" in doc:
            operators = [FracSymbol.from_dict(d) for d in doc["operators"]]
        if "forcings" in doc:
            forcings = [
                FunctionSpec.from_dict(d) if isinstance(d, dict) else catalog_lookup(d)
                for d in doc["forcings"]
            ]
    table = regular_file_target(cfg.outdir / csv_name)
    rows = run_regularity_experiment(operators, forcings, cfg.verify)
    outdir = _ensure_outdir(cfg)
    write_experiment_csv(rows, table)

    for i, row in enumerate(rows):
        name = f"bands_{i:02d}_{_slug(row.operator_id)}_{_slug(row.forcing_id.split('[')[0])}.dat"
        lines = ["# shell_center forcing_energy solution_energy"]
        centers_f = row.shells_f.centers()
        centers_u = row.shells_u.centers()
        for c, ef, eu in zip(centers_f, row.shells_f.energy, row.shells_u.energy):
            lines.append(f"{c:.12g} {ef:.12g} {eu:.12g}")
        atomic_write_text(outdir / name, "\n".join(lines) + "\n")
        status = "pass" if row.within_tolerance else "FAIL"
        gain = "capped" if row.capped else f"{row.gain:+.4f} (expected {row.expected_gain:+.4f})"
        _echo(f"{row.operator_id} on {row.forcing_id}: {status}, gain {gain} [{name}]")

    _echo(f"table: {table}")
    scored = [r for r in rows if r.reliable]
    rate = sum(r.within_tolerance for r in scored) / len(scored) if scored else 0.0
    _echo(f"pass rate over reliable rows: {rate:.0%}")
    if rate < 0.9:
        sys.exit(1)
