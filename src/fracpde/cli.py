"""Command-line front end.

One validated :class:`RunConfig` (grid, quadrature, cutoff, tolerances,
output directory) feeds every subcommand.  Computation failures exit with
code 1 and the error class name on stderr; option misuse exits 2 via
click.  All numeric output carries at least twelve significant digits,
and every file lands atomically.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .errors import FracpdeError, NoRFound
from .fileio import atomic_write_text
from .fracops import (
    DifferintOrder,
    QuadratureConfig,
    caputo_derivative,
    differint,
    fourier_differint,
    hankel_differintegral,
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


@dataclass(frozen=True)
class RunConfig:
    """Run parameters shared by the subcommands, checked up front."""

    grid_m: int = 4096
    grid_length: float = 40.0
    grid_dim: int = 1
    subintervals: int = 2048
    grading: float = 2.0
    truncation: float | None = None
    cutoff_radius: float | None = None
    gain_tolerance_1d: float = 0.15
    gain_tolerance_2d: float = 0.2
    outdir: Path = Path(".")

    def validate(self) -> None:
        try:
            self.box()
            self.quadrature()
        except ValueError as exc:
            raise click.UsageError(str(exc)) from None
        if self.cutoff_radius is not None and not self.cutoff_radius > 0:
            raise click.UsageError("cutoff radius must be positive")
        if not (self.gain_tolerance_1d > 0 and self.gain_tolerance_2d > 0):
            raise click.UsageError("gain tolerances must be positive")

    def quadrature(self) -> QuadratureConfig:
        return QuadratureConfig(
            subintervals=self.subintervals,
            grading=self.grading,
            truncation_length=self.truncation,
        )

    def box(self, dim: int | None = None) -> BoxGrid:
        return BoxGrid(dim if dim is not None else self.grid_dim, self.grid_m, self.grid_length)

    def verify_config(self) -> VerifyConfig:
        return VerifyConfig(
            grid_m=self.grid_m,
            grid_length=self.grid_length,
            cutoff_radius=self.cutoff_radius if self.cutoff_radius is not None else 4.0,
            subintervals=self.subintervals,
            grading=self.grading,
            gain_tolerance_1d=self.gain_tolerance_1d,
            gain_tolerance_2d=self.gain_tolerance_2d,
        )


def _computation(fn):
    """Map library errors to exit code 1 with the class name on stderr."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (FracpdeError, ValueError) as exc:
            click.echo(f"{type(exc).__name__}: {exc}", err=True)
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


def _ensure_outdir(cfg: RunConfig) -> Path:
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    return cfg.outdir


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--grid-m", "-m", default=4096, show_default=True, help="Grid points per axis.")
@click.option("--grid-length", "-L", default=40.0, show_default=True, help="Box side length.")
@click.option("--grid-dim", "-n", default=1, show_default=True, help="Grid dimension.")
@click.option("--subintervals", "-N", default=2048, show_default=True,
              help="Quadrature subintervals.")
@click.option("--grading", default=2.0, show_default=True, help="Quadrature mesh grading.")
@click.option("--truncation", type=float, default=None,
              help="Tail truncation length for base -inf (default: automatic).")
@click.option("--cutoff-radius", "-R", type=float, default=None,
              help="Parametrix cutoff radius (default: bound scan).")
@click.option("--gain-tolerance-1d", default=0.15, show_default=True,
              help="Allowed |gain - order| on 1-d experiment rows.")
@click.option("--gain-tolerance-2d", default=0.2, show_default=True,
              help="Allowed |gain - order| on higher-dimensional rows.")
@click.option("--outdir", type=click.Path(path_type=Path), default=Path("."),
              envvar="FRACPDE_OUTDIR", show_default=True,
              help="Output directory (env: FRACPDE_OUTDIR).")
@click.pass_context
def main(ctx, grid_m, grid_length, grid_dim, subintervals, grading, truncation,
         cutoff_radius, gain_tolerance_1d, gain_tolerance_2d, outdir):
    """Fractional differintegrals, elliptic symbols, solves, and estimates."""
    cfg = RunConfig(
        grid_m=grid_m,
        grid_length=grid_length,
        grid_dim=grid_dim,
        subintervals=subintervals,
        grading=grading,
        truncation=truncation,
        cutoff_radius=cutoff_radius,
        gain_tolerance_1d=gain_tolerance_1d,
        gain_tolerance_2d=gain_tolerance_2d,
        outdir=outdir,
    )
    cfg.validate()
    ctx.obj = cfg


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
    f = _parse_func(func)
    try:
        order = DifferintOrder(nu, _parse_base(base))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    quad = cfg.quadrature()
    axis = cfg.box(1).axis()
    xs = np.array([at_x]) if at_x is not None else axis

    if method == "quadrature":
        vals = differint(f, order, xs, config=quad)
    elif method == "caputo":
        vals = caputo_derivative(f, order, xs, config=quad)
    elif method == "hankel":
        if at_x is None:
            raise click.UsageError("--method hankel evaluates single points; pass --at")
        vals = np.array([hankel_differintegral(f, order, at_x)])
    else:
        if not order.lower_infinite:
            raise click.UsageError("--method fourier needs --c -inf")
        curve = SampledCurve(float(axis[0]), float(axis[1] - axis[0]), np.asarray(f.value(axis)))
        out = fourier_differint(curve, nu)
        vals = out.value(xs) if at_x is not None else out.values

    if at_x is not None:
        click.echo(_format_scalar(vals[0]))
    else:
        vals = np.asarray(vals, dtype=complex)
        rows = (f"{x:.12g},{re:.12g},{im:.12g}"
                for x, re, im in zip(xs.tolist(), vals.real.tolist(), vals.imag.tolist()))
        click.echo("\n".join(["x,re,im", *rows]))


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
    click.echo(json.dumps(doc, indent=2))


@main.command("solve")
@click.option("--op", required=True, help="FracSymbol JSON.")
@click.option("--forcing", required=True, help="FunctionSpec JSON or catalog name.")
@click.option("--output", default="solution.field", show_default=True,
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
    res = solve_elliptic(sym, sample_separable(grid, _parse_func(forcing).value), cfg.cutoff_radius)
    path = _ensure_outdir(cfg) / output
    save_field(res.u, path)

    f_hat_sup, residual_sup, confined = res.confinement()
    click.echo(json.dumps({
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
@click.option("--bands-per-octave", type=click.IntRange(min=1), default=3, show_default=True)
@click.pass_obj
@_computation
def sobolev_command(cfg: RunConfig, field_file, func, s_order, min_radius, bands_per_octave):
    """Sobolev norm or regularity estimate of a field or catalog function."""
    if (field_file is None) == (func is None):
        raise click.UsageError("pass exactly one of --field and --func")
    u = load_field(field_file) if field_file is not None else sample_separable(
        cfg.box(), _parse_func(func).value)
    if s_order is not None:
        click.echo(_format_scalar(sobolev_norm(u, s_order)))
        return
    est = estimate_regularity(u, bands_per_octave=bands_per_octave, min_radius=min_radius)
    click.echo(est.to_json())


@main.command("verify")
@click.option("--only", default=None, help="Comma-separated check ids (default: all).")
@click.option("--report", default="identity_report.json", show_default=True,
              help="Report file name inside the output directory.")
@click.pass_obj
@_computation
def verify_command(cfg: RunConfig, only, report):
    """Run the identity-check suite; nonzero exit if any check fails."""
    selector = None
    if only is not None:
        selector = {part.strip() for part in only.split(",") if part.strip()}
    results = run_identity_suite(selector, cfg.verify_config())
    path = _ensure_outdir(cfg) / report
    write_identity_report(results, path)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        click.echo(f"{r.check_id}: {status} (max_error={r.max_error:.6e}, tolerance={r.tolerance:g})")
    click.echo(f"report: {path}")
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
@click.option("--csv", "csv_name", default="regularity_gains.csv", show_default=True,
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
    rows = run_regularity_experiment(operators, forcings, cfg.verify_config())
    outdir = _ensure_outdir(cfg)
    table = outdir / csv_name
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
        click.echo(f"{row.operator_id} on {row.forcing_id}: {status}, gain {gain} [{name}]")

    click.echo(f"table: {table}")
    scored = [r for r in rows if r.reliable]
    rate = sum(r.within_tolerance for r in scored) / len(scored) if scored else 0.0
    click.echo(f"pass rate over reliable rows: {rate:.0%}")
    if rate < 0.9:
        sys.exit(1)
