"""Acceptance gate: every contract-level claim, one test and one line each.

Each test evaluates its claim at the stated tolerance, prints a single
``PASS``/``FAIL`` summary line (visible under ``pytest -s``), and then
asserts.  The expensive shared computations (identity suite, gain
experiment) run once per session through module fixtures.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from fracpde.cli import main as cli_main
from fracpde.fracops import (
    DifferintOrder,
    QuadratureConfig,
    closed_form_oracle,
    differint,
    fourier_differint,
    hankel_differintegral,
    rl_derivative,
    rl_integral,
)
from fracpde.functions import SampledCurve, exponential, gaussian, power, step
from fracpde.sobolev import estimate_regularity
from fracpde.spectral import BoxGrid, SpectralField, inverse, sample_field
from fracpde.symbols import (
    FracSymbol,
    SymbolTerm,
    check_ellipticity,
    estimate_bounds,
    principal_symbol,
    symbol_eval,
)
from fracpde.verify import (
    run_commutator_check,
    run_identity_suite,
    run_regularity_experiment,
)

GRID = BoxGrid(1, 4096, 40.0)


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _mono(alpha: float, dim: int = 1) -> FracSymbol:
    terms = tuple(
        SymbolTerm(1.0, tuple(alpha if j == i else 0.0 for j in range(dim)))
        for i in range(dim)
    )
    return FracSymbol(dim, terms)


@pytest.fixture(scope="module")
def suite():
    return run_identity_suite()


@pytest.fixture(scope="module")
def experiment():
    start = time.perf_counter()
    rows = run_regularity_experiment()
    return rows, time.perf_counter() - start


def test_closed_form_oracle_agreement():
    quad = QuadratureConfig(subintervals=2048)
    xs = np.array([0.5, 1.0, 2.0])
    orders = (-1.2, -0.5, -0.3, 0.3, 0.5, 1.2)
    worst = 0.0
    for p in (0.0, 0.5, 1.0, 2.0):
        for nu in orders:
            o = DifferintOrder(nu, 0.0)
            engine = rl_integral if nu < 0 else rl_derivative
            got = engine(power(p), o, xs, config=quad)
            want = closed_form_oracle(power(p), o, xs)
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    for a in (0.5, 1.0, 2.0):
        for nu in orders:
            o = DifferintOrder(nu, -math.inf)
            engine = rl_integral if nu < 0 else rl_derivative
            got = engine(exponential(a), o, xs, config=quad)
            want = closed_form_oracle(exponential(a), o, xs)
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))

    # Observed convergence rate: error envelope over mixed fixtures as the
    # mesh doubles, least-squares slope in log-log.
    sizes = (128, 256, 512, 1024, 2048)
    cases = [
        (power(0.5), DifferintOrder(0.5, 0.0)),
        (power(0.5), DifferintOrder(-0.5, 0.0)),
        (power(2.0), DifferintOrder(1.2, 0.0)),
        (power(2.0), DifferintOrder(-1.2, 0.0)),
        (exponential(1.0), DifferintOrder(0.5, -math.inf)),
        (exponential(1.0), DifferintOrder(-0.5, -math.inf)),
    ]
    envelope = []
    for n in sizes:
        cfg = QuadratureConfig(subintervals=n)
        errs = [
            float(np.max(np.abs(
                differint(f, o, xs, config=cfg) - closed_form_oracle(f, o, xs)
            )))
            for f, o in cases
        ]
        envelope.append(max(errs))
    slope = float(np.polyfit(np.log(sizes), np.log(envelope), 1)[0])

    ok = worst <= 1e-6 and slope <= -1.9
    _criterion(
        "closed_form_oracle_agreement",
        ok,
        f"max rel err {worst:.3e} (tol 1e-06), convergence slope {slope:+.2f} (need <= -1.9)",
    )


def test_cross_engine_agreement():
    axis = GRID.axis()
    interior = np.abs(axis) <= GRID.length / 4.0
    f = gaussian(0.0, 1.0)
    curve = SampledCurve(float(axis[0]), float(axis[1] - axis[0]), np.asarray(f.value(axis)))
    worst_fourier = 0.0
    for nu in (0.5, 1.5):
        order = DifferintOrder(nu, -math.inf)
        via_multiplier = fourier_differint(curve, nu).values[interior]
        via_quadrature = differint(f, order, axis[interior])
        worst_fourier = max(worst_fourier, float(np.max(np.abs(via_multiplier - via_quadrature))))

    quad = QuadratureConfig(subintervals=8192)
    worst_hankel = 0.0
    for nu in (-0.4, 0.5, 1.3):
        order = DifferintOrder(nu, 0.0)
        for x in (0.8, 1.6):
            loop = hankel_differintegral(f, order, x, nodes=16384)
            direct = differint(f, order, x, config=quad)
            worst_hankel = max(worst_hankel, abs(loop - direct))

    ok = worst_fourier <= 1e-4 and worst_hankel <= 1e-6
    _criterion(
        "cross_engine_agreement",
        ok,
        f"fourier vs quadrature {worst_fourier:.3e} (tol 1e-04), "
        f"loop vs direct {worst_hankel:.3e} (tol 1e-06)",
    )


def test_identity_suite_green(suite, tmp_path):
    by_id = {r.check_id: r for r in suite}
    pinned = {"osler_product": 1e-10, "schwartz_conv": 1e-5, "parametrix_identity": 1e-13}
    tolerances_held = all(by_id[cid].tolerance == tol for cid, tol in pinned.items())
    cli = CliRunner().invoke(cli_main, ["--outdir", str(tmp_path), "verify"])
    ok = all(r.passed for r in suite) and tolerances_held and cli.exit_code == 0
    worst = max(r.max_error / r.tolerance for r in suite)
    _criterion(
        "identity_suite_green",
        ok,
        f"{sum(r.passed for r in suite)}/{len(suite)} checks pass, "
        f"worst error at {worst:.1%} of budget, verify exit {cli.exit_code}",
    )


def test_symbol_classification_and_bounds():
    verdicts = [
        check_ellipticity(_mono(alpha, dim)).elliptic
        for alpha in (0.3, 0.5, 0.8)
        for dim in (1, 2)
    ]
    saddle = FracSymbol(2, (SymbolTerm(1.0, (0.5, 0.0)), SymbolTerm(-1.0, (0.0, 0.5))))
    report = check_ellipticity(saddle)
    at_witness = abs(symbol_eval(principal_symbol(saddle), np.array(report.witness)))

    est = estimate_bounds(FracSymbol(1, (SymbolTerm(1.0, (2.0,)),)))
    # inf over |lambda| >= 1 of lambda^2 / (1 + lambda^2) is 1/2, at the edge.
    bound_ok = abs(est.lower - 0.5) <= 0.05 * 0.5

    ok = all(verdicts) and not report.elliptic and at_witness <= 1e-9 and bound_ok
    _criterion(
        "symbol_classification_and_bounds",
        ok,
        f"{sum(verdicts)}/6 fractional Laplacians elliptic, saddle witness "
        f"|sigma_P| = {at_witness:.1e} (tol 1e-09), C = {est.lower:.4f} (want 0.5 +- 5%)",
    )


def test_regularity_estimator_calibration():
    est_step = estimate_regularity(sample_field(GRID, step(-1.0, 1.0).value))
    lam = GRID.frequency_radii()
    est_lorentz = estimate_regularity(inverse(SpectralField(GRID, 1.0 / (1.0 + lam**2))))
    est_smooth = estimate_regularity(sample_field(GRID, gaussian(0.0, 1.0).value))

    ok = (
        abs(est_step.s_star - 0.5) <= 0.1
        and abs(est_lorentz.s_star - 1.5) <= 0.1
        and est_smooth.capped
    )
    _criterion(
        "regularity_estimator_calibration",
        ok,
        f"step s* = {est_step.s_star:.3f} (want 0.5 +- 0.1), lorentzian s* = "
        f"{est_lorentz.s_star:.3f} (want 1.5 +- 0.1), gaussian capped = {est_smooth.capped}",
    )


def test_sobolev_gain_experiment(experiment):
    rows, elapsed = experiment
    measured = [r for r in rows if not r.capped]
    gaps = {r.operator_id: abs(r.gain - r.expected_gain) for r in measured}
    budgets = {r.operator_id: r.tolerance for r in measured}
    gain_ok = all(gaps[op] <= budgets[op] for op in gaps)
    rate = sum(r.within_tolerance for r in rows) / len(rows)

    ok = gain_ok and rate >= 0.9 and elapsed <= 60.0
    worst_op = max(gaps, key=lambda op: gaps[op] / budgets[op])
    _criterion(
        "sobolev_gain_experiment",
        ok,
        f"{len(measured)} measured gains within tolerance (worst {worst_op}: "
        f"off by {gaps[worst_op]:.4f} of {budgets[worst_op]:.2f}), row pass rate "
        f"{rate:.0%} (need >= 90%), runtime {elapsed:.1f}s (limit 60s)",
    )


def test_commutator_smoothing_gap():
    frac = run_commutator_check(0.6)
    comm_s = frac.details["commutator_s_star"]
    rough_s = frac.details["rough_s_star"]
    first_order = run_commutator_check(1.0)

    ok = (
        frac.passed
        and comm_s >= 0.7
        and rough_s <= 0.1
        and first_order.max_error <= 1e-8
    )
    _criterion(
        "commutator_smoothing_gap",
        ok,
        f"alpha 0.6: commutator s* = {comm_s:.3f} (need >= 0.7) vs rough part "
        f"s* = {rough_s:.3f} (need <= 0.1); alpha 1 vs i*phi'*u: "
        f"{first_order.max_error:.1e} (tol 1e-08)",
    )


def test_solver_residual_confinement(experiment):
    rows, _ = experiment
    confined = [r.residual_ok for r in rows]
    ok = all(confined)
    _criterion(
        "solver_residual_confinement",
        ok,
        f"residual spectrum above cutoff+1 within 1e-12 * sup|f_hat| on "
        f"{sum(confined)}/{len(rows)} rows",
    )
