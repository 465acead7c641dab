"""Executable verification: identity checks and regularity-gain experiments.

Every mathematical identity the library relies on has one named check
here, evaluated on fixed fixtures over at least three orders with its two
sides routed through different engines (quadrature, multiplier, contour,
closed form).  The experiment runner solves elliptic problems end to end
and compares the measured Sobolev gain of the solution against the symbol
order.  Everything is deterministic for a given config: fixtures are
fixed, and all sampling in the symbol machinery is seeded.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EdgeLeakageWarning, UnknownCheckId
from .fileio import atomic_write_text
from .fracops import (
    _gamma,
    DifferintOrder,
    QuadratureConfig,
    caputo_derivative,
    closed_form_oracle,
    differint,
    fourier_differint,
    frac_binomial,
    hankel_differintegral,
    rl_derivative,
    rl_integral,
)
from .functions import CallableFn, SampledCurve, bump, exponential, gaussian, polynomial, power, step
from .sobolev import ShellSpectrum, estimate_regularity, fit_regularity, windowed_shells
from .spectral import (
    BoxGrid,
    Field,
    apply_operator,
    build_parametrix,
    sample_field,
    sample_separable,
    solve_elliptic,
)
from .symbols import FracSymbol, SymbolTerm, symbol_eval

__all__ = [
    "CANONICAL_CHECK_IDS",
    "CheckResult",
    "ExperimentRow",
    "VerifyConfig",
    "run_identity_suite",
    "run_commutator_check",
    "run_regularity_experiment",
    "write_identity_report",
    "write_experiment_csv",
]


@dataclass(frozen=True)
class VerifyConfig:
    """Resolution and tolerance knobs shared by the checks and experiments."""

    grid_m: int = 4096
    grid_length: float = 40.0
    grid_m_2d: int = 512
    cutoff_radius: float = 4.0
    subintervals: int = 2048
    grading: float = 2.0
    bands_per_octave: int = 3
    gain_tolerance_1d: float = 0.15
    gain_tolerance_2d: float = 0.2

    def quadrature(self) -> QuadratureConfig:
        return QuadratureConfig(subintervals=self.subintervals, grading=self.grading)

    def box(self, dim: int = 1) -> BoxGrid:
        return BoxGrid(dim, self.grid_m if dim == 1 else self.grid_m_2d, self.grid_length)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity check; passed iff max_error <= tolerance."""

    check_id: str
    max_error: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _result(check_id: str, errs, tolerance: float, **details) -> CheckResult:
    worst = float(np.max(np.abs(np.asarray(errs, dtype=float))))
    return CheckResult(check_id, worst, tolerance, worst <= tolerance, details)


def _power_rule(p: float, nu: complex, x) -> np.ndarray:
    """Closed-form D^nu x^p at base 0, the oracle both series checks lean on."""
    return closed_form_oracle(power(p), DifferintOrder(nu, 0.0), np.asarray(x, dtype=float))


# -- identity checks ---------------------------------------------------------------
#
# Each entry: id -> (runner, tolerance, (engine for side A, engine for side B)).
# The registry is module-level so the suite can prove it covers every
# canonical id before running anything.

CANONICAL_CHECK_IDS = (
    "compose_integrals",
    "compose_derivatives",
    "caputo_rl_equiv",
    "fourier_lemma",
    "cauchy_equiv",
    "osler_product",
    "schwartz_conv",
    "parametrix_identity",
    "power_rule",
    "exp_eigen",
)

_CHECKS: dict = {}


def _check(check_id: str, tolerance: float, engines: tuple[str, str]):
    def wrap(fn):
        _CHECKS[check_id] = (fn, tolerance, engines)
        return fn

    return wrap


@_check("compose_integrals", 1e-6, ("product-integration quadrature", "closed-form power rule"))
def _check_compose_integrals(config: VerifyConfig, tolerance: float, engines) -> CheckResult:
    # D^mu(D^nu x^p) vs D^(mu+nu) x^p: the inner integral is itself a power
    # function, reconstructed exactly, so only the outer engine is tested.
    quad = config.quadrature()
    xs = np.array([0.8, 1.0, 1.3])
    fixtures = [(0.0, -0.5, -0.5), (1.5, -0.3, -0.9), (1.0, -1.1, -0.6)]
    errs, sample = [], None
    for p, mu, nu in fixtures:
        scale = _gamma(p + 1.0) / _gamma(p + 1.0 - nu)
        inner = power(p - nu)
        composed = scale * rl_integral(inner, DifferintOrder(mu, 0.0), xs, config=quad)
        direct = _power_rule(p, mu + nu, xs)
        errs.append(np.abs(composed - direct) / np.abs(direct))
        if p == 0.0:
            sample = complex(composed[1])
    return _result(
        "compose_integrals",
        np.concatenate(errs),
        tolerance,
        engines=engines,
        orders=[(mu, nu) for _, mu, nu in fixtures],
        sample_at_1=sample,
        subintervals=quad.subintervals,
    )


@_check(
    "compose_derivatives",
    1e-6,
    ("rl derivative (quadrature)", "rl integral of f^(n) plus boundary series (closed form)"),
)
def _check_compose_derivatives(config: VerifyConfig, tolerance: float, engines) -> CheckResult:
    # D^(mu+n) f = D^mu f^(n) + sum_k (x-c)^(-mu-k)/Gamma(1-mu-k) f^(n-k)(c).
    quad = config.quadrature()
    xs = np.array([0.7, 1.0, 1.4])
    fixtures = [
        (polynomial((1.0, 1.0)), (polynomial((1.0,)),), -0.5, 1),
        (polynomial((1.0, 1.0)), (polynomial((1.0,)),), -0.4, 1),
        (polynomial((1.0, 1.0, 1.0)), (polynomial((1.0, 2.0)), polynomial((2.0,))), -0.7, 2),
    ]
    errs, sample = [], None
    for f, derivs, mu, n in fixtures:
        lhs = rl_derivative(f, DifferintOrder(mu + n, 0.0), xs, config=quad)
        rhs = rl_integral(derivs[-1], DifferintOrder(mu, 0.0), xs, config=quad)
        chain = (f, *derivs)
        for k in range(1, n + 1):
            f_at_base = complex(chain[n - k].value(np.array([0.0]))[0])
            rhs = rhs + xs ** (-mu - k) / _gamma(1.0 - mu - k) * f_at_base
        errs.append(np.abs(lhs - rhs) / np.abs(rhs))
        if mu == -0.5:
            sample = complex(lhs[1])
    return _result(
        "compose_derivatives",
        np.concatenate(errs),
        tolerance,
        engines=engines,
        orders=[(mu, n) for _, _, mu, n in fixtures],
        sample_at_1=sample,
        subintervals=quad.subintervals,
    )


@_check("caputo_rl_equiv", 1e-6, ("caputo (integral of derivative)", "rl (derivative of integral)"))
def _check_caputo_rl(config: VerifyConfig, tolerance: float, engines) -> CheckResult:
    # The two derivative definitions agree when the lower-order initial
    # values vanish: x^2 at base 0, and any decaying function at base -inf.
    quad = config.quadrature()
    errs = []
    xs = np.array([0.8, 1.3])
    for nu in (0.5, 0.7, 1.5):
        c = rl_derivative(power(2.0), DifferintOrder(nu, 0.0), xs, config=quad)
        k = caputo_derivative(power(2.0), DifferintOrder(nu, 0.0), xs, config=quad)
        errs.append(np.abs(c - k) / np.abs(c))
    g = gaussian(0.0, 1.0)
    for nu in (0.5, 1.5):
        c = rl_derivative(g, DifferintOrder(nu, -math.inf), xs, config=quad)
        k = caputo_derivative(g, DifferintOrder(nu, -math.inf), xs, config=quad)
        errs.append(np.abs(c - k) / np.max(np.abs(c)))
    return _result(
        "caputo_rl_equiv",
        np.concatenate(errs),
        tolerance,
        engines=engines,
        orders=[0.5, 0.7, 1.5],
        bases=[0.0, "-inf"],
    )


def _dipole() -> CallableFn:
    """Zero-mean gaussian pair; zero mean keeps negative orders DC-safe."""

    def f(x):
        return np.exp(-((x - 1.0) ** 2)) - np.exp(-((x + 1.0) ** 2))

    def d1(x):
        return -2.0 * (x - 1.0) * np.exp(-((x - 1.0) ** 2)) + 2.0 * (x + 1.0) * np.exp(
            -((x + 1.0) ** 2)
        )

    def d2(x):
        return (4.0 * (x - 1.0) ** 2 - 2.0) * np.exp(-((x - 1.0) ** 2)) - (
            4.0 * (x + 1.0) ** 2 - 2.0
        ) * np.exp(-((x + 1.0) ** 2))

    return CallableFn(f, derivatives=(d1, d2), truncation=30.0, label_text="gaussian dipole")


@_check("fourier_lemma", 1e-4, ("product-integration quadrature", "fft multiplier"))
def _check_fourier_lemma(config: VerifyConfig, tolerance: float, engines) -> CheckResult:
    # D_+^nu on the line is the multiplier (-i lambda)^nu under the pinned
    # transform convention; compared in the interior where both engines
    # have settled.
    grid = config.box(1)
    xs = grid.axis()
    f = _dipole()
    interior = np.abs(xs) <= grid.length / 4.0
    curve = SampledCurve(float(xs[0]), grid.dx, f.value(xs))
    quad = config.quadrature()
    errs = []
    for nu in (0.0, -0.5, 0.5, 1.5):
        via_quad = differint(f, DifferintOrder(nu, -math.inf), xs, config=quad)
        via_mult = fourier_differint(curve, nu).values
        errs.append(np.abs(via_quad - via_mult)[interior])
    return _result(
        "fourier_lemma",
        np.concatenate(errs),
        tolerance,
        engines=engines,
        orders=[0.0, -0.5, 0.5, 1.5],
        grid_m=grid.m,
        grid_length=grid.length,
    )


@_check("cauchy_equiv", 1e-6, ("keyhole contour integral", "product-integration quadrature"))
def _check_cauchy_equiv(config: VerifyConfig, tolerance: float, engines) -> CheckResult:
    # The loop integral and the real-line definition agree wherever the
    # integrand is analytic around the base interval.  Both engines run
    # refined here so their own discretization stays far below tolerance.
    quad = QuadratureConfig(subintervals=4 * config.subintervals, grading=config.grading)
    g = gaussian(0.0, 1.0)
    errs = []
    for nu in (-0.4, 0.5, 1.3):
        for x in (0.8, 1.6):
            loop = hankel_differintegral(g, DifferintOrder(nu, 0.0), x, nodes=16384)
            line = complex(differint(g, DifferintOrder(nu, 0.0), np.array([x]), config=quad)[0])
            errs.append(abs(loop - line) / abs(line))
    return _result(
        "cauchy_equiv",
        errs,
        tolerance,
        engines=engines,
        orders=[-0.4, 0.5, 1.3],
        points=[0.8, 1.6],
        loop_nodes=16384,
    )


@_check(
    "osler_product",
    1e-10,
    ("binomial series of power-rule terms", "power rule on the product"),
)
def _check_osler_product(config: VerifyConfig, tolerance: float, engines) -> CheckResult:
    # D^nu(uv) = sum_k binom(nu,k) D^(nu-k)u D^k v; polynomial v makes the
    # series finite, so the identity is pure Gamma algebra.
    xs = np.array([1.0, 1.6])
    fixtures = [(1.0, 1, 0.5), (1.0, 1, -0.5), (2.0, 1, 1.3)]
    errs, sample = [], None
    for pu, pv, nu in fixtures:
        direct = _power_rule(pu + pv, nu, xs)
        series = np.zeros_like(xs, dtype=complex)
        for k in range(pv + 1):
            dv = math.prod(range(pv - k + 1, pv + 1)) * xs ** (pv - k)
            series = series + frac_binomial(nu, k) * _power_rule(pu, nu - k, xs) * dv
        errs.append(np.abs(series - direct) / np.abs(direct))
        if pu == 1.0 and nu == 0.5:
            sample = complex(series[0])
    return _result(
        "osler_product",
        np.concatenate(errs),
        tolerance,
        engines=engines,
        orders=[nu for _, _, nu in fixtures],
        sample_at_1=sample,
    )


@_check(
    "schwartz_conv",
    1e-5,
    ("quadrature derivative then linear convolve", "fft multiplier then linear convolve"),
)
def _check_schwartz_conv(config: VerifyConfig, tolerance: float, engines) -> CheckResult:
    # D_+^nu (f * g) commutes onto either factor; one side differentiates f
    # by quadrature, the other differentiates g by multiplier.  The
    # convolutions are linear (zero-padded), not periodic: the derivative
    # tails decay only algebraically, and wrapping them around the box
    # would swamp the tolerance, while in the interior the gaussian factor
    # annihilates whatever the truncation discards.  The multiplier pad is
    # raised far above its engine default for the same reason: its
    # periodization error floor sits near 1e-4 at the default.
    grid = BoxGrid(1, config.grid_m // 2, config.grid_length)
    xs = grid.axis()
    f, g = gaussian(0.0, 1.0), gaussian(0.5, 0.8)
    f_vals = f.value(xs)
    g_vals = g.value(xs)
    curve = SampledCurve(float(xs[0]), grid.dx, g_vals)
    interior = np.abs(xs) <= grid.length / 4.0
    quad = QuadratureConfig(subintervals=4 * config.subintervals, grading=config.grading)
    # scipy.signal costs about half a second to import and serves only here.
    from scipy.signal import fftconvolve

    errs = []
    for nu in (0.4, 0.5, 1.5):
        df = rl_derivative(f, DifferintOrder(nu, -math.inf), xs, config=quad)
        dg = fourier_differint(curve, nu, pad_factor=1024).values
        side_a = fftconvolve(df, g_vals, mode="same") * grid.dx
        side_b = fftconvolve(f_vals, dg, mode="same") * grid.dx
        errs.append(np.abs(side_a - side_b)[interior])
    return _result(
        "schwartz_conv",
        np.concatenate(errs),
        tolerance,
        engines=engines,
        orders=[0.4, 0.5, 1.5],
        grid_m=grid.m,
        grid_length=grid.length,
    )


@_check("parametrix_identity", 1e-13, ("symbol evaluation on the grid", "cutoff inverse construction"))
def _check_parametrix_identity(config: VerifyConfig, tolerance: float, engines) -> CheckResult:
    # P(lambda) E_hat(lambda) + chi(lambda) = 1 at every grid frequency.
    cases = [
        (FracSymbol(1, (SymbolTerm(1.0, (2.0,)),)), BoxGrid(1, 512, 40.0), 4.0),
        (FracSymbol(1, (SymbolTerm(1.0, (0.4,)),)), BoxGrid(1, 512, 40.0), 4.0),
        (
            FracSymbol(2, (SymbolTerm(1.0, (0.5, 0.0)), SymbolTerm(1.0, (0.0, 0.5)))),
            BoxGrid(2, 64, 20.0),
            3.0,
        ),
    ]
    errs = []
    for sym, grid, radius in cases:
        par = build_parametrix(sym, grid, radius)
        p_vals = symbol_eval(sym, grid.frequency_grid())
        errs.append(np.abs(p_vals * par.e_hat.values + par.chi.values - 1.0).ravel())
    return _result(
        "parametrix_identity",
        np.concatenate(errs),
        tolerance,
        engines=engines,
        orders=[2.0, 0.4, 0.5],
        grids=[(c[1].dim, c[1].m) for c in cases],
    )


@_check("power_rule", 1e-6, ("product-integration quadrature", "closed-form power rule"))
def _check_power_rule(config: VerifyConfig, tolerance: float, engines) -> CheckResult:
    quad = config.quadrature()
    xs = np.array([0.8, 1.25])
    errs = []
    for p in (0.5, 2.0):
        for nu in (-1.2, -0.5, 0.5, 1.2):
            got = differint(power(p), DifferintOrder(nu, 0.0), xs, config=quad)
            want = _power_rule(p, nu, xs)
            errs.append(np.abs(got - want) / np.abs(want))
    return _result(
        "power_rule",
        np.concatenate(errs),
        tolerance,
        engines=engines,
        orders=[-1.2, -0.5, 0.5, 1.2],
        powers=[0.5, 2.0],
        subintervals=quad.subintervals,
    )


@_check("exp_eigen", 1e-6, ("product-integration quadrature", "closed-form eigenvalue"))
def _check_exp_eigen(config: VerifyConfig, tolerance: float, engines) -> CheckResult:
    # e^{ax} is an eigenfunction from base -inf with eigenvalue a^nu.
    quad = config.quadrature()
    xs = np.array([-0.5, 0.0, 1.0])
    errs = []
    for a in (0.5, 1.0, 2.0):
        f = exponential(a)
        for nu in (-0.5, 0.5, 1.5):
            got = differint(f, DifferintOrder(nu, -math.inf), xs, config=quad)
            want = closed_form_oracle(f, DifferintOrder(nu, -math.inf), xs)
            errs.append(np.abs(got - want) / np.abs(want))
    return _result(
        "exp_eigen",
        np.concatenate(errs),
        tolerance,
        engines=engines,
        orders=[-0.5, 0.5, 1.5],
        rates=[0.5, 1.0, 2.0],
        subintervals=quad.subintervals,
    )


def run_identity_suite(
    selector: set[str] | None = None, config: VerifyConfig | None = None
) -> list[CheckResult]:
    """Run the named identity checks (all of them by default), in id order.

    Raises UnknownCheckId for a selector entry outside the canonical list,
    and refuses to run at all if any canonical check lacks an
    implementation.
    """
    missing = [cid for cid in CANONICAL_CHECK_IDS if cid not in _CHECKS]
    if missing:
        raise RuntimeError(f"unimplemented canonical checks: {', '.join(missing)}")
    if selector is None:
        chosen = list(CANONICAL_CHECK_IDS)
    else:
        if not selector:
            raise ValueError("check selector must be nonempty")
        unknown = sorted(set(selector) - set(CANONICAL_CHECK_IDS))
        if unknown:
            raise UnknownCheckId(
                f"unknown check ids: {', '.join(unknown)}; known: {', '.join(CANONICAL_CHECK_IDS)}"
            )
        chosen = [cid for cid in CANONICAL_CHECK_IDS if cid in selector]
    cfg = config if config is not None else VerifyConfig()
    results = []
    for cid in chosen:
        fn, tolerance, engines = _CHECKS[cid]
        results.append(fn(cfg, tolerance, engines))
    return results


# -- commutator check --------------------------------------------------------------


def run_commutator_check(
    alpha: float,
    u_spec=None,
    phi_spec=None,
    config: VerifyConfig | None = None,
    t: float | None = None,
) -> CheckResult:
    """Verify the smoothing of [D^alpha, phi] against multiplication.

    The commutator [D^alpha, phi]u = D^alpha(phi u) - phi D^alpha u gains a
    full order over D^alpha(phi u): regularity t - alpha + 1 versus
    t - alpha, checked with the shell estimator (0.2 slack each way).
    alpha = 1 is the classical product rule; with the lambda^alpha symbol
    convention (lambda = i(-i lambda)) the operator is i d/dx, so the
    commutator equals i phi' u exactly.  alpha = 0 commutes outright.

    Pass ``t`` when the regularity of ``u_spec`` is known (0.5 for the
    default step); otherwise it is estimated from the same shells.
    """
    if not 0.0 <= alpha <= 1.5:
        raise ValueError("commutator check covers alpha in [0, 1.5]")
    cfg = config if config is not None else VerifyConfig()
    grid = cfg.box(1)
    sym = FracSymbol(1, (SymbolTerm(1.0, (alpha,)),))

    if alpha in (0.0, 1.0):
        spec = u_spec if u_spec is not None else gaussian(0.0, 1.0)
        phi = phi_spec if phi_spec is not None else bump(0.0, 6.0)
        u = sample_field(grid, spec.value)
        phi_vals = phi.value(grid.axis())
        comm = (
            apply_operator(sym, Field(grid, phi_vals * u.values)).values
            - phi_vals * apply_operator(sym, u).values
        )
        if alpha == 0.0:
            reference = np.zeros_like(comm)
            tol = 1e-12
        else:
            reference = 1j * phi.derivative_values(grid.axis(), 1) * u.values
            tol = 1e-8
        err = float(np.max(np.abs(comm - reference)))
        return CheckResult(
            f"commutator_alpha_{alpha:g}",
            err,
            tol,
            err <= tol,
            {"alpha": alpha, "mode": "exact", "grid_m": grid.m},
        )

    spec = u_spec if u_spec is not None else step(-1.0, 1.0)
    phi = phi_spec if phi_spec is not None else bump(0.0, 6.0)
    u = sample_field(grid, spec.value)
    phi_vals = phi.value(grid.axis())
    phi_u = Field(grid, phi_vals * u.values)
    d_phi_u = apply_operator(sym, phi_u)
    comm = Field(grid, d_phi_u.values - phi_vals * apply_operator(sym, u).values)

    if t is None:
        t = estimate_regularity(u, bands_per_octave=cfg.bands_per_octave).s_star
    est_comm = estimate_regularity(comm, bands_per_octave=cfg.bands_per_octave)
    est_rough = estimate_regularity(d_phi_u, bands_per_octave=cfg.bands_per_octave)
    want_comm = (t - alpha + 1.0) - 0.2
    cap_rough = (t - alpha) + 0.2
    violation = max(want_comm - est_comm.s_star, est_rough.s_star - cap_rough, 0.0)
    ok = violation == 0.0 and est_comm.reliable and est_rough.reliable
    return CheckResult(
        f"commutator_alpha_{alpha:g}",
        violation,
        0.0,
        ok,
        {
            "alpha": alpha,
            "mode": "regularity",
            "t": t,
            "commutator_s_star": est_comm.s_star,
            "rough_s_star": est_rough.s_star,
            "commutator_floor": want_comm,
            "rough_ceiling": cap_rough,
            "reliable": est_comm.reliable and est_rough.reliable,
            "grid_m": grid.m,
        },
    )


# -- gain experiment ---------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRow:
    """One solve: measured regularity gain against the operator order.

    The shell spectra behind the two fits ride along (outside the CSV
    schema) so callers can plot the band decay without re-solving.
    """

    operator_id: str
    nu: float
    s_f: float
    s_u: float
    gain: float
    expected_gain: float
    within_tolerance: bool
    reliable: bool
    capped: bool
    residual_ok: bool
    tolerance: float
    forcing_id: str = ""
    shells_f: ShellSpectrum | None = field(default=None, repr=False)
    shells_u: ShellSpectrum | None = field(default=None, repr=False)

    def csv_row(self) -> str:
        cells = [self.operator_id]
        for v in (self.nu, self.s_f, self.s_u, self.gain, self.expected_gain):
            cells.append(f"{v:.12g}")
        cells.append(str(self.within_tolerance).lower())
        return ",".join(cells)


def _operator_label(sym: FracSymbol) -> str:
    parts = []
    for term in sym.terms:
        powers = [f"D{i + 1}^{a:g}" for i, a in enumerate(term.alpha) if a != 0.0]
        if sym.dim == 1:
            powers = [f"D^{a:g}" for a in term.alpha if a != 0.0]
        head = "*".join(powers) if powers else "1"
        c = term.coefficient
        if c == 1 and powers:
            parts.append(head)
        elif c.imag == 0:
            parts.append(f"{c.real:g}*{head}")
        else:
            parts.append(f"({c.real:g}{c.imag:+g}j)*{head}")
    return "+".join(parts)


def _default_operators() -> tuple[FracSymbol, ...]:
    mono = lambda a: FracSymbol(1, (SymbolTerm(1.0, (a,)),))
    frac_lap_2d = FracSymbol(2, (SymbolTerm(1.0, (0.5, 0.0)), SymbolTerm(1.0, (0.0, 0.5))))
    return (mono(0.4), mono(0.7), mono(1.3), mono(2.0), frac_lap_2d)


def run_regularity_experiment(
    operators=None, forcings=None, config: VerifyConfig | None = None
) -> list[ExperimentRow]:
    """Solve P(D)u = f over the matrix and measure the Sobolev gain.

    Forcing specs are one-dimensional; on higher-dimensional grids they
    enter as separable products along each axis (the square indicator is
    the product of two steps).  Rows with smooth forcing demonstrate
    hypoellipticity instead of a finite gain: both estimates must cap.
    Both regularity fits run over the same shells, lifted above twice the
    cutoff support so the parametrix plateau is invisible to them.
    """
    cfg = config if config is not None else VerifyConfig()
    ops = tuple(operators) if operators is not None else _default_operators()
    fs = tuple(forcings) if forcings is not None else (step(-1.0, 1.0), gaussian(0.0, 1.0))
    radius = cfg.cutoff_radius
    min_radius = 2.0 * (radius + 1.0)
    rows = []
    for sym in ops:
        grid = cfg.box(sym.dim)
        order = sym.order
        tol = cfg.gain_tolerance_1d if sym.dim == 1 else cfg.gain_tolerance_2d
        for f_spec in fs:
            f = sample_separable(grid, f_spec.value)
            res = solve_elliptic(sym, f, radius)
            residual_ok = res.confinement()[2]
            sh_f = windowed_shells(f, cfg.bands_per_octave)
            est_f = fit_regularity(sh_f, grid.dim, min_radius=min_radius)
            with warnings.catch_warnings():
                # The solution inherits slow tails from the cutoff kernel;
                # the estimator windows them away.  Its dead bands are
                # judged on the forcing's scale: the solve divides the
                # forcing's rounding noise by the symbol, so the solution's
                # own peak says nothing about where noise begins.
                warnings.simplefilter("ignore", EdgeLeakageWarning)
                sh_u = windowed_shells(res.u, cfg.bands_per_octave)
                est_u = fit_regularity(sh_u, grid.dim, min_radius=min_radius, floor=sh_f.floor())
            capped = est_f.capped or est_u.capped
            if capped:
                gain = math.nan
                ok = est_f.capped and est_u.capped
            else:
                gain = est_u.s_star - est_f.s_star
                ok = abs(gain - order) <= tol
            rows.append(
                ExperimentRow(
                    operator_id=_operator_label(sym),
                    nu=order,
                    s_f=est_f.s_star,
                    s_u=est_u.s_star,
                    gain=gain,
                    expected_gain=order,
                    within_tolerance=ok,
                    reliable=est_f.reliable and est_u.reliable,
                    capped=capped,
                    residual_ok=residual_ok,
                    tolerance=tol,
                    forcing_id=f_spec.label(),
                    shells_f=sh_f,
                    shells_u=sh_u,
                )
            )
    return rows


# -- reports -----------------------------------------------------------------------


def write_identity_report(results: list[CheckResult], path: str | Path) -> None:
    """JSON array of {check_id, max_error, tolerance, pass}."""
    atomic_write_text(path, json.dumps([r.to_dict() for r in results], indent=2) + "\n")


def write_experiment_csv(rows: list[ExperimentRow], path: str | Path) -> None:
    header = "operator_id,nu,s_f,s_u,gain,expected_gain,pass"
    atomic_write_text(path, "\n".join([header, *(r.csv_row() for r in rows)]) + "\n")
