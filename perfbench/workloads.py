"""Seeded command streams for the three workloads, and each command's reference check.

A workload is an endless sequence of rounds.  Every round has the same
mix of command kinds; only the parameters come from the seed.  The
program sees nothing but the argv lists built here.

Traps the generators steer around (measured; none is fixed here):

* a finite ``--c`` with ``--grid`` exits 1 with ``DomainOrder``, because the
  grid spans ``[-L/2, L/2)``: every curve uses ``--c -inf``;
* ``step`` under a derivative (nu >= 0) raises ``NotSmoothEnough``: steps
  only appear as solve forcings;
* on a 3-D ``m=128, L=40`` box the shells stop at 0.75 Nyquist (about 7.5),
  so ``sobolev --min-radius 10`` raises ``TooFewBands``: the 3-D box here
  is ``L=20`` (shells up to about 15) and the fit starts at radius 4, twice
  the cutoff support ``R + 1`` of these symbols (``R = 1``);
* the first ``differint --grid`` in a process can take up to twice as long
  as later ones: each workload runs one untimed warm-up command during
  set-up (see ``warmup``), so the timed loop starts warm.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# differint --grid uses the CLI default box: 4096 points on [-20, 20).
CURVE_M, CURVE_L = 4096, 40.0
# Compare curves where both engines have settled, as fourier_lemma does.
INTERIOR = CURVE_L / 4.0
WHOLE_LINE_TOL = 1e-4   # fourier_lemma
EXP_TOL = 1e-6          # exp_eigen, relative
GAIN_TOL = 0.2          # CLI default --gain-tolerance-2d
RESIDUAL_FACTOR = 1e-12 # the solve command's own confinement threshold
EQUATION_TOL = 1e-13    # parametrix_identity: P * E_hat + chi = 1
SOBOLEV_MIN_RADIUS = 4.0

# Orders stay at least 0.1 away from the integers.
POS_LOW, POS_HIGH = (0.2, 0.9), (1.1, 1.4)
NEG = ((-1.4, -1.1), (-0.9, -0.2))
ANY = NEG + (POS_LOW, POS_HIGH)
# Multiplier commands: DC-safe (nu > 0) and, at the default pad, within
# tolerance only for nu >= about 0.6 on these widths (see README).
FOURIER = ((0.7, 0.9), (1.1, 1.4))
BUMP = ((0.2, 0.8),)
SOLVE_ALPHA = ((0.3, 0.8), (1.2, 1.8))


@dataclass
class Outcome:
    ok: bool
    tol_used: dict = field(default_factory=dict)
    message: str = ""


@dataclass
class Command:
    argv: list
    kind: str
    check: object                      # callable(code, stdout) -> Outcome
    before: object = None              # untimed preparation, e.g. removing a stale report
    check_id: str | None = None


def _draw(rng, bands) -> float:
    widths = np.array([hi - lo for lo, hi in bands])
    lo, hi = bands[int(rng.choice(len(bands), p=widths / widths.sum()))]
    return round(float(rng.uniform(lo, hi)), 6)


def _fail(msg: str) -> Outcome:
    return Outcome(False, {}, msg)


# -- curves ------------------------------------------------------------------------


def _parse_curve(stdout: str):
    lines = stdout.strip().split("\n")
    if not lines or lines[0] != "x,re,im" or len(lines) != CURVE_M + 1:
        return None
    data = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    return data[:, 0], data[:, 1] + 1j * data[:, 2]


def _curve_axis() -> np.ndarray:
    dx = CURVE_L / CURVE_M
    return -CURVE_L / 2.0 + dx * np.arange(CURVE_M)


def _mp_function(spec: dict):
    """The catalog function written with mpmath operations.

    mpmath differentiates its quadrature numerically at raised precision; a
    float-wrapped callable defeats that and returns values off by 1e8.
    """
    import mpmath as mp

    if spec["kind"] == "gaussian":
        c, w = mp.mpf(spec["center"]), mp.mpf(spec["width"])
        return lambda t: mp.exp(-((t - c) / w) ** 2 / 2)
    raise ValueError(f"no mpmath form for {spec['kind']}")


class CurveCheck:
    """Compare a ``differint --grid`` curve against an engine it does not use."""

    def __init__(self, spec: dict, nu: float, ref: str, probes=()):
        self.spec, self.nu, self.ref, self.probes = spec, nu, ref, tuple(probes)

    def __call__(self, code: int, stdout: str) -> Outcome:
        from fracpde import DifferintOrder, FunctionSpec, SampledCurve, closed_form_oracle, fourier_differint

        if code != 0:
            return _fail(f"exit {code}")
        parsed = _parse_curve(stdout)
        if parsed is None:
            return _fail("malformed CSV")
        x, vals = parsed
        axis = _curve_axis()
        if np.max(np.abs(x - axis)) > 1e-9:
            return _fail("x column is not the grid")
        if not np.all(np.isfinite(vals)):
            return _fail("non-finite values")
        f = FunctionSpec.from_dict(self.spec)
        inner = np.abs(axis) <= INTERIOR
        if self.ref == "closed":
            want = closed_form_oracle(f, DifferintOrder(self.nu, -math.inf), axis)
            err, tol, label = float(np.max(np.abs(vals - want) / np.abs(want))), EXP_TOL, "exp"
        elif self.ref == "fourier":
            # The default pad leaves a periodization error near 1e-3 at
            # small orders; the reference pads far enough to sit well below
            # the tolerance it checks.
            pad = 1024 if self.nu < 0.35 else 256
            curve = SampledCurve(float(axis[0]), CURVE_L / CURVE_M, f.value(axis))
            want = fourier_differint(curve, self.nu, pad_factor=pad).values
            diff = np.abs(vals - want)[inner]
            err, tol, label = float(diff.max() / np.abs(want[inner]).max()), WHOLE_LINE_TOL, "whole_line"
        else:
            import mpmath as mp

            fm = _mp_function(self.spec)
            with mp.workdps(10):
                want = np.array([complex(mp.differint(fm, float(axis[i]), self.nu, x0=-mp.inf))
                                 for i in self.probes])
            peak = float(np.abs(vals[inner]).max())
            err, tol, label = float(np.max(np.abs(vals[list(self.probes)] - want)) / peak), \
                WHOLE_LINE_TOL, "whole_line"
        share = err / tol
        return Outcome(share <= 1.0, {f"curve.{label}": share},
                       "" if share <= 1.0 else f"error {err:.3e} over tolerance {tol:g}")


def _gaussian(rng) -> dict:
    return {"kind": "gaussian", "center": round(float(rng.uniform(-2.0, 2.0)), 4),
            "width": round(float(rng.uniform(1.0, 2.0)), 4)}


def _probe_points(rng, spec: dict, count: int = 2) -> list[int]:
    """Grid indices within three widths of the centre, inside the compared interior."""
    axis = _curve_axis()
    c, w = spec["center"], spec["width"]
    near = np.flatnonzero((np.abs(axis - c) <= 3.0 * w) & (np.abs(axis) <= INTERIOR))
    return sorted(int(i) for i in rng.choice(near, size=count, replace=False))


def _differint(spec: dict, nu: float, method: str) -> list:
    return ["differint", "--func", json.dumps(spec), "--nu", repr(nu), "--c", "-inf",
            "--method", method, "--grid"]


def curves_round(rng, index: int) -> list:
    """One round of nine curves.

    Order bands rotate with the round index, so every run of four rounds
    draws from each band equally often.  One exponential order comes from
    [-1.4, -1.1] in every round: there the quadrature spends the most
    tolerance (0.6-0.8 of 1e-6, independent of the rate), and four draws
    per run pin the largest share near the top of that band.
    """
    cmds = []

    def add(spec, nu, method, ref, probes=()):
        cmds.append(Command(_differint(spec, nu, method), f"differint-{method}",
                            CurveCheck(spec, nu, ref, probes)))

    def band(bands):
        return (bands[index % len(bands)],)

    def exponential():
        return {"kind": "exponential", "a": round(float(rng.uniform(0.5, 2.0)), 4)}

    add(_gaussian(rng), _draw(rng, (POS_LOW,)), "quadrature", "fourier")
    add(_gaussian(rng), _draw(rng, (POS_HIGH,)), "quadrature", "fourier")
    g = _gaussian(rng)
    add(g, _draw(rng, band(NEG)), "quadrature", "mpmath", _probe_points(rng, g))
    add(exponential(), _draw(rng, NEG[:1]), "quadrature", "closed")
    add(exponential(), _draw(rng, band((NEG[1], POS_LOW, POS_HIGH))), "quadrature", "closed")
    add(_gaussian(rng), _draw(rng, band((POS_LOW, POS_HIGH))), "caputo", "fourier")
    add(exponential(), _draw(rng, band((POS_LOW, POS_HIGH))), "caputo", "closed")
    g = _gaussian(rng)
    add(g, _draw(rng, band(FOURIER)), "fourier", "mpmath", _probe_points(rng, g))
    # The grid crosses the bump's upper support end, so the batch mixes
    # points inside and above the support and takes the stencil path.
    bump = {"kind": "bump", "center": round(float(rng.uniform(-0.5, 0.5)), 4),
            "radius": round(float(rng.uniform(1.5, 2.5)), 4)}
    add(bump, _draw(rng, BUMP), "quadrature", "fourier")
    order = rng.permutation(len(cmds))
    return [cmds[i] for i in order]


# -- solve ---------------------------------------------------------------------------

BOXES = {2: ("2048", "40"), 3: ("128", "20")}


def _operator(rng, dim: int) -> tuple[dict, float]:
    """``sum_i c_i D_i^alpha``: elliptic for alpha away from the odd integers."""
    alpha = _draw(rng, SOLVE_ALPHA)
    terms = []
    for i in range(dim):
        a = [0.0] * dim
        a[i] = alpha
        terms.append({"c": [round(float(rng.uniform(0.5, 2.0)), 4), 0.0], "alpha": a})
    return {"dim": dim, "terms": terms}, alpha


def _forcing(rng, kind: str) -> dict:
    if kind == "step":
        return {"kind": "step", "a": round(float(rng.uniform(-2.0, -0.5)), 4),
                "b": round(float(rng.uniform(0.5, 2.0)), 4)}
    return {"kind": "bump", "center": round(float(rng.uniform(-0.5, 0.5)), 4),
            "radius": round(float(rng.uniform(1.0, 2.0)), 4)}


def _read_field(path: str) -> np.ndarray:
    """A field file read without the library: JSON header line, then raw <c16."""
    with open(path, "rb") as fh:
        raw = fh.read()
    cut = raw.index(b"\n")
    head = json.loads(raw[:cut])
    return np.frombuffer(raw[cut + 1:], dtype="<c16").reshape((head["m"],) * head["dim"])


def _branch_power(lam: np.ndarray, alpha: float) -> np.ndarray:
    """lam^alpha continued through the upper half plane (lam < 0 gets e^(i pi alpha))."""
    out = np.zeros(lam.shape, dtype=complex)
    out[lam > 0] = lam[lam > 0] ** alpha
    out[lam < 0] = np.abs(lam[lam < 0]) ** alpha * np.exp(1j * math.pi * alpha)
    return out


def _separable(forcing: dict, axis: np.ndarray, dim: int) -> np.ndarray:
    if forcing["kind"] == "step":
        v = ((axis >= forcing["a"]) & (axis <= forcing["b"])).astype(float)
    else:
        r = (axis - forcing["center"]) / forcing["radius"]
        v = np.zeros_like(axis)
        inside = np.abs(r) < 1.0
        v[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    out = v
    for k in range(1, dim):
        out = out[..., None] * v.reshape((1,) * k + (-1,))
    return out


def equation_error(state: dict, radius: float) -> float:
    """max |u_hat - f_hat / P(lam)| above the cutoff support, over max |u_hat|.

    Written with numpy alone: the solution is read from its file, the
    forcing sampled and the symbol evaluated here.  Above ``radius + 1``
    the parametrix inverts the symbol exactly, so only rounding remains.
    Comparing ``u_hat`` with ``f_hat / P`` rather than ``P u_hat`` with
    ``f_hat`` keeps the rounding from being scaled by ``|lam|^alpha``.
    """
    dim, op = state["dim"], state["op"]
    m, length = int(BOXES[dim][0]), float(BOXES[dim][1])
    u_hat = np.fft.ifftn(_read_field(state["field"]))
    axis = -length / 2.0 + (length / m) * np.arange(m)
    f_hat = np.fft.ifftn(_separable(state["forcing"], axis, dim))
    lam = 2.0 * math.pi * np.fft.fftfreq(m, d=length / m)
    p = np.zeros(u_hat.shape, dtype=complex)
    rho2 = np.zeros(u_hat.shape)
    for i, term in enumerate(op["terms"]):
        shape = [1] * dim
        shape[i] = m
        p = p + complex(*term["c"]) * _branch_power(lam, term["alpha"][i]).reshape(shape)
        rho2 = rho2 + (lam**2).reshape(shape)
    above = rho2 > (radius + 1.0) ** 2
    return float(np.max(np.abs(u_hat[above] - f_hat[above] / p[above])) / np.max(np.abs(u_hat)))


class SolveCheck:
    """Residual confinement from the command's JSON, and the equation above the cutoff."""

    def __init__(self, state: dict):
        self.state = state

    def __call__(self, code: int, stdout: str) -> Outcome:
        if code != 0:
            return _fail(f"exit {code}")
        try:
            doc = json.loads(stdout)
        except ValueError:
            return _fail("output is not JSON")
        radius = self.state["radius"] = doc["cutoff_radius"]
        residual, bound = doc["residual_sup_outside"], RESIDUAL_FACTOR * doc["f_hat_sup"]
        if not doc["confined"] or residual > bound:
            return _fail(f"residual {residual:.3e} escapes the cutoff (bound {bound:.3e})")
        share = equation_error(self.state, radius) / EQUATION_TOL
        return Outcome(share <= 1.0, {"solve.residual": residual / bound, "solve.equation": share},
                       "" if share <= 1.0 else f"u misses f / P above the cutoff by {share:.2f} of the tolerance")


class SobolevCheck:
    """Fit sanity, and the measured gain ``s_u - s_f`` for step forcings where the fit is reliable.

    Reliable means the estimator says so and the fit spans at least two
    octaves (six shells at three per octave); the 3-D m=128 box gives five.
    The gain share is recorded as ``fit.gain``: it follows the random draw
    by up to 0.4 between seeds, so it decides pass or fail but stays out of
    ``tol_used_max``.
    """

    MIN_SHELLS = 6

    def __init__(self, state: dict):
        self.state = state

    def __call__(self, code: int, stdout: str) -> Outcome:
        st = self.state
        try:
            os.unlink(st["field"])
        except FileNotFoundError:
            pass
        if code != 0:
            return _fail(f"exit {code}")
        try:
            est = json.loads(stdout)
        except ValueError:
            return _fail("output is not JSON")
        if 2.0 * (st.get("radius", math.inf) + 1.0) > SOBOLEV_MIN_RADIUS:
            return _fail("fit starts inside the parametrix cutoff")
        lo, hi = est["bands_used"]
        if (st["forcing"]["kind"] != "step" or not est["reliable"] or est["capped"]
                or hi - lo + 1 < self.MIN_SHELLS):
            # A bump is smooth: its spectrum follows no power law, so a fitted
            # exponent is not a regularity and there is no gain to compare.
            return Outcome(True)
        from fracpde import BoxGrid, FunctionSpec, estimate_regularity, sample_field

        spec = FunctionSpec.from_dict(st["forcing"])
        m, length = BOXES[st["dim"]]
        grid = BoxGrid(st["dim"], int(m), float(length))
        f = sample_field(grid, lambda *axes: np.prod([spec.value(ax) for ax in axes], axis=0))
        s_f = estimate_regularity(f, min_radius=SOBOLEV_MIN_RADIUS).s_star
        gap = abs(est["s_star"] - s_f - st["alpha"])
        share = gap / GAIN_TOL
        return Outcome(share <= 1.0, {"fit.gain": share},
                       "" if share <= 1.0 else f"gain {est['s_star'] - s_f:.3f} vs order {st['alpha']}")


class SolveStream:
    """Rounds of one 2-D and one 3-D solve, each followed by ``sobolev --field``.

    Operators, forcings and radii never repeat, so nothing is there for a
    parametrix cache to reuse.
    """

    def __init__(self, workdir: str):
        self.workdir, self.count = workdir, 0

    def round(self, rng, index: int) -> list:
        cmds = []
        kinds = ("step", "bump") if index % 2 == 0 else ("bump", "step")
        for dim, fkind in zip((2, 3), kinds):
            op, alpha = _operator(rng, dim)
            forcing = _forcing(rng, fkind)
            name = f"u{self.count:04d}.field"
            self.count += 1
            path = os.path.join(self.workdir, name)
            state = {"dim": dim, "alpha": alpha, "op": op, "forcing": forcing, "field": path}
            m, length = BOXES[dim]
            cmds.append(Command(
                ["-n", str(dim), "-m", m, "-L", length, "--outdir", self.workdir, "solve",
                 "--op", json.dumps(op), "--forcing", json.dumps(forcing), "--output", name],
                f"solve-{dim}d", SolveCheck(state)))
            cmds.append(Command(
                ["sobolev", "--field", path, "--min-radius", repr(SOBOLEV_MIN_RADIUS)],
                f"sobolev-{dim}d", SobolevCheck(state)))
        return cmds


# -- verify --------------------------------------------------------------------------

CHECK_IDS = ("compose_integrals", "compose_derivatives", "caputo_rl_equiv", "fourier_lemma",
             "cauchy_equiv", "osler_product", "schwartz_conv", "parametrix_identity",
             "power_rule", "exp_eigen")


def _mono(alpha: float) -> dict:
    return {"dim": 1, "terms": [{"c": [1.0, 0.0], "alpha": [alpha]}]}


# The library's default experiment operators, one command each.
GAIN_OPERATORS = (
    ("D0.4", _mono(0.4)),
    ("D0.7", _mono(0.7)),
    ("D1.3", _mono(1.3)),
    ("D2", _mono(2.0)),
    ("D1D2-0.5", {"dim": 2, "terms": [{"c": [1.0, 0.0], "alpha": [0.5, 0.0]},
                                      {"c": [1.0, 0.0], "alpha": [0.0, 0.5]}]}),
)
DEFAULT_FORCINGS = ("step", "gaussian")


def _unlink(path: str):
    def remove():
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    return remove


class IdentityCheck:
    def __init__(self, check_id: str, report: str):
        self.check_id, self.report = check_id, report

    def __call__(self, code: int, stdout: str) -> Outcome:
        try:
            with open(self.report) as fh:
                entries = json.load(fh)
        except (OSError, ValueError):
            return _fail(f"exit {code}, no readable report")
        if len(entries) != 1 or entries[0]["check_id"] != self.check_id:
            return _fail("report does not hold exactly the requested check")
        e = entries[0]
        share = e["max_error"] / e["tolerance"] if e["tolerance"] else math.inf
        ok = code == 0 and e["pass"] and share <= 1.0
        return Outcome(ok, {f"check.{self.check_id}": share},
                       "" if ok else f"exit {code}, max_error {e['max_error']:.3e}")


class GainCheck:
    def __init__(self, slug: str, dim: int, table: str):
        self.slug, self.dim, self.table = slug, dim, table

    def __call__(self, code: int, stdout: str) -> Outcome:
        if code != 0:
            return _fail(f"exit {code}")
        try:
            with open(self.table, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError:
            return _fail("no gain table")
        if len(rows) != len(DEFAULT_FORCINGS):
            return _fail(f"{len(rows)} rows, expected {len(DEFAULT_FORCINGS)}")
        tol = 0.15 if self.dim == 1 else 0.2
        shares, bad = {}, []
        for forcing, row in zip(DEFAULT_FORCINGS, rows):
            gain = float(row["gain"]) if row["gain"] not in ("", "nan") else math.nan
            if row["pass"] != "true":
                bad.append(forcing)
            if not math.isnan(gain):
                shares[f"gain.{self.slug}.{forcing}"] = abs(gain - float(row["expected_gain"])) / tol
        ok = not bad and all(v <= 1.0 for v in shares.values())
        return Outcome(ok, shares, "" if ok else f"rows failing: {bad or list(shares)}")


def verify_commands(workdir: str) -> list:
    report = os.path.join(workdir, "identity_report.json")
    table = os.path.join(workdir, "regularity_gains.csv")
    cmds = [Command(["--outdir", workdir, "verify", "--only", cid], "verify",
                    IdentityCheck(cid, report), before=_unlink(report), check_id=cid)
            for cid in CHECK_IDS]
    for slug, op in GAIN_OPERATORS:
        cmds.append(Command(["--outdir", workdir, "experiment", "regularity",
                             "--matrix", json.dumps({"operators": [op]})],
                            "experiment", GainCheck(slug, op["dim"], table), before=_unlink(table)))
    return cmds


# -- the three workloads -----------------------------------------------------------


class Workload:
    """Rounds of commands drawn from one seed, plus the untimed warm-up."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.workdir = name, workdir
        self.rng = np.random.default_rng([seed, _SALT[name]])
        self.index = 0
        self._solve = SolveStream(workdir) if name == "solve" else None
        self._verify = verify_commands(workdir) if name == "verify" else None

    def warmup(self) -> list:
        if self.name == "curves":
            return [["differint", "--func", "gaussian", "--nu", "0.5", "--c", "-inf", "--grid"]]
        if self.name == "solve":
            op = json.dumps({"dim": 2, "terms": [{"c": [1.0, 0.0], "alpha": [0.5, 0.0]},
                                                 {"c": [1.0, 0.0], "alpha": [0.0, 0.5]}]})
            path = os.path.join(self.workdir, "warmup.field")
            return [["-n", "2", "-m", "256", "-L", "40", "--outdir", self.workdir, "solve",
                     "--op", op, "--forcing", "step", "--output", "warmup.field"],
                    ["sobolev", "--field", path, "--min-radius", "4.0"]]
        return [["--outdir", self.workdir, "verify", "--only", "osler_product"]]

    def next_round(self) -> list:
        i, self.index = self.index, self.index + 1
        if self.name == "curves":
            return curves_round(self.rng, i)
        if self.name == "solve":
            return self._solve.round(self.rng, i)
        order = self.rng.permutation(len(self._verify))
        return [self._verify[k] for k in order]


_SALT = {"curves": 1, "solve": 2, "verify": 3}
