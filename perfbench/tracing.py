"""Spans recorded from outside the program, and the per-layer table built from them.

The traced run wraps the public functions of every ``fracpde`` module, and
rebinds each wrapped name in every ``fracpde`` module that imported it
(``spectral`` holds its own ``symbol_eval``, ``cli`` its own engines), so
calls between modules pass through the wrappers too.  Nothing under
``src/`` is edited.  Private helpers are invisible from here; their time
counts as self time of the nearest wrapped caller.

Spans are kept in memory (name, start, end, parent, command id, attributes)
and turned into metrics when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
from contextlib import contextmanager

import numpy as np

# fracpde modules whose public functions are wrapped.  ``errors`` does no
# work and ``cli`` is timed by the command span around ``run_cli``.
WRAPPED_MODULES = ("fracops", "functions", "symbols", "spectral", "sobolev", "fileio", "verify")
# Modules whose bindings of the wrapped names are replaced: the package and
# the CLI import from the others.
ALL_MODULES = ("", "cli") + WRAPPED_MODULES

COMMAND_SPAN = "cli.command"

# Public methods that do the work of their layer: integrand evaluation on
# the catalog classes and the frequency arrays of the box grid.
WRAPPED_METHODS = (
    ("functions", "FunctionSpec", "value"),
    ("functions", "FunctionSpec", "derivative_values"),
    ("functions", "CallableFn", "value"),
    ("functions", "CallableFn", "derivative_values"),
    ("functions", "SampledCurve", "value"),
    ("spectral", "BoxGrid", "frequency_grid"),
    ("spectral", "BoxGrid", "frequency_radii"),
)

FRACOPS_TIMED = ("rl_integral", "rl_derivative", "caputo_derivative",
                 "fourier_differint", "hankel_differintegral")
SPECTRAL_TIMED = ("transform", "inverse", "build_cutoff", "build_parametrix",
                  "solve_elliptic", "load_field", "save_field")
SOBOLEV_TIMED = ("estimate_regularity", "windowed_shells", "shell_spectrum")

CHECK_IDS = ("compose_integrals", "compose_derivatives", "caputo_rl_equiv", "fourier_lemma",
             "cauchy_equiv", "osler_product", "schwartz_conv", "parametrix_identity",
             "power_rule", "exp_eigen")
GAIN_ROWS = ("D0.4", "D0.7", "D1.3", "D2", "D1D2-0.5")
COMMAND_KINDS = ("differint-quadrature", "differint-caputo", "differint-fourier",
                 "solve-2d", "solve-3d", "sobolev-2d", "sobolev-3d", "verify", "experiment")


def _per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = [("cli.self_s", "s", "lower")]
    for fn in FRACOPS_TIMED:
        out += [(f"fracops.{fn}.calls", "count", "lower"),
                (f"fracops.{fn}.total_s", "s", "lower"),
                (f"fracops.{fn}.self_s", "s", "lower")]
    out += [("fracops.node_bytes", "B", "lower"), ("fracops.evals_per_output", "ratio", "lower")]
    for fn in ("value", "derivative_values"):
        out += [(f"functions.{fn}.calls", "count", "lower"),
                (f"functions.{fn}.total_s", "s", "lower"),
                (f"functions.{fn}.points", "count", "lower")]
    out += [("symbols.symbol_eval.calls", "count", "lower"),
            ("symbols.symbol_eval.total_s", "s", "lower"),
            ("symbols.symbol_eval.points", "count", "lower")]
    for fn in ("check_ellipticity", "estimate_bounds"):
        out += [(f"symbols.{fn}.calls", "count", "lower"), (f"symbols.{fn}.total_s", "s", "lower")]
    out.append(("symbols.scans_per_solve", "ratio", "lower"))
    for fn in SPECTRAL_TIMED:
        out += [(f"spectral.{fn}.calls", "count", "lower"),
                (f"spectral.{fn}.total_s", "s", "lower"),
                (f"spectral.{fn}.self_s", "s", "lower")]
    out += [("spectral.grid_bytes", "B", "lower"),
            ("spectral.fft_bytes", "B", "lower"),
            ("spectral.fft_flops", "flop", "lower"),
            ("spectral.parametrix_unique_ratio", "ratio", "higher")]
    for fn in SOBOLEV_TIMED:
        out += [(f"sobolev.{fn}.calls", "count", "lower"), (f"sobolev.{fn}.total_s", "s", "lower")]
    out.append(("sobolev.shells_per_estimate", "ratio", "lower"))
    for fn in ("atomic_write_bytes", "atomic_write_text"):
        out += [(f"fileio.{fn}.total_s", "s", "lower"), (f"fileio.{fn}.bytes", "B", "lower")]
    for cid in CHECK_IDS:
        out += [(f"verify.{cid}.s", "s", "lower"), (f"verify.{cid}.tol_used", "ratio", "lower")]
    for row in GAIN_ROWS:
        out.append((f"verify.gain.{row}.step.tol_used", "ratio", "lower"))
    for kind in COMMAND_KINDS:
        out.append((f"{kind}.alloc_peak_mib", "MiB", "lower"))
    return out


PER_LAYER = _per_layer_specs()


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "attrs")

    def __init__(self, name, start, parent, command):
        self.name, self.start, self.end = name, start, None
        self.parent, self.command, self.attrs = parent, command, {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


class Recorder:
    """In-memory span log; times are ``perf_counter_ns`` integers."""

    def __init__(self, clock=None):
        import time

        self.clock = clock or time.perf_counter_ns
        self.spans: list[Span] = []
        self.command = None
        # Off outside timed commands, so reference checks leave no spans.
        self.active = False
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent, self.command))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self.spans[idx].end = self.clock()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)


# -- attributes computed at the call site ---------------------------------------


def _eval_attrs(args, kwargs, out):
    y = np.asarray(args[1])
    attrs = {"points": int(y.size)}
    if y.ndim == 2:
        attrs["node_bytes"] = int(y.size) * 16
    return attrs


def _outputs_x(args, kwargs, out):
    x = args[2] if len(args) > 2 else kwargs["x"]
    return {"outputs": int(np.size(x))}


def _fft_attrs(args, kwargs, out):
    n = int(args[0].values.size)
    return {"bytes": int(args[0].values.nbytes), "flops": 5.0 * n * math.log2(n)}


ATTRS = {
    "functions.value": _eval_attrs,
    "functions.derivative_values": _eval_attrs,
    "fracops.rl_integral": _outputs_x,
    "fracops.rl_derivative": _outputs_x,
    "fracops.caputo_derivative": _outputs_x,
    "fracops.differint": _outputs_x,
    "fracops.hankel_differintegral": lambda a, k, o: {"outputs": 1},
    "fracops.fourier_differint": lambda a, k, o: {"outputs": int(a[0].values.size)},
    "symbols.symbol_eval": lambda a, k, o: {"points": int(np.size(o))},
    "spectral.transform": _fft_attrs,
    "spectral.inverse": _fft_attrs,
    "spectral.frequency_grid": lambda a, k, o: {"bytes": int(o.nbytes)},
    "spectral.frequency_radii": lambda a, k, o: {"bytes": int(o.nbytes)},
    "spectral.build_parametrix": lambda a, k, o: {"key": (o.symbol, o.grid, o.radius)},
    "fileio.atomic_write_bytes": lambda a, k, o: {"bytes": len(a[1])},
    "fileio.atomic_write_text": lambda a, k, o: {"bytes": len(a[1].encode("utf-8"))},
}


def _wrap(rec: Recorder, name: str, fn):
    attrs_fn = ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
            if attrs_fn is not None:
                rec.spans[idx].attrs.update(attrs_fn(args, kwargs, out))
            return out
        finally:
            rec.close(idx)

    traced.__wrapped_original__ = fn
    return traced


def instrument(rec: Recorder):
    """Wrap the public functions and work methods of fracpde; return an undo callable."""
    modules = {m: importlib.import_module(f"fracpde.{m}" if m else "fracpde") for m in ALL_MODULES}
    wrappers = {}
    for m in WRAPPED_MODULES:
        mod = modules[m]
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrappers[id(obj)] = (obj, _wrap(rec, f"{m}.{attr}", obj))
    undo = []
    for mod in modules.values():
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, val))
    for m, cls_name, meth in WRAPPED_METHODS:
        cls = getattr(modules[m], cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, _wrap(rec, f"{m}.{meth}", orig))
        undo.append((cls, meth, orig))

    def restore():
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)

    return restore


# -- consistency and derived metrics ---------------------------------------------


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[int]:
    """Span duration minus the time its direct children cover."""
    kids = children_of(spans)
    return [s.duration - sum(spans[k].duration for k in kids[i]) for i, s in enumerate(spans)]


def check_consistency(spans: list[Span]) -> list[str]:
    """Problems found; empty when every span nests and self times add up.

    Children must lie inside their parent and must not overlap one another,
    and per command the self times of all its spans, summed by layer, must
    equal the duration of the command span.
    """
    problems = []
    kids = children_of(spans)
    for i, s in enumerate(spans):
        if s.end is None or s.end < s.start:
            problems.append(f"span {i} {s.name} is open or ends before it starts")
            continue
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start or (p.end is not None and s.end > p.end):
                problems.append(f"span {i} {s.name} leaves its parent {p.name}")
            if s.command != p.command:
                problems.append(f"span {i} {s.name} has another command than its parent")
        prev_end = None
        for k in sorted(kids[i], key=lambda j: spans[j].start):
            if prev_end is not None and spans[k].start < prev_end:
                problems.append(f"children of span {i} {s.name} overlap")
            prev_end = spans[k].end
    if problems:
        return problems
    own = self_times(spans)
    for cmd, by_layer in layer_self_by_command(spans, own).items():
        roots = [s for s in spans if s.command == cmd and s.parent is None]
        if len(roots) != 1 or roots[0].name != COMMAND_SPAN:
            problems.append(f"command {cmd} has {len(roots)} root spans")
        elif sum(by_layer.values()) != roots[0].duration:
            problems.append(f"command {cmd}: layer self times sum to {sum(by_layer.values())} ns, "
                            f"command took {roots[0].duration} ns")
    return problems


def layer_self_by_command(spans: list[Span], own: list[int] | None = None) -> dict:
    own = own if own is not None else self_times(spans)
    out: dict = {}
    for s, t in zip(spans, own):
        layers = out.setdefault(s.command, {})
        layers[s.layer] = layers.get(s.layer, 0) + t
    return out


def _has_ancestor(spans, i, pred) -> bool:
    p = spans[i].parent
    while p is not None:
        if pred(spans[p]):
            return True
        p = spans[p].parent
    return False


def derive(spans: list[Span], commands: dict, alloc_peaks: dict | None = None) -> dict:
    """Per-layer metrics from the spans of a traced run.

    ``commands`` maps a command id to its record: ``kind``, ``check_id``
    (verify commands) and ``tol_used`` (a dict of labelled tolerance
    shares).  ``alloc_peaks`` maps a command kind to its tracemalloc peak in
    MiB.  Every name in PER_LAYER gets a value; a layer the workload never
    reaches reports zeros.
    """
    ns = 1e-9
    own = self_times(spans)
    calls: dict = {}
    total: dict = {}
    selft: dict = {}
    for i, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        selft[s.name] = selft.get(s.name, 0) + own[i]
        # Recursive calls (rl_derivative on its live points) count once in total time.
        if not _has_ancestor(spans, i, lambda p, n=s.name: p.name == n):
            total[s.name] = total.get(s.name, 0) + s.duration

    def attr_sum(name, key, where=None):
        return sum(s.attrs.get(key, 0) for i, s in enumerate(spans)
                   if s.name == name and (where is None or where(i)))

    m = {"cli.self_s": selft.get(COMMAND_SPAN, 0) * ns}
    for fn in FRACOPS_TIMED:
        name = f"fracops.{fn}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.total_s"] = total.get(name, 0) * ns
        m[f"{name}.self_s"] = selft.get(name, 0) * ns

    in_fracops = lambda i: _has_ancestor(spans, i, lambda p: p.layer == "fracops")
    evals = [i for i, s in enumerate(spans) if s.layer == "functions" and in_fracops(i)]
    m["fracops.node_bytes"] = max((spans[i].attrs.get("node_bytes", 0) for i in evals), default=0)
    outputs = sum(s.attrs.get("outputs", 0) for i, s in enumerate(spans)
                  if s.layer == "fracops" and not in_fracops(i))
    points = sum(spans[i].attrs.get("points", 0) for i in evals)
    m["fracops.evals_per_output"] = points / outputs if outputs else 0.0

    for fn in ("value", "derivative_values"):
        name = f"functions.{fn}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.total_s"] = total.get(name, 0) * ns
        m[f"{name}.points"] = attr_sum(name, "points")

    m["symbols.symbol_eval.calls"] = calls.get("symbols.symbol_eval", 0)
    m["symbols.symbol_eval.total_s"] = total.get("symbols.symbol_eval", 0) * ns
    m["symbols.symbol_eval.points"] = attr_sum("symbols.symbol_eval", "points")
    for fn in ("check_ellipticity", "estimate_bounds"):
        m[f"symbols.{fn}.calls"] = calls.get(f"symbols.{fn}", 0)
        m[f"symbols.{fn}.total_s"] = total.get(f"symbols.{fn}", 0) * ns
    solves = calls.get("spectral.solve_elliptic", 0)
    in_solve = lambda i: _has_ancestor(spans, i, lambda p: p.name == "spectral.solve_elliptic")
    scans = sum(1 for i, s in enumerate(spans) if s.name == "symbols.check_ellipticity" and in_solve(i))
    m["symbols.scans_per_solve"] = scans / solves if solves else 0.0

    for fn in SPECTRAL_TIMED:
        name = f"spectral.{fn}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.total_s"] = total.get(name, 0) * ns
        m[f"{name}.self_s"] = selft.get(name, 0) * ns
    m["spectral.grid_bytes"] = max((s.attrs["bytes"] for s in spans
                                    if s.name in ("spectral.frequency_grid", "spectral.frequency_radii")),
                                   default=0)
    m["spectral.fft_bytes"] = attr_sum("spectral.transform", "bytes") + attr_sum("spectral.inverse", "bytes")
    m["spectral.fft_flops"] = attr_sum("spectral.transform", "flops") + attr_sum("spectral.inverse", "flops")
    builds = 0
    by_cmd: dict = {}
    for s in spans:
        if s.name == "spectral.build_parametrix" and "key" in s.attrs:
            builds += 1
            by_cmd.setdefault(s.command, set()).add(s.attrs["key"])
    distinct = sum(len(keys) for keys in by_cmd.values())
    m["spectral.parametrix_unique_ratio"] = distinct / builds if builds else 0.0

    for fn in SOBOLEV_TIMED:
        m[f"sobolev.{fn}.calls"] = calls.get(f"sobolev.{fn}", 0)
        m[f"sobolev.{fn}.total_s"] = total.get(f"sobolev.{fn}", 0) * ns
    fits = calls.get("sobolev.estimate_regularity", 0)
    m["sobolev.shells_per_estimate"] = calls.get("sobolev.shell_spectrum", 0) / fits if fits else 0.0

    for fn in ("atomic_write_bytes", "atomic_write_text"):
        m[f"fileio.{fn}.total_s"] = total.get(f"fileio.{fn}", 0) * ns
        m[f"fileio.{fn}.bytes"] = attr_sum(f"fileio.{fn}", "bytes")

    suite_s: dict = {}
    for s in spans:
        if s.name == "verify.run_identity_suite":
            cid = commands.get(s.command, {}).get("check_id")
            if cid is not None:
                suite_s.setdefault(cid, []).append(s.duration * ns)
    tol: dict = {}
    for rec in commands.values():
        for label, share in rec.get("tol_used", {}).items():
            tol[label] = max(tol.get(label, 0.0), share)
    for cid in CHECK_IDS:
        m[f"verify.{cid}.s"] = statistics.median(suite_s[cid]) if cid in suite_s else 0.0
        m[f"verify.{cid}.tol_used"] = tol.get(f"check.{cid}", 0.0)
    for row in GAIN_ROWS:
        m[f"verify.gain.{row}.step.tol_used"] = tol.get(f"gain.{row}.step", 0.0)

    for kind in COMMAND_KINDS:
        m[f"{kind}.alloc_peak_mib"] = (alloc_peaks or {}).get(kind, 0.0)
    return m
