"""Span nesting, self-time accounting and the wrapping of fracpde from outside."""

import io
import json
from contextlib import redirect_stdout

import pytest

import tracing


class Clock:
    def __init__(self):
        self.t = 0

    def __call__(self):
        self.t += 7
        return self.t


def _command(rec, cid, body):
    rec.command = cid
    with rec.span(tracing.COMMAND_SPAN):
        body()


def _nested(rec):
    with rec.span("spectral.solve_elliptic"):
        with rec.span("symbols.check_ellipticity"):
            pass
        with rec.span("spectral.transform"):
            pass
    with rec.span("fileio.atomic_write_bytes"):
        pass


def test_consistent_spans_add_up_per_command():
    rec = tracing.Recorder(clock=Clock())
    _command(rec, 0, lambda: _nested(rec))
    _command(rec, 1, lambda: None)
    assert tracing.check_consistency(rec.spans) == []
    own = tracing.self_times(rec.spans)
    by_cmd = tracing.layer_self_by_command(rec.spans, own)
    root = rec.spans[0]
    assert sum(by_cmd[0].values()) == root.duration
    assert set(by_cmd[0]) == {"cli", "spectral", "symbols", "fileio"}
    assert all(t >= 0 for t in own)


def test_child_outside_parent_is_reported():
    rec = tracing.Recorder(clock=Clock())
    _command(rec, 0, lambda: _nested(rec))
    rec.spans[2].end = rec.spans[0].end + 1
    assert any("leaves its parent" in p for p in tracing.check_consistency(rec.spans))


def test_overlapping_children_are_reported():
    rec = tracing.Recorder(clock=Clock())
    _command(rec, 0, lambda: _nested(rec))
    rec.spans[4].start = rec.spans[2].start
    assert any("overlap" in p for p in tracing.check_consistency(rec.spans))


def test_span_outside_a_command_is_reported():
    rec = tracing.Recorder(clock=Clock())
    _command(rec, 0, lambda: None)
    rec.command = 1
    with rec.span("spectral.transform"):
        pass
    assert any("root spans" in p for p in tracing.check_consistency(rec.spans))


def test_recursive_calls_count_once_in_total_time():
    rec = tracing.Recorder(clock=Clock())

    def body():
        with rec.span("fracops.rl_derivative"):
            with rec.span("fracops.rl_derivative"):
                pass

    _command(rec, 0, body)
    m = tracing.derive(rec.spans, {0: {"kind": "differint-quadrature", "tol_used": {}}})
    outer = rec.spans[1].duration * 1e-9
    assert m["fracops.rl_derivative.calls"] == 2
    assert m["fracops.rl_derivative.total_s"] == pytest.approx(outer)
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER}


def test_instrumented_cli_nests_and_restores():
    import fracpde.cli
    import fracpde.spectral
    import fracpde.symbols

    original = fracpde.spectral.symbol_eval
    rec = tracing.Recorder()
    undo = tracing.instrument(rec)
    try:
        assert fracpde.spectral.symbol_eval is not original
        assert fracpde.cli.differint is not fracpde.fracops.__dict__["differint"].__wrapped_original__
        argvs = [
            ["differint", "--func", "gaussian", "--nu", "0.5", "--c", "-inf", "--at", "0.3"],
            ["-n", "2", "symbol", "--op",
             json.dumps({"dim": 2, "terms": [{"c": [1, 0], "alpha": [0.5, 0]},
                                             {"c": [1, 0], "alpha": [0, 0.5]}]})],
        ]
        for cid, argv in enumerate(argvs):
            rec.command, rec.active = cid, True
            with rec.span(tracing.COMMAND_SPAN), redirect_stdout(io.StringIO()):
                assert fracpde.cli.run_cli(argv) == 0
            rec.active = False
        fracpde.symbols.check_ellipticity(fracpde.symbols.FracSymbol.from_json(argvs[1][-1]))
    finally:
        undo()
    assert fracpde.spectral.symbol_eval is original
    assert tracing.check_consistency(rec.spans) == []
    names = {s.name for s in rec.spans}
    assert {"fracops.rl_derivative", "functions.derivative_values", "symbols.symbol_eval",
            "symbols.check_ellipticity"} <= names
    # The call made while recording was off left no span.
    assert all(s.command in (0, 1) for s in rec.spans)
    m = tracing.derive(rec.spans, {0: {"kind": "differint-quadrature", "tol_used": {}},
                                   1: {"kind": "symbol", "tol_used": {}}})
    assert m["fracops.rl_derivative.calls"] >= 1
    assert m["fracops.evals_per_output"] > 1
