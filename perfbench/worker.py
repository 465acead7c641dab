"""One benchmark client: a fresh process running one workload's commands in a closed loop.

Started by ``run.py``; not meant to be run by hand.  The client imports
the CLI, builds its inputs from the seed, runs the untimed warm-up, and
then issues one command at a time through ``fracpde.cli.run_cli(argv)``
with stdout and stderr captured in memory, the next only after the
previous one returned.  Each command is checked against its reference
after its timer stops.  The last line of stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

# A run measures whole rounds until both --seconds of command time and
# MIN_ROUNDS rounds have passed.  A fixed number of rounds keeps the tail
# rank (the 11th largest latency) on the same command kind in every run;
# with three rounds it would fall among the verify workload's 20 ms checks.
MIN_ROUNDS = 4
# Wall-clock cap on the whole loop, checks included, so that even a
# pathological slowdown ends the run within three minutes.
LOOP_WALL_CAP_S = 100.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--started-ns", type=int, required=True,
                    help="time.monotonic_ns() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # -- set-up: everything from interpreter start to the first timed command --
    import fracpde
    import fracpde.cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src", "fracpde"))
    if os.path.dirname(os.path.realpath(fracpde.__file__)) != src:
        print(f"fracpde imported from {fracpde.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import workloads

    wl = workloads.Workload(args.workload, args.seed, args.workdir)
    first_round = wl.next_round()
    for argv in wl.warmup():
        code, _, err, exc = run_command(fracpde.cli.run_cli, argv)
        if code != 0:
            print(f"warm-up {argv} failed: exit {code} {err} {exc}", file=sys.stderr)
            return 1
    setup_s = (time.monotonic_ns() - args.started_ns) * 1e-9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        tracing.instrument(rec)

    commands, rounds = [], []
    loop_start = time.monotonic()
    timed_ns = 0
    rnd = first_round
    while True:
        round_ns = 0
        for cmd in rnd:
            cid = len(commands)
            if cmd.before is not None:
                cmd.before()
            if rec is not None:
                rec.command, rec.active = cid, True
                with rec.span(tracing.COMMAND_SPAN) as root:
                    code, out, err, exc = run_command(fracpde.cli.run_cli, cmd.argv)
                rec.active = False
                elapsed = root.duration
            else:
                t0 = time.perf_counter_ns()
                code, out, err, exc = run_command(fracpde.cli.run_cli, cmd.argv)
                elapsed = time.perf_counter_ns() - t0
            round_ns += elapsed
            c0 = time.perf_counter()
            if exc is not None:
                outcome = workloads.Outcome(False, {}, exc)
            else:
                try:
                    outcome = cmd.check(code, out)
                except Exception:
                    outcome = workloads.Outcome(False, {}, "check raised:\n" + traceback.format_exc())
            if not outcome.ok and err:
                outcome.message += f" | stderr: {err.strip()[-400:]}"
            commands.append({
                "argv": cmd.argv, "kind": cmd.kind, "check_id": cmd.check_id, "exit": code,
                "latency_ms": elapsed * 1e-6, "ok": outcome.ok, "tol_used": outcome.tol_used,
                "message": outcome.message,
                "check_s": time.perf_counter() - c0,
            })
        rounds.append(round_ns * 1e-9)
        timed_ns += round_ns
        done = timed_ns * 1e-9 >= args.seconds and len(rounds) >= MIN_ROUNDS
        if done or time.monotonic() - loop_start > LOOP_WALL_CAP_S:
            break
        rnd = wl.next_round()

    import numpy
    import scipy
    from importlib.metadata import version

    result = {
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "click": version("click")},
        "setup_s": setup_s,
        "rounds_s": rounds,
        "commands": commands,
        "warmup": wl.warmup(),
        "max_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        problems = tracing.check_consistency(rec.spans)
        by_id = dict(enumerate(commands))
        peaks = alloc_peaks(fracpde.cli.run_cli, first_round)
        result["per_layer"] = tracing.derive(rec.spans, by_id, peaks)
        result["span_problems"] = problems[:20]
        result["span_count"] = len(rec.spans)
        own = tracing.self_times(rec.spans)
        result["layer_self_s"] = {
            str(cmd): {layer: ns * 1e-9 for layer, ns in layers.items()}
            for cmd, layers in tracing.layer_self_by_command(rec.spans, own).items()
        }
        spans_path = os.path.join(args.workdir, "..", f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(spans_path, "w") as fh:
            for i, s in enumerate(rec.spans):
                fh.write(json.dumps({"i": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                                     "parent": s.parent, "command": s.command}) + "\n")
    print(json.dumps(result))
    return 0


def alloc_peaks(run_cli, commands) -> dict:
    """tracemalloc peak (MiB) per command kind, from a rerun of the given commands.

    tracemalloc slows every Python allocation, so it runs after the timed
    traced loop and its cost stays out of the spans.
    """
    import tracemalloc

    peaks: dict = {}
    tracemalloc.start()
    try:
        for cmd in commands:
            if cmd.before is not None:
                cmd.before()
            tracemalloc.reset_peak()
            run_command(run_cli, cmd.argv)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            peaks[cmd.kind] = max(peaks.get(cmd.kind, 0.0), peak)
    finally:
        tracemalloc.stop()
    return peaks


def run_command(run_cli, argv):
    """Run one CLI command in-process; return (exit code, stdout, stderr, exception text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(list(argv))
    except Exception:
        return None, out.getvalue(), err.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue(), None


if __name__ == "__main__":
    sys.exit(main())
