"""Steadiness report: run each workload repeatedly and print every end-to-end metric.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --first-seed 1 --trace
    python3 perfbench/steady.py --runs 10 --first-seed 101 --against perfbench/out/steady-1.json

For each workload and end-to-end metric it prints the median, the
quartiles and the spread (interquartile distance over the median) of the
runs, one seed per run, and flags a spread above the metric's bound
(``setup_s`` is exempt, as in the acceptance rule).  ``--trace`` adds one
traced run per workload, its per-layer table, and the tracing overhead:
traced ``wall_s`` minus the median untraced ``wall_s``.  ``--against`` compares
the medians with an earlier summary and flags any metric that got worse by
more than its bound.  The summary is written to
``perfbench/out/steady-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"record-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--against", type=Path, default=None)
    args = ap.parse_args()

    earlier = json.loads(args.against.read_text()) if args.against else None
    summary = {"runs": args.runs, "first_seed": args.first_seed, "seconds": args.seconds,
               "workloads": {}}
    flagged = 0
    for w in args.workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run(w, s, args.seconds, 0) for s in seeds]
        attempted = sum(r["attempted"] for r, _ in runs)
        failed = sum(r["failed"] for r, _ in runs)
        print(f"\n== {w}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}; "
              f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
        print(f"{'metric':<14}{'unit':>7}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        entry = {"fail_ratio": failed / attempted, "metrics": {}}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r, _ in runs]
            q1, med, q3 = stats.quartiles(vals)
            spr = stats.spread(vals)
            note = ""
            if m["name"] != "setup_s" and spr > m["bound"]:
                note, flagged = "  SPREAD OVER BOUND", flagged + 1
            elif m["name"] != "setup_s" and spr > m["bound"] / 3:
                note = "  spread over a third of the bound"
            if earlier and w in earlier["workloads"]:
                before = earlier["workloads"][w]["metrics"][m["name"]]["median"]
                change = (med - before) / before if before else 0.0
                worse = change if m["better"] == "lower" else -change
                note += f"  vs earlier {change:+.1%}"
                if worse > m["bound"]:
                    note, flagged = note + " WORSE THAN BOUND", flagged + 1
            print(f"{m['name']:<14}{m['unit']:>7}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spr:>9.3f}{m['bound']:>7.2f}{note}")
            entry["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spr,
                                           "values": vals}
        tails = sorted({(rec["details"]["op_tail_percentile"], rec["details"]["op_samples"])
                        for _, rec in runs})
        print("op_tail_ms taken at " + ", ".join(f"p{p:.1f} of {n}" for p, n in tails))
        if args.trace:
            # One traced run against the median of the untraced ones: a single
            # untraced run would carry the machine's run-to-run noise.
            traced, rec = run(w, args.first_seed, args.seconds, 1)
            untraced = entry["metrics"]["wall_s"]["median"]
            overhead = rec["end_to_end"]["wall_s"] - untraced
            entry["trace_overhead_s"] = overhead
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            print(f"tracing overhead: wall_s {rec['end_to_end']['wall_s']:.3f} traced vs median "
                  f"{untraced:.3f} untraced = {overhead:+.3f} s ({overhead / untraced:+.1%}); "
                  f"{rec['span_count']} spans, consistency problems: {len(rec['span_problems'])}")
            for name, v in traced["metrics"].items():
                if v["value"]:
                    print(f"  {name:<44}{v['value']:>16.6g} {v['unit']}")
        summary["workloads"][w] = entry
    out = HERE / "out" / f"steady-{args.first_seed}.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"\nsummary: {out}; {flagged} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
