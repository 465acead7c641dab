"""Median latency and share of command time per command kind and per ``--func`` kind.

Reads the run records that ``perfbench/run.py`` writes
(``perfbench/out/record-*.json``) and pools their commands.  For each
command kind it prints one row over all its commands, then one row per
``--func`` kind it was run with (the ``kind`` of a FunctionSpec JSON
object, or the catalog name; ``-`` for a command without ``--func``).
Each row gives the command count, the median latency in ms and the share
of the pooled command time; a last row covers every command.  After the
table one line per record names its ``op_tail_ms``, the latency at the
rank that ``perfbench/stats.py``'s ``tail`` picks (loaded from that file,
so the rule is stated once), and counts the command kinds at or above it,
most first.  Only the standard library is used, and nothing is written.

    python tools/kind_medians.py RECORD [RECORD ...]
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
from collections import Counter
from pathlib import Path

STATS = Path(__file__).resolve().parents[1] / "perfbench" / "stats.py"


def _perfbench_stats():
    spec = importlib.util.spec_from_file_location("perfbench_stats", STATS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def func_kind(argv: list[str]) -> str:
    """The ``--func`` kind of a command line, or ``-`` when it has none."""
    if "--func" not in argv[:-1]:
        return "-"
    value = argv[argv.index("--func") + 1]
    return json.loads(value)["kind"] if value.lstrip().startswith("{") else value


def table(commands: list[dict]) -> list[tuple[str, str, int, float, float]]:
    """Rows ``(command kind, func kind or '*', count, median ms, share)``, by kind, then ``all``."""
    total = sum(c["latency_ms"] for c in commands)
    groups: dict[tuple[str, str], list[float]] = {}
    for c in commands:
        for key in ((c["kind"], "*"), (c["kind"], func_kind(c["argv"]))):
            groups.setdefault(key, []).append(c["latency_ms"])
    rows = []
    for kind in sorted({k for k, _ in groups}):
        funcs = sorted(f for k, f in groups if k == kind and f != "*")
        for func in ["*"] + (funcs if funcs != ["-"] else []):
            lat = groups[kind, func]
            rows.append((kind, func, len(lat), statistics.median(lat), sum(lat) / total))
    rows.append(("all", "*", len(commands), statistics.median(c["latency_ms"] for c in commands), 1.0))
    return rows


def tail_kinds(commands: list[dict]) -> tuple[float, float, int, list[tuple[str, int]]]:
    """One record's ``(op_tail_ms, its percentile, command count, [(kind, count)])``, kinds at or above it, most first."""
    value, percentile, count = _perfbench_stats().tail([c["latency_ms"] for c in commands])
    kinds = Counter(c["kind"] for c in commands if c["latency_ms"] >= value)
    return value, percentile, count, kinds.most_common()


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    records = [json.loads(Path(path).read_text(encoding="utf-8"))["commands"] for path in argv[1:]]
    commands = [c for record in records for c in record]
    print(f"{len(commands)} commands from {len(argv) - 1} record(s)")
    print(f"{'command kind':<24}{'func':<14}{'count':>6}{'median_ms':>11}{'share':>8}")
    for kind, func, count, median, share in table(commands):
        print(f"{kind:<24}{func:<14}{count:>6}{median:>11.2f}{share:>8.3f}")
    for path, record in zip(argv[1:], records):
        value, percentile, count, kinds = tail_kinds(record)
        print(f"op_tail_ms {value:.2f} at p{percentile:.1f} of {count} in {Path(path).name}: "
              + ", ".join(f"{kind} {n}" for kind, n in kinds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
