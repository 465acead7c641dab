"""Median latency and share of command time per command kind and per ``--func`` kind.

Reads the run records that ``perfbench/run.py`` writes
(``perfbench/out/record-*.json``) and pools their commands.  For each
command kind it prints one row over all its commands, then one row per
``--func`` kind it was run with (the ``kind`` of a FunctionSpec JSON
object, or the catalog name; ``-`` for a command without ``--func``).
Each row gives the command count, the median latency in ms and the share
of the pooled command time; a last row covers every command.  Only the
standard library is used, and nothing is written.

    python tools/kind_medians.py RECORD [RECORD ...]
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


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


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    commands = []
    for path in argv[1:]:
        commands += json.loads(Path(path).read_text(encoding="utf-8"))["commands"]
    print(f"{len(commands)} commands from {len(argv) - 1} record(s)")
    print(f"{'command kind':<24}{'func':<14}{'count':>6}{'median_ms':>11}{'share':>8}")
    for kind, func, count, median, share in table(commands):
        print(f"{kind:<24}{func:<14}{count:>6}{median:>11.2f}{share:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
