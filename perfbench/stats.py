"""Order statistics and naming rules shared by the benchmark scripts.

Standard library only, so the parent process and the steadiness report
can use them without importing numpy.
"""

from __future__ import annotations

import re
import statistics

# A metric or workload name: a letter or digit, then letters, digits,
# ``_``, ``.`` and ``-``; at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# The tail percentile is the highest one with at least this many samples
# strictly above it.
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.fullmatch(unit))


def tail(samples) -> tuple[float, float, int]:
    """Latency at the highest percentile that has ten samples beyond it.

    Returns ``(value, percentile, count)``.  With ``n`` samples sorted
    ascending that is the sample at 1-based rank ``n - 10``, the 11th
    largest, at percentile ``100 * (n - 10) / n``.  Below 11 samples no
    percentile qualifies; the maximum is returned at percentile 100 so the
    caller can see from the count that the rule did not apply.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, n


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
