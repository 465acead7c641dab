"""Run one fixed command list on a git revision and on the working tree, and compare every output.

    python tools/same_outputs.py REV [--allow FILE ...]

REV is exported with ``git archive`` into a temporary directory (no git
worktree is registered, so an interrupted run leaves nothing behind in the
repository).  Each command of ``COMMANDS`` runs as ``python -m fracpde`` with
that tree's ``src`` on ``PYTHONPATH``, in one output directory per tree.
Its stdout is kept as ``<name>.out`` next to the files it writes: the
``differint --grid`` CSVs of every kind and method, single points (among
them a gaussian far above its support, a narrow one and high integral
orders of the exponential), ``identity_report.json``,
the experiment CSV and its band files, the 2-D m=2048 and 3-D m=128
``solve`` fields and JSON, and ``sobolev --field`` with and without ``--s``.
The paths of the output directory and of the tree are masked wherever
they are printed (a warning names its source file).

For each file the tool prints ``identical``, or the largest absolute and
relative move of the numbers in it (the little-endian complex samples of a
field file; every number of a text file whose text between the numbers is
unchanged).  ``--allow FILE`` names a file that may move on purpose.  The
exit code is 0 only when every file is identical or allowed.  Only the
standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

FRAC_LAP_2D = json.dumps({"dim": 2, "terms": [{"c": [1.0, 0.0], "alpha": [1.5, 0.0]},
                                              {"c": [0.7, 0.0], "alpha": [0.0, 1.5]}]})
FRAC_LAP_3D = json.dumps({"dim": 3, "terms": [{"c": [1.0, 0.0], "alpha": [0.6, 0.0, 0.0]},
                                              {"c": [1.0, 0.0], "alpha": [0.0, 0.6, 0.0]},
                                              {"c": [1.0, 0.0], "alpha": [0.0, 0.0, 0.6]}]})


def _grid(name: str, func: str, nu: str, method: str, base: str = "-inf") -> tuple[str, list[str]]:
    return f"differint-{name}.csv", ["differint", "--func", func, "--nu", nu, "--c", base, "--method", method,
                                     "--grid"]


GAUSS = '{"kind": "gaussian", "center": 0.3, "width": 1.2}'
BUMP = '{"kind": "bump", "center": 0.1, "radius": 2.0}'
STEP = '{"kind": "step", "a": -1.0, "b": 1.5}'
EXP = '{"kind": "exponential", "a": 1.3}'
NARROW = '{"kind": "gaussian", "center": 0.0, "width": 0.2}'

#: ``(stdout file name, argv after the output directory option)``, run in this order.
COMMANDS: list[tuple[str, list[str]]] = [
    _grid("gaussian-quadrature-0.5", GAUSS, "0.5", "quadrature"),
    _grid("gaussian-quadrature--0.7", GAUSS, "-0.7", "quadrature"),
    _grid("gaussian-quadrature-1.3", GAUSS, "1.3", "quadrature"),
    _grid("gaussian-caputo-0.4", GAUSS, "0.4", "caputo"),
    _grid("gaussian-fourier-0.8", GAUSS, "0.8", "fourier"),
    _grid("gaussian-quadrature-0.5-from--30", GAUSS, "0.5", "quadrature", "-30"),
    _grid("gaussian-caputo-0.5-from--30", GAUSS, "0.5", "caputo", "-30"),
    _grid("bump-quadrature-0.5", BUMP, "0.5", "quadrature"),
    _grid("bump-quadrature--0.5", BUMP, "-0.5", "quadrature"),
    _grid("bump-caputo-1.3", BUMP, "1.3", "caputo"),
    _grid("step-quadrature--0.5", STEP, "-0.5", "quadrature"),
    _grid("exponential-quadrature-0.6", EXP, "0.6", "quadrature"),
    _grid("exponential-quadrature--1.2", EXP, "-1.2", "quadrature"),
    _grid("exponential-caputo-1.3", EXP, "1.3", "caputo"),
    ("differint-at-gaussian.out", ["differint", "--func", GAUSS, "--nu", "0.5", "--c", "-inf", "--at", "0.3"]),
    ("differint-at-hankel.out", ["differint", "--func", GAUSS, "--nu", "0.5", "--c", "-3", "--method", "hankel",
                                 "--at", "0.3"]),
    ("differint-at-far-1e6.out", ["differint", "--func", "gaussian", "--nu", "-0.5", "--c", "0", "--at", "1e6"]),
    ("differint-at-far-1e308.out", ["differint", "--func", "gaussian", "--nu", "-0.5", "--c", "0", "--at", "1e308"]),
    ("differint-at-narrow-gaussian.out", ["differint", "--func", NARROW, "--nu", "0.5", "--c", "-inf", "--at", "0.1"]),
    ("differint-at-exp--10.5.out", ["differint", "--func", "exp", "--nu", "-10.5", "--c", "-inf", "--at", "0"]),
    ("differint-at-exp--30.5.out", ["differint", "--func", "exp", "--nu", "-30.5", "--c", "-inf", "--at", "0"]),
    ("verify.out", ["verify"]),
    ("experiment.out", ["experiment", "regularity"]),
    ("solve-2d.out", ["-n", "2", "-m", "2048", "-L", "40", "solve", "--op", FRAC_LAP_2D, "--forcing", STEP,
                      "--output", "solve-2d.field"]),
    ("sobolev-2d.out", ["sobolev", "--field", "solve-2d.field"]),
    ("sobolev-2d-s.out", ["sobolev", "--field", "solve-2d.field", "--s", "1.0"]),
    ("solve-3d.out", ["-n", "3", "-m", "128", "-L", "20", "solve", "--op", FRAC_LAP_3D, "--forcing", BUMP,
                      "--output", "solve-3d.field"]),
    ("sobolev-3d.out", ["sobolev", "--field", "solve-3d.field", "--min-radius", "4.0"]),
    ("sobolev-3d-s.out", ["sobolev", "--field", "solve-3d.field", "--s", "0.5"]),
]

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def run_tree(tree: Path, outdir: Path, commands=COMMANDS) -> None:
    """Run ``commands`` with ``tree/src`` first on the path, writing into ``outdir``."""
    tree, outdir = tree.resolve(), outdir.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"),
                                                                     os.environ.get("PYTHONPATH")])))
    for name, argv in commands:
        proc = subprocess.run([sys.executable, "-m", "fracpde", "--outdir", ".", *argv], cwd=outdir, env=env,
                              capture_output=True, text=True)
        text = f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
        text = text.replace(str(outdir), "<outdir>").replace(str(tree), "<tree>")
        (outdir / name).write_text(text, encoding="utf-8")


def _field(raw: bytes) -> tuple[bytes, np.ndarray]:
    """A field file's JSON header line and its samples, without a copy."""
    cut = raw.index(b"\n") + 1
    return raw[:cut], np.frombuffer(raw, dtype="<c16", offset=cut)


def _moves(old: np.ndarray, new: np.ndarray) -> str:
    """How many of two equal-shaped arrays' numbers moved, and the largest absolute and relative move."""
    moved = ~((old == new) | (np.isnan(old) & np.isnan(new)))
    diff, scale = np.abs(new - old)[moved], np.abs(old)[moved]
    rel = np.divide(diff, scale, out=np.full(diff.shape, math.inf), where=scale > 0)
    top = (float(np.max(diff)), float(np.max(rel))) if diff.size else (0.0, 0.0)
    return f"moved: max abs {top[0]:.3e}, max rel {top[1]:.3e} ({diff.size} of {old.size} numbers)"


def compare_file(old: Path, new: Path) -> str:
    """``identical``, the largest moves, or why the two files cannot be compared number by number."""
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return "identical"
    if old.suffix == ".field":
        (head_a, va), (head_b, vb) = _field(a), _field(b)
        if head_a != head_b or va.shape != vb.shape:
            return "header or size differs"
    else:
        ta, tb = a.decode("utf-8", "replace"), b.decode("utf-8", "replace")
        if _NUMBER.split(ta) != _NUMBER.split(tb):
            return "text between the numbers differs"
        va = np.array([float(t) for t in _NUMBER.findall(ta)])
        vb = np.array([float(t) for t in _NUMBER.findall(tb)])
    return _moves(va, vb)


def compare_dirs(old: Path, new: Path) -> list[tuple[str, str]]:
    """``(file name, verdict)`` for every file in either directory, sorted by name."""
    names = sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()})
    out = []
    for name in names:
        if not (old / name).exists():
            out.append((name, "only in the working tree"))
        elif not (new / name).exists():
            out.append((name, "only in the revision"))
        else:
            out.append((name, compare_file(old / name, new / name)))
    return out


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare the working tree with")
    ap.add_argument("--allow", action="append", default=[], metavar="FILE",
                    help="an output file that may move (repeatable)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        (tmp / "rev").mkdir()
        _export(args.rev, tmp / "rev")
        run_tree(tmp / "rev", tmp / "out-rev")
        run_tree(ROOT, tmp / "out-tree")
        verdicts = compare_dirs(tmp / "out-rev", tmp / "out-tree")
    unknown = set(args.allow) - {name for name, _ in verdicts}
    if unknown:
        print(f"--allow names no output file: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    lines, ok = report(verdicts, set(args.allow))
    print("\n".join(lines))
    return 0 if ok else 1


def report(verdicts: list[tuple[str, str]], allow: set[str]) -> tuple[list[str], bool]:
    """One line per file, and whether every file is identical or allowed to move."""
    lines, ok = [], True
    for name, verdict in verdicts:
        allowed = verdict != "identical" and name in allow
        ok &= verdict == "identical" or allowed
        lines.append(f"{name}: {verdict}{' (allowed)' if allowed else ''}")
    return lines, ok


if __name__ == "__main__":
    sys.exit(main())
