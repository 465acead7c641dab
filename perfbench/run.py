"""fracpde benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload curves --seed 1 --seconds 20 --trace 0

Workloads are ``curves``, ``solve`` and ``verify`` (see README.md).  Each
run starts fresh client processes (``worker.py``) with the BLAS/OpenMP
pools capped at the CPU count: two that only set up, to measure set-up
time, then the one that measures.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a separate traced run.  The full run record, with the argv of
every command, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root: Path, nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    for var in THREAD_VARS:
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(root: Path, env: dict, args, workdir: Path, setup_only: bool) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--started-ns", str(time.monotonic_ns())]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cache_sizes() -> dict:
    """Cache sizes of CPU 0 as sysfs reports them (empty where it is absent)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else ():
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return out


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def computed_bytes(workload: str) -> dict:
    """Array sizes the workload implies, computed from its shapes (not measured)."""
    if workload == "curves":
        # 4096 output points x 2049 quadrature nodes, complex128.
        return {"node_matrix_bytes": 4096 * 2049 * 16}
    if workload == "solve":
        return {"field_bytes_2d": 2048**2 * 16, "field_bytes_3d": 128**3 * 16,
                "frequency_grid_bytes_2d": 2048**2 * 2 * 8}
    # schwartz_conv: 2048 points x (4 * 2048 + 1) nodes; fourier_lemma: 4096 x 2049.
    return {"node_matrix_bytes_schwartz_conv": 2048 * 8193 * 16,
            "node_matrix_bytes_fourier_lemma": 4096 * 2049 * 16}


def end_to_end(result: dict, setups: list) -> tuple[dict, dict]:
    cmds = result["commands"]
    lat = [c["latency_ms"] for c in cmds]
    tail_ms, tail_pct, n = stats.tail(lat)
    # "fit." shares (the solve workload's measured gains) decide pass or fail
    # but follow the random draw, so they stay out of tol_used_max.
    shares = [v for c in cmds for k, v in c["tol_used"].items() if not k.startswith("fit.")]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result["rounds_s"]),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "peak_rss_mib": result["max_rss_mib"],
        "tol_used_max": max(shares) if shares else 0.0,
    }
    extra = {
        "op_tail_percentile": tail_pct,
        "op_samples": n,
        "rounds": len(result["rounds_s"]),
        "fail_ratio": sum(not c["ok"] for c in cmds) / len(cmds),
        "setup_samples_s": setups,
    }
    return values, extra


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "fracpde" / "cli.py").is_file():
        print("no fracpde source under ./src; run from the root of a fracpde checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = child_env(root, nproc)
    outdir = HERE / "out"
    workdir = outdir / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(start_worker(root, env, args, workdir, True)["setup_s"])
        result = start_worker(root, env, args, workdir, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])

    cmds = result["commands"]
    failed = sum(not c["ok"] for c in cmds)
    values, extra = end_to_end(result, setups)
    problems = result.get("span_problems", [])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(root), "source_sha256": source_digest(root),
        "versions": result["versions"], "platform": platform.platform(),
        "nproc": nproc, "thread_caps": {v: env[v] for v in THREAD_VARS},
        "cpu_caches": cache_sizes(), "computed_bytes": computed_bytes(args.workload),
        "warmup_argv": result["warmup"],
        "end_to_end": values, "details": extra,
        "commands": cmds,
    }
    if args.trace:
        record.update(per_layer=result["per_layer"], span_problems=problems,
                      span_count=result["span_count"], layer_self_s=result["layer_self_s"])
    (outdir / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for c in cmds:
        if not c["ok"]:
            print(f"FAILED {json.dumps(c['argv'])}: {c['message']}")
    print(f"{args.workload}: {len(cmds)} commands in {extra['rounds']} rounds, "
          f"{failed} failed; tail at p{extra['op_tail_percentile']:.1f} of {extra['op_samples']} samples")
    if args.trace:
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(cmds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
