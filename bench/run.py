"""rotstar benchmark: the batch CLI as its users run it, one fresh process per
task, every answer checked.

    python3 bench/run.py --workload reference-mix --seed 1 --seconds 30 --trace 0

Closed loop with one client: tasks run one at a time, each in a new
``python -m rotstar`` process with ``--jobs 1``.  The seed picks and orders
the pass's tasks from the fixed pool in ``pool.py``.  Passes repeat while
the next one still fits in ``--seconds`` (at least one pass).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and the same pass through ``traced_cli.py``, and prints the
per-layer metrics of the traced pass plus ``trace.overhead_s``.

stdout: a metrics table, one ``provenance`` JSON line, and as its last line
the result object ``{"correct", "attempted", "failed", "metrics"}``.
``--record FILE`` also appends the full result (per-task times, per-kind
medians and sample counts, provenance) as one JSON line, which
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers
import child
import pool
import spans

SETUP_SAMPLES = 5

# Printed by a fresh interpreter with the children's environment: the
# versions and BLAS build the tasks actually run with.
_PROBE = r"""
import json, platform
import numpy, scipy
import rotstar.cli
blas = {}
try:
    cfg = numpy.show_config(mode="dicts")
    dep = cfg.get("Build Dependencies", {}).get("blas", {})
    blas = {"name": dep.get("name"), "version": dep.get("version")}
except Exception as exc:
    blas = {"error": repr(exc)}
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "rotstar": rotstar.__version__,
                  "blas": blas}))
"""


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not itself a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=child.ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != child.ROOT:
        return None
    return lines[1]


def provenance(workload: str, seed: int, trace: int) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE], env=child.child_env(), cwd=child.ROOT,
        capture_output=True, text=True, timeout=120,
    )
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import the program: {probe.stderr.strip()}")
    env = json.loads(probe.stdout.strip().splitlines()[-1])
    env.update({
        "blas_threads": child.BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": child.source_digest(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "loop": "closed, one client, --jobs 1",
    })
    return env


def setup_sample() -> float:
    """Fresh-interpreter import time of ``rotstar.cli``.  The provenance probe
    has already imported it once, so bytecode caches are warm."""
    res = child.spawn([sys.executable, "-c", "import rotstar.cli"],
                      child.WORK / "setup" / "stderr.txt")
    if res.returncode != 0:
        raise RuntimeError(f"import failed: {res.stderr.strip()}")
    return res.seconds


def setup_schedule(n_tasks: int, samples: int = SETUP_SAMPLES) -> list[int]:
    """Set-up samples to take before each task of the first pass.  Spreading
    them over the pass makes their median follow the machine's state during
    the whole run instead of during one moment of it."""
    counts = [0] * n_tasks
    for k in range(samples):
        counts[k * n_tasks // samples] += 1
    return counts


def run_checked(key: str, frozen: dict, totals: spans.LayerTotals | None = None
                ) -> dict:
    """Run one task and check its answers.  With ``totals`` it runs traced
    and its spans are added to ``totals``."""
    kind = key.split("/")[0]
    span_file = child.WORK / "spans.json" if totals is not None else None
    if span_file is not None and span_file.exists():
        span_file.unlink()
    res, out = child.run_task(pool.POOL[key], "task", span_file)
    problems = []
    if res.returncode != 0:
        problems.append(f"exit {res.returncode}: {res.stderr.strip()[-300:]}")
    else:
        try:
            problems = answers.check(key, answers.extract(kind, out), frozen)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            problems.append(f"artifact: {exc!r}")
    if span_file is not None:
        try:
            doc = json.loads(span_file.read_text())
            totals.add(doc["names"], doc["spans"])
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"spans: {exc!r}")
    return {"key": key, "kind": kind, "seconds": res.seconds, "cpu_s": res.cpu_s,
            "rss_mb": res.rss_mb, "problems": problems}


def run_pass(keys: list[str], frozen: dict, totals: spans.LayerTotals | None = None,
             setup: list[float] | None = None) -> tuple[list[dict], list[dict]]:
    """Run one pass of tasks; returns the untraced and the traced records.

    With ``totals`` each task runs untraced and then at once traced, so the
    pair sees the same machine state and their difference is the tracing
    overhead.  With ``setup``, set-up samples are interleaved with the tasks
    and appended to it."""
    untraced, traced = [], []
    schedule = setup_schedule(len(keys)) if setup is not None else [0] * len(keys)
    for n, key in enumerate(keys):
        for _ in range(schedule[n]):
            setup.append(setup_sample())
        untraced.append(run_checked(key, frozen))
        if totals is not None:
            traced.append(run_checked(key, frozen, totals))
    return untraced, traced


def _median_by_kind(records: list[dict]) -> dict[str, dict]:
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["seconds"])
    return {pool.TIME_METRIC[kind]: {"median_s": statistics.median(v),
                                     "samples": len(v)}
            for kind, v in sorted(by_kind.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(pool.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="append the full result as one JSON line")
    args = parser.parse_args(argv)

    if not (child.SRC / "rotstar" / "cli.py").is_file():
        print(f"error: program source not found under {child.SRC}", file=sys.stderr)
        return 2
    try:
        frozen = answers.load_answers()
        env = provenance(args.workload, args.seed, args.trace)
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    keys = pool.task_list(args.workload, args.seed)
    metrics: dict[str, tuple[float, str]] = {}
    samples: dict[str, int] = {}
    setup: list[float] = []
    if args.trace:
        totals = spans.LayerTotals()
        untraced, traced = run_pass(keys, frozen, totals=totals)
        wall = [sum(r["seconds"] for r in untraced)]
        metrics.update(totals.metrics())
        metrics["trace.overhead_s"] = (
            sum(r["seconds"] for r in traced) - wall[0], "s")
        samples = {name: 1 for name in metrics}
    else:
        start = time.perf_counter()
        passes: list[list[dict]] = []
        while True:
            untraced, _ = run_pass(keys, frozen, setup=None if passes else setup)
            passes.append(untraced)
            pass_s = sum(r["seconds"] for r in passes[-1])
            if time.perf_counter() - start + pass_s > args.seconds:
                break
        untraced, traced = [r for p in passes for r in p], []
        wall = [sum(r["seconds"] for r in p) for p in passes]
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["wall_s"] = (statistics.median(wall), "s")
        metrics["peak_rss_mb"] = (max(r["rss_mb"] for r in untraced), "MB")
        samples = {"setup_s": len(setup), "wall_s": len(wall),
                   "peak_rss_mb": len(untraced)}

    all_records = untraced + traced
    failed = [r for r in all_records if r["problems"]]
    per_kind = _median_by_kind(untraced)

    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit:8s} n={samples[name]}")
    if not args.trace:
        for name, d in per_kind.items():
            print(f"{name:52s} {d['median_s']:14.6g} {'s':8s} n={d['samples']}")
    print(f"{'failed_frac':52s} {len(failed) / len(all_records):14.6g} "
          f"{'fraction':8s} n={len(all_records)}")
    for r in failed:
        print(f"FAILED {r['key']}: {'; '.join(r['problems'])}", file=sys.stderr)
    print(json.dumps({"provenance": env, "samples": samples}, sort_keys=True))

    if args.record:
        full = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "provenance": env, "setup_s": setup, "pass_wall_s": wall,
            "per_kind": per_kind, "tasks": all_records,
            "metrics": {k: {"value": v, "unit": u, "samples": samples[k]}
                        for k, (v, u) in metrics.items()},
        }
        with open(args.record, "a") as fh:
            fh.write(json.dumps(full, sort_keys=True) + "\n")

    result = {
        "correct": not failed,
        "attempted": len(all_records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM becomes SystemExit, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    raise SystemExit(main())
