"""Spawn one CLI process and measure it: wall time from spawn to exit and
peak resident set size, both taken from the kernel's accounting of that
child alone (``os.wait4``)."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACED_ENTRY = Path(__file__).resolve().parent / "traced_cli.py"

# One BLAS/OpenMP thread per child: a closed loop with one client on a shared
# two-core machine keeps a core free for the harness and for neighbours, which
# makes repeated runs steadier than letting the dense kernels take both.
BLAS_THREADS = 1
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in _THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class ChildResult:
    seconds: float      # wall time from spawn to exit
    cpu_s: float        # user + system CPU time of the child
    rss_mb: float
    returncode: int
    stderr: str


def spawn(argv: list[str], stderr_path: Path) -> ChildResult:
    """Run argv to completion; stdout is discarded, stderr kept in a file."""
    stderr_path.parent.mkdir(parents=True, exist_ok=True)
    with open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return ChildResult(seconds, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, proc.returncode,
                       stderr_path.read_text())


def run_task(config: dict, slot: str, spans_path: Path | None = None
             ) -> tuple[ChildResult, Path]:
    """Write the config, run the CLI on it in a clean output directory.

    With ``spans_path`` the traced entry script runs instead of
    ``python -m rotstar`` and writes its span records there.
    """
    base = WORK / slot
    if base.exists():
        shutil.rmtree(base)
    out = base / "out"
    base.mkdir(parents=True)
    cfg = base / "config.json"
    cfg.write_text(json.dumps(config, indent=1, sort_keys=True))
    if spans_path is None:
        argv = [sys.executable, "-m", "rotstar"]
    else:
        argv = [sys.executable, str(TRACED_ENTRY), "--spans", str(spans_path)]
    argv += ["--config", str(cfg), "--out", str(out), "--jobs", "1"]
    return spawn(argv, base / "stderr.txt"), out


def source_digest() -> str:
    """sha256 over the program's source files, in path order; identifies the
    code measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rotstar").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()
