"""Regenerate ``answers.json``: run every pool input once through the CLI,
verify the outputs against the independent oracles, and freeze them.

Run from the repository root:  python3 bench/freeze.py
Freeze only on a commit whose answers are trusted; the benchmark then fails
any later commit whose outputs leave the tolerances in ``answers.py``.
"""

from __future__ import annotations

import json
import sys

import answers
import child
from pool import POOL

GOLDEN = child.ROOT / "tests" / "golden_lane_emden.json"


def _oracle_problems(key: str, values: dict, golden: dict) -> list[str]:
    kind = key.split("/")[0]
    problems = answers.oracle_problems(kind, values)
    if kind == "lane-emden":
        # criterion 2: step-halving oracle to 1e-8
        ref = golden[str(float(key.split("nu")[1]))]
        for name in ("xi1", "mu1"):
            if abs(values[name] - ref[name]) > 1e-8:
                problems.append(f"{name} off the step-halving oracle")
    return problems


def main() -> int:
    golden = json.loads(GOLDEN.read_text())
    frozen, bad = {}, []
    for key in sorted(POOL):
        kind = key.split("/")[0]
        result, out = child.run_task(POOL[key], "freeze")
        print(f"{key:28s} {result.seconds:7.2f} s  {result.rss_mb:6.0f} MB  "
              f"rc={result.returncode}", flush=True)
        if result.returncode != 0:
            bad.append(f"{key}: exit {result.returncode}: {result.stderr.strip()}")
            continue
        values = answers.extract(kind, out)
        bad += [f"{key}: {p}" for p in _oracle_problems(key, values, golden)]
        frozen[key] = {name: values[name] for name in answers.FROZEN_FIELDS[kind]}
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    doc = {"source": child.source_digest(), "answers": frozen}
    answers.ANSWERS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"froze {len(frozen)} answers to {answers.ANSWERS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
