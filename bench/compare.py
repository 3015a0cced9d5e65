"""Compare two result sets of the benchmark, per workload and metric.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --record`` appended.  For every workload
and metric the command prints both sides' medians and quartiles, the share
of pairs the change wins (pairs matched by seed, ties counting for neither),
and a verdict:

- ``improved``: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's quartile distance;
- ``unresolved``: the parent's quartile distance, as a share of its median,
  is wider than the metric's bound, and not every change run beats every
  parent run;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``no worse``: otherwise.

Bounds and directions come from ``BENCHMARK.json``; per-kind task times,
which it does not list, use the bound of ``wall_s``.  Comparing two sets of
the same code is the steadiness check: every row should read ``no worse``.
Run the two sides alternated (parent, change, parent, ...): on a machine
whose speed drifts over minutes, two sets run one after the other can
differ by more than the code does.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> metric -> value, from the untraced records of a
    record file (traced runs carry per-layer metrics, which have no bound)."""
    out: dict[str, dict[int, dict[str, float]]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["trace"]:
            continue
        values = {k: m["value"] for k, m in rec["metrics"].items()}
        values.update((k, d["median_s"]) for k, d in rec["per_kind"].items())
        out.setdefault(rec["workload"], {})[rec["seed"]] = values
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_better: bool) -> tuple[str, float]:
    sign = 1.0 if lower_better else -1.0
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    win_frac = wins / len(pairs) if pairs else float("nan")
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    spread = (q3 - q1) / abs(med_p) if med_p else float("inf")
    worse_by = sign * (med_c - med_p) / abs(med_p) if med_p else float("inf")
    if pairs and win_frac >= 0.9 and abs(med_c - med_p) > q3 - q1:
        return "improved", win_frac
    if spread > bound and not all_better:
        return "unresolved", win_frac
    if worse_by > bound:
        return "worse", win_frac
    return "no worse", win_frac


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    a, b = load(args.parent), load(args.change)
    any_worse = False
    header = (f"{'workload':14s} {'metric':24s} {'parent median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} {'wins':>5s}  verdict")
    print(header)
    for workload in sorted(set(a) & set(b)):
        pa, pb = a[workload], b[workload]
        names = sorted(set().union(*pa.values()) & set().union(*pb.values()))
        for name in names:
            bound, lower = bounds.get(name, bounds["wall_s"])
            va = [v[name] for v in pa.values() if name in v]
            vb = [v[name] for v in pb.values() if name in v]
            pairs = [(pa[s][name], pb[s][name]) for s in sorted(set(pa) & set(pb))
                     if name in pa[s] and name in pb[s]]
            if not va or not vb:
                continue
            if not pairs:
                pairs = list(zip(va, vb))
            word, win = verdict(va, vb, pairs, bound, lower)
            qa, qb = quartiles(va), quartiles(vb)
            print(f"{workload:14s} {name:24s} "
                  f"{qa[1]:10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(74)
                  + f"{qb[1]:10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]".ljust(35)
                  + f"{win:5.2f}  {word}")
            any_worse = any_worse or word == "worse"
    return 1 if any_worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
