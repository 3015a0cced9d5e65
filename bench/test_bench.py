"""Tests of the benchmark itself (not of the program).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import answers
import child
import compare
import pool
import run
import spans

SPEC = json.loads((child.ROOT / "BENCHMARK.json").read_text())


def test_same_seed_gives_identical_task_list():
    for workload in pool.WORKLOADS:
        assert pool.task_list(workload, 7) == pool.task_list(workload, 7)
    lists = {tuple(pool.task_list("reference-mix", s)) for s in range(20)}
    assert len(lists) > 1


def test_task_list_draws_the_stated_kinds_from_the_pool():
    for workload, draws in pool.WORKLOADS.items():
        keys = pool.task_list(workload, 3)
        assert all(k in pool.POOL for k in keys)
        for kind, count in draws:
            picked = [k for k in keys if k.split("/")[0] == kind]
            assert len(picked) == len(set(picked)) == count


def test_every_pool_input_has_a_frozen_answer():
    assert set(answers.load_answers()) == set(pool.POOL)


def test_self_time_on_synthetic_span_tree():
    # a [0, 10] -> b [1, 4], c [5, 9] -> d [6, 8]; e [11, 12] is a second root
    tree = [
        (0, -1, 0.0, 10.0, None),
        (1, 0, 1.0, 4.0, None),
        (2, 0, 5.0, 9.0, None),
        (3, 2, 6.0, 8.0, None),
        (0, -1, 11.0, 12.0, None),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.0, 2.0, 1.0])


def test_layer_totals_ratios_on_synthetic_spans():
    names = list(spans.SPAN_NAMES)
    k = names.index
    tree = [
        (k("mass.trace_constant_mass_curve"), -1, 0.0, 10.0, 2),   # 2 points
        (k("equilibrium.solve_equilibrium"), 0, 1.0, 4.0, 3),       # 3 iterations
        (k("equilibrium.gravity_jacobian_packed"), 1, 1.5, 2.0, None),
        (k("equilibrium.hl_certificate"), 1, 2.5, 3.5, None),
        (k("equilibrium.gravity_jacobian_packed"), 3, 2.6, 3.0, None),
        (k("equilibrium.solve_equilibrium"), 0, 5.0, 6.0, 5),
        (k("equilibrium.solve_equilibrium"), 0, 7.0, 8.0, 4),
    ]
    totals = spans.LayerTotals()
    totals.add(names, tree)
    m = totals.metrics()
    assert m["equilibrium.solve_equilibrium.calls"][0] == 3
    assert m["equilibrium.iterations_per_solve"][0] == pytest.approx(4.0)
    # the certificate's Jacobian is not a solver build
    assert m["equilibrium.jacobian_builds_per_solve"][0] == pytest.approx(1 / 3)
    assert m["mass.solves_per_point"][0] == pytest.approx(1.5)
    assert m["equilibrium.solve_equilibrium.self_s"][0] == pytest.approx(1.5 + 1 + 1)
    assert m["mass.trace_constant_mass_curve.self_s"][0] == pytest.approx(5.0)


def test_wrappers_replace_every_namespace_holding_a_name():
    probe = "import json, spans; print(json.dumps(spans.install().patched))"
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=Path(__file__).parent,
        env=child.child_env(), capture_output=True, text=True, check=True,
    )
    patched = json.loads(out.stdout)
    assert set(patched) == set(spans.SPAN_NAMES)
    assert {"rotstar.equilibrium", "rotstar.perturb"} <= set(
        patched["equilibrium.gravity_jacobian_packed"])
    assert {"rotstar.grids", "rotstar.rotation", "rotstar.perturb"} <= set(
        patched["grids.interp_matrix"])
    assert all(patched.values()), "a target was found in no namespace"


def _frozen_artifact(tmp_path: Path, name: str, payload: dict) -> Path:
    (tmp_path / name).write_text(json.dumps(payload))
    return tmp_path


def test_answer_checker_rejects_a_perturbed_artifact(tmp_path):
    frozen = answers.load_answers()
    key = "lane-emden/nu1.5"
    good = dict(frozen[key], gamma=5 / 3, nu=1.5)
    out = _frozen_artifact(tmp_path, "lane_emden.json", good)
    assert answers.check(key, answers.extract("lane-emden", out), frozen) == []
    bad = dict(good, xi1=good["xi1"] * (1 + 1e-7))
    out = _frozen_artifact(tmp_path, "lane_emden.json", bad)
    problems = answers.check(key, answers.extract("lane-emden", out), frozen)
    assert problems and "xi1" in problems[0]


def test_answer_checker_rejects_a_perturbed_boundary(tmp_path):
    frozen = answers.load_answers()
    key = "solve/nu2.0"
    f = frozen[key]
    doc = {"boundary": list(f["boundary"]), "hl_sigma_min": f["hl_sigma_min"],
           "meta": {"m1": f["m1"]}}
    out = _frozen_artifact(tmp_path, "solution.json", doc)
    assert answers.check(key, answers.extract("solve", out), frozen) == []
    doc["boundary"][5] += 1e-5
    out = _frozen_artifact(tmp_path, "solution.json", doc)
    assert answers.check(key, answers.extract("solve", out), frozen)


def test_answer_checker_applies_independent_bounds(tmp_path):
    frozen = answers.load_answers()
    key = "mass-curve/a"
    f = frozen[key]
    doc = {"points": [{"rho_center": r, "m1": m} for r, m in
                      zip(f["rho_center"], f["mass_m1"])],
           "relative_errors": [0.0, 1e-9, 2e-6]}
    out = _frozen_artifact(tmp_path, "mass_curve.json", doc)
    problems = answers.check(key, answers.extract("mass-curve", out), frozen)
    assert problems == ["mass-curve relative error 2.00e-06 > 1e-6"]


def test_missing_artifact_raises(tmp_path):
    with pytest.raises(OSError):
        answers.extract("hl-check", tmp_path)


def _reduced(config: dict) -> dict:
    cfg = copy.deepcopy(config)
    if cfg["run"]["command"] != "kernel-check":
        cfg["grid"] = {"n_r": 64, "n_zeta": 8, "l_max": 4}
    else:
        cfg["grid"] = {"n_r": 16, "n_zeta": 6, "l_max": 2, "r_inf": 2.0}
    return cfg


def test_traced_smoke_run_emits_every_per_layer_metric(monkeypatch):
    """One task of every kind at reduced size through the traced path."""
    keys = [pool.variants(kind)[0] for kind in pool.KINDS
            if kind not in ("scale-solve",)]
    monkeypatch.setattr(pool, "POOL", {k: _reduced(pool.POOL[k]) for k in keys})
    monkeypatch.setattr(pool, "WORKLOADS", {"smoke": tuple((k.split("/")[0], 1)
                                                           for k in keys)})
    # reduced sizes have no frozen answers; answer checks are tested above
    monkeypatch.setattr(answers, "check", lambda key, values, frozen: [])
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(["--workload", "smoke", "--seed", "1", "--seconds", "1",
                         "--trace", "1"]) == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2 * len(keys)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    fired = {n for n in spans.SPAN_NAMES if metrics[f"{n}.calls"]["value"] > 0}
    # mode_shooting runs only when a mode iteration stalls
    assert set(spans.SPAN_NAMES) - fired == {"perturb.mode_shooting"}
    for ratio in ("equilibrium.iterations_per_solve",
                  "equilibrium.jacobian_builds_per_solve",
                  "perturb.iterations_per_mode", "mass.solves_per_point"):
        assert metrics[ratio]["value"] > 0


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95]
    faster = [8.0, 8.1, 7.9, 8.05, 7.95]
    pairs = list(zip(parent, faster))
    assert compare.verdict(parent, faster, pairs, 0.05, True)[0] == "improved"
    slower = [12.0, 12.1, 11.9, 12.05, 11.95]
    assert compare.verdict(parent, slower, list(zip(parent, slower)), 0.05,
                           True)[0] == "worse"
    same = [10.02, 9.98, 10.0, 10.1, 9.9]
    assert compare.verdict(parent, same, list(zip(parent, same)), 0.05,
                           True)[0] == "no worse"
    noisy = [8.0, 12.0, 10.0, 9.0, 11.0]
    assert compare.verdict(noisy, same, list(zip(noisy, same)), 0.05,
                           True)[0] == "unresolved"
