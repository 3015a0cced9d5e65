"""Key outputs of each task and their check against frozen answers.

``extract`` reads the artifacts a task wrote and returns the numbers that
carry its answer.  ``check`` compares them with ``answers.json`` (frozen from
the seed commit by ``freeze.py``) and with the independent bounds the
acceptance suite states for the same quantity.  A task fails on a non-zero
exit, a missing artifact, or any answer outside tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ANSWERS_PATH = Path(__file__).resolve().parent / "answers.json"

# Absolute / relative tolerances of the frozen-answer comparison, per output.
# xi1 and mu1 use the 1e-8 of the acceptance suite's oracle check; solved
# fields are converged to 1e-10, so 1e-7 relative leaves room for a different
# but equally converged linear algebra path without hiding a changed answer.
TOLERANCES = {
    "xi1": ("abs", 1e-8),
    "mu1": ("abs", 1e-8),
    "hl_sigma_min": ("rel", 1e-6),
    "boundary": ("abs", 1e-7),
    "m1": ("rel", 1e-7),
    "rho_center": ("rel", 1e-7),
    "mass_m1": ("rel", 1e-7),
    "sigma_linear": ("rel", 1e-6),
    "sigma_measured": ("rel", 1e-6),
    "consistency_sup": ("abs", 1e-7),
    "ball_pass": ("exact", None),
    "multipole_vs_direct_pass": ("exact", None),
}

# The outputs of each kind that are frozen and compared.
FROZEN_FIELDS = {
    "lane-emden": ("xi1", "mu1"),
    "hl-check": ("hl_sigma_min",),
    "solve": ("boundary", "m1", "hl_sigma_min"),
    "differential-solve": ("boundary", "m1", "hl_sigma_min"),
    "momentum-solve": ("boundary", "m1", "hl_sigma_min"),
    "scale-solve": ("boundary", "m1", "hl_sigma_min"),
    "mass-curve": ("rho_center", "mass_m1"),
    "oblateness": ("sigma_linear", "sigma_measured", "consistency_sup"),
    "kernel-check": ("ball_pass", "multipole_vs_direct_pass"),
}

# Polytropic indices at which the acceptance suite bounds the dual-path
# consistency of the perturbation field by 1e-4 (criterion 6a).
CONSISTENCY_COVERED = (1.2, 1.5, 1.9, 2.5, 3.0)


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def extract(kind: str, out: Path) -> dict:
    """Answer-bearing outputs of one task; raises OSError/KeyError/ValueError
    when an artifact is missing or malformed."""
    if kind == "lane-emden":
        d = _load(out, "lane_emden.json")
        return {"xi1": d["xi1"], "mu1": d["mu1"]}
    if kind == "hl-check":
        d = _load(out, "hl_check.json")
        return {"hl_sigma_min": d["sigma_min"]}
    if kind in ("solve", "differential-solve", "momentum-solve", "scale-solve"):
        d = _load(out, "solution.json")
        return {
            "boundary": d["boundary"],
            "m1": d["meta"]["m1"],
            "hl_sigma_min": d["hl_sigma_min"],
        }
    if kind == "mass-curve":
        d = _load(out, "mass_curve.json")
        return {
            "rho_center": [p["rho_center"] for p in d["points"]],
            "mass_m1": [p["m1"] for p in d["points"]],
            "relative_errors": d["relative_errors"],
        }
    if kind == "oblateness":
        d = _load(out, "oblateness.json")
        return {
            "nu": d["nu"],
            "sigma": d["sigma"],
            "sigma_linear": d["sigma_linear"],
            "sigma_measured": d["sigma_measured"],
            "consistency_sup": d["consistency_sup"],
        }
    if kind == "kernel-check":
        d = _load(out, "kernel_check.json")
        return {k: d[k] for k in (
            "ball_sup_error", "ball_pass", "multipole_vs_direct_sup",
            "multipole_vs_direct_pass",
        )}
    raise ValueError(f"unknown task kind {kind!r}")


def _close(name: str, got, want) -> bool:
    mode, tol = TOLERANCES[name]
    if want is None or got is None:
        return want is None and got is None
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(name, g, w) for g, w in zip(got, want)))
    if mode == "exact":
        return got == want
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        return False
    scale = 1.0 if mode == "abs" else abs(want)
    return abs(got - want) <= tol * scale


def oracle_problems(kind: str, values: dict) -> list[str]:
    """Checks against bounds that do not depend on the frozen answers."""
    problems = []
    if kind == "mass-curve":
        # criterion 10: the curve holds the mass to 1e-6 relative
        worst = max(values["relative_errors"])
        if not worst <= 1e-6:
            problems.append(f"mass-curve relative error {worst:.2e} > 1e-6")
    if kind == "oblateness":
        if values["nu"] in CONSISTENCY_COVERED and not values["consistency_sup"] <= 1e-4:
            problems.append(f"consistency_sup {values['consistency_sup']:.2e} > 1e-4")
        if not values["sigma_linear"] > 0:
            problems.append("oblateness slope is not positive")
        # the full solve's oblateness against the first-order prediction; the
        # gap is the second-order term (0.3% at nu = 1 to 10% at nu = 3 for
        # beta = 1e-3), so this catches a wrong sign or scale, not drift
        measured, predicted = values["sigma_measured"], values["sigma"]
        ratio = measured / predicted if measured is not None and predicted > 0 else None
        if ratio is None or not 0.8 <= ratio <= 1.25:
            problems.append(f"sigma_measured {measured!r} vs first-order {predicted!r}")
    if kind == "kernel-check":
        if not values["ball_sup_error"] <= 1e-6:
            problems.append(f"uniform ball error {values['ball_sup_error']:.2e} > 1e-6")
        if not values["multipole_vs_direct_sup"] <= 1e-5:
            problems.append(
                f"multipole vs direct {values['multipole_vs_direct_sup']:.2e} > 1e-5")
    return problems


def check(key: str, values: dict, answers: dict) -> list[str]:
    """Problems with one task's outputs; an empty list means correct."""
    kind = key.split("/")[0]
    problems = oracle_problems(kind, values)
    frozen = answers.get(key)
    if frozen is None:
        return problems + [f"no frozen answer for {key}"]
    for name, want in frozen.items():
        if not _close(name, values.get(name), want):
            problems.append(f"{name}: got {values.get(name)!r}, frozen {want!r}")
    return problems


def load_answers() -> dict:
    return json.loads(ANSWERS_PATH.read_text())["answers"]
