"""Fixed input pool and the seeded task lists drawn from it.

Every workload draws from this pool only; the program under test sees the
generated configuration files and nothing else.  A pool entry is identified
by a stable key (``command/variant``) that also keys the frozen answers in
``answers.json``.
"""

from __future__ import annotations

import math
import random

# Polytropic indices of the pool.  1.0 is the analytic (gamma = 2) case;
# 1.5 is the reference; 3.0 is the most centrally condensed star.
NUS = (1.0, 1.5, 2.0, 2.5, 3.0)

# First zero of the spherical profile (golden step-halving values) and the
# dimensionless cylinder mass of the spherical state at 256x32xl8.  They only
# size the rotation tables below, so a few digits suffice.
XI1 = {1.0: 3.14159, 1.5: 3.65375, 2.0: 4.35287, 2.5: 5.35528, 3.0: 6.89685}
CYLINDER_MASS = {1.0: 1.25331, 1.5: 1.52219, 2.0: 2.04043, 2.5: 2.95371, 3.0: 4.55467}

REFERENCE_GRID = {"n_r": 256, "n_zeta": 32, "l_max": 8}
SCALE_GRID = {"n_r": 512, "n_zeta": 48, "l_max": 16}
KERNEL_GRID = {"n_r": 32, "n_zeta": 12, "l_max": 4}

MASS_SCHEDULES = {
    "a": [0.0, 1e-4, 3e-4],
    "b": [0.0, 2e-4, 5e-4],
    "c": [0.0, 3e-4, 6e-4],
}
KERNEL_R_INF = {"r1.5": 1.5, "r2.0": 2.0, "r2.5": 2.5}


def _length_scale(nu: float) -> float:
    """Radius unit a at u_center = G = K = 1: (nu+1)^(nu/2) / sqrt(4 pi)."""
    return (nu + 1.0) ** (nu / 2.0) / math.sqrt(4.0 * math.pi)


def _differential_tables(nu: float) -> tuple[list[float], list[float]]:
    """Omega(varpi) = Omega0 / (1 + (varpi / A)^2) with A the physical
    equatorial radius and Omega0 giving a central beta of 2e-3."""
    a = _length_scale(nu)
    radius = a * XI1[nu]
    omega0 = math.sqrt(1e-3) / a
    varpi = [radius * 1.5 * k / 8 for k in range(9)]
    omega = [omega0 / (1.0 + (v / radius) ** 2) for v in varpi]
    return varpi, omega


def _momentum_tables(nu: float) -> tuple[list[float], list[float]]:
    """j(m) = 0.01 m^2 / M on [0, 1.3 M], M the spherical cylinder mass."""
    total = CYLINDER_MASS[nu]
    m = [1.3 * total * k / 59 for k in range(60)]
    return m, [0.01 * x * x / total for x in m]


def _entries() -> dict[str, dict]:
    pool: dict[str, dict] = {}
    for nu in NUS:
        eos = {"nu": nu}
        pool[f"lane-emden/nu{nu}"] = {"run": {"command": "lane-emden"}, "eos": eos}
        pool[f"hl-check/nu{nu}"] = {
            "run": {"command": "hl-check"}, "eos": eos, "grid": REFERENCE_GRID,
        }
        pool[f"solve/nu{nu}"] = {
            "run": {"command": "solve"}, "eos": eos, "grid": REFERENCE_GRID,
            "rotation": {"kind": "constant", "beta": 1e-3},
            "solver": {"certify": True},
        }
        varpi, omega = _differential_tables(nu)
        pool[f"differential-solve/nu{nu}"] = {
            "run": {"command": "solve"}, "eos": eos, "grid": REFERENCE_GRID,
            "rotation": {"kind": "differential", "varpi": varpi, "omega_profile": omega},
            "solver": {"certify": True},
        }
        m, j = _momentum_tables(nu)
        pool[f"momentum-solve/nu{nu}"] = {
            "run": {"command": "solve"}, "eos": eos, "grid": REFERENCE_GRID,
            "rotation": {"kind": "angular-momentum", "m": m, "j": j},
            "solver": {"certify": True},
        }
        pool[f"oblateness/nu{nu}"] = {
            "run": {"command": "oblateness"}, "eos": eos, "grid": REFERENCE_GRID,
            "perturb": {"beta": 1e-3, "measure": True},
        }
        pool[f"scale-solve/nu{nu}"] = {
            "run": {"command": "solve"}, "eos": eos, "grid": SCALE_GRID,
            "rotation": {"kind": "constant", "beta": 1e-3},
            "solver": {"certify": False},
        }
    for name, schedule in MASS_SCHEDULES.items():
        pool[f"mass-curve/{name}"] = {
            "run": {"command": "mass-curve"}, "eos": {"gamma": 5.0 / 3.0},
            "grid": REFERENCE_GRID, "mass": {"omega2_schedule": schedule},
        }
    for name, r_inf in KERNEL_R_INF.items():
        pool[f"kernel-check/{name}"] = {
            "run": {"command": "kernel-check"}, "grid": {**KERNEL_GRID, "r_inf": r_inf},
        }
    return pool


POOL = _entries()

# The task kind of a pool key is the part before the slash; each kind has its
# own end-to-end time.
KINDS = (
    "lane-emden", "hl-check", "solve", "differential-solve", "momentum-solve",
    "mass-curve", "oblateness", "scale-solve", "kernel-check",
)

# Name of each kind's end-to-end time; the 512x48xl16 solve is scale-up's
# ``solve_s``.
TIME_METRIC = {kind: kind.replace("-", "_") + "_s" for kind in KINDS}
TIME_METRIC["scale-solve"] = "solve_s"

# One pass of a workload: (kind, number of draws).  The ~1 s commands are
# drawn several times so that their medians rest on more than one sample.
WORKLOADS = {
    "reference-mix": (
        ("lane-emden", 3), ("hl-check", 3), ("solve", 1), ("differential-solve", 1),
        ("momentum-solve", 1), ("mass-curve", 1),
    ),
    "perturbation": (("oblateness", 4),),
    "scale-up": (("scale-solve", 3), ("kernel-check", 2)),
}


def variants(kind: str) -> list[str]:
    return sorted(k for k in POOL if k.split("/")[0] == kind)


def task_list(workload: str, seed: int) -> list[str]:
    """Pool keys of one pass, picked and ordered by the seed.

    Draws of one kind are without replacement, so repeated draws cover
    different inputs.
    """
    rng = random.Random(f"{workload}:{seed}")
    keys: list[str] = []
    for kind, count in WORKLOADS[workload]:
        keys.extend(rng.sample(variants(kind), count))
    rng.shuffle(keys)
    return keys
