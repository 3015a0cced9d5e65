"""Batch front end: read a run configuration, dispatch, write artifacts.

One configuration file describes one run.  The primary encoding is an INI
file with sections; a JSON object with the same section/key schema is
accepted as an alternative.  Outputs are JSON and CSV files plus a manifest
recording the configuration hash and the checksums of everything written.
Identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .eos import EquationOfState, ScaleSet
from .equilibrium import (
    ConstantRotationFamily,
    SolverOptions,
    hl_certificate_blocks,
    initial_field_from_profile,
    solve_equilibrium,
)
from .errors import ConfigError, RotstarError
from .grids import AxiField, AxiGrid
from .mass import MassCalculator, trace_constant_mass_curve
from .perturb import compute_h_field, oblateness
from .potential import (
    potential_direct,
    potential_modes_from_samples,
    potential_multipole,
    uniform_ball_potential,
)
from .radial import solve_lane_emden
from .rotation import (
    AngularMomentumLaw,
    ConstantRotation,
    DifferentialRotation,
    centrifugal_from_omega,
    rigid_rotation,
)

_log = logging.getLogger(__name__)

COMMANDS = ("lane-emden", "solve", "oblateness", "mass-curve", "kernel-check", "hl-check")


def _positive(x: float) -> bool:
    return x > 0


def _nonneg(x: float) -> bool:
    return x >= 0


# section -> key -> (type tag, validator or None)
SCHEMA = {
    "run": {"command": ("choice", COMMANDS)},
    "eos": {
        "kind": ("choice", ("polytrope", "white_dwarf")),
        "gamma": ("float", _positive),
        "nu": ("float", _positive),
        "pressure_const": ("float", _positive),
        "wd_a": ("float", _positive),
        "wd_b": ("float", _positive),
        "wd_c": ("float", _positive),
    },
    "scale": {
        "u_center": ("float", _positive),
        "grav_const": ("float", _positive),
    },
    "rotation": {
        "kind": ("choice", ("none", "constant", "differential", "angular-momentum")),
        "omega": ("float", _nonneg),
        "beta": ("float", _nonneg),
        "varpi": ("floatlist", None),
        "omega_profile": ("floatlist", None),
        "m": ("floatlist", None),
        "j": ("floatlist", None),
    },
    "grid": {
        "n_r": ("int", lambda n: n >= 16),
        "n_zeta": ("int", lambda n: n >= 4),
        "l_max": ("int", lambda n: n >= 0 and n % 2 == 0),
        "r_inf": ("float", _positive),
    },
    "solver": {
        "tol": ("float", _positive),
        "max_iter": ("int", _positive),
        "newton": ("bool", None),
        "damping": ("float", lambda x: 0 < x <= 1),
        "hl_threshold": ("float", _positive),
        "certify": ("bool", None),
    },
    "perturb": {
        "beta": ("float", _nonneg),
        "measure": ("bool", None),
    },
    "mass": {
        "rho_center": ("float", _positive),
        "omega2_schedule": ("floatlist", _nonneg),
        "rtol": ("float", _positive),
    },
    "output": {
        "prefix": ("str", None),
        "field_csv": ("bool", None),
    },
}

DEFAULTS = {
    "eos": {"kind": "polytrope", "gamma": None, "nu": None, "pressure_const": 1.0,
            "wd_a": None, "wd_b": None, "wd_c": None},
    "scale": {"u_center": 1.0, "grav_const": 1.0},
    "rotation": {"kind": "none", "omega": None, "beta": None, "varpi": None,
                 "omega_profile": None, "m": None, "j": None},
    "grid": {"n_r": 256, "n_zeta": 32, "l_max": 8, "r_inf": None},
    "solver": {"tol": 1e-10, "max_iter": 60, "newton": True, "damping": 0.5,
               "hl_threshold": 1e-3, "certify": True},
    "perturb": {"beta": 1e-3, "measure": False},
    "mass": {"rho_center": 1.0, "omega2_schedule": [0.0], "rtol": 1e-9},
    "output": {"prefix": None, "field_csv": False},
}


def _coerce(section: str, key: str, raw, kind: str, check):
    try:
        if kind == "float":
            val = float(raw)
        elif kind == "int":
            val = int(str(raw))
        elif kind == "bool":
            if isinstance(raw, bool):
                val = raw
            elif str(raw).lower() in ("true", "yes", "1"):
                val = True
            elif str(raw).lower() in ("false", "no", "0"):
                val = False
            else:
                raise ValueError(raw)
        elif kind == "floatlist":
            if isinstance(raw, (list, tuple)):
                val = [float(x) for x in raw]
            else:
                val = [float(x) for x in str(raw).split(",") if x.strip()]
        elif kind == "choice":
            val = str(raw)
            if val not in check:
                raise ValueError(f"must be one of {check}")
            return val
        else:
            val = str(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} ({exc})", parameter=f"{section}.{key}"
        ) from None
    if kind != "choice" and check is not None:
        bad = (
            any(not check(v) for v in val) if kind == "floatlist" else not check(val)
        )
        if bad:
            raise ConfigError(
                f"[{section}] {key}: value {val!r} out of range", parameter=f"{section}.{key}"
            )
    return val


def load_config(path: str | Path) -> dict:
    """Parse and validate a run configuration (INI or JSON)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    stripped = text.lstrip()
    if path.suffix == ".json" or stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("JSON config must be an object of sections")
        sections = {str(k): dict(v) for k, v in raw.items()}
    else:
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"invalid INI config: {exc}") from None
        sections = {name: dict(parser[name]) for name in parser.sections()}

    for section in sections:
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]", parameter=section)
    if "run" not in sections or "command" not in sections["run"]:
        raise ConfigError("missing [run] command", parameter="run.command")

    config = {"run": {}}
    for section, keys in sections.items():
        out = dict(DEFAULTS.get(section, {}))
        for key, raw in keys.items():
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]", parameter=f"{section}.{key}"
                )
            kind, check = SCHEMA[section][key]
            out[key] = _coerce(section, key, raw, kind, check)
        config[section] = out
    for section, defaults in DEFAULTS.items():
        config.setdefault(section, dict(defaults))
    return config


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def build_eos(config: dict) -> EquationOfState:
    sec = config["eos"]
    if sec["kind"] == "white_dwarf":
        for k in ("wd_a", "wd_b", "wd_c"):
            if sec[k] is None:
                raise ConfigError("white dwarf EOS needs wd_a, wd_b, wd_c", parameter=f"eos.{k}")
        return EquationOfState.white_dwarf(sec["wd_a"], sec["wd_b"], sec["wd_c"])
    if sec["nu"] is not None and sec["gamma"] is not None:
        raise ConfigError("give either gamma or nu, not both", parameter="eos.nu")
    if sec["nu"] is not None:
        return EquationOfState.from_index(sec["nu"], sec["pressure_const"])
    if sec["gamma"] is not None:
        return EquationOfState.polytrope(sec["gamma"], sec["pressure_const"])
    raise ConfigError("polytrope EOS needs gamma or nu", parameter="eos.gamma")


def build_rotation(config: dict, scale: ScaleSet):
    sec = config["rotation"]
    kind = sec["kind"]
    if kind == "none":
        return None
    if kind == "constant":
        if sec["beta"] is not None:
            return ("beta", sec["beta"])
        if sec["omega"] is None:
            raise ConfigError("constant rotation needs omega or beta", parameter="rotation.omega")
        return ConstantRotation(sec["omega"])
    if kind == "differential":
        if sec["varpi"] is None or sec["omega_profile"] is None:
            raise ConfigError(
                "differential rotation needs varpi and omega_profile tables",
                parameter="rotation.varpi",
            )
        return DifferentialRotation(np.asarray(sec["varpi"]), np.asarray(sec["omega_profile"]))
    if sec["m"] is None or sec["j"] is None:
        raise ConfigError("angular-momentum law needs m and j tables", parameter="rotation.m")
    return AngularMomentumLaw(np.asarray(sec["m"]), np.asarray(sec["j"]))


def solver_options(config: dict) -> SolverOptions:
    sec = config["solver"]
    return SolverOptions(
        tol=sec["tol"],
        max_iter=sec["max_iter"],
        newton=sec["newton"],
        picard_damping=sec["damping"],
        hl_threshold=sec["hl_threshold"],
        certify=sec["certify"],
    )


# ---------------------------------------------------------------------------
# deterministic output helpers


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_atomic(path: Path, data: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class OutputWriter:
    def __init__(self, out_dir: Path, config: dict):
        self.dir = out_dir
        self.config = config
        self.files: list[dict] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_json(self, name: str, payload) -> None:
        data = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"
        self._record(name, data)

    def write_csv(self, name: str, header: list[str], rows) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        self._record(name, buf.getvalue())

    def _record(self, name: str, data: str) -> None:
        path = self.dir / name
        _write_atomic(path, data)
        self.files.append(
            {
                "name": name,
                "bytes": len(data.encode()),
                "sha256": hashlib.sha256(data.encode()).hexdigest(),
            }
        )

    def finish(self, command: str) -> None:
        manifest = {
            "command": command,
            "config": self.config,
            "config_hash": config_hash(self.config),
            "library_version": __version__,
            "files": sorted(self.files, key=lambda f: f["name"]),
        }
        data = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _write_atomic(self.dir / "manifest.json", data)


# ---------------------------------------------------------------------------
# commands


def _grid_and_profile(config, eos):
    scale_sec = config["scale"]
    prof = solve_lane_emden(eos, scale_sec["u_center"], r_inf=config["grid"]["r_inf"])
    grid = AxiGrid.build(
        prof.r_inf,
        config["grid"]["n_r"],
        config["grid"]["n_zeta"],
        config["grid"]["l_max"],
        focus=prof.xi1,
    )
    return grid, prof


def cmd_lane_emden(config, writer):
    eos = build_eos(config)
    u_c = config["scale"]["u_center"]
    prof = solve_lane_emden(eos, u_c, r_inf=config["grid"]["r_inf"])
    writer.write_csv(
        "profile.csv",
        ["r", "theta", "dtheta", "psi"],
        zip(prof.r_nodes, prof.theta, prof.dtheta, prof.psi),
    )
    writer.write_json(
        "lane_emden.json",
        {
            "gamma": eos.gamma,
            "nu": eos.nu,
            "u_center": u_c,
            "xi1": prof.xi1,
            "mu1": prof.mu1,
            "r_inf": prof.r_inf,
        },
    )
    return 0


def cmd_solve(config, writer):
    eos = build_eos(config)
    scale = ScaleSet.from_central_enthalpy(
        eos, config["scale"]["u_center"], config["scale"]["grav_const"]
    )
    grid, prof = _grid_and_profile(config, eos)
    init = initial_field_from_profile(grid, prof)
    opts = solver_options(config)
    rot = build_rotation(config, scale)
    law = None
    beta = None
    if rot is None:
        cf = None
    elif isinstance(rot, tuple):  # ("beta", value)
        beta = rot[1]
        cf = rigid_rotation(grid, beta)
    elif isinstance(rot, AngularMomentumLaw):
        law, cf = rot, None
    else:
        cf = centrifugal_from_omega(rot, scale, grid)
        beta = cf.beta
    sol = solve_equilibrium(
        cf, eos, scale.u_center, init, opts, law=law, scale=scale
    ).require_boundary()
    from .mass import total_mass_dimensionless

    doc = sol.to_dict()
    doc["meta"] = {
        "eos_kind": eos.kind,
        "gamma": eos.gamma,
        "nu": eos.nu,
        "beta": beta,
        "rotation_kind": config["rotation"]["kind"],
        "grid": {
            "n_r": grid.n_r,
            "n_zeta": grid.n_zeta,
            "l_max": grid.l_max,
            "r_inf": grid.r_inf,
        },
        "xi1_spherical": prof.xi1,
        "m1": total_mass_dimensionless(sol, eos, scale.u_center),
    }
    if "fallback" in sol.meta:
        doc["meta"]["fallback"] = sol.meta["fallback"]
    writer.write_json("solution.json", doc)
    writer.write_csv(
        "boundary.csv", ["zeta", "R"], zip(grid.zeta, sol.R_of_zeta)
    )
    if config["output"]["field_csv"]:
        header = ["r"] + [_fmt(z) for z in grid.zeta]
        rows = (
            [grid.r[i]] + list(sol.u.values[i]) for i in range(grid.n_r)
        )
        writer.write_csv("field.csv", header, rows)
    return 0


def cmd_oblateness(config, writer):
    eos = build_eos(config)
    u_c = config["scale"]["u_center"]
    prof = solve_lane_emden(eos, u_c, r_inf=config["grid"]["r_inf"])
    hf = compute_h_field(prof, eos, u_c)
    beta = config["perturb"]["beta"]
    solution = None
    if config["perturb"]["measure"]:
        grid = AxiGrid.build(
            prof.r_inf, config["grid"]["n_r"], config["grid"]["n_zeta"],
            config["grid"]["l_max"], focus=prof.xi1,
        )
        fam = ConstantRotationFamily(
            eos, u_c, grid=grid, opts=SolverOptions(tol=1e-12, certify=False),
            profile=prof,
        )
        solution = fam.solve_at(beta)
    rep = oblateness(prof, hf, beta, solution=solution)
    doc = rep.to_dict()
    doc["xi1"] = prof.xi1
    doc["mu1"] = prof.mu1
    doc["nu"] = eos.nu
    doc["consistency_sup"] = hf.consistency_sup
    writer.write_json("oblateness.json", doc)
    writer.write_csv("xi1_curve.csv", ["zeta", "Xi1"], zip(rep.zeta, rep.Xi1_of_zeta))
    return 0


def _mass_point_worker(args):
    gamma, pressure_const, grav_const, rho_ref, om2, n_r, n_zeta, l_max, rtol = args
    eos = EquationOfState.polytrope(gamma, pressure_const)
    calc = MassCalculator(eos, grav_const, n_r=n_r, n_zeta=n_zeta, l_max=l_max)
    out = trace_constant_mass_curve(eos, rho_ref, [om2], calculator=calc, rtol=rtol)
    p = out["points"][0]
    return (p.rho_center, p.omega2, p.beta, p.m1, p.mass, out["relative_errors"][0],
            out["mass_reference"])


def cmd_mass_curve(config, writer, jobs=1):
    eos = build_eos(config)
    if eos.kind != "polytrope":
        raise ConfigError("mass-curve requires the exact gamma-law", parameter="eos.kind")
    g = config["grid"]
    schedule = config["mass"]["omega2_schedule"]
    rho_ref = config["mass"]["rho_center"]
    grav = config["scale"]["grav_const"]
    if jobs > 1 and schedule:
        from concurrent.futures import ProcessPoolExecutor

        args = [
            (eos.gamma, eos.pressure_const, grav, rho_ref, om2,
             g["n_r"], g["n_zeta"], g["l_max"], config["mass"]["rtol"])
            for om2 in schedule
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_mass_point_worker, args))
        errors = [r[5] for r in rows]
        # every worker computes the same zero-rotation mass at rho_ref
        mass_ref = rows[0][6]
        rows = [r[:5] for r in rows]
        beta_max = max(r[2] for r in rows)
    else:
        calc = MassCalculator(
            eos, grav, n_r=g["n_r"], n_zeta=g["n_zeta"], l_max=g["l_max"]
        )
        out = trace_constant_mass_curve(
            eos, rho_ref, schedule, calculator=calc, rtol=config["mass"]["rtol"]
        )
        rows = [
            (p.rho_center, p.omega2, p.beta, p.m1, p.mass) for p in out["points"]
        ]
        errors = out["relative_errors"]
        mass_ref = out["mass_reference"]
        beta_max = out["beta_monotone_max"]
    writer.write_csv(
        "mass_curve.csv",
        ["Omega2", "beta", "rho_O", "M1", "M"],
        [(om2, b, rho, m1, m) for (rho, om2, b, m1, m) in rows],
    )
    writer.write_json(
        "mass_curve.json",
        {
            "gamma": eos.gamma,
            "mass_reference": mass_ref,
            "relative_errors": errors,
            "beta_monotone_max": beta_max,
            "points": [
                {"rho_center": rho, "omega2": om2, "beta": b, "m1": m1, "mass": m}
                for (rho, om2, b, m1, m) in rows
            ],
        },
    )
    return 0


def cmd_kernel_check(config, writer):
    g = config["grid"]
    r_inf = g["r_inf"] or 2.0
    grid = AxiGrid.build(r_inf, g["n_r"], g["n_zeta"], g["l_max"])
    # uniform ball against the closed form, sources exact at quadrature points
    R = grid.r[int(0.7 * grid.n_r)]
    samples = np.zeros((grid.n_l, grid.n_gauss))
    samples[0] = (grid.gauss_x <= R).astype(float)
    out = potential_modes_from_samples(grid, samples)
    ball_err = float(np.max(np.abs(out[0] - uniform_ball_potential(R, grid.r))))
    # multipole vs direct on a band-limited smooth field
    rng = np.random.default_rng(2024)
    modes = np.zeros((grid.n_l, grid.n_r))
    modes[0] = np.exp(-grid.r ** 2)
    for k in range(1, grid.n_l):
        modes[k] = 0.4 ** k * grid.r ** 2 * np.exp(-grid.r ** 2)
    f = AxiField.from_modes(grid, modes)
    km = potential_multipole(f)
    kd = potential_direct(f, refine_depth=4, window=2)
    mv_sup = float((km - kd).sup_norm())
    checks = {
        "ball_sup_error": ball_err,
        "ball_pass": ball_err <= 1e-6,
        "multipole_vs_direct_sup": mv_sup,
        "multipole_vs_direct_pass": mv_sup <= 1e-5,
        "grid": {"n_r": grid.n_r, "n_zeta": grid.n_zeta, "l_max": grid.l_max},
    }
    writer.write_json("kernel_check.json", checks)
    return 0 if checks["ball_pass"] and checks["multipole_vs_direct_pass"] else 3


def cmd_hl_check(config, writer):
    eos = build_eos(config)
    u_c = config["scale"]["u_center"]
    grid, prof = _grid_and_profile(config, eos)
    u = initial_field_from_profile(grid, prof)
    # the spherical state's certificate is the smallest per-degree value
    blocks = hl_certificate_blocks(u, eos, u_c)
    sigma = min(blocks.values())
    threshold = config["solver"]["hl_threshold"]
    writer.write_json(
        "hl_check.json",
        {
            "nu": eos.nu,
            "blocks": {str(k): v for k, v in blocks.items()},
            "sigma_min": sigma,
            "threshold": threshold,
            "pass": sigma > threshold,
        },
    )
    return 0 if sigma > threshold else 3


def run(config: dict, out_dir: Path, jobs: int = 1) -> int:
    """Execute the configured command; returns a process exit status."""
    command = config["run"]["command"]
    writer = OutputWriter(out_dir, config)
    if command == "lane-emden":
        status = cmd_lane_emden(config, writer)
    elif command == "solve":
        status = cmd_solve(config, writer)
    elif command == "oblateness":
        status = cmd_oblateness(config, writer)
    elif command == "mass-curve":
        status = cmd_mass_curve(config, writer, jobs=jobs)
    elif command == "kernel-check":
        status = cmd_kernel_check(config, writer)
    else:
        status = cmd_hl_check(config, writer)
    writer.finish(command)
    _log.info("%s: wrote %d files to %s", command, len(writer.files), out_dir)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rotstar",
        description="Rotating self-gravitating equilibria: batch runner.",
    )
    parser.add_argument("--config", required=True, metavar="PATH")
    parser.add_argument("--out", default="out", metavar="DIR")
    parser.add_argument("--jobs", type=int, default=1, metavar="N")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    args = parser.parse_args(argv)

    def report(kind: str, exc: Exception) -> None:
        payload = {"error": kind, "message": str(exc)}
        if getattr(exc, "parameter", None):
            payload["parameter"] = exc.parameter
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        report("ConfigError", exc)
        return 2
    # --verbose: every rotstar logger reports to stderr for this run only
    log = logging.getLogger("rotstar")
    level = log.level
    handler = None
    if args.verbose:
        handler = logging.StreamHandler(sys.stderr)
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        return run(config, Path(args.out), jobs=args.jobs)
    except ConfigError as exc:
        report("ConfigError", exc)
        return 2
    except RotstarError as exc:
        report(type(exc).__name__, exc)
        return 3
    except OSError as exc:
        report("IOError", exc)
        return 4
    finally:
        if handler is not None:
            log.removeHandler(handler)
            log.setLevel(level)


if __name__ == "__main__":
    raise SystemExit(main())
