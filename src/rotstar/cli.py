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
import io
import json
import logging
import math
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
from .errors import ConfigError, DomainError, RotstarError
from .grids import AxiField, AxiGrid
from .mass import MassCalculator, total_mass_dimensionless, trace_constant_mass_curve
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


# ---------------------------------------------------------------------------
# the run's objects from a validated configuration


# the keys of [eos] and [rotation] that each kind reads
_EOS_KEYS = {
    "polytrope": ("gamma", "nu", "pressure_const"),
    "white_dwarf": ("wd_a", "wd_b", "wd_c"),
}
_ROTATION_KEYS = {
    "none": (),
    "constant": ("omega", "beta"),
    "differential": ("varpi", "omega_profile"),
    "angular-momentum": ("m", "j"),
}


def _kind_section(config: dict, section: str, keys: dict) -> dict:
    """``config[section]``; a key given that its kind does not read (``keys``)
    is a ConfigError."""
    sec = config[section]
    kind = sec["kind"]
    for key, val in sec.items():
        if key != "kind" and val is not None and key not in keys[kind]:
            raise ConfigError(f"{kind} {section} takes no {key}", parameter=f"{section}.{key}")
    return sec


def build_eos(config: dict) -> EquationOfState:
    sec = _kind_section(config, "eos", _EOS_KEYS)
    if sec["kind"] == "white_dwarf":
        missing = [k for k in _EOS_KEYS["white_dwarf"] if sec[k] is None]
        if missing:
            raise ConfigError(
                "white dwarf EOS needs wd_a, wd_b, wd_c", parameter=f"eos.{missing[0]}"
            )
        return EquationOfState.white_dwarf(sec["wd_a"], sec["wd_b"], sec["wd_c"])
    if sec["nu"] is not None and sec["gamma"] is not None:
        raise ConfigError("give either gamma or nu, not both", parameter="eos.nu")
    # the white dwarf's constant follows from wd_a and wd_b, so the key has no
    # default in the table
    pressure_const = 1.0 if sec["pressure_const"] is None else sec["pressure_const"]
    if sec["nu"] is not None:
        return EquationOfState.from_index(sec["nu"], pressure_const)
    if sec["gamma"] is not None:
        return EquationOfState.polytrope(sec["gamma"], pressure_const)
    raise ConfigError("polytrope EOS needs gamma or nu", parameter="eos.gamma")


def _tabulated_law(sec: dict, law, x: str, y: str):
    if sec[x] is None or sec[y] is None:
        raise ConfigError(
            f"{sec['kind']} rotation needs {x} and {y} tables", parameter=f"rotation.{x}"
        )
    try:
        return law(np.asarray(sec[x]), np.asarray(sec[y]))
    except DomainError as exc:
        raise ConfigError(f"[rotation] {x}, {y}: {exc}", parameter=f"rotation.{x}") from None


def build_rotation(config: dict, scale: ScaleSet, grid: AxiGrid):
    """``[rotation]`` as (centrifugal field, angular-momentum law) on ``grid``.

    Rigid and Omega(varpi) rotation give a field, j(m) gives a law, and
    ``kind = none`` neither.  A key that the kind does not read is a
    ConfigError.
    """
    sec = _kind_section(config, "rotation", _ROTATION_KEYS)
    kind = sec["kind"]
    if kind == "none":
        return None, None
    if kind == "constant":
        if sec["omega"] is not None and sec["beta"] is not None:
            raise ConfigError("give either omega or beta, not both", parameter="rotation.beta")
        if sec["beta"] is not None:
            return rigid_rotation(grid, sec["beta"]), None
        if sec["omega"] is None:
            raise ConfigError("constant rotation needs omega or beta", parameter="rotation.omega")
        return centrifugal_from_omega(ConstantRotation(sec["omega"]), scale, grid), None
    if kind == "differential":
        law = _tabulated_law(sec, DifferentialRotation, "varpi", "omega_profile")
        return centrifugal_from_omega(law, scale, grid), None
    return None, _tabulated_law(sec, AngularMomentumLaw, "m", "j")


def solver_options(config: dict) -> SolverOptions:
    return SolverOptions(**config["solver"])


def _profile(config, eos):
    """The spherical profile at ``[scale] u_center``, out to ``[grid] r_inf``."""
    return solve_lane_emden(eos, config["scale"]["u_center"], r_inf=config["grid"]["r_inf"])


def _grid(config, prof):
    g = config["grid"]
    return AxiGrid.build(prof.r_inf, g["n_r"], g["n_zeta"], g["l_max"], focus=prof.xi1)


def _grid_and_profile(config, eos):
    prof = _profile(config, eos)
    return _grid(config, prof), prof


# ---------------------------------------------------------------------------
# deterministic output helpers


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _sha256_hex(data: bytes) -> str:
    """The hex sha256 of data, from CPython's own SHA-256 module (``_sha2`` on
    3.12+, ``_sha256`` before), as ``random`` takes its ``_sha512``: hashlib
    maps OpenSSL's libcrypto (about 3.4 MB resident), so it is only the
    fallback where neither is built.  Imported at the first artifact a
    command writes, not with the module."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _write_atomic(path: Path, text: str) -> bytes:
    """Write text to path as UTF-8, whatever the locale and without newline
    translation, through a temporary file renamed into place; returns the
    bytes written."""
    data = text.encode()
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return data


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

    def _record(self, name: str, text: str) -> None:
        data = _write_atomic(self.dir / name, text)
        self.files.append({"name": name, "bytes": len(data), "sha256": _sha256_hex(data)})

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


def cmd_lane_emden(config, writer):
    eos = build_eos(config)
    prof = _profile(config, eos)
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
            "u_center": prof.u_center,
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
    cf, law = build_rotation(config, scale, grid)
    sol = solve_equilibrium(
        cf, eos, scale.u_center, init, solver_options(config), law=law, scale=scale
    ).require_boundary()

    doc = sol.to_dict()
    doc["meta"] = {
        "eos_kind": eos.kind,
        "gamma": eos.gamma,
        "nu": eos.nu,
        "beta": None if cf is None else cf.beta,
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
    prof = _profile(config, eos)
    u_c = prof.u_center
    hf = compute_h_field(prof, eos, u_c)
    beta = config["perturb"]["beta"]
    solution = None
    if config["perturb"]["measure"]:
        # fixed options, not [solver]: this solve only measures the oblateness
        fam = ConstantRotationFamily(
            eos, u_c, grid=_grid(config, prof), opts=SolverOptions(tol=1e-12, certify=False),
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


def cmd_mass_curve(config, writer):
    eos = build_eos(config)
    if eos.kind != "polytrope":
        raise ConfigError("mass-curve requires the exact gamma-law", parameter="eos.kind")
    g = config["grid"]
    # the calculator's default options, not [solver]: certify off keeps the
    # curve's many warm-started solves fast
    calc = MassCalculator(
        eos, config["scale"]["grav_const"], n_r=g["n_r"], n_zeta=g["n_zeta"],
        l_max=g["l_max"], profile=_profile(config, eos),
    )
    out = trace_constant_mass_curve(
        eos, config["mass"]["rho_center"], config["mass"]["omega2_schedule"],
        calculator=calc, rtol=config["mass"]["rtol"],
    )
    points = out["points"]
    writer.write_csv(
        "mass_curve.csv",
        ["Omega2", "beta", "rho_O", "M1", "M"],
        [(p.omega2, p.beta, p.rho_center, p.m1, p.mass) for p in points],
    )
    writer.write_json(
        "mass_curve.json",
        {
            "gamma": eos.gamma,
            "mass_reference": out["mass_reference"],
            "relative_errors": out["relative_errors"],
            "beta_monotone_max": out["beta_monotone_max"],
            "points": [
                {
                    "rho_center": p.rho_center, "omega2": p.omega2, "beta": p.beta,
                    "m1": p.m1, "mass": p.mass,
                    "rho_center_rel_uncertainty": p.rho_center_rel_uncertainty,
                }
                for p in points
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
    grid, prof = _grid_and_profile(config, eos)
    u = initial_field_from_profile(grid, prof)
    # the spherical state's certificate is the smallest per-degree value
    blocks = hl_certificate_blocks(u, eos, prof.u_center)
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


COMMANDS = {
    "lane-emden": cmd_lane_emden,
    "solve": cmd_solve,
    "oblateness": cmd_oblateness,
    "mass-curve": cmd_mass_curve,
    "kernel-check": cmd_kernel_check,
    "hl-check": cmd_hl_check,
}


# ---------------------------------------------------------------------------
# configuration


def _positive(x: float) -> bool:
    return x > 0


def _nonneg(x: float) -> bool:
    return x >= 0


# section -> key -> (type tag, validator or choices or None, default)
CONFIG = {
    "run": {"command": ("choice", tuple(COMMANDS), None)},
    "eos": {
        "kind": ("choice", tuple(_EOS_KEYS), "polytrope"),
        "gamma": ("float", _positive, None),
        "nu": ("float", _positive, None),
        "pressure_const": ("float", _positive, None),
        "wd_a": ("float", _positive, None),
        "wd_b": ("float", _positive, None),
        "wd_c": ("float", _positive, None),
    },
    "scale": {
        "u_center": ("float", _positive, 1.0),
        "grav_const": ("float", _positive, 1.0),
    },
    "rotation": {
        "kind": ("choice", tuple(_ROTATION_KEYS), "none"),
        "omega": ("float", _nonneg, None),
        "beta": ("float", _nonneg, None),
        "varpi": ("floatlist", None, None),
        "omega_profile": ("floatlist", None, None),
        "m": ("floatlist", None, None),
        "j": ("floatlist", None, None),
    },
    "grid": {
        "n_r": ("int", lambda n: n >= 16, 256),
        "n_zeta": ("int", lambda n: n >= 4, 32),
        "l_max": ("int", lambda n: n >= 0 and n % 2 == 0, 8),
        "r_inf": ("float", _positive, None),
    },
    # one key per SolverOptions field
    "solver": {
        "tol": ("float", _positive, 1e-10),
        "max_iter": ("int", _positive, 60),
        "hl_threshold": ("float", _positive, 1e-3),
        "certify": ("bool", None, True),
    },
    "perturb": {
        "beta": ("float", _nonneg, 1e-3),
        "measure": ("bool", None, False),
    },
    "mass": {
        "rho_center": ("float", _positive, 1.0),
        "omega2_schedule": ("floatlist", _nonneg, [0.0]),
        "rtol": ("float", _positive, 1e-9),
    },
    "output": {
        "field_csv": ("bool", None, False),
    },
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
        else:  # choice
            val = str(raw)
            if val not in check:
                raise ValueError(f"must be one of {check}")
            return val
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} ({exc})", parameter=f"{section}.{key}"
        ) from None
    values = val if kind == "floatlist" else [val]
    if kind in ("float", "floatlist") and not all(map(math.isfinite, values)):
        raise ConfigError(
            f"[{section}] {key}: value {val!r} is not finite", parameter=f"{section}.{key}"
        )
    if check is not None and any(not check(v) for v in values):
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
        for name, sec in raw.items():
            if not isinstance(sec, dict):
                raise ConfigError(
                    f"[{name}] must be an object of keys, not {type(sec).__name__}",
                    parameter=str(name),
                )
        sections = {str(k): dict(v) for k, v in raw.items()}
    else:
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"invalid INI config: {exc}") from None
        sections = {name: dict(parser[name]) for name in parser.sections()}

    for section in sections:
        if section not in CONFIG:
            raise ConfigError(f"unknown section [{section}]", parameter=section)
    if "run" not in sections or "command" not in sections["run"]:
        raise ConfigError("missing [run] command", parameter="run.command")

    config = {}
    for section, keys in CONFIG.items():
        given = sections.get(section, {})
        for key in given:
            if key not in keys:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]", parameter=f"{section}.{key}"
                )
        config[section] = {
            key: _coerce(section, key, given[key], kind, check) if key in given else default
            for key, (kind, check, default) in keys.items()
        }
    return config


def config_hash(config: dict) -> str:
    return _sha256_hex(json.dumps(config, sort_keys=True, separators=(",", ":")).encode())


def run(config: dict, out_dir: Path) -> int:
    """Execute the configured command; returns a process exit status."""
    command = config["run"]["command"]
    writer = OutputWriter(out_dir, config)
    status = COMMANDS[command](config, writer)
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
    # kept so that existing command lines still parse; it has no effect
    parser.add_argument("--jobs", type=int, default=1, metavar="N", help="ignored")
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
        return run(config, Path(args.out))
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
