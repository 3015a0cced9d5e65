import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rotstar.cli import load_config, config_hash, main
from rotstar.errors import ConfigError

LANE_EMDEN_INI = """
[run]
command = lane-emden

[eos]
kind = polytrope
gamma = 2.0

[grid]
n_r = 64
n_zeta = 16
l_max = 4
"""

SOLVE_INI = """
[run]
command = solve

[eos]
kind = polytrope
nu = 1.5

[rotation]
kind = constant
beta = 1e-3

[grid]
n_r = 128
n_zeta = 16
l_max = 4

[solver]
tol = 1e-10
"""


def _write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_lane_emden_command(tmp_path):
    cfg = _write(tmp_path, LANE_EMDEN_INI)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "lane_emden.json").read_text())
    assert doc["xi1"] == pytest.approx(math.pi, abs=1e-8)
    assert doc["mu1"] == pytest.approx(math.pi, abs=1e-8)
    rows = (out / "profile.csv").read_text().splitlines()
    assert rows[0] == "r,theta,dtheta,psi"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "lane-emden"
    assert {f["name"] for f in manifest["files"]} == {"lane_emden.json", "profile.csv"}


def test_solve_command_flags_true(tmp_path):
    cfg = _write(tmp_path, SOLVE_INI)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["flags"]["a1"] and doc["flags"]["a2"] and doc["flags"]["monotone"]
    assert doc["hl_sigma_min"] > 1e-3
    assert doc["meta"]["beta"] == 1e-3
    assert len(doc["boundary"]) == 16


def test_solution_json_meta_keeps_its_keys(tmp_path):
    # the library's certificate record stays out of the artifact
    cfg = _write(tmp_path, SOLVE_INI)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert set(doc["meta"]) == {"eos_kind", "gamma", "nu", "beta", "rotation_kind",
                                "grid", "xi1_spherical", "m1"}


def test_solve_command_reports_newton_fallback(tmp_path):
    cfg = _write(tmp_path, SOLVE_INI.replace("tol = 1e-10", "tol = 1e-10\nmax_iter = 1"))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert "no convergence after 1 iterations" in doc["meta"]["fallback"]
    assert doc["iterations"] == len(doc["residual_history"]) > 2


def test_malformed_config_negative_tol(tmp_path, capsys):
    cfg = _write(tmp_path, SOLVE_INI.replace("tol = 1e-10", "tol = -1"))
    status = main(["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert status == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["parameter"] == "solver.tol"


def test_unknown_key_rejected(tmp_path):
    cfg = _write(tmp_path, LANE_EMDEN_INI + "\n[solver]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_json_config_equivalent(tmp_path):
    ini_cfg = load_config(_write(tmp_path, LANE_EMDEN_INI))
    json_cfg = load_config(
        _write(
            tmp_path,
            json.dumps(
                {
                    "run": {"command": "lane-emden"},
                    "eos": {"kind": "polytrope", "gamma": 2.0},
                    "grid": {"n_r": 64, "n_zeta": 16, "l_max": 4},
                }
            ),
            name="run.json",
        )
    )
    assert config_hash(ini_cfg) == config_hash(json_cfg)


def test_deterministic_outputs(tmp_path):
    cfg = _write(tmp_path, LANE_EMDEN_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("lane_emden.json", "profile.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verbose_solve_reports_on_stderr(tmp_path, capsys):
    cfg = _write(tmp_path, SOLVE_INI)
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["--config", str(cfg), "--out", str(quiet)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["--config", str(cfg), "--out", str(loud), "--verbose"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    iters = [line for line in captured.err.splitlines() if line.startswith("iter")]
    assert len(iters) >= 2 and all("residual" in line for line in iters)
    names = sorted(p.name for p in quiet.iterdir())
    assert names == sorted(p.name for p in loud.iterdir())
    assert "manifest.json" in names
    for name in names:
        assert (quiet / name).read_bytes() == (loud / name).read_bytes()
    # the handler is detached again after the run
    assert main(["--config", str(cfg), "--out", str(quiet)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_subprocess_entry(tmp_path):
    cfg = _write(tmp_path, LANE_EMDEN_INI)
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "rotstar", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "manifest.json").exists()


def test_oblateness_command(tmp_path):
    ini = """
[run]
command = oblateness

[eos]
kind = polytrope
nu = 1.5

[perturb]
beta = 1e-3
"""
    cfg = _write(tmp_path, ini)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "oblateness.json").read_text())
    assert doc["sigma"] > 0
    assert doc["h2_at_xi1"] < 0
    assert (out / "xi1_curve.csv").exists()


def test_hl_check_command(tmp_path):
    ini = """
[run]
command = hl-check

[eos]
kind = polytrope
nu = 1.5

[grid]
n_r = 96
n_zeta = 16
l_max = 4
"""
    cfg = _write(tmp_path, ini)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "hl_check.json").read_text())
    assert doc["pass"] is True
    assert set(doc["blocks"]) == {"0", "2", "4"}


def test_mass_curve_command(tmp_path):
    ini = """
[run]
command = mass-curve

[eos]
kind = polytrope
gamma = 1.6666666666666667

[grid]
n_r = 96
n_zeta = 16
l_max = 4

[mass]
rho_center = 1.0
omega2_schedule = 0.0, 5e-4
rtol = 1e-8
"""
    cfg = _write(tmp_path, ini)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "mass_curve.csv").read_text().splitlines()
    assert rows[0] == "Omega2,beta,rho_O,M1,M"
    assert len(rows) == 3
    doc = json.loads((out / "mass_curve.json").read_text())
    assert max(doc["relative_errors"]) <= 1e-6


def test_mass_curve_refuses_negative_rotation(tmp_path, capsys):
    ini = """
[run]
command = mass-curve

[eos]
kind = polytrope
gamma = 1.6666666666666667

[grid]
n_r = 64
n_zeta = 12
l_max = 4

[mass]
omega2_schedule = 0.0, -1e-4
"""
    out = tmp_path / "out"
    assert main(["--config", str(_write(tmp_path, ini)), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["parameter"] == "mass.omega2_schedule"
    assert not out.exists() or not any(out.iterdir())


def test_every_solver_option_is_a_config_key(tmp_path):
    # each SolverOptions field is set from a [solver] key: a config giving
    # every key a non-default value leaves no field at its default
    import dataclasses

    from rotstar.cli import solver_options
    from rotstar.equilibrium import SolverOptions

    ini = SOLVE_INI.replace("tol = 1e-10", """tol = 1e-9
max_iter = 7
newton = false
damping = 0.25
hl_threshold = 1e-4
certify = false""")
    opts = solver_options(load_config(_write(tmp_path, ini)))
    default = SolverOptions()
    for f in dataclasses.fields(SolverOptions):
        assert getattr(opts, f.name) != getattr(default, f.name), f.name


def test_missing_command(tmp_path, capsys):
    cfg = _write(tmp_path, "[eos]\nkind = polytrope\ngamma = 1.5\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "run.command" in capsys.readouterr().err


def test_kernel_check_command(tmp_path):
    ini = """
[run]
command = kernel-check

[grid]
n_r = 32
n_zeta = 12
l_max = 4
r_inf = 2.0
"""
    cfg = _write(tmp_path, ini)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "kernel_check.json").read_text())
    assert doc["ball_pass"] and doc["multipole_vs_direct_pass"]


def test_mass_curve_parallel_jobs(tmp_path):
    ini = """
[run]
command = mass-curve

[eos]
kind = polytrope
gamma = 1.6666666666666667

[grid]
n_r = 64
n_zeta = 16
l_max = 4

[mass]
rho_center = 1.0
omega2_schedule = 0.0, 5e-4
rtol = 1e-7
"""
    cfg = _write(tmp_path, ini)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--jobs", "2"]) == 0
    rows = (out / "mass_curve.csv").read_text().splitlines()
    assert len(rows) == 3


def test_mass_curve_parallel_writes_mass_reference(tmp_path):
    # a schedule without Omega^2 = 0, or an empty one, still has the
    # zero-rotation reference mass
    ini = """
[run]
command = mass-curve

[eos]
kind = polytrope
gamma = 1.6666666666666667

[grid]
n_r = 64
n_zeta = 12
l_max = 4

[mass]
rho_center = 1.0
omega2_schedule = 1e-4, 3e-4
rtol = 1e-7
"""
    for schedule in ("1e-4, 3e-4", ""):
        cfg = _write(tmp_path, ini.replace("1e-4, 3e-4", schedule))
        docs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}-{len(schedule)}"
            assert main(["--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
            docs.append(json.loads((out / "mass_curve.json").read_text()))
        serial, parallel = docs
        assert serial["mass_reference"] is not None
        assert parallel["mass_reference"] == serial["mass_reference"]
        assert len(parallel["points"]) == len(serial["points"])


def test_solve_without_free_boundary_exits_3(tmp_path, capsys):
    # past mass shedding the field converges but crosses zero on no ray
    ini = SOLVE_INI.replace("nu = 1.5", "nu = 3.0").replace("beta = 1e-3", "beta = 3e-2")
    ini = ini.replace("n_r = 128", "n_r = 64").replace("n_zeta = 16", "n_zeta = 12")
    cfg = _write(tmp_path, ini + "certify = false\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NoSignChange"
    assert "a1=False" in err["message"] and "a2=False" in err["message"]
    assert not (out / "solution.json").exists()
    assert not (out / "boundary.csv").exists()
    assert not (out / "manifest.json").exists()


def test_hl_check_computes_the_blocks_once(tmp_path, monkeypatch):
    from rotstar import cli, equilibrium

    blocks = equilibrium.hl_certificate_blocks
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return blocks(*args, **kwargs)

    monkeypatch.setattr(cli, "hl_certificate_blocks", counting)
    monkeypatch.setattr(equilibrium, "hl_certificate_blocks", counting)
    ini = """
[run]
command = hl-check

[eos]
kind = polytrope
nu = 1.5

[grid]
n_r = 96
n_zeta = 16
l_max = 4
"""
    cfg = _write(tmp_path, ini)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    assert len(calls) == 1
    # the same document as taking the full certificate separately
    monkeypatch.undo()
    config = load_config(cfg)
    eos = cli.build_eos(config)
    grid, prof = cli._grid_and_profile(config, eos)
    u = equilibrium.initial_field_from_profile(grid, prof)
    sigma = equilibrium.hl_certificate(u, eos, 1.0)
    doc = {
        "nu": eos.nu,
        "blocks": {str(k): v for k, v in blocks(u, eos, 1.0).items()},
        "sigma_min": sigma,
        "threshold": 1e-3,
        "pass": sigma > 1e-3,
    }
    want = json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"
    assert (out / "hl_check.json").read_text() == want


def test_import_path_leaves_out_heavy_scipy_subpackages():
    # importing the package and the CLI adds no scipy subpackage beyond what
    # scipy.linalg loads itself; the validation paths import the rest when
    # they run
    import rotstar

    heavy = ("scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.special")
    code = (
        "import sys, scipy.linalg\n"
        "before = set(sys.modules)\n"
        "import rotstar, rotstar.cli\n"
        f"print(sorted(m for m in {heavy!r} if m in sys.modules and m not in before))\n"
    )
    src = str(Path(rotstar.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
