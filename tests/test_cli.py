import ast
import json
import math
import os
import re
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

HL_CHECK_INI = """
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

KERNEL_CHECK_INI = """
[run]
command = kernel-check

[grid]
n_r = 32
n_zeta = 12
l_max = 4
r_inf = 2.0
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


def test_solve_stops_at_max_iter(tmp_path, capsys):
    # one Newton step cannot reach the tolerance: max_iter = 1 is a
    # NoConvergence, and no solution is written
    cfg = _write(tmp_path, SOLVE_INI.replace("tol = 1e-10", "tol = 1e-10\nmax_iter = 1"))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NoConvergence"
    assert err["message"].startswith("no convergence after 1 iterations")
    assert not (out / "solution.json").exists()


@pytest.mark.parametrize("line", ["newton = false", "damping = 0.5"])
def test_removed_solver_keys_are_config_errors(tmp_path, capsys, line):
    # Newton-Krylov is the only nonlinear solver, so [solver] has no newton
    # switch and no Picard damping
    cfg = _write(tmp_path, SOLVE_INI.replace("tol = 1e-10", f"tol = 1e-10\n{line}"))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["parameter"] == "solver." + line.split()[0]


def test_malformed_config_negative_tol(tmp_path, capsys):
    cfg = _write(tmp_path, SOLVE_INI.replace("tol = 1e-10", "tol = -1"))
    status = main(["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert status == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["parameter"] == "solver.tol"


MASS_INI = """
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
omega2_schedule = 0.0, 2e-4, 5e-4
rtol = 1e-9
"""

DIFFERENTIAL_ROTATION = """
[rotation]
kind = differential
varpi = 0.0, 1.0, 2.0
omega_profile = 0.1, nan, 0.05
"""


# each exited 0 or failed late before non-finite values were refused: an
# infinite tol stopped after one iteration at the unrotated boundary, an
# infinite rtol wrote a 6% mass error, an infinite r_inf integrated the
# profile out to 1e307
@pytest.mark.parametrize(
    "ini, parameter",
    [
        (SOLVE_INI.replace("beta = 1e-3", "beta = 1e-2").replace("tol = 1e-10", "tol = inf"),
         "solver.tol"),
        (MASS_INI.replace("rtol = 1e-9", "rtol = inf"), "mass.rtol"),
        (SOLVE_INI.replace("l_max = 4", "l_max = 4\nr_inf = inf"), "grid.r_inf"),
        (SOLVE_INI.split("[rotation]")[0] + DIFFERENTIAL_ROTATION
         + "\n[grid]" + SOLVE_INI.split("[grid]")[1], "rotation.omega_profile"),
    ],
    ids=["tol-inf", "rtol-inf", "r_inf-inf", "omega_profile-nan"],
)
def test_non_finite_value_is_a_config_error(tmp_path, capsys, ini, parameter):
    out = tmp_path / "out"
    assert main(["--config", str(_write(tmp_path, ini)), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["parameter"] == parameter
    assert not out.exists()


# each exited 1 with an IndexError traceback
@pytest.mark.parametrize(
    "rotation, parameter",
    [
        ("kind = differential\nvarpi = 0, 1, 2\nomega_profile = 1, 1", "rotation.varpi"),
        ("kind = angular-momentum\nm = 0, 1, 2\nj = 0, 1", "rotation.m"),
        ("kind = differential\nvarpi = 0\nomega_profile = 1", "rotation.varpi"),
    ],
    ids=["differential-lengths", "momentum-lengths", "one-sample"],
)
def test_rotation_tables_that_do_not_line_up(tmp_path, capsys, rotation, parameter):
    ini = SOLVE_INI.replace("kind = constant\nbeta = 1e-3", rotation)
    assert main(["--config", str(_write(tmp_path, ini)), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["parameter"] == parameter
    assert "same number of samples" in err["message"]


WHITE_DWARF_INI = """
[run]
command = lane-emden

[eos]
kind = white_dwarf
wd_a = 1.0
wd_b = 1.0
wd_c = 1.0
"""


# each ran on one of the keys and ignored the other, and exited 0
@pytest.mark.parametrize(
    "ini, parameter",
    [
        (SOLVE_INI.replace("beta = 1e-3", "beta = 1e-3\nomega = 0.05"), "rotation.beta"),
        (WHITE_DWARF_INI + "gamma = 2.0\n", "eos.gamma"),
        (WHITE_DWARF_INI + "nu = 1.0\n", "eos.nu"),
        # the white dwarf's constant is 8 wd_a / (5 wd_b^(5/3))
        (WHITE_DWARF_INI + "pressure_const = 7\n", "eos.pressure_const"),
        # white-dwarf keys under a polytrope
        (LANE_EMDEN_INI.replace("gamma = 2.0", "nu = 1.5\nwd_a = 3\nwd_b = 2\nwd_c = 1"),
         "eos.wd_a"),
        # a rotation key that the chosen kind does not read
        (SOLVE_INI.replace("kind = constant\nbeta = 1e-3", "kind = none\nbeta = 1e-2"),
         "rotation.beta"),
        (SOLVE_INI.replace("beta = 1e-3", "beta = 1e-3\nm = 0, 1, 2\nj = 0, 0.1, 0.2"),
         "rotation.m"),
        (SOLVE_INI.split("[rotation]")[0] + DIFFERENTIAL_ROTATION.replace("nan", "0.07")
         + "omega = 0.05\n\n[grid]" + SOLVE_INI.split("[grid]")[1], "rotation.omega"),
    ],
    ids=["omega-and-beta", "white-dwarf-gamma", "white-dwarf-nu",
         "white-dwarf-pressure-const", "polytrope-with-white-dwarf-keys", "none-with-beta",
         "constant-with-tables", "differential-with-omega"],
)
def test_conflicting_keys_are_a_config_error(tmp_path, capsys, ini, parameter):
    assert main(["--config", str(_write(tmp_path, ini)), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["parameter"] == parameter


def test_pressure_const_defaults_to_one_for_a_polytrope(tmp_path):
    from rotstar.cli import build_eos

    config = load_config(_write(tmp_path, SOLVE_INI))
    assert config["eos"]["pressure_const"] is None
    assert build_eos(config).pressure_const == 1.0
    ini = SOLVE_INI.replace("nu = 1.5", "nu = 1.5\npressure_const = 2.5")
    given = load_config(_write(tmp_path, ini))
    assert build_eos(given).pressure_const == 2.5


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


@pytest.mark.parametrize("eos", [5, [1, 2]], ids=["number", "list"])
def test_json_section_that_is_not_an_object_is_a_config_error(tmp_path, capsys, eos):
    cfg = _write(tmp_path, json.dumps({"run": {"command": "lane-emden"}, "eos": eos}), "run.json")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["parameter"] == "eos"


@pytest.mark.parametrize("kind", ["lane-emden", "oblateness", "momentum-solve"])
def test_deterministic_outputs(tmp_path, kind):
    # the certified momentum-law solve at 64x12xl4 includes its certificate's
    # LOBPCG, whose start is seeded, and B's transposed products
    ini, names = {
        "lane-emden": (LANE_EMDEN_INI, ("lane_emden.json", "profile.csv", "manifest.json")),
        "oblateness": (
            OBLATENESS_MEASURED_INI, ("oblateness.json", "xi1_curve.csv", "manifest.json"),
        ),
        "momentum-solve": (
            MOMENTUM_SOLVE_INI.replace("n_r = 128\nn_zeta = 16", "n_r = 64\nn_zeta = 12"),
            ("solution.json", "boundary.csv", "manifest.json"),
        ),
    }[kind]
    assert "n_r = 64" in ini and "certify = false" not in ini
    cfg = _write(tmp_path, ini)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["--config", str(cfg), "--out", str(out2)]) == 0
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verbose_solve_reports_on_stderr(tmp_path, capsys):
    # a solve reports each iteration, a mass curve each point; neither report
    # changes an artifact or the manifest
    for ini, prefix, least in ((SOLVE_INI, "iter", 2), (MASS_INI, "mass curve point", 3)):
        cfg = _write(tmp_path, ini)
        quiet, loud = tmp_path / "quiet", tmp_path / "loud"
        assert main(["--config", str(cfg), "--out", str(quiet)]) == 0
        assert capsys.readouterr().err == ""
        assert main(["--config", str(cfg), "--out", str(loud), "--verbose"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [line for line in captured.err.splitlines() if line.startswith(prefix)]
        assert len(lines) >= least
        assert all(("residual" if prefix == "iter" else "mass evaluations") in line
                   for line in lines)
        if ini is SOLVE_INI:
            # the certificate names its steps and the support its
            # preconditioner's blocks were inverted on
            cert = [line for line in captured.err.splitlines() if line.startswith("certificate")]
            assert len(cert) == 1
            assert re.search(
                r"\(\d+ LOBPCG steps, preconditioner support \d+ of 128 nodes, residual bound",
                cert[0],
            )
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
        env=_source_env(),
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
    cfg = _write(tmp_path, HL_CHECK_INI)
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
    # rho_c is fixed to rtol / |d log M / d log rho_c|, about rtol / 0.5 here
    uncertainty = [p["rho_center_rel_uncertainty"] for p in doc["points"]]
    assert uncertainty[0] == 0.0
    assert 1e-8 < uncertainty[1] < 1e-7


def test_mass_curve_reads_the_outer_radius(tmp_path):
    # [grid] r_inf was ignored: the curve came out byte-identical without it
    outs = []
    for extra in ("", "r_inf = 8.0\n"):
        outs.append(tmp_path / f"out{len(outs)}")
        cfg = _write(tmp_path, MASS_INI.replace("l_max = 4\n", "l_max = 4\n" + extra))
        assert main(["--config", str(cfg), "--out", str(outs[-1])]) == 0
    default, wide = (json.loads((o / "mass_curve.json").read_text()) for o in outs)
    assert max(wide["relative_errors"]) <= 1e-6
    assert wide["mass_reference"] == pytest.approx(default["mass_reference"], rel=1e-3)
    assert wide["mass_reference"] != default["mass_reference"]


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
    cfg = _write(tmp_path, KERNEL_CHECK_INI)
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


def test_mass_curve_jobs_changes_no_byte(tmp_path):
    cfg = _write(tmp_path, MASS_INI)
    outs = []
    for jobs in ("1", "2"):
        outs.append(tmp_path / f"out{jobs}")
        assert main(["--config", str(cfg), "--out", str(outs[-1]), "--jobs", jobs]) == 0
    for name in ("mass_curve.json", "mass_curve.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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
    cfg = _write(tmp_path, HL_CHECK_INI)
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


def _source_env() -> dict:
    """The environment with this package's source first on PYTHONPATH, so
    that a fresh interpreter imports the package under test."""
    import rotstar

    src = str(Path(rotstar.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _fresh_python(code: str, *args: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on this package's source."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=_source_env()
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_path_leaves_out_heavy_scipy_subpackages():
    # importing the package and the CLI adds no scipy subpackage beyond what
    # scipy.linalg loads itself; the validation paths import the rest when
    # they run
    heavy = ("scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.special")
    code = (
        "import sys, scipy.linalg\n"
        "before = set(sys.modules)\n"
        "import rotstar, rotstar.cli\n"
        f"print(sorted(m for m in {heavy!r} if m in sys.modules and m not in before))\n"
    )
    assert _fresh_python(code) == "[]"


def test_import_path_loads_no_scipy():
    code = (
        "import sys, rotstar, rotstar.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_python(code) == "[]"


def test_package_imports_no_scipy():
    # numpy is the package's only runtime dependency: no module imports
    # scipy, at module level or inside a function
    found = []
    for path in sorted((Path(__file__).parents[1] / "src" / "rotstar").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


_RUN_AND_LIST_LINALG = (
    "import sys\n"
    "from rotstar.cli import main\n"
    "status = main(['--config', sys.argv[1], '--out', sys.argv[2]])\n"
    "print(status, 'scipy.linalg' in sys.modules)\n"
)


OBLATENESS_MEASURED_INI = """
[run]
command = oblateness

[eos]
kind = polytrope
nu = 1.5

[grid]
n_r = 64
n_zeta = 12
l_max = 4

[perturb]
beta = 1e-3
measure = true
"""


# j = 0.01 m^2 / M on [0, 1.3 M], M the cylinder mass of the nu = 1.5 sphere
_MOMENTUM_M = [1.3 * 1.52219 * k / 13 for k in range(14)]
MOMENTUM_SOLVE_INI = SOLVE_INI.replace(
    "kind = constant\nbeta = 1e-3",
    "kind = angular-momentum\nm = " + ", ".join(f"{m:.6g}" for m in _MOMENTUM_M)
    + "\nj = " + ", ".join(f"{0.01 * m * m / 1.52219:.6g}" for m in _MOMENTUM_M),
)


# every command, each run as its CLI case
every_command = pytest.mark.parametrize(
    "ini",
    [LANE_EMDEN_INI, HL_CHECK_INI, KERNEL_CHECK_INI, OBLATENESS_MEASURED_INI, MASS_INI,
     SOLVE_INI.replace("tol = 1e-10", "tol = 1e-10\ncertify = false"), SOLVE_INI,
     MOMENTUM_SOLVE_INI],
    ids=["lane-emden", "hl-check", "kernel-check", "oblateness-measured", "mass-curve",
         "solve-uncertified", "solve-certified", "momentum-solve-certified"],
)


# no command loads scipy.linalg: the Newton solves are preconditioned by
# block inverses, the certificate inverts its matrix on the star's support,
# and the splines and the GMRES least-squares problems are solved in numpy
# (the test's name is kept so that its recorded ids stay comparable)
@every_command
def test_commands_that_factor_nothing_leave_out_scipy_linalg(tmp_path, ini):
    cfg = _write(tmp_path, ini)
    out = _fresh_python(_RUN_AND_LIST_LINALG, str(cfg), str(tmp_path / "out"))
    assert out == "0 False"


# the scipy modules a run loaded, and hashlib's: no command maps OpenSSL
_RUN_AND_LIST_SCIPY = (
    "import sys\n"
    "from rotstar.cli import main\n"
    "status = main(['--config', sys.argv[1], '--out', sys.argv[2]])\n"
    "print(status, sorted(m for m in sys.modules\n"
    "                     if m.split('.')[0] in ('scipy', 'hashlib', '_hashlib')))\n"
)


# every command runs on numpy alone: kernel-check's direct quadrature takes
# the ring kernel by Gauss's AGM, with no scipy.special
@every_command
def test_every_command_loads_no_scipy(tmp_path, ini):
    cfg = _write(tmp_path, ini)
    out = _fresh_python(_RUN_AND_LIST_SCIPY, str(cfg), str(tmp_path / "out"))
    assert out == "0 []"


def test_scipy_linalg_probe_sees_an_import(tmp_path):
    # the converse, so that the check above can fail: a child that imports
    # scipy.linalg itself before a certified solve reads True
    cfg = _write(tmp_path, SOLVE_INI)
    code = "import scipy.linalg\n" + _RUN_AND_LIST_LINALG
    out = _fresh_python(code, str(cfg), str(tmp_path / "out"))
    assert out == "0 True"


def test_momentum_solve_leaves_out_numpy_ma(tmp_path):
    # np.unique on a float array imports numpy.ma (about 5 ms and 1 MB in a
    # fresh process); the cylinder mass's radii are deduplicated without it.
    # numpy 1.x imports numpy.ma with numpy itself, so only the run is checked
    cfg = _write(tmp_path, MOMENTUM_SOLVE_INI)
    code = (
        "import sys\n"
        "from rotstar.cli import main\n"
        "before = 'numpy.ma' in sys.modules\n"
        "status = main(['--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(status, 'numpy.ma' in sys.modules and not before)\n"
    )
    assert _fresh_python(code, str(cfg), str(tmp_path / "out")) == "0 False"


def test_cli_import_leaves_out_hashlib():
    # hashlib maps OpenSSL's libcrypto (about 3.6 MB resident); the manifest's
    # checksums come from the interpreter's own SHA-256 module
    code = (
        "import sys\n"
        "import rotstar.cli\n"
        "print(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))\n"
    )
    assert _fresh_python(code) == "[]"


@pytest.mark.parametrize(
    "ini, names",
    [(LANE_EMDEN_INI, ["lane_emden.json", "profile.csv"]),
     (MOMENTUM_SOLVE_INI.replace("n_r = 128\nn_zeta = 16", "n_r = 64\nn_zeta = 12"),
      ["boundary.csv", "solution.json"])],
    ids=["lane-emden", "momentum-solve-certified"],
)
def test_run_leaves_out_hashlib_and_manifest_checksums_match(tmp_path, ini, names):
    # a whole run, its writes included, loads neither hashlib nor OpenSSL,
    # and its checksums are every file's and the configuration's sha256 as
    # hashlib computes it
    import hashlib

    cfg, out = _write(tmp_path, ini), tmp_path / "out"
    code = (
        "import sys\n"
        "from rotstar.cli import main\n"
        "status = main(['--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(status, sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))\n"
    )
    assert _fresh_python(code, str(cfg), str(out)) == "0 []"
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["name"] for f in manifest["files"]] == names
    for f in manifest["files"]:
        assert f["sha256"] == hashlib.sha256((out / f["name"]).read_bytes()).hexdigest()
    canonical = json.dumps(load_config(cfg), sort_keys=True, separators=(",", ":"))
    assert manifest["config_hash"] == hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize(
    "data", [b"", b"abc", bytes(range(256)) * (3 << 12)], ids=["empty", "abc", "3MB"]
)
def test_sha256_hex_equals_hashlib(data):
    import hashlib

    from rotstar.cli import _sha256_hex

    assert _sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_write_atomic_writes_its_bytes_verbatim(tmp_path):
    # UTF-8 and no newline translation, also where the locale's encoding is
    # ASCII (a text-mode write fails there on the non-ASCII character)
    path = tmp_path / "a.txt"
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from rotstar.cli import _write_atomic\n"
        "data = _write_atomic(Path(sys.argv[1]), 'x\\ny\\r\\n\\u03bd = 1.5\\n')\n"
        "print(data == Path(sys.argv[1]).read_bytes())\n"
    )
    env = {**_source_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
    assert path.read_bytes() == "x\ny\r\n\u03bd = 1.5\n".encode()
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


# GMRES iterations of each Newton step, and LOBPCG steps of the certificate
# (None uncertified), of the benchmark pool's solve inputs, as recorded when
# the preconditioner inverted each block's support corner densely: exact
# per-degree solves give the same counts however they are taken
_POOL_SOLVE_COUNTS = {
    "solve": ([[1, 4], [1, 4], [1, 4], [1, 4, 5], [1, 4, 5]], [8, 9, 8, 7, 7]),
    "differential-solve": ([[1, 4], [1, 4], [1, 5], [1, 5, 5], [1, 5, 5]], [8, 9, 8, 7, 7]),
    "momentum-solve": ([[3], [3, 3], [3, 3], [3, 3], [3, 3]], [8, 9, 8, 7, 7]),
    "scale-solve": ([[1, 4], [1, 4], [1, 4], [1, 4, 5], [1, 4, 5]], [None] * 5),
}


def _bench_pool():
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "pool.py"
    spec = importlib.util.spec_from_file_location("bench_pool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", sorted(_POOL_SOLVE_COUNTS))
def test_pool_solves_keep_their_iteration_counts(kind, tmp_path, monkeypatch):
    import rotstar.cli

    pool = _bench_pool()
    solve = rotstar.cli.solve_equilibrium
    seen = []

    def recording(*args, **kwargs):
        sol = solve(*args, **kwargs)
        seen.append(sol)
        return sol

    monkeypatch.setattr(rotstar.cli, "solve_equilibrium", recording)
    gmres, lobpcg = [], []
    for nu in pool.NUS:
        cfg = _write(tmp_path, json.dumps(pool.POOL[f"{kind}/nu{nu}"]), "run.json")
        assert main(["--config", str(cfg), "--out", str(tmp_path / f"out{nu}")]) == 0
        sol = seen.pop()
        gmres.append(sol.meta["newton"]["gmres_iterations"])
        lobpcg.append(sol.meta["certificate"]["iterations"] if "certificate" in sol.meta else None)
    assert (gmres, lobpcg) == _POOL_SOLVE_COUNTS[kind]


def _run_loads_numpy_random(tmp_path, ini: str) -> str:
    """Exit status of the CLI on ``ini`` in a fresh interpreter, and whether
    the run (not the imports) loaded numpy.random.  numpy 2 imports
    numpy.random on first use (about 2 MB and 5 ms in a fresh process);
    numpy 1.x imports it with numpy itself, so only the run is checked."""
    code = (
        "import sys\n"
        "from rotstar.cli import main\n"
        "before = 'numpy.random' in sys.modules\n"
        "status = main(['--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(status, 'numpy.random' in sys.modules and not before)\n"
    )
    return _fresh_python(code, str(_write(tmp_path, ini)), str(tmp_path / "out"))


def test_kernel_check_leaves_out_numpy_random(tmp_path):
    # kernel-check draws nothing; numpy.random once set its peak
    assert _run_loads_numpy_random(tmp_path, KERNEL_CHECK_INI) == "0 False"


@pytest.mark.parametrize("ini", [SOLVE_INI, MOMENTUM_SOLVE_INI], ids=["solve", "momentum-solve"])
def test_certified_solves_leave_out_numpy_random(tmp_path, ini):
    # the certificate's LOBPCG starts from a fixed Weyl-sequence block, not
    # from seeded normal draws, so a certified solve loads no numpy.random
    assert _run_loads_numpy_random(tmp_path, ini) == "0 False"
    doc = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert doc["hl_sigma_min"] > 0.0


def test_lane_emden_refuses_an_outer_radius_too_large(tmp_path):
    # h^5 of the exterior steps overflows past r_inf ~ 1e61: a fresh process
    # (warnings not turned into errors) exits 3 without NaN rows or warnings
    cfg = _write(tmp_path, LANE_EMDEN_INI + "r_inf = 1e100\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "rotstar", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=_source_env(),
    )
    assert proc.returncode == 3
    assert "r_inf=1e+100" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not (out / "profile.csv").exists() and not (out / "lane_emden.json").exists()
