import logging
import math

import numpy as np
import pytest

from rotstar import (
    EquationOfState,
    MassCalculator,
    ScaleSet,
    central_density_from_mass,
    mass_unit,
    physical_mass,
    solve_lane_emden,
    total_mass_dimensionless,
    trace_constant_mass_curve,
)
from rotstar.errors import DomainError, GammaFourThirds, NoBracket, NoSignChange


@pytest.fixture(scope="module")
def calc53():
    eos = EquationOfState.polytrope(5 / 3)
    return MassCalculator(solve_lane_emden(eos, 1.0), 1.0, n_r=160, n_zeta=16, l_max=4)


def test_m1_at_zero_rotation_linear_case():
    # nu = 1: M1 = 4 pi mu1 = 4 pi^2
    eos = EquationOfState.polytrope(2.0)
    calc = MassCalculator(solve_lane_emden(eos, 1.0), 1.0, n_r=160, n_zeta=16, l_max=4)
    # the density has a derivative kink at the surface, so the quadrature is
    # a touch less accurate than for smooth integrands
    assert calc.m1(0.0) == pytest.approx(4 * math.pi ** 2, rel=5e-7)


def test_m1_matches_radial_mass(theta15, eos15, profile15):
    m1 = total_mass_dimensionless(theta15, eos15, 1.0)
    assert m1 == pytest.approx(4 * math.pi * profile15.mu1, rel=1e-7)


def test_m1_nu3():
    eos = EquationOfState.from_index(3.0)
    prof = solve_lane_emden(eos, 1.0)
    calc = MassCalculator(prof, 1.0, n_r=192, n_zeta=16, l_max=4)
    assert calc.m1(0.0) == pytest.approx(4 * math.pi * prof.mu1, rel=1e-6)


def test_m1_continuous_in_beta(calc53):
    m0 = calc53.m1(0.0)
    for beta in [1e-4, 5e-4, 1e-3]:
        assert abs(calc53.m1(beta) - m0) <= 50.0 * beta * m0


def test_scaling_slope(calc53):
    eos = calc53.eos
    m1 = calc53.m1(0.0)
    rhos = np.logspace(-0.5, 0.5, 7)
    masses = [physical_mass(m1, eos, r) for r in rhos]
    slope = np.polyfit(np.log(rhos), np.log(masses), 1)[0]
    assert slope == pytest.approx((3 * eos.gamma - 4) / 2, abs=1e-3)


def test_central_density_inversion_closed_form(calc53):
    # at zero rotation the inversion has the closed form
    # rho = (M / (unit(rho = 1) * M1))^{2/(3 gamma - 4)}
    eos = calc53.eos
    m1 = calc53.m1(0.0)
    target = 1.7
    unit = mass_unit(eos, ScaleSet.from_central_density(eos, 1.0))
    rho_exact = (target / (unit * m1)) ** (2 / (3 * eos.gamma - 4))
    before = calc53.mass_evaluations
    rho_num = central_density_from_mass(
        calc53, target, 0.0, (0.3 * rho_exact, 3 * rho_exact), rtol=1e-10
    )[0]
    assert rho_num == pytest.approx(rho_exact, rel=1e-8)
    # the first step takes the exact zero-rotation slope, so it lands on the
    # root: the mass is evaluated at the bracket's geometric mean and there
    assert calc53.mass_evaluations - before == 2


def test_central_density_rejects_gamma_four_thirds():
    eos = EquationOfState.polytrope(4 / 3)
    calc = MassCalculator(solve_lane_emden(eos, 1.0), 1.0, n_r=64, n_zeta=8, l_max=4)
    with pytest.raises(GammaFourThirds):
        central_density_from_mass(calc, 1.0, 0.0, (0.5, 2.0))


def test_central_density_requires_bracket(calc53):
    with pytest.raises(NoBracket):
        central_density_from_mass(calc53, 1e9, 0.0, (0.5, 2.0))
    with pytest.raises(DomainError):
        central_density_from_mass(calc53, 0.0, 0.0, (0.5, 2.0))


def test_central_density_refuses_a_flat_mass_curve():
    # a mass that does not change with rho_c leaves the secant step undefined
    class Flat:
        eos = EquationOfState.polytrope(5 / 3)

        def total_mass(self, rho_center, omega2):
            return 1.001

    with pytest.raises(NoBracket, match="does not change"):
        central_density_from_mass(Flat(), 1.0, 1e-3, (0.5, 2.0))


def test_constant_mass_curve(calc53):
    out = trace_constant_mass_curve(calc53, 1.0, [0.0, 2e-4, 5e-4, 1e-3, 2e-3], rtol=1e-8)
    assert len(out["points"]) == 5
    assert out["points"][0].rho_center == 1.0
    assert all(e <= 1e-6 for e in out["relative_errors"])
    assert out["beta_monotone_max"] > 0
    # the family keeps the mass by lowering the central density under spin
    rhos = [p.rho_center for p in out["points"]]
    assert all(b <= a for a, b in zip(rhos, rhos[1:]))


def test_white_dwarf_mass_slope_nonzero():
    # the general-law inversion hypothesis dM/drho != 0, checked numerically
    # at zero rotation before any curve tracing for the white dwarf
    eos = EquationOfState.white_dwarf(1.0, 1.0, 1.0)
    masses = []
    for u_c in [0.16, 0.18]:
        from rotstar import initial_field_from_profile
        from rotstar.grids import AxiGrid

        prof = solve_lane_emden(eos, u_c)
        scale = ScaleSet.from_central_enthalpy(eos, u_c, 1.0)
        grid = AxiGrid.build(prof.r_inf, n_r=128, n_zeta=16, l_max=4, focus=prof.xi1)
        u = initial_field_from_profile(grid, prof)
        m1 = total_mass_dimensionless(u, eos, u_c)
        masses.append(mass_unit(eos, scale) * m1)
    assert masses[1] != pytest.approx(masses[0], rel=1e-3)


def test_mass_calculator_refuses_a_state_without_boundary():
    # past mass shedding at nu = 3 the 64x12xl4 solve converges to a field
    # with no free boundary; its mass is not an answer
    eos = EquationOfState.from_index(3.0)
    calc = MassCalculator(solve_lane_emden(eos, 1.0), 1.0, n_r=64, n_zeta=12, l_max=4)
    with pytest.raises(NoSignChange):
        calc.m1(3e-2)


def test_mass_curve_factors_the_newton_matrix_once(monkeypatch):
    # the family's warm-started solves share one preconditioner (the block
    # inverses of the Newton systems); the curve is the one that a fresh
    # preconditioner per solve gives
    from rotstar import equilibrium

    builds, solves = [], []
    factor_blocks = equilibrium._factor_blocks
    solve = equilibrium.solve_equilibrium

    def counting(*args, **kwargs):
        builds.append(1)
        return factor_blocks(*args, **kwargs)

    def per_solve_lu(*args, preconditioner=None, **kwargs):
        before = len(builds)
        sol = solve(*args, **kwargs)
        solves.append((len(builds) - before, len(sol.meta["newton"]["gmres_iterations"])))
        return sol

    def curve():
        eos = EquationOfState.polytrope(5 / 3)
        return trace_constant_mass_curve(
            MassCalculator(solve_lane_emden(eos, 1.0), 1.0), 1.0, [0.0, 1e-4, 3e-4]
        )

    monkeypatch.setattr(equilibrium, "_factor_blocks", counting)
    carried = curve()
    assert len(builds) <= 2
    carried_builds = len(builds)
    monkeypatch.setattr(equilibrium, "solve_equilibrium", per_solve_lu)
    fresh = curve()
    # one build per solve that takes a Newton step (a warm start already
    # within tolerance takes none), plus the family's own at its first solve
    assert [b for b, _ in solves] == [min(steps, 1) for _, steps in solves]
    assert len(builds) - carried_builds == 1 + sum(b for b, _ in solves) >= 6
    assert carried["mass_reference"] == fresh["mass_reference"]
    for p, q in zip(carried["points"], fresh["points"], strict=True):
        for name in ("rho_center", "beta", "m1", "mass"):
            assert getattr(p, name) == pytest.approx(getattr(q, name), rel=1e-12, abs=0.0)


def _count_solves(monkeypatch) -> list:
    from rotstar import equilibrium

    solves = []
    solve = equilibrium.solve_equilibrium

    def counting(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "solve_equilibrium", counting)
    return solves


def test_mass_curve_takes_seven_solves(monkeypatch, caplog):
    # the benchmark's mass-curve/a input at 256x32xl8: one solve at Omega = 0
    # and three per rotating point (regula falsi on a bracket took 27); the
    # central densities are those of the bracketing inversion to 1e-7
    solves = _count_solves(monkeypatch)
    eos = EquationOfState.polytrope(5 / 3)
    with caplog.at_level(logging.DEBUG, logger="rotstar.mass"):
        out = trace_constant_mass_curve(
            MassCalculator(solve_lane_emden(eos, 1.0), 1.0), 1.0, [0.0, 1e-4, 3e-4]
        )
    assert len(solves) == 7
    rhos = [p.rho_center for p in out["points"]]
    assert rhos == pytest.approx([1.0, 0.999909614460106, 0.9997287793069916], rel=1e-7)
    assert max(out["relative_errors"]) <= 1e-9
    # one log line per point, with its mass evaluations
    lines = [r.getMessage() for r in caplog.records if r.name == "rotstar.mass"]
    assert len(lines) == 3
    assert all("Omega^2" in m and "rho_c" in m and "relative mass error" in m for m in lines)
    evaluations = [int(m.split(" mass evaluations")[0].rsplit(" ", 1)[1]) for m in lines]
    assert evaluations[0] == 0 and all(1 <= n <= 3 for n in evaluations[1:])


def test_mass_curve_near_gamma_four_thirds_converges(monkeypatch):
    # gamma = 1.35: the zero-rotation slope d log M / d log rho_c is only
    # 0.025, so rotation moves rho_c by up to 16%
    solves = _count_solves(monkeypatch)
    eos = EquationOfState.polytrope(1.35)
    calc = MassCalculator(solve_lane_emden(eos, 1.0), 1.0, n_r=96, n_zeta=16, l_max=4)
    out = trace_constant_mass_curve(calc, 1.0, [0.0, 1e-3, 2e-3, 3e-3, 4e-3])
    assert max(out["relative_errors"]) <= 1e-9
    rhos = [p.rho_center for p in out["points"]]
    assert rhos == pytest.approx(
        [1.0, 0.9635009539669618, 0.9252621932411649, 0.8849293464533438, 0.8420062470217284],
        rel=1e-7,
    )
    assert len(solves) <= 1 + 4 * 4


def test_mass_curve_reports_the_rho_center_uncertainty():
    # the inversion stops on the mass, and near gamma = 4/3 the slope
    # d log M / d log rho_c is only about 0.02, so rho_c is fixed to about
    # 50 rtol: at Omega^2 = 4e-3 rtol = 1e-9 leaves rho_c 4e-8 off
    eos = EquationOfState.polytrope(1.35)
    schedule = [0.0, 1e-3, 2e-3, 3e-3, 4e-3]
    loose, tight = (
        trace_constant_mass_curve(
            MassCalculator(solve_lane_emden(eos, 1.0), 1.0, n_r=96, n_zeta=16, l_max=4),
            1.0, schedule, rtol=rtol,
        )["points"]
        for rtol in (1e-9, 1e-12)
    )
    assert loose[0].rho_center_rel_uncertainty == 0.0
    for a, b in zip(loose[1:], tight[1:]):
        assert 2e-8 < a.rho_center_rel_uncertainty < 1e-7
        assert abs(a.rho_center - b.rho_center) / b.rho_center <= a.rho_center_rel_uncertainty
    assert abs(loose[-1].rho_center - tight[-1].rho_center) / tight[-1].rho_center > 1e-8
