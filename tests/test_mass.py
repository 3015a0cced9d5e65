import math

import numpy as np
import pytest

from rotstar import (
    EquationOfState,
    MassCalculator,
    MassPoint,
    central_density_from_mass,
    dm_drho_at_constant_omega,
    physical_mass,
    solve_lane_emden,
    total_mass_dimensionless,
    trace_constant_mass_curve,
)
from rotstar.errors import GammaFourThirds, NoBracket, NoSignChange


@pytest.fixture(scope="module")
def calc53():
    eos = EquationOfState.polytrope(5 / 3)
    return MassCalculator(eos, 1.0, n_r=160, n_zeta=16, l_max=4)


def test_m1_at_zero_rotation_linear_case():
    # nu = 1: M1 = 4 pi mu1 = 4 pi^2
    eos = EquationOfState.polytrope(2.0)
    calc = MassCalculator(eos, 1.0, n_r=160, n_zeta=16, l_max=4)
    # the density has a derivative kink at the surface, so the quadrature is
    # a touch less accurate than for smooth integrands
    assert calc.m1(0.0) == pytest.approx(4 * math.pi ** 2, rel=5e-7)


def test_m1_matches_radial_mass(theta15, eos15, profile15):
    m1 = total_mass_dimensionless(theta15, eos15, 1.0)
    assert m1 == pytest.approx(4 * math.pi * profile15.mu1, rel=1e-7)


def test_m1_nu3():
    eos = EquationOfState.from_index(3.0)
    prof = solve_lane_emden(eos, 1.0)
    calc = MassCalculator(eos, 1.0, n_r=192, n_zeta=16, l_max=4)
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


def test_dm_drho_reduces_at_zero_rotation(calc53):
    eos = calc53.eos
    m1 = calc53.m1(0.0)
    pt = MassPoint(rho_center=2.0, omega2=0.0, beta=0.0, m1=m1,
                   mass=physical_mass(m1, eos, 2.0))
    d = dm_drho_at_constant_omega(pt, eos, dm1_dbeta=0.123)
    assert d == pytest.approx((3 * eos.gamma - 4) / 2 * pt.mass / pt.rho_center, rel=1e-12)


def test_dm_drho_gamma_four_thirds_vanishes():
    eos = EquationOfState.polytrope(4 / 3)
    pt = MassPoint(rho_center=1.0, omega2=0.0, beta=0.0, m1=10.0,
                   mass=physical_mass(10.0, eos, 1.0))
    assert dm_drho_at_constant_omega(pt, eos, dm1_dbeta=0.0) == 0.0


def test_dm_drho_sign_matches_finite_differences(calc53):
    eos = calc53.eos
    omega2 = 1e-3
    rho = 1.0
    beta = omega2 / (2 * math.pi * rho)
    m1 = calc53.m1(beta)
    pt = MassPoint(rho, omega2, beta, m1, physical_mass(m1, eos, rho))
    d = dm_drho_at_constant_omega(pt, eos, calc53.dm1_dbeta(beta))
    fd = (calc53.total_mass(1.01 * rho, omega2) - calc53.total_mass(rho, omega2)) / (0.01 * rho)
    assert np.sign(d) == np.sign(fd)
    assert d == pytest.approx(fd, rel=2e-2)


def test_central_density_inversion_closed_form(calc53):
    # at zero rotation the inversion has the closed form
    # rho = (M / (pref * M1))^{2/(3 gamma - 4)}
    eos = calc53.eos
    m1 = calc53.m1(0.0)
    target = 1.7
    from rotstar.mass import mass_prefactor

    rho_exact = (target / (mass_prefactor(eos, 1.0) * m1)) ** (2 / (3 * eos.gamma - 4))
    rho_num = central_density_from_mass(
        target, 0.0, eos, (0.3 * rho_exact, 3 * rho_exact), calculator=calc53, rtol=1e-10
    )
    assert rho_num == pytest.approx(rho_exact, rel=1e-8)


def test_central_density_rejects_gamma_four_thirds():
    with pytest.raises(GammaFourThirds):
        central_density_from_mass(1.0, 0.0, EquationOfState.polytrope(4 / 3), (0.5, 2.0))


def test_central_density_requires_bracket(calc53):
    with pytest.raises(NoBracket):
        central_density_from_mass(1e9, 0.0, calc53.eos, (0.5, 2.0), calculator=calc53)


def test_constant_mass_curve(calc53):
    out = trace_constant_mass_curve(
        calc53.eos, 1.0, [0.0, 2e-4, 5e-4, 1e-3, 2e-3], calculator=calc53, rtol=1e-8
    )
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
        from rotstar import ScaleSet, initial_field_from_profile
        from rotstar.grids import AxiGrid

        prof = solve_lane_emden(eos, u_c)
        scale = ScaleSet.from_central_enthalpy(eos, u_c, 1.0)
        grid = AxiGrid.build(prof.r_inf, n_r=128, n_zeta=16, l_max=4, focus=prof.xi1)
        u = initial_field_from_profile(grid, prof)
        rho_scale = scale.rho_center / (1.0 + float(eos.lambda_rho(u_c)))
        m1 = total_mass_dimensionless(u, eos, u_c)
        masses.append(rho_scale * scale.length_scale ** 3 * m1)
    assert masses[1] != pytest.approx(masses[0], rel=1e-3)


def test_mass_calculator_refuses_a_state_without_boundary():
    # past mass shedding at nu = 3 the 64x12xl4 solve converges to a field
    # with no free boundary; its mass is not an answer
    eos = EquationOfState.from_index(3.0)
    calc = MassCalculator(eos, 1.0, n_r=64, n_zeta=12, l_max=4)
    with pytest.raises(NoSignChange):
        calc.m1(3e-2)


def test_mass_curve_factors_the_newton_matrix_once(monkeypatch):
    # the family's 27 warm-started solves share one preconditioner (the
    # block LUs of the Newton systems); the curve is the one that a fresh
    # preconditioner per solve gives
    from rotstar import equilibrium

    builds = []
    factor_blocks = equilibrium._factor_blocks
    solve = equilibrium.solve_equilibrium

    def counting(*args, **kwargs):
        builds.append(1)
        return factor_blocks(*args, **kwargs)

    def per_solve_lu(*args, preconditioner=None, **kwargs):
        return solve(*args, **kwargs)

    def curve():
        eos = EquationOfState.polytrope(5 / 3)
        return trace_constant_mass_curve(
            eos, 1.0, [0.0, 1e-4, 3e-4], calculator=MassCalculator(eos, 1.0)
        )

    monkeypatch.setattr(equilibrium, "_factor_blocks", counting)
    carried = curve()
    assert len(builds) <= 2
    monkeypatch.setattr(equilibrium, "solve_equilibrium", per_solve_lu)
    fresh = curve()
    assert len(builds) > 10
    assert carried["mass_reference"] == fresh["mass_reference"]
    for p, q in zip(carried["points"], fresh["points"], strict=True):
        for name in ("rho_center", "beta", "m1", "mass"):
            assert getattr(p, name) == pytest.approx(getattr(q, name), rel=1e-12, abs=0.0)
