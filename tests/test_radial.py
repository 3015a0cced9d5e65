import math

import numpy as np
import pytest

from conftest import GOLDEN
from oracles import trapezoid
from rotstar import EquationOfState, scaled_density, scaled_density_deriv, solve_lane_emden
from rotstar.errors import DomainError, NoZeroFound


def test_linear_density_analytic_profile():
    # nu = 1: theta = sin(r)/r, first zero pi, mass integral pi
    eos = EquationOfState.polytrope(2.0)
    prof = solve_lane_emden(eos, 1.0)
    assert prof.xi1 == pytest.approx(math.pi, abs=1e-8)
    assert prof.mu1 == pytest.approx(math.pi, abs=1e-8)
    r = np.linspace(1e-3, prof.xi1, 800)
    assert np.max(np.abs(prof.theta_at(r) - np.sin(r) / r)) < 1e-8


@pytest.mark.parametrize("nu", [1.5, 2.0, 2.5, 3.0])
def test_first_zero_against_rk4_oracle(nu):
    prof = solve_lane_emden(EquationOfState.from_index(nu), 1.0)
    gold = GOLDEN[str(nu)]
    assert prof.xi1 == pytest.approx(gold["xi1"], abs=1e-8)
    assert prof.mu1 == pytest.approx(gold["mu1"], abs=1e-8)


def test_profile_invariants(profile15, eos15):
    p = profile15
    assert p.theta[0] == 1.0 and p.dtheta[0] == 0.0
    inside = (p.r_nodes > 0) & (p.r_nodes < p.xi1)
    assert np.all(p.theta[inside] > 0)
    beyond = p.r_nodes > p.xi1
    assert np.all(p.theta[beyond] < 0)
    # harmonic tail matches the stored profile
    tail = _harmonic_tail(p, p.r_nodes[beyond])
    assert np.max(np.abs(tail - p.theta[beyond])) < 1e-9
    # mass integral identity mu1 = int f(theta) r^2 dr
    r = np.linspace(0, p.xi1, 20001)
    f = scaled_density(p.theta_at(r), eos15, 1.0)
    mu = trapezoid(f * r ** 2, r)
    assert mu == pytest.approx(p.mu1, rel=1e-7)


def _harmonic_tail(p, r):
    """The closed form of the profile past its zero, -mu1 (1/xi1 - 1/r)."""
    return -p.mu1 * (1.0 / p.xi1 - 1.0 / np.asarray(r, dtype=float))


def test_harmonic_extension_values(profile15):
    # the profile continues past xi1 as the closed-form tail, up to r_inf
    p = profile15
    assert p.theta_at(p.xi1) == pytest.approx(0.0, abs=1e-12)
    r = np.linspace(p.xi1, p.r_inf, 200)
    assert np.max(np.abs(p.theta_at(r) - _harmonic_tail(p, r))) < 1e-9
    with pytest.raises(DomainError):
        p.theta_at(1.01 * p.r_inf)


def test_harmonic_extension_c1_matching(profile15):
    p = profile15
    eps = 1e-6
    outer_slope = (_harmonic_tail(p, p.xi1 + eps) - _harmonic_tail(p, p.xi1)) / eps
    assert outer_slope == pytest.approx(-p.psi_at(p.xi1), rel=1e-5)


def test_ode_residual_by_finite_differences(profile15, eos15):
    # residual of the radial equation with the second derivative replaced by a
    # centered difference of the stored first derivative (the check is limited
    # by the finite-difference truncation, not the integrator tolerance)
    p = profile15
    r = np.linspace(0.05, p.r_inf * 0.98, 400)
    h = 1e-5
    dv = (p.psi_at(r - h) - p.psi_at(r + h)) / (2 * h)
    resid = dv - 2.0 * p.psi_at(r) / r + scaled_density(p.theta_at(r), eos15, 1.0)
    assert np.max(np.abs(resid)) < 1e-7


def test_near_axis_slope(profile15, eos15):
    # psi(r)/r -> f(1)/3
    p = profile15
    f1 = scaled_density(1.0, eos15, 1.0)
    assert p.psi_at(1e-3) / 1e-3 == pytest.approx(f1 / 3.0, rel=1e-2)
    assert np.all(p.psi[1:] > 0)


def test_density_decreases_along_radius(profile15, eos15):
    p = profile15
    r = np.linspace(1e-3, p.xi1 * 0.999, 500)
    fprime = scaled_density_deriv(p.theta_at(r), eos15, 1.0)
    assert np.all(fprime * p.psi_at(r) > 0)


def test_no_zero_found_below_r_inf():
    eos = EquationOfState.from_index(1.5)
    with pytest.raises(NoZeroFound):
        solve_lane_emden(eos, 1.0, r_inf=2.0)


@pytest.mark.parametrize("r_inf", [1e62, 1e100])
def test_outer_radius_too_large_for_the_dense_output(eos15, r_inf):
    # the exterior steps grow with r until h^5 of the quintic overflows; the
    # solve refuses such an r_inf instead of returning NaN rows
    with pytest.raises(DomainError, match="r_inf"):
        solve_lane_emden(eos15, 1.0, r_inf=r_inf)


@pytest.mark.parametrize("r_inf", [1e6, 1e20, 1e60])
def test_large_outer_radius_gives_a_finite_profile(eos15, r_inf):
    prof = solve_lane_emden(eos15, 1.0, r_inf=r_inf)
    assert np.isfinite(prof.theta).all() and np.isfinite(prof.dtheta).all()


def test_white_dwarf_profiles_finite_radius():
    polytrope = solve_lane_emden(EquationOfState.polytrope(5 / 3), 1.0)
    for kappa in [1e-12, 0.01, 0.1]:
        wd = EquationOfState.white_dwarf(1.0, 1.0, 1.0)
        prof = solve_lane_emden(wd, 16 * kappa)
        assert 0 < prof.xi1 < prof.r_inf
        if kappa < 1e-10:
            assert prof.xi1 == pytest.approx(polytrope.xi1, abs=1e-6)


def _dop853_profile(eos, u_center=1.0, rtol=1e-12, atol=1e-14):
    """The hydrostatic ODE through scipy's DOP853 from the same series start;
    returns the dense solution and its first zero (xi1, mu1)."""
    integrate = pytest.importorskip("scipy.integrate")
    optimize = pytest.importorskip("scipy.optimize")
    f1 = scaled_density(1.0, eos, u_center)
    r0 = 1e-4

    def rhs(r, y):
        return (y[1], -scaled_density(y[0], eos, u_center) - 2.0 * y[1] / r)

    def hit_zero(r, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1
    pilot = integrate.solve_ivp(rhs, (r0, 1e4), (1 - f1 * r0 ** 2 / 6, -f1 * r0 / 3),
                                method="DOP853", rtol=rtol, atol=atol, events=hit_zero)
    r_end = 1.5 * pilot.t_events[0][0]
    sol = integrate.solve_ivp(rhs, (r0, r_end), (1 - f1 * r0 ** 2 / 6, -f1 * r0 / 3),
                              method="DOP853", rtol=rtol, atol=atol, dense_output=True)
    xe = pilot.t_events[0][0]
    xi1 = optimize.brentq(lambda s: sol.sol(s)[0], xe * 0.99, xe * 1.01, xtol=1e-15)
    return sol.sol, xi1, -xi1 ** 2 * sol.sol(xi1)[1]


@pytest.mark.parametrize("nu", [1.0, 1.5, 3.0])
def test_profile_matches_dop853_at_mode_grid_points(nu):
    from rotstar.perturb import ModeGrid

    eos = EquationOfState.from_index(nu)
    prof = solve_lane_emden(eos, 1.0)
    dense, _, _ = _dop853_profile(eos)
    x = ModeGrid.build(prof, 700).gauss_x
    x = x[x >= 1e-4]
    want = dense(x)
    assert np.max(np.abs(prof.theta_at(x) - want[0])) <= 1e-11
    assert np.max(np.abs(prof.psi_at(x) + want[1])) <= 1e-11


@pytest.mark.parametrize("nu", [1.0, 1.5, 2.0, 2.5, 3.0])
def test_first_zero_against_tight_dop853_and_rk4_oracle(nu):
    # the golden file holds the step-halved RK4 oracle to 1e-10; a DOP853
    # run at its tightest tolerance checks the zero further down
    eos = EquationOfState.from_index(nu)
    prof = solve_lane_emden(eos, 1.0)
    _, xi1, mu1 = _dop853_profile(eos, rtol=3e-14, atol=1e-17)
    assert abs(prof.xi1 - xi1) <= 5e-12
    assert abs(prof.mu1 - mu1) <= 5e-12
    gold = GOLDEN[str(nu)]
    assert abs(prof.xi1 - gold["xi1"]) <= 1e-10
    assert abs(prof.mu1 - gold["mu1"]) <= 1e-10


def test_given_outer_radius_keeps_the_same_zero(profile15, eos15):
    # the steps up to the zero do not depend on where the integration stops
    prof = solve_lane_emden(eos15, 1.0, r_inf=2.0 * profile15.xi1)
    assert prof.xi1 == profile15.xi1 and prof.mu1 == profile15.mu1
    r = np.linspace(0.0, profile15.xi1, 500)
    assert np.array_equal(prof.theta_at(r), profile15.theta_at(r))


@pytest.mark.parametrize("nu", [1.0, 1.5, 3.0])
def test_scalar_evaluation_is_bitwise_the_array_path(nu):
    # one radius at a time, as the shooting path's ODE stages call it: the
    # series below 1e-4, the dense output above, both ends of the range
    eos = EquationOfState.from_index(nu)
    prof = solve_lane_emden(eos, 1.0)
    r = np.concatenate((
        [0.0, 1e-12, np.nextafter(1e-4, 0.0), 1e-4], np.logspace(-9.0, -4.0, 100),
        np.linspace(0.0, prof.r_inf, 1000), prof.r_nodes, [prof.xi1, prof.r_inf],
    ))
    for at in (prof.theta_at, prof.psi_at):
        one = np.array([at(float(x)) for x in r])
        assert np.array_equal(one.view(np.int64), at(r).view(np.int64))
    with pytest.raises(DomainError):
        prof.theta_at(-1e-9)
    with pytest.raises(DomainError):
        prof.theta_at(prof.r_inf * 1.01)


@pytest.mark.parametrize("nu", [1.0, 1.2, 1.5, 2.0, 2.5, 3.0, 4.5])
def test_profile_on_python_floats_is_bitwise_the_array_path(nu, monkeypatch):
    # the Dormand-Prince stages run scaled_density on Python floats; with
    # every stage sent through the 0-d array path instead, theta, theta',
    # xi1 and mu1 keep every bit
    from rotstar import radial

    eos = EquationOfState.from_index(nu)
    fast = solve_lane_emden(eos, 1.0)
    monkeypatch.setattr(radial, "scaled_density", lambda u, *a: scaled_density(np.asarray(u), *a))
    slow = solve_lane_emden(eos, 1.0)
    for got, want in ((fast.theta, slow.theta), (fast.dtheta, slow.dtheta)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert fast.xi1.hex() == slow.xi1.hex() and fast.mu1.hex() == slow.mu1.hex()
