import math

import numpy as np
import pytest

from rotstar import (
    EquationOfState,
    ScaleSet,
    beta_from_omega,
    mass_unit,
    scaled_density,
    scaled_density_deriv,
)
from rotstar.errors import DomainError


def test_negative_enthalpy_gives_zero_density():
    eos = EquationOfState.from_index(1.5)
    assert scaled_density(-0.5, eos, 1.0) == 0.0
    assert scaled_density_deriv(-1.0, eos, 1.0) == 0.0


def test_polytrope_unit_value():
    eos = EquationOfState.from_index(1.5)
    assert scaled_density(1.0, eos, 1.0) == 1.0


def test_polytrope_derivative_closed_form():
    eos = EquationOfState.from_index(2.0)
    assert scaled_density_deriv(0.25, eos, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_white_dwarf_density_factor():
    # choose constants so that B u_c / (16 A c^2) = 0.01 at u = u_c
    A = B = c = 1.0
    eos = EquationOfState.white_dwarf(A, B, c)
    u_c = 16 * 0.01
    val = scaled_density(1.0, eos, u_c)
    assert val == pytest.approx(1.01 ** 1.5, rel=1e-14)
    # cross-check against the closed-form density law rho(u) rebuilt from the
    # enthalpy integral u = (8 A c^2 / B)(sqrt(X^2+1) - 1), rho = B c^3 X^3:
    # rho = B^{5/2}/(8 A^{3/2}) u^{3/2} (1 + B u/(16 A c^2))^{3/2}
    u_phys = u_c * 1.0
    rho = B ** 2.5 / (8 * A ** 1.5) * u_phys ** 1.5 * (1 + B * u_phys / (16 * A * c ** 2)) ** 1.5
    rho_scale = ((eos.gamma - 1) / (eos.pressure_const * eos.gamma)) ** eos.nu * u_c ** eos.nu
    assert rho_scale * val == pytest.approx(rho, rel=1e-12)


def test_white_dwarf_derivative_ratio_near_zero():
    eos = EquationOfState.white_dwarf(1.0, 1.0, 1.0)
    u_c = 0.16
    for u in [1e-3, 1e-4, 1e-5]:
        ratio = scaled_density_deriv(u, eos, u_c) / scaled_density(u, eos, u_c)
        assert ratio * u == pytest.approx(eos.nu, rel=2e-2 * math.sqrt(u))


def test_white_dwarf_derivative_matches_finite_differences():
    eos = EquationOfState.white_dwarf(2.0, 3.0, 1.5)
    u_c = 0.7
    u = np.linspace(0.05, 1.0, 17)
    h = 1e-6
    fd = (scaled_density(u + h, eos, u_c) - scaled_density(u - h, eos, u_c)) / (2 * h)
    assert np.allclose(fd, scaled_density_deriv(u, eos, u_c), rtol=1e-8)


def test_invariants_rejected():
    with pytest.raises(DomainError):
        EquationOfState("polytrope", 2.5, 1.0 / 1.5, 1.0)
    with pytest.raises(DomainError):
        EquationOfState("polytrope", 1.5, 3.0, 1.0)  # nu inconsistent
    with pytest.raises(DomainError):
        EquationOfState("white_dwarf", 5 / 3, 1.5, 1.0)  # missing constants


def test_white_dwarf_pressure_const_check():
    A, B, c = 1.2, 0.8, 2.0
    eos = EquationOfState.white_dwarf(A, B, c)
    assert eos.pressure_const == pytest.approx(8 * A / (5 * B ** (5 / 3)), rel=1e-15)
    with pytest.raises(DomainError):
        EquationOfState(
            "white_dwarf", 5 / 3, 1.5, 1.0, eos.wd_params
        )


def test_beta_zero_omega():
    eos = EquationOfState.from_index(1.5)
    scale = ScaleSet.from_central_enthalpy(eos, 1.0)
    assert beta_from_omega(0.0, scale, eos) == 0.0


def test_beta_definition_matches_density_form():
    rng = np.random.default_rng(42)
    for _ in range(20):
        gamma = rng.uniform(1.21, 1.95)
        eos = EquationOfState.polytrope(gamma, rng.uniform(0.5, 2.0))
        scale = ScaleSet.from_central_enthalpy(eos, rng.uniform(0.2, 3.0), rng.uniform(0.5, 2.0))
        omega = rng.uniform(0.0, 0.3)
        b1 = beta_from_omega(omega, scale, eos)
        b2 = omega ** 2 / (2 * math.pi * scale.grav_const * scale.rho_center)
        assert b1 == pytest.approx(b2, rel=1e-13)


def test_beta_unit_case():
    # rho_c = 1, G = 1, Omega^2 = 2 pi  ->  beta = 1
    eos = EquationOfState.polytrope(1.5)
    scale = ScaleSet.from_central_density(eos, 1.0, 1.0)
    assert beta_from_omega(math.sqrt(2 * math.pi), scale, eos) == pytest.approx(1.0, rel=1e-13)


def test_scale_invariants():
    eos = EquationOfState.polytrope(1.4, 0.7)
    scale = ScaleSet.from_central_enthalpy(eos, 2.0, 1.3)
    g = eos.gamma
    a = (
        (4 * math.pi * scale.grav_const) ** -0.5
        * (eos.pressure_const * g / (g - 1)) ** (1 / (2 * (g - 1)))
        * scale.u_center ** (-(2 - g) / (2 * (g - 1)))
    )
    assert scale.length_scale == pytest.approx(a, rel=1e-14)
    rho = ((g - 1) / (eos.pressure_const * g)) ** eos.nu * scale.u_center ** eos.nu
    assert scale.rho_center == pytest.approx(rho, rel=1e-14)
    # round trip through the density parameterization
    back = ScaleSet.from_central_density(eos, scale.rho_center, 1.3)
    assert back.u_center == pytest.approx(scale.u_center, rel=1e-13)


def test_scale_density_form_of_length():
    # a = sqrt(A gamma / (4 pi G (gamma-1))) rho^{-(2-gamma)/2} for the gamma-law
    eos = EquationOfState.polytrope(1.8, 1.1)
    scale = ScaleSet.from_central_density(eos, 0.37, 2.2)
    g = eos.gamma
    a2 = math.sqrt(
        eos.pressure_const * g / (4 * math.pi * scale.grav_const * (g - 1))
    ) * scale.rho_center ** (-(2 - g) / 2)
    assert scale.length_scale == pytest.approx(a2, rel=1e-13)


@pytest.mark.parametrize(
    "eos, u_c",
    [
        (EquationOfState.from_index(1.5, 0.8), 1.7),
        (EquationOfState.from_index(3.0), 0.4),
        (EquationOfState.white_dwarf(1.0, 1.0, 1.0), 0.17),
    ],
    ids=["nu1.5", "nu3.0", "white-dwarf"],
)
def test_mass_unit_closed_forms(eos, u_c):
    scale = ScaleSet.from_central_enthalpy(eos, u_c, 1.3)
    g = eos.gamma
    # the cylinder-mass prefactor of the enthalpy form, over 2 pi
    closed = (
        (4 * math.pi * scale.grav_const) ** -1.5
        * (eos.pressure_const * g / (g - 1)) ** (1 / (2 * (g - 1)))
        * u_c ** ((3 * g - 4) / (2 * (g - 1)))
    )
    assert mass_unit(eos, scale) == pytest.approx(closed, rel=1e-14)
    if eos.kind == "polytrope":
        # a^3 rho_c, a power rho_c^((3 gamma - 4)/2) of the central density
        assert mass_unit(eos, scale) == pytest.approx(
            scale.length_scale ** 3 * scale.rho_center, rel=1e-14
        )
        pref = (eos.pressure_const * g / (4 * math.pi * scale.grav_const * (g - 1))) ** 1.5
        assert mass_unit(eos, scale) == pytest.approx(
            pref * scale.rho_center ** ((3 * g - 4) / 2), rel=1e-14
        )


# remainder bounds for the truncated power map (the linearization estimates)


def _remainder_slope(nu, rng, n_samples=10_000):
    hs = np.logspace(-1, -5, 9)
    sups = []
    for h_mag in hs:
        u = rng.uniform(-2.0, 2.0, n_samples)
        # concentrate some samples where the kink lives
        u[: n_samples // 4] = rng.uniform(-2 * h_mag, 2 * h_mag, n_samples // 4)
        h = h_mag * rng.choice([-1.0, 1.0], n_samples)
        keep = np.abs(u + h) <= 2.0
        u, h = u[keep], h[keep]
        up = np.maximum(u, 0.0)
        rem = np.abs(
            np.maximum(u + h, 0.0) ** nu - up ** nu - nu * up ** (nu - 1.0) * h
        )
        sups.append(np.max(rem))
    slope = np.polyfit(np.log(hs), np.log(sups), 1)[0]
    return slope


@pytest.mark.parametrize("nu", [1.3, 1.5, 2.5, 3.0])
def test_power_map_remainder_exponent(nu):
    rng = np.random.default_rng(int(nu * 100))
    slope = _remainder_slope(nu, rng)
    assert slope >= min(nu, 2.0) - 0.05


@pytest.mark.parametrize("nu", [1.3, 1.5, 2.5, 3.0])
def test_power_map_difference_exponent(nu):
    rng = np.random.default_rng(int(nu * 101))
    hs = np.logspace(-1, -5, 9)
    sups = []
    for h_mag in hs:
        u = rng.uniform(-2.0, 2.0, 10_000)
        u[:2500] = rng.uniform(-2 * h_mag, 2 * h_mag, 2500)
        h = h_mag * rng.choice([-1.0, 1.0], 10_000)
        keep = np.abs(u + h) <= 2.0
        u, h = u[keep], h[keep]
        diff = np.abs(
            np.maximum(u + h, 0.0) ** (nu - 1.0) - np.maximum(u, 0.0) ** (nu - 1.0)
        )
        sups.append(np.max(diff))
    slope = np.polyfit(np.log(hs), np.log(sups), 1)[0]
    assert slope >= min(nu - 1.0, 1.0) - 0.05


def test_density_monotone_in_enthalpy():
    for eos, u_c in [
        (EquationOfState.from_index(1.5), 1.0),
        (EquationOfState.from_index(3.0), 1.0),
        (EquationOfState.white_dwarf(1.0, 1.0, 1.0), 1.6),
    ]:
        u = np.linspace(0.0, 2.0, 4001)
        f = scaled_density(u, eos, u_c)
        assert np.all(np.diff(f) >= 0)


@pytest.mark.parametrize("nu", [1.0, 1.2, 1.5, 2.0, 2.5, 3.0, 4.5])
def test_density_on_a_python_float_is_bitwise_the_array_path(nu):
    # the polytrope's branch for one Python float, taken at every stage of a
    # Lane-Emden step, against the 0-d array path: u <= 0 (-0.0 included),
    # tiny, around 1 and large
    eos = EquationOfState.from_index(nu)
    rng = np.random.default_rng(5)
    us = [-1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-10, 1.0, 7.0, 1e10, math.inf]
    for u in us + rng.uniform(-0.5, 1.5, 2000).tolist():
        got, want = scaled_density(u, eos, 1.0), scaled_density(np.asarray(u), eos, 1.0)
        assert type(got) is float and got.hex() == want.hex()
