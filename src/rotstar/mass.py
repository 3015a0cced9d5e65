"""Total mass, the mass to central-density relation, and constant-mass curves.

For the exact gamma-law the physical mass factorizes as
M = (A gamma / (4 pi G (gamma-1)))^{3/2} rho_c^{(3 gamma - 4)/2} M1(nu, beta),
with M1 the dimensionless mass integral of the scaled state.  The scaled
problem depends on the central density only through beta, so sweeps in
rho_c reuse a single continuation family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eos import EquationOfState, POLYTROPE, scaled_density
from .equilibrium import ConstantRotationFamily, EquilibriumSolution, SolverOptions
from .errors import DomainError, GammaFourThirds, NoBracket
from .grids import AxiField, AxiGrid
from .radial import RadialProfile, solve_lane_emden


@dataclass
class MassPoint:
    rho_center: float
    omega2: float
    beta: float
    m1: float
    mass: float


def total_mass_dimensionless(
    sol: EquilibriumSolution | AxiField, eos: EquationOfState, u_center: float
) -> float:
    """M1 = 2 pi * integral of the scaled density over r^2 dr dzeta."""
    u = sol.u if isinstance(sol, EquilibriumSolution) else sol
    grid = u.grid
    fine = grid.fine_field_at_gauss(u.modes())
    dens = scaled_density(fine, eos, u_center)
    radial = dens @ (grid.gauss_w * grid.gauss_x ** 2)
    return float(2.0 * math.pi * grid.zeta_fw @ radial)


def mass_prefactor(eos: EquationOfState, grav_const: float) -> float:
    g = eos.gamma
    return (
        eos.pressure_const * g / (4.0 * math.pi * grav_const * (g - 1.0))
    ) ** 1.5


def physical_mass(
    m1: float, eos: EquationOfState, rho_center: float, grav_const: float = 1.0
) -> float:
    if eos.kind != POLYTROPE:
        raise DomainError("the closed-form mass relation holds for the gamma-law")
    return mass_prefactor(eos, grav_const) * rho_center ** (
        (3.0 * eos.gamma - 4.0) / 2.0
    ) * m1


def dm_drho_at_constant_omega(
    point: MassPoint, eos: EquationOfState, dm1_dbeta: float, grav_const: float = 1.0
) -> float:
    """(dM/drho_c) at fixed Omega.  beta = Omega^2/(2 pi G rho_c) varies with
    rho_c, which contributes the -beta dM1/dbeta term."""
    e = (3.0 * eos.gamma - 4.0) / 2.0
    return (
        mass_prefactor(eos, grav_const)
        * point.rho_center ** (e - 1.0)
        * (e * point.m1 - point.beta * dm1_dbeta)
    )


class MassCalculator:
    """beta |-> M1 on a shared rigid-rotation continuation family.

    ``profile`` is the family's spherical start, solved at u_center = 1 when
    not given; the grid spans [0, profile.r_inf].
    """

    def __init__(
        self,
        eos: EquationOfState,
        grav_const: float = 1.0,
        opts: SolverOptions | None = None,
        n_r: int = 256,
        n_zeta: int = 32,
        l_max: int = 8,
        profile: RadialProfile | None = None,
    ):
        self.eos = eos
        self.grav_const = grav_const
        prof = profile or solve_lane_emden(eos, 1.0)
        self.family = ConstantRotationFamily(
            eos,
            1.0,
            grid=AxiGrid.build(prof.r_inf, n_r, n_zeta, l_max, focus=prof.xi1),
            opts=opts or SolverOptions(certify=False),
            profile=prof,
        )

    def m1(self, beta: float) -> float:
        sol = self.family.solve_at(beta)
        return total_mass_dimensionless(sol, self.eos, 1.0)

    def dm1_dbeta(self, beta: float, step: float = 1e-4) -> float:
        lo = max(beta - step, 0.0)
        hi = beta + step
        return (self.m1(hi) - self.m1(lo)) / (hi - lo)

    def total_mass(self, rho_center: float, omega2: float) -> float:
        beta = omega2 / (2.0 * math.pi * self.grav_const * rho_center)
        return physical_mass(self.m1(beta), self.eos, rho_center, self.grav_const)


def central_density_from_mass(
    mass_target: float,
    omega2: float,
    eos: EquationOfState,
    bracket: tuple[float, float],
    *,
    grav_const: float = 1.0,
    rtol: float = 1e-9,
    calculator: MassCalculator | None = None,
) -> float:
    """Invert M(rho_c, Omega^2) = mass_target for the central density.

    Every evaluation is a full equilibrium solve (warm-started).  Refuses
    gamma = 4/3, where the zero-rotation mass is independent of the central
    density.  ``bracket`` must contain a sign change of M - mass_target.
    """
    if eos.kind != POLYTROPE:
        raise DomainError("central_density_from_mass requires the exact gamma-law")
    if abs(eos.gamma - 4.0 / 3.0) < 1e-12:
        raise GammaFourThirds("mass does not determine the central density at gamma = 4/3")
    calc = calculator or MassCalculator(eos, grav_const)
    lo, hi = bracket
    if not (0 < lo < hi):
        raise DomainError("bracket must be positive and increasing")
    f_lo = calc.total_mass(lo, omega2) - mass_target
    f_hi = calc.total_mass(hi, omega2) - mass_target
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise NoBracket(
            f"no sign change of M - target on [{lo:g}, {hi:g}] "
            f"(endpoint values {f_lo:.3e}, {f_hi:.3e})"
        )
    # bisection with secant acceleration on log(rho); the map is smooth and
    # monotone for small beta
    a, fa, b, fb = lo, f_lo, hi, f_hi
    for _ in range(200):
        mid = math.exp(
            (math.log(a) * fb - math.log(b) * fa) / (fb - fa)
        )  # secant in log rho
        if not (a < mid < b):
            mid = math.sqrt(a * b)
        fm = calc.total_mass(mid, omega2) - mass_target
        if abs(fm) <= rtol * mass_target:
            return mid
        if fa * fm < 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    raise NoBracket("root refinement did not reach the requested tolerance")


def trace_constant_mass_curve(
    eos: EquationOfState,
    rho_reference: float,
    omega2_schedule,
    *,
    grav_const: float = 1.0,
    calculator: MassCalculator | None = None,
    rtol: float = 1e-9,
) -> dict:
    """The curve Omega^2 -> rho_c holding the total mass at its Omega = 0 value.

    Returns the points, the relative mass errors, and the largest beta at
    which the bracketing stayed monotone (a diagnostic for how far the
    inversion was exercised).
    """
    calc = calculator or MassCalculator(eos, grav_const)
    mass_ref = calc.total_mass(rho_reference, 0.0)
    points: list[MassPoint] = []
    errors = []
    rho = rho_reference
    beta_monotone_max = 0.0
    for om2 in omega2_schedule:
        if om2 == 0.0:
            rho_sol = rho_reference
        else:
            rho_sol = central_density_from_mass(
                mass_ref,
                om2,
                eos,
                (0.5 * rho, 2.0 * rho),
                grav_const=grav_const,
                rtol=rtol,
                calculator=calc,
            )
        beta = om2 / (2.0 * math.pi * grav_const * rho_sol)
        m1 = calc.m1(beta)
        mass = physical_mass(m1, eos, rho_sol, grav_const)
        points.append(MassPoint(rho_sol, om2, beta, m1, mass))
        errors.append(abs(mass - mass_ref) / mass_ref)
        beta_monotone_max = max(beta_monotone_max, beta)
        rho = rho_sol
    return {
        "mass_reference": mass_ref,
        "points": points,
        "relative_errors": errors,
        "beta_monotone_max": beta_monotone_max,
    }
