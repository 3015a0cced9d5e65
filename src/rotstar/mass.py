"""Total mass, the mass to central-density relation, and constant-mass curves.

For the exact gamma-law the physical mass obeys the scaling law
M = a^3 rho_c M1(nu, beta), beta = Omega^2 / (2 pi G rho_c), with a the
length scale and M1 the dimensionless mass integral of the scaled state.
Since a^3 rho_c is proportional to rho_c^e, e = (3 gamma - 4)/2, the
zero-rotation mass is a power of the central density.  The scaled problem
depends on the central density only through beta, so sweeps in rho_c reuse
a single continuation family.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .eos import EquationOfState, POLYTROPE, ScaleSet, mass_unit, scaled_density
from .equilibrium import ConstantRotationFamily, EquilibriumSolution, SolverOptions
from .errors import DomainError, GammaFourThirds, NoBracket
from .grids import AxiField, AxiGrid
from .radial import RadialProfile, solve_lane_emden

_log = logging.getLogger(__name__)

# mass evaluations (equilibrium solves) allowed to one central-density inversion
_MAX_MASS_EVALUATIONS = 30


@dataclass
class MassPoint:
    rho_center: float
    omega2: float
    beta: float
    m1: float
    mass: float
    # relative uncertainty of rho_center left by the mass tolerance
    rho_center_rel_uncertainty: float = 0.0


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


def physical_mass(
    m1: float, eos: EquationOfState, rho_center: float, grav_const: float = 1.0
) -> float:
    """M = a^3 rho_c M1 for the exact gamma-law."""
    return mass_unit(eos, ScaleSet.from_central_density(eos, rho_center, grav_const)) * m1


class MassCalculator:
    """beta |-> M1 on a shared rigid-rotation continuation family.

    ``profile`` is the family's spherical start, solved at u_center = 1 when
    not given; the grid spans [0, profile.r_inf].  ``mass_evaluations``
    counts the calls of :meth:`total_mass`.
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
        self.mass_evaluations = 0
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

    def total_mass(self, rho_center: float, omega2: float) -> float:
        self.mass_evaluations += 1
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
    full_output: bool = False,
):
    """Invert M(rho_c, Omega^2) = mass_target for the central density.

    Secant iteration on log M against log rho_c, whose slope is
    e - beta M1'(beta)/M1 by the scaling law, e = (3 gamma - 4)/2: the first
    step takes the zero-rotation slope e, each later one the secant through
    the last two iterates, until |M - mass_target| <= rtol * mass_target.
    Every evaluation is a full (warm-started) equilibrium solve.

    The stop is on the mass, so rho_c is fixed only to a relative
    rtol / |d log M / d log rho_c|, taken from the last secant slope (the
    zero-rotation slope if the first evaluation stops).  With ``full_output``
    the result is (rho_c, that uncertainty); it grows without bound toward
    gamma = 4/3.

    ``bracket`` bounds the search: the iteration starts at its geometric
    mean, its ends are never evaluated, and an iterate outside it raises
    NoBracket, as does running out of evaluations.  Refuses gamma = 4/3,
    where the zero-rotation mass is independent of the central density.
    """
    if eos.kind != POLYTROPE:
        raise DomainError("central_density_from_mass requires the exact gamma-law")
    if abs(eos.gamma - 4.0 / 3.0) < 1e-12:
        raise GammaFourThirds("mass does not determine the central density at gamma = 4/3")
    calc = calculator or MassCalculator(eos, grav_const)
    lo, hi = bracket
    if not (0 < lo < hi):
        raise DomainError("bracket must be positive and increasing")
    if not mass_target > 0:
        raise DomainError("mass_target must be positive")
    rho = math.sqrt(lo * hi)
    x, slope = math.log(rho), (3.0 * eos.gamma - 4.0) / 2.0
    x_prev = f_prev = None
    for _ in range(_MAX_MASS_EVALUATIONS):
        if not lo <= rho <= hi:
            raise NoBracket(f"iterate rho_c = {rho:g} left the bracket [{lo:g}, {hi:g}]")
        mass = calc.total_mass(rho, omega2)
        f = math.log(mass / mass_target)
        if x_prev is not None:
            slope = (f - f_prev) / (x - x_prev)
        if abs(mass - mass_target) <= rtol * mass_target:
            uncertainty = rtol / abs(slope) if slope else math.inf
            return (rho, uncertainty) if full_output else rho
        if slope == 0.0:
            raise NoBracket(f"the mass does not change with rho_c near {rho:g}")
        x_prev, f_prev = x, f
        x -= f / slope
        rho = math.exp(x)
    raise NoBracket(
        f"no central density within rtol = {rtol:g} of the target mass after "
        f"{_MAX_MASS_EVALUATIONS} mass evaluations"
    )


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

    Each point's inversion searches (rho/2, 2 rho) around the previous
    point's central density rho, starting at rho.  Returns the points (each
    with the relative uncertainty of its rho_c that the mass tolerance
    leaves, 0 at Omega = 0), the relative mass errors, and the largest beta
    reached (a diagnostic for how far the inversion was exercised).  Logs one
    DEBUG line per point.
    """
    calc = calculator or MassCalculator(eos, grav_const)
    mass_ref = calc.total_mass(rho_reference, 0.0)
    points: list[MassPoint] = []
    errors = []
    rho = rho_reference
    for om2 in omega2_schedule:
        evaluations = calc.mass_evaluations
        rho, uncertainty = (rho_reference, 0.0) if om2 == 0.0 else central_density_from_mass(
            mass_ref, om2, eos, (0.5 * rho, 2.0 * rho),
            grav_const=grav_const, rtol=rtol, calculator=calc, full_output=True,
        )
        beta = om2 / (2.0 * math.pi * grav_const * rho)
        m1 = calc.m1(beta)
        mass = physical_mass(m1, eos, rho, grav_const)
        points.append(MassPoint(rho, om2, beta, m1, mass, uncertainty))
        errors.append(abs(mass - mass_ref) / mass_ref)
        _log.debug(
            "mass curve point: Omega^2 %.6g, rho_c %.15g (relative uncertainty %.1e), "
            "%d mass evaluations, relative mass error %.2e",
            om2, rho, uncertainty, calc.mass_evaluations - evaluations, errors[-1],
        )
    return {
        "mass_reference": mass_ref,
        "points": points,
        "relative_errors": errors,
        "beta_monotone_max": max((p.beta for p in points), default=0.0),
    }
