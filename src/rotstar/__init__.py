"""Rotating axisymmetric equilibria of self-gravitating barotropic stars."""

from .eos import (
    EquationOfState,
    ScaleSet,
    WhiteDwarfParams,
    beta_from_omega,
    mass_unit,
    scaled_density,
    scaled_density_deriv,
)
from .equilibrium import (
    AdmissibilityReport,
    ConstantRotationFamily,
    EquilibriumSolution,
    SolverOptions,
    check_admissibility,
    free_boundary,
    gravity_map,
    gravity_map_deriv,
    hl_certificate,
    hl_certificate_blocks,
    initial_field_from_profile,
    solve_equilibrium,
)
from .grids import AxiField, AxiGrid, clustered_nodes
from .mass import (
    MassCalculator,
    MassPoint,
    central_density_from_mass,
    physical_mass,
    total_mass_dimensionless,
    trace_constant_mass_curve,
)
from .perturb import (
    ModeSolution,
    OblatenessReport,
    PerturbationField,
    compute_h_field,
    mode_shooting,
    oblateness,
    solve_mode,
)
from .potential import (
    grad_at_origin,
    potential_direct,
    potential_modes_from_samples,
    potential_multipole,
    uniform_ball_potential,
)
from .radial import RadialProfile, solve_lane_emden
from .rotation import (
    AngularMomentumLaw,
    CentrifugalField,
    ConstantRotation,
    CylinderMass,
    DifferentialRotation,
    centrifugal_deriv_apply,
    centrifugal_from_momentum,
    centrifugal_from_omega,
    mass_within_cylinder,
)

__version__ = "0.1.0"
