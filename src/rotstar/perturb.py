"""First-order response of the spherical state to slow rigid rotation.

The correction field splits into even Legendre modes.  Each radial mode
function solves a linear second-order problem that is equivalent to an
integral representation with the two-sided kernel (min/max)^degree, the
multipole potential's radial kernel (``grids.RadialKernel``); the degree-2
mode carries the oblateness and the degree-0 mode is a Volterra equation.
Each mode operator is that kernel times the density response times the
local-cubic interpolation, applied matrix-free by ``RadialKernel.apply``, and
the mode is found by GMRES on that operator with one refinement pass.  A
damped contraction iteration from a prescribed start checks that homogeneous
modes of degree >= 4 decay to zero.  ``mode_shooting`` integrates the
underlying second-order ODE instead, by the Dormand-Prince steps of
``radial``, as an independent validation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eos import EquationOfState, scaled_density_deriv
from .errors import DomainError, NoConvergence
from .grids import (
    AxiGrid,
    RadialKernel,
    apply_stencil,
    clustered_nodes,
    cubic_spline,
    interp_matrix,  # noqa: F401 - unused here; bench/test_bench.py requires perturb to hold it
    interp_stencil,
    panel_gauss,
)
from .radial import RadialProfile, _dp_steps, _quintic_hermite
from .equilibrium import BlockInverse, _gmres, gravity_jacobian_packed
from .rotation import rigid_rotation


@dataclass
class ModeGrid:
    """Panel-Gauss quadrature on (0, xi1] with the profile data cached; it
    holds nothing n_gauss x n_nodes (``_ModeOperator`` takes the stencil, and
    no mode matrix is formed)."""

    r: np.ndarray
    gauss_x: np.ndarray
    gauss_w: np.ndarray
    q_gauss: np.ndarray
    psi: np.ndarray

    @classmethod
    def build(cls, profile: RadialProfile, eos: EquationOfState, u_center: float, n: int):
        # cluster at both ends: the center for the r^degree behavior, the
        # surface for the Hoelder kink of the density derivative
        nodes = clustered_nodes(
            profile.xi1, n, axis_weight=3.0, axis_width=0.02,
            focus=0.995 * profile.xi1, focus_weight=6.0, focus_width=0.02,
        )
        nodes[-1] = profile.xi1
        nodes[0] = 1e-8 * profile.xi1  # keep H = y/psi finite at the first node
        x, w = (a.ravel() for a in panel_gauss(nodes[:-1], nodes[1:]))
        q = scaled_density_deriv(profile.theta_at(x), eos, u_center)
        return cls(nodes, x, w, q, profile.psi_at(nodes))


class _ModeOperator:
    """The linear mode map y -> kernel(q y) at the nodes, matrix-free: the
    local-cubic stencil takes y to the Gauss points, and ``RadialKernel.apply``
    sums the multipole potential's radial kernel of the degree over them in
    O(n).  ``op @ y`` is the product; no n x n matrix is formed.

    Degree 0 subtracts the first entry of the product (the first node lies
    below every Gauss point, so the kernel's first row is x w): what is left
    is x (x/r - 1) w on x < r, the Volterra form that pins the center value.
    """

    def __init__(self, mg: ModeGrid, degree: int):
        self.stencil = interp_stencil(mg.r, mg.gauss_x)
        self.kernel = RadialKernel(mg.r, mg.gauss_x, mg.gauss_w, [degree], *self.stencil)
        self.q = mg.q_gauss
        self.volterra = degree == 0

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        out = self.kernel.apply(self.q * apply_stencil(*self.stencil, y))[0]
        if self.volterra:
            out -= out[0]
        return out


# damped contraction from a prescribed start (the homogeneous decay check)
_DAMPING = 0.5
_TOL = 5e-14
_MAX_ITER = 800


def _contract(op: _ModeOperator, inhom: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """Damped fixed-point iteration y <- inhom + op y; returns (y, number of steps)."""
    steps = []
    for it in range(1, _MAX_ITER + 1):
        mapped = inhom + op @ y
        steps.append(float(np.max(np.abs(mapped - y))))
        y = (1.0 - _DAMPING) * y + _DAMPING * mapped
        if steps[-1] <= _TOL * max(1.0, float(np.max(np.abs(y)))):
            return y, it
    raise NoConvergence(
        f"mode iteration stalled after {_MAX_ITER} steps (step {steps[-1]:.2e})",
        residual_history=steps,
    )


def _unpreconditioned(v: np.ndarray) -> np.ndarray:
    return v


@dataclass
class ModeSolution:
    degree: int
    r: np.ndarray
    values: np.ndarray
    far_coefficient: float
    H: np.ndarray
    iterations: int
    residual: float

    def at(self, r):
        return cubic_spline(self.r, self.values)(np.asarray(r, dtype=float))


def solve_mode(
    profile: RadialProfile,
    eos: EquationOfState,
    u_center: float,
    degree: int,
    source=None,
    far_coefficient: float = 0.0,
    *,
    n_nodes: int = 700,
    initial=None,
) -> ModeSolution:
    """Solve one radial mode problem on (0, xi1].

    The mode function is the solution of the linear equation
        y = source + (far_coefficient r^degree + two-sided kernel of q y)/(2 degree + 1)
    (degree = 0: the Volterra form with the center value pinned to
    source(0), = 0 for polynomial sources).  ``source`` is a callable of r
    or None.  The mode operator A is applied matrix-free (``_ModeOperator``)
    and (I - A) y = inhom is solved by the package's GMRES with no
    preconditioner, then refined by one more GMRES pass on its residual,
    which takes the residual from about 1e-12 to round-off; ``iterations``
    counts the Krylov iterations of both.  With an ``initial`` callable the
    damped contraction iteration runs from that start instead; for
    degree >= 4 the map contracts like 3/(2 degree + 1) in the y/psi-weighted
    norm, and a stall raises NoConvergence.  ``mode_shooting`` is the
    independent ODE oracle.
    """
    if degree % 2 != 0 or degree < 0:
        raise DomainError("mode degree must be a nonnegative even integer")
    mg = ModeGrid.build(profile, eos, u_center, n_nodes)
    src = np.zeros_like(mg.r) if source is None else np.asarray(source(mg.r), float)
    inhom = src + (
        far_coefficient * mg.r ** degree / (2.0 * degree + 1.0) if degree > 0 else 0.0
    )
    op = _ModeOperator(mg, degree)
    if initial is None:
        def apply(v):
            return v - op @ v

        y, it, _ = _gmres(apply, _unpreconditioned, inhom)
        fix, more, _ = _gmres(apply, _unpreconditioned, inhom - apply(y))
        y, it = y + fix, it + more
    else:
        y, it = _contract(op, inhom, np.asarray(initial(mg.r), dtype=float))
    resid = float(np.max(np.abs(inhom + op @ y - y)))
    psi = np.where(mg.psi > 0, mg.psi, np.inf)
    return ModeSolution(degree, mg.r, y, far_coefficient, y / psi, it, resid)


def mode_shooting(
    profile: RadialProfile,
    eos: EquationOfState,
    u_center: float,
    degree: int,
    far_coefficient: float,
    r_out: np.ndarray,
    source=None,
) -> np.ndarray:
    """Validation path: integrate the mode ODE from its regular start by the
    Dormand-Prince steps of ``solve_lane_emden`` and match the outer condition
    r y' + (degree+1) y = far_coefficient * r^degree at xi1 (where the density
    response vanishes), for homogeneous problems.

    The start at r0 = 1e-6 xi1 is y = (r/r0)^degree, y' = degree/r0.  The ODE
    is linear, so this scale drops out of the matching coefficient c, and it
    starts y at 1, above the absolute floor of the step control (r0^degree
    would start it below).  Radii below r0 take c (r/r0)^degree.
    """
    if source is not None:
        raise DomainError("shooting path implemented for homogeneous sources only")
    j = degree
    xi1 = profile.xi1

    def accel(r, y, v):
        q = scaled_density_deriv(profile.theta_at(r), eos, u_center)
        return -2.0 * v / r + (j * (j + 1) / r ** 2 - q) * y

    r0 = 1e-6 * xi1
    trail = ([r0], [1.0], [j / r0], [accel(r0, 1.0, j / r0)])
    _dp_steps(accel, trail, xi1, 1e-12)
    yh, vh = trail[1][-1], trail[2][-1]
    c = far_coefficient * xi1 ** j / (xi1 * vh + (j + 1) * yh)
    r_out = np.asarray(r_out, dtype=float)
    return c * np.where(
        r_out < r0, (r_out / r0) ** j, _quintic_hermite(trail)(np.clip(r_out, r0, xi1))
    )


@dataclass
class PerturbationField:
    """First-order rotational response: radial parts of the degree-0 and
    degree-2 modes, plus the resolvent cross-check data."""

    profile: RadialProfile
    r: np.ndarray
    h0: np.ndarray
    h2: np.ndarray
    h0_at_xi1: float
    h2_at_xi1: float
    consistency_sup: float
    resolvent_modes: np.ndarray = field(repr=False)
    resolvent_grid: AxiGrid = field(repr=False)
    _h0_spline: object = field(default=None, repr=False)
    _h2_spline: object = field(default=None, repr=False)

    def __post_init__(self):
        if self._h0_spline is None:
            self._h0_spline = cubic_spline(self.r, self.h0)
            self._h2_spline = cubic_spline(self.r, self.h2)

    def h0_at(self, r):
        return self._h0_spline(np.asarray(r, dtype=float))

    def h2_at(self, r):
        return self._h2_spline(np.asarray(r, dtype=float))

    def at(self, r, zeta):
        """The combined response h0(r) + h2(r) P2(zeta)."""
        p2 = 0.5 * (3.0 * np.asarray(zeta, dtype=float) ** 2 - 1.0)
        return self.h0_at(r) + self.h2_at(r) * p2


def _resolvent_h(profile, eos, u_center, grid) -> np.ndarray:
    """Solve (I - D[gravity map]) h = g1 on the 2-D grid, g1 = r^2 (1-zeta^2)/4.

    At the spherical state the linearization is one block per Legendre
    degree, and g1 has degrees 0 and 2 only: h is one solve with each of
    those two blocks, the only ones built, and its higher modes are zero.
    """
    modes0 = np.zeros((grid.n_l, grid.n_r))
    modes0[0] = profile.theta_at(grid.r)
    g1 = rigid_rotation(grid, 1.0).g_modes
    blocks = gravity_jacobian_packed(grid, eos, u_center, modes0)
    h = np.zeros((grid.n_l, grid.n_r))
    h[:2] = BlockInverse(grid, [next(blocks), next(blocks)]).solve(g1[:2])
    return h


def compute_h_field(
    profile: RadialProfile,
    eos: EquationOfState,
    u_center: float = 1.0,
    grid: AxiGrid | None = None,
    n_nodes: int = 700,
) -> PerturbationField:
    """Degree-0 and degree-2 radial responses to the rigid centrifugal source.

    The degree-2 problem is the integral representation with far coefficient
    -5/6 (the r^2/6 source signature); the degree-0 problem carries the
    +r^2/6 source and a pinned center value.  Both are independently
    cross-checked against the resolvent solve on a 2-D grid; the sup
    difference is recorded as ``consistency_sup``.
    """
    h2 = solve_mode(
        profile, eos, u_center, 2, source=None, far_coefficient=-5.0 / 6.0,
        n_nodes=n_nodes,
    )
    h0 = solve_mode(
        profile, eos, u_center, 0, source=lambda r: r ** 2 / 6.0, n_nodes=n_nodes,
    )
    if grid is None:
        grid = AxiGrid.build(
            profile.r_inf, n_r=256, n_zeta=16, l_max=4, focus=profile.xi1,
            focus_weight=12.0, focus_width=0.015,
        )
    res_modes = _resolvent_h(profile, eos, u_center, grid)
    inside = grid.r <= profile.xi1
    r_cmp = grid.r[inside]
    dev0 = np.abs(h0.at(r_cmp[1:]) - res_modes[0][inside][1:])
    dev2 = np.abs(h2.at(r_cmp[1:]) - res_modes[1][inside][1:])
    consistency = float(max(dev0.max(), dev2.max()))
    return PerturbationField(
        profile=profile,
        r=h2.r,
        h0=h0.values,
        h2=h2.values,
        h0_at_xi1=float(h0.values[-1]),
        h2_at_xi1=float(h2.values[-1]),
        consistency_sup=consistency,
        resolvent_modes=res_modes,
        resolvent_grid=grid,
    )


@dataclass
class OblatenessReport:
    beta: float
    h0_at_xi1: float
    h2_at_xi1: float
    zeta: np.ndarray
    Xi1_of_zeta: np.ndarray
    sigma_linear: float     # the beta-slope of the oblateness
    sigma: float            # slope * beta
    sigma_measured: float | None = None

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "h0_at_xi1": self.h0_at_xi1,
            "h2_at_xi1": self.h2_at_xi1,
            "sigma_linear": self.sigma_linear,
            "sigma": self.sigma,
            "sigma_measured": self.sigma_measured,
            "zeta": [float(z) for z in self.zeta],
            "Xi1": [float(x) for x in self.Xi1_of_zeta],
        }


def oblateness(
    profile: RadialProfile,
    h_field: PerturbationField,
    beta: float,
    solution=None,
    zeta: np.ndarray | None = None,
) -> OblatenessReport:
    """First-order boundary curve and oblateness slope.

    Xi1(zeta) = xi1 + (xi1^2/mu1) h(xi1, zeta) beta and the oblateness is
    sigma = -(3/2)(xi1/mu1) h2(xi1) beta, positive for the distorted state.
    If a converged solution is supplied, its measured equator-minus-pole
    oblateness is attached for comparison.
    """
    if beta < 0:
        raise DomainError("beta must be nonnegative")
    if beta > 0.05:
        import warnings

        warnings.warn("first-order boundary expansion used at beta > 0.05")
    xi1, mu1 = profile.xi1, profile.mu1
    if zeta is None:
        zeta = np.linspace(-1.0, 1.0, 41)
    zeta = np.asarray(zeta, dtype=float)
    hb = h_field.at(xi1, zeta)
    Xi1 = xi1 + xi1 ** 2 / mu1 * hb * beta
    slope = -1.5 * (xi1 / mu1) * h_field.h2_at_xi1
    measured = None
    if solution is not None:
        R = solution.boundary_at(np.array([0.0, 1.0]))
        measured = float((R[0] - R[1]) / xi1)
    return OblatenessReport(
        beta=beta,
        h0_at_xi1=h_field.h0_at_xi1,
        h2_at_xi1=h_field.h2_at_xi1,
        zeta=zeta,
        Xi1_of_zeta=Xi1,
        sigma_linear=float(slope),
        sigma=float(slope * beta),
        sigma_measured=measured,
    )
