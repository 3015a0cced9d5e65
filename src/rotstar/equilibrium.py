"""Solver for the scaled equilibrium equation u = g + G(u).

G(u) = 1 + potential(density(u)) - potential(density(u))(center) is the
self-gravity update of the enthalpy field, normalized to 1 at the center.
The solver runs Newton-Kantorovich on even-Legendre mode coefficients with
a dense LU of the linearization, refactored only when the contraction
degrades, falling back to damped Picard iteration.  A warm-started family
(``ConstantRotationFamily``, ``continuation_in_beta``) carries that LU from
one solve to the next.  Invertibility of the linearization is certified by
its smallest singular value: per Legendre degree at a spherical state, and
otherwise by block inverse iteration on one LU of the full matrix.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve, svdvals

from .eos import EquationOfState, ScaleSet, scaled_density, scaled_density_deriv
from .errors import (
    ContinuationFailure,
    DomainError,
    NoConvergence,
    NoSignChange,
    SingularLinearization,
)
from .grids import AxiField, AxiGrid, cubic_spline, legendre_table
from .radial import RadialProfile, solve_lane_emden
from .rotation import (
    AngularMomentumLaw,
    CentrifugalField,
    CylinderMass,
    LinearizedCentrifugal,
    centrifugal_from_momentum,
    mass_within_cylinder,
    rigid_rotation,
)

_log = logging.getLogger(__name__)


@dataclass
class SolverOptions:
    tol: float = 1e-10
    max_iter: int = 60
    newton: bool = True
    picard_damping: float = 0.5
    hl_threshold: float = 1e-3
    certify: bool = True
    rebuild_ratio: float = 0.25   # rebuild the Jacobian when contraction is worse


@dataclass
class AdmissibilityReport:
    a1: bool
    a2: bool
    monotone: bool
    one_over_C: float
    r0: float
    # the free boundary beyond r0, or None where a ray has no single crossing
    boundary: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass
class EquilibriumSolution:
    u: AxiField
    R_of_zeta: np.ndarray | None
    residual_history: list
    admissibility: AdmissibilityReport | None
    hl_sigma_min: float | None
    beta: float | None = None
    iterations: int = 0
    meta: dict = field(default_factory=dict)

    def boundary_at(self, zeta) -> np.ndarray:
        """Evaluate the boundary curve at arbitrary zeta via its even-mode fit."""
        grid = self.u.grid
        coeffs = grid.proj @ self.R_of_zeta
        zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
        return coeffs @ legendre_table(grid.lvals, zeta)

    def require_boundary(self) -> EquilibriumSolution:
        """This solution, or NoSignChange if its field has no admissible free boundary."""
        if self.R_of_zeta is None:
            rep = self.admissibility
            raise NoSignChange(
                None,
                "converged field has no admissible free boundary "
                f"(a1={rep.a1}, a2={rep.a2})",
            )
        return self

    def to_dict(self) -> dict:
        rep = self.admissibility
        return {
            "beta": self.beta,
            "iterations": self.iterations,
            "residual_history": [float(x) for x in self.residual_history],
            "hl_sigma_min": self.hl_sigma_min,
            "flags": None
            if rep is None
            else {
                "a1": bool(rep.a1),
                "a2": bool(rep.a2),
                "monotone": bool(rep.monotone),
                "one_over_C": float(rep.one_over_C),
                "r0": float(rep.r0),
            },
            "zeta": [float(z) for z in self.u.grid.zeta],
            "boundary": None
            if self.R_of_zeta is None
            else [float(x) for x in self.R_of_zeta],
            "meta": self.meta,
        }


# ---------------------------------------------------------------------------
# mode-space plumbing


def pack_modes(grid: AxiGrid, modes: np.ndarray) -> np.ndarray:
    """Flatten mode coefficients, dropping the structurally-zero center values
    of the l >= 2 modes.  Trailing axes of ``modes`` (n_l, n_r, ...) are kept."""
    return np.concatenate([modes[0], modes[1:, 1:].reshape((-1,) + modes.shape[2:])])


def unpack_modes(grid: AxiGrid, x: np.ndarray) -> np.ndarray:
    modes = np.zeros((grid.n_l, grid.n_r))
    modes[0] = x[: grid.n_r]
    modes[1:, 1:] = x[grid.n_r :].reshape(grid.n_l - 1, grid.n_r - 1)
    return modes


def packed_size(grid: AxiGrid) -> int:
    return grid.n_r + (grid.n_l - 1) * (grid.n_r - 1)


def gravity_modes(
    grid: AxiGrid, eos: EquationOfState, u_center: float, modes: np.ndarray
) -> np.ndarray:
    """Mode coefficients of G(u) for u given by mode coefficients."""
    fine = grid.fine_field_at_gauss(modes)
    dens_modes = grid.project_fine(scaled_density(fine, eos, u_center))
    out = grid.potential_modes_from_gauss(dens_modes)
    out[0] -= out[0, 0]
    out[0] += 1.0
    out[1:, 0] = 0.0
    return out


def gravity_map(u: AxiField, eos: EquationOfState, u_center: float) -> AxiField:
    """G(u) = 1 + potential(density) - its center value; center is exactly 1."""
    return AxiField.from_modes(u.grid, gravity_modes(u.grid, eos, u_center, u.modes()))


def gravity_map_deriv(
    u: AxiField, h: AxiField, eos: EquationOfState, u_center: float
) -> AxiField:
    """Directional derivative of the self-gravity map at u along h."""
    grid = u.grid
    fine_u = grid.fine_field_at_gauss(u.modes())
    fine_h = grid.fine_field_at_gauss(h.modes())
    w = scaled_density_deriv(fine_u, eos, u_center) * fine_h
    out = grid.potential_modes_from_gauss(grid.project_fine(w))
    out[0] -= out[0, 0]
    out[1:, 0] = 0.0
    return AxiField.from_modes(grid, out)


# Interpolation to the Gauss points reads the 4 stencil nodes of a point's
# panel, and the stencils shift inward at both ends, so node c is read only by
# the Gauss points of panels c-3 .. c+2: a window of 24 points starting at
# Gauss point 4c - 12.
_PER_PANEL = 4
_LEAD = 12
_WINDOW = 24


def _window_weights(grid: AxiGrid) -> np.ndarray:
    """wn[c, t]: interpolation weight of node c at Gauss point 4c - 12 + t."""
    cols = grid.interp_cols
    t = np.arange(grid.n_gauss)[:, None] + _LEAD - _PER_PANEL * cols
    wn = np.zeros((grid.n_r, _WINDOW))
    wn[cols, t] = grid.interp_weights
    return wn


def _kernel_interp(grid: AxiGrid, k: int, coef: np.ndarray) -> np.ndarray:
    """kernels[k] @ diag(coef[:, j]) @ interp for each column j of ``coef``.

    Returned transposed as out[c, j, i] (node column c, coefficient set j,
    node row i).  Each column c is one (n_j x 24) @ (24 x n_r) product over
    the Gauss points that read node c, instead of a sum over all of them.
    """
    windows = np.lib.stride_tricks.sliding_window_view
    ker = np.zeros((grid.n_r, grid.n_gauss + 2 * _LEAD))
    ker[:, _LEAD:-_LEAD] = grid.kernels[k]
    ker = windows(ker, _WINDOW, axis=1)[:, ::_PER_PANEL]  # (i, c, t)
    cw = np.zeros((grid.n_gauss + 2 * _LEAD, coef.shape[1]))
    cw[_LEAD:-_LEAD] = coef
    wn = _window_weights(grid)
    cw = windows(cw, _WINDOW, axis=0)[::_PER_PANEL] * wn[:, None, :]  # (c, j, t)
    return np.matmul(cw, ker.transpose(1, 2, 0))


def _packed_block(grid: AxiGrid, k: int) -> tuple[slice, int]:
    """Rows of mode k in the packed vector and the first radial index kept."""
    nr = grid.n_r
    if k == 0:
        return slice(0, nr), 0
    return slice(nr + (k - 1) * (nr - 1), nr + k * (nr - 1)), 1


def gravity_jacobian_packed(
    grid: AxiGrid, eos: EquationOfState, u_center: float, modes: np.ndarray
) -> np.ndarray:
    """Packed matrix of the linearized self-gravity map at u, Fortran-ordered.

    Block (li, lj) is kernels[li] @ diag(coupling of mode lj into mode li at
    the Gauss radii) @ interp, assembled from the interpolation stencil.
    """
    fine = grid.fine_field_at_gauss(modes)
    fp = scaled_density_deriv(fine, eos, u_center)
    # coupling of incoming mode lj to outgoing mode li at each gauss radius
    coup = np.einsum("la,ap,ma->plm", grid.proj_f, fp, grid.leg_f)
    n = packed_size(grid)
    jac = np.empty((n, n), order="F")
    for li in range(grid.n_l):
        rows, r0 = _packed_block(grid, li)
        blk = _kernel_interp(grid, li, coup[:, li, :])
        if li == 0:
            blk -= blk[:, :, :1]
        for lj in range(grid.n_l):
            cols, c0 = _packed_block(grid, lj)
            jac.T[cols, rows] = blk[c0:, lj, r0:]
    return jac


def newton_matrix(jac: np.ndarray, b_matrix: np.ndarray | None = None) -> np.ndarray:
    """Overwrite ``jac`` with I - jac - b_matrix and return it.

    Applied to ``gravity_jacobian_packed`` (and the centrifugal linearization
    of an angular-momentum law) this gives the Newton matrix in one
    Fortran-ordered buffer, ready to be factored in place.
    """
    if b_matrix is not None:
        jac += b_matrix
    np.negative(jac, out=jac)
    diag = np.arange(jac.shape[0])
    jac[diag, diag] += 1.0
    return jac


def _factor_in_place(mat: np.ndarray):
    """LU of ``mat`` in its own buffer, or None if ``mat`` is not finite or
    has an exact zero pivot."""
    if not np.isfinite(mat).all():
        return None
    with warnings.catch_warnings():
        # a zero pivot is reported by the None below, not as a warning
        warnings.simplefilter("ignore", LinAlgWarning)
        lu = lu_factor(mat, overwrite_a=True, check_finite=False)
    return lu if np.all(np.diagonal(lu[0])) else None


def _sup_norm_modes(grid: AxiGrid, modes: np.ndarray) -> float:
    return float(np.max(np.abs(grid.synthesize(modes))))


def initial_field_from_profile(grid: AxiGrid, profile: RadialProfile) -> AxiField:
    modes = np.zeros((grid.n_l, grid.n_r))
    modes[0] = profile.theta_at(grid.r)
    return AxiField.from_modes(grid, modes)


# ---------------------------------------------------------------------------
# boundary and admissibility


def free_boundary(u: AxiField, r0: float = 0.0) -> np.ndarray:
    """Per-zeta root of the radial enthalpy profile.

    Requires a single + to - sign change beyond r0 along each ray; raises
    NoSignChange otherwise.  Each root is refined on the cubic of its panel
    in one spline through all rays.
    """
    grid = u.grid
    vals = u.values
    cross = (vals[:-1] > 0) & (vals[1:] <= 0) & (grid.r[1:, None] > r0)
    k = np.argmax(cross, axis=0)
    single = (cross.sum(axis=0) == 1) & ~np.any(vals[grid.r <= r0] <= 0, axis=0)
    # reject profiles that come back up after the crossing
    back = np.any((vals > 0) & (np.arange(grid.n_r)[:, None] > k), axis=0)
    for j in range(grid.n_zeta):
        if not single[j]:
            raise NoSignChange(float(grid.zeta[j]))
        if back[j]:
            raise NoSignChange(float(grid.zeta[j]), "multiple sign changes")
    # coefficients of powers of r - r_k on each ray's crossing panel
    c = cubic_spline(grid.r, vals).c[:, k, np.arange(grid.n_zeta)]
    lo = np.zeros(grid.n_zeta)
    hi = grid.r[k + 1] - grid.r[k]
    # bisection: the cubic is positive at lo and not positive at hi
    while np.any(hi - lo > 1e-14 * grid.r_inf):
        mid = 0.5 * (lo + hi)
        pos = ((c[0] * mid + c[1]) * mid + c[2]) * mid + c[3] > 0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return grid.r[k] + 0.5 * (lo + hi)


def check_admissibility(u: AxiField, r0: float | None = None) -> AdmissibilityReport:
    """Radial-decrease, single-boundary, and monotonicity flags for a field."""
    grid = u.grid
    du = grid.deriv @ u.values
    if r0 is None:
        try:
            R_probe = free_boundary(u, 0.0)
            r0 = 0.05 * float(np.min(R_probe))
        except NoSignChange:
            r0 = 0.05 * grid.r_inf
    a1 = bool(np.all(du[grid.r >= r0, :] < 0.0))
    R = None
    try:
        R = free_boundary(u, r0)
        a2 = bool(np.all((R > r0) & (R < grid.r_inf)))
    except NoSignChange:
        a2 = False
    with np.errstate(divide="ignore"):
        ratios = -du[1:, :] / grid.r[1:, None]
    one_over_c = float(np.min(ratios))
    return AdmissibilityReport(a1, a2, a1 and one_over_c > 0.0, one_over_c, r0, R)


# ---------------------------------------------------------------------------
# invertibility certificate


def _is_spherical(modes: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(modes[0]))))
    return float(np.max(np.abs(modes[1:]))) < 1e-10 * scale


def hl_certificate_blocks(
    u: AxiField, eos: EquationOfState, u_center: float
) -> dict[int, float]:
    """Per-mode smallest singular values of (I - linearized gravity map).

    Valid when the state is spherically symmetric, where the linearization
    block-diagonalizes over Legendre degrees.
    """
    grid = u.grid
    modes = u.modes()
    if not _is_spherical(modes):
        raise DomainError("per-block certificate requires a spherical state")
    q = scaled_density_deriv(grid.interp @ modes[0], eos, u_center)
    out = {}
    for k, l in enumerate(grid.lvals):
        blk = _kernel_interp(grid, k, q[:, None])[:, 0, :].T
        if l == 0:
            blk -= blk[0:1, :]
        else:
            blk = blk[1:, 1:]
        out[int(l)] = float(svdvals(newton_matrix(blk), overwrite_a=True)[-1])
    return out


# block inverse iteration: block size, relative stopping change, step cap
_CERT_BLOCK = 6
_CERT_RTOL = 1e-14
_CERT_MAX_ITER = 100


def _sigma_min_from_lu(lu) -> tuple[float, int, float | None]:
    """Smallest singular value of M from its LU: (sigma, steps, residual bound).

    Block inverse iteration on (M^T M)^-1 from a seeded start.  Each step
    solves Y = M^-T X and Z = M^-1 Y and orthonormalizes Z into the next X;
    sigma is 1/sqrt of the largest eigenvalue of Y^T Y, a Ritz value of
    (M^T M)^-1, so sigma >= sigma_min at every step.  For the Ritz vector x,
    with y = M^-T x, z = M^-1 y, u = sigma y and v = z/|z|, both residuals
    M v - sigma u and M^T u - sigma v are known without M, and some singular
    value of M lies within sqrt((|Mv - sigma u|^2 + |M^T u - sigma v|^2)/2)
    of sigma.  Solves that overflow give sigma = 0.0 and no bound.
    """
    n = lu[0].shape[0]
    z = np.random.default_rng(0).standard_normal((n, min(_CERT_BLOCK, n)))
    sigma = np.inf
    for step in range(1, _CERT_MAX_ITER + 1):
        x = np.linalg.qr(z)[0]
        y = lu_solve(lu, x, trans=1, check_finite=False)
        z = lu_solve(lu, y, check_finite=False)
        if not (np.isfinite(y).all() and np.isfinite(z).all()):
            return 0.0, step, None
        lam, w = np.linalg.eigh(y.T @ y)
        last, sigma = sigma, 1.0 / np.sqrt(lam[-1])
        if abs(sigma - last) <= _CERT_RTOL * sigma:
            break
    w = w[:, -1]
    xv, zv = x @ w, z @ w
    znorm = np.linalg.norm(zv)
    r_left = abs(1.0 / (sigma * znorm) - sigma)            # |M v - sigma u|
    r_right = sigma * np.linalg.norm(xv - zv / znorm)     # |M^T u - sigma v|
    return float(sigma), step, float(np.sqrt(0.5 * (r_left ** 2 + r_right ** 2)))


def hl_certificate(
    u: AxiField,
    eos: EquationOfState,
    u_center: float,
    law: AngularMomentumLaw | None = None,
    scale: ScaleSet | None = None,
    *,
    full_output: bool = False,
):
    """Smallest singular value of the discretized (I - D[gravity map]),
    including the centrifugal linearization for angular-momentum laws.

    Uses the per-block decomposition when the state is spherical and no
    momentum law couples the modes.  Otherwise the full Newton matrix is
    factored in place and sigma_min found by block inverse iteration on the
    LU (``_sigma_min_from_lu``); a matrix that is not finite or exactly
    singular gives 0.0 with no bound.  With ``full_output`` the result is
    (sigma, info), info = {"iterations", "residual_bound"}: the
    inverse-iteration steps and the distance from sigma within which some
    singular value lies (both None on the per-block path, which takes a
    dense SVD of each block).
    """
    modes = u.modes()
    if law is None and _is_spherical(modes):
        sigma = min(hl_certificate_blocks(u, eos, u_center).values())
        info = {"iterations": None, "residual_bound": None}
        _log.debug("certificate: sigma_min %.6e from the per-degree blocks", sigma)
    else:
        b_matrix = None
        if law is not None:
            if scale is None:
                raise DomainError("angular-momentum certificate needs a ScaleSet")
            b_matrix = centrifugal_deriv_matrix(law, u, eos, scale)
        lu = _factor_in_place(
            newton_matrix(gravity_jacobian_packed(u.grid, eos, u_center, modes), b_matrix)
        )
        sigma, steps, bound = (0.0, 0, None) if lu is None else _sigma_min_from_lu(lu)
        info = {"iterations": steps, "residual_bound": bound}
        _log.debug(
            "certificate: sigma_min %.6e (%d inverse-iteration steps, residual bound %s)",
            sigma, steps, bound,
        )
    return (sigma, info) if full_output else sigma


def centrifugal_deriv_matrix(
    law: AngularMomentumLaw,
    u: AxiField,
    eos: EquationOfState,
    scale: ScaleSet,
    cyl: CylinderMass | None = None,
) -> np.ndarray:
    """Packed dense matrix of the centrifugal linearization.

    It is the product of the factors of ``LinearizedCentrifugal``: packed
    h modes -> cylinder-mass response dm -> packed g modes, of rank <= n_r.
    ``cyl`` is the cylinder mass of u, when the caller already has it.
    """
    grid = u.grid
    lin = LinearizedCentrifugal(law, u, eos, scale, cyl)
    modes_of_dm = pack_modes(grid, lin.b_to_modes @ lin.cum)  # (n, n_q)
    dm_of_modes = pack_modes(grid, lin.dm_response().transpose(0, 2, 1))  # (n, n_q)
    return modes_of_dm @ dm_of_modes.T


# ---------------------------------------------------------------------------
# the solver


def _solve_modes(
    grid: AxiGrid,
    eos: EquationOfState,
    u_center: float,
    U: np.ndarray,
    g_modes: np.ndarray | None,
    opts: SolverOptions,
    law: AngularMomentumLaw | None = None,
    scale: ScaleSet | None = None,
    lu=None,
):
    """Newton iteration in mode space; returns (U, history, g_modes, lu).

    ``lu`` is a factorization carried in from a nearby state.  It serves
    until the contraction rule asks for a rebuild; with rebuild_ratio 0 it is
    stale from the start.  The LU in use at the end is returned.
    """
    history = []
    if not (opts.newton and opts.rebuild_ratio > 0):
        lu = None
    lu_from = "carried from the family"
    b_matrix = None
    last_res = None

    for it in range(opts.max_iter + 1):
        if law is not None:
            u_field = AxiField.from_modes(grid, U)
            cyl = mass_within_cylinder(u_field, eos, scale)
            g_modes = centrifugal_from_momentum(law, u_field, eos, scale, grid, cyl).g_modes
        rhs = (g_modes if g_modes is not None else 0.0) + gravity_modes(
            grid, eos, u_center, U
        ) - U
        res = _sup_norm_modes(grid, rhs)
        history.append(res)
        if res <= opts.tol:
            _log.debug("iter %2d  residual %.3e  converged", it, res)
            return U, history, g_modes, lu
        if it == opts.max_iter:
            break
        if not np.isfinite(res):
            _log.debug("iter %2d  residual %.3e", it, res)
            raise NoConvergence("residual is not finite", history)
        if opts.newton:
            step = f"Newton step, LU {lu_from}"
            if lu is None or (last_res is not None and res > opts.rebuild_ratio * last_res):
                lu = None  # a rebuild never holds two factorizations
                if law is not None and b_matrix is None:
                    b_matrix = centrifugal_deriv_matrix(law, u_field, eos, scale, cyl)
                # factored in place: the LU takes over the Jacobian's buffer
                lu = _factor_in_place(
                    newton_matrix(gravity_jacobian_packed(grid, eos, u_center, U), b_matrix)
                )
                if lu is None:
                    raise SingularLinearization(0.0, opts.hl_threshold)
                step, lu_from = "Newton step, Jacobian built", f"of iteration {it}"
            _log.debug("iter %2d  residual %.3e  %s", it, res, step)
            delta = lu_solve(lu, pack_modes(grid, rhs))
            U = U + unpack_modes(grid, delta)
        else:
            _log.debug("iter %2d  residual %.3e  Picard step", it, res)
            U = U + opts.picard_damping * rhs
        last_res = res
    raise NoConvergence(
        f"no convergence after {opts.max_iter} iterations (residual {history[-1]:.3e})",
        history,
    )


class _CarriedLU:
    """The Newton LU a warm-started family carries from one solve to the next.

    A solve takes it out (so a rebuild never holds two factorizations) and
    puts its own last LU back only when it succeeds with a free boundary.
    """

    def __init__(self):
        self.lu = None

    def take(self):
        lu, self.lu = self.lu, None
        return lu

    def solve(self, g, eos, u_center, init, opts) -> EquilibriumSolution:
        """``solve_equilibrium`` from the carried LU; a converged field without
        a free boundary raises NoSignChange."""
        sol = solve_equilibrium(g, eos, u_center, init, opts, carried=self)
        if sol.R_of_zeta is None:
            self.lu = None
        return sol.require_boundary()


def solve_equilibrium(
    g: CentrifugalField | None,
    eos: EquationOfState,
    u_center: float,
    init: AxiField,
    opts: SolverOptions | None = None,
    *,
    law: AngularMomentumLaw | None = None,
    scale: ScaleSet | None = None,
    carried: _CarriedLU | None = None,
) -> EquilibriumSolution:
    """Solve u = g + G(u) starting from init.

    For angular-momentum laws pass ``law`` (and ``scale``); the centrifugal
    term is then rebuilt from the current iterate each step and its
    linearization joins the Newton matrix.  The solution lives on
    ``init.grid``, the grid ``g`` was built on.  After convergence the free
    boundary, admissibility flags and (optionally) the invertibility
    certificate are produced; ``meta["certificate"]`` records how the
    certificate was found.  ``carried`` is the Newton LU of a warm-started
    family (``ConstantRotationFamily``, ``continuation_in_beta``): the solve
    starts from it and leaves its own last LU there when it succeeds.
    """
    opts = opts or SolverOptions()
    grid = init.grid
    if law is not None and scale is None:
        raise DomainError("angular-momentum solves need a ScaleSet")
    g_modes = None if g is None else g.g_modes
    U0 = init.modes().copy()
    U0[1:, 0] = 0.0
    meta = {}
    # a diverging iterate overflows the density; that surfaces as a
    # non-finite residual (NoConvergence), not as floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            U, history, g_modes, lu = _solve_modes(
                grid, eos, u_center, U0.copy(), g_modes, opts, law, scale,
                None if carried is None else carried.take(),
            )
        except NoConvergence as exc:
            if not opts.newton:
                raise
            _log.debug("Newton failed (%s); damped Picard from the start", exc)
            fallback = SolverOptions(**{**opts.__dict__, "newton": False})
            fallback.max_iter = max(opts.max_iter * 4, 200)
            try:
                U, history, g_modes, lu = _solve_modes(
                    grid, eos, u_center, U0.copy(), g_modes, fallback, law, scale
                )
            except NoConvergence as picard:
                raise NoConvergence(
                    f"Newton failed ({exc}); Picard fallback failed ({picard})",
                    exc.residual_history + picard.residual_history,
                ) from picard
            # the Newton attempt's residuals come first, so the history and the
            # iteration count cover both runs
            history = exc.residual_history + history
            meta["fallback"] = f"Newton failed: {exc}"
    if carried is None:
        lu = None  # the certificate factors its own matrix

    u_field = AxiField.from_modes(grid, U)
    report = check_admissibility(u_field, None)
    R = report.boundary if report.a2 else None
    sigma = None
    if opts.certify:
        sigma, meta["certificate"] = hl_certificate(
            u_field, eos, u_center, law=law, scale=scale, full_output=True
        )
        if sigma < opts.hl_threshold:
            raise SingularLinearization(sigma, opts.hl_threshold)
    if carried is not None:
        carried.lu = lu
    beta = g.beta if g is not None else (0.0 if law is None else None)
    return EquilibriumSolution(
        u=u_field,
        R_of_zeta=R,
        residual_history=history,
        admissibility=report,
        hl_sigma_min=sigma,
        beta=beta,
        iterations=len(history),
        meta={"g_sup": 0.0 if g_modes is None else _sup_norm_modes(grid, g_modes), **meta},
    )


def continuation_in_beta(
    schedule,
    eos: EquationOfState,
    u_center: float = 1.0,
    grid: AxiGrid | None = None,
    opts: SolverOptions | None = None,
    profile: RadialProfile | None = None,
) -> list[EquilibriumSolution]:
    """Solve the rigid-rotation family along an increasing beta schedule,
    warm-starting each solve from the previous solution and its Newton LU.

    Raises ContinuationFailure with the partial results attached if a solve
    fails, including one whose field has no free boundary (NoSignChange); an
    empty schedule returns an empty list.
    """
    schedule = list(schedule)
    if not schedule:
        return []
    if any(b < 0 for b in schedule) or any(
        b2 <= b1 for b1, b2 in zip(schedule, schedule[1:])
    ):
        raise DomainError("schedule must be nonnegative and strictly increasing")
    opts = opts or SolverOptions()
    if profile is None:
        profile = solve_lane_emden(eos, u_center)
    if grid is None:
        grid = AxiGrid.build(profile.r_inf, focus=profile.xi1)
    init = initial_field_from_profile(grid, profile)
    out: list[EquilibriumSolution] = []
    current = init
    carried = _CarriedLU()
    for beta in schedule:
        try:
            sol = carried.solve(rigid_rotation(grid, beta), eos, u_center, current, opts)
        except Exception as exc:  # noqa: BLE001 - annotate and re-raise
            raise ContinuationFailure(beta, exc, out) from exc
        sol.beta = beta
        out.append(sol)
        current = sol.u
    return out


class ConstantRotationFamily:
    """Random-access rigid-rotation solves with warm starts, keyed by beta.

    Each solve starts from the nearest cached state and from the Newton LU of
    the last solve.  A converged field without a free boundary raises
    NoSignChange and is not cached.  Used wherever many nearby solves are
    needed (mass curves, slope fits).
    """

    def __init__(
        self,
        eos: EquationOfState,
        u_center: float = 1.0,
        grid: AxiGrid | None = None,
        opts: SolverOptions | None = None,
        profile: RadialProfile | None = None,
    ):
        self.eos = eos
        self.u_center = u_center
        self.profile = profile or solve_lane_emden(eos, u_center)
        self.grid = grid or AxiGrid.build(self.profile.r_inf, focus=self.profile.xi1)
        self.opts = opts or SolverOptions(certify=False)
        self._cache: dict[float, EquilibriumSolution] = {}
        self._lu = _CarriedLU()

    def solve_at(self, beta: float) -> EquilibriumSolution:
        if beta in self._cache:
            return self._cache[beta]
        if self._cache:
            nearest = min(self._cache, key=lambda b: abs(b - beta))
            init = self._cache[nearest].u
        else:
            init = initial_field_from_profile(self.grid, self.profile)
        cf = rigid_rotation(self.grid, beta)
        sol = self._lu.solve(cf, self.eos, self.u_center, init, self.opts)
        sol.beta = beta
        self._cache[beta] = sol
        return sol
