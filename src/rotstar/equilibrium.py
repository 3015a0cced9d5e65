"""Solver for the scaled equilibrium equation u = g + G(u).

G(u) = 1 + potential(density(u)) - potential(density(u))(center) is the
self-gravity update of the enthalpy field, normalized to 1 at the center.
The solver runs Newton-Kantorovich on even-Legendre mode coefficients,
falling back to damped Picard iteration.  Each Newton system is solved by
GMRES to a fixed tight tolerance, with products taken matrix-free at the
current iterate and right-preconditioned by the per-degree diagonal blocks
of the linearization (``gravity_jacobian_packed`` with ``diagonal``), each
inverted on the star's support once per warm-started family at its
spherical start, or at a lone solve's first Newton step, and again only
after a GMRES solve stops at its cap.  Invertibility of the linearization is
certified by its smallest singular value: per Legendre degree at a
spherical state, and otherwise by block inverse iteration on one LU of the
full matrix, the only place the full matrix is built and the only use of
``scipy.linalg``.
"""

from __future__ import annotations

import logging
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .eos import EquationOfState, ScaleSet, scaled_density, scaled_density_deriv
from .errors import (
    ContinuationFailure,
    DomainError,
    NoConvergence,
    NoSignChange,
    SingularLinearization,
)
from .grids import (
    AxiField,
    AxiGrid,
    apply_stencil,
    cubic_spline,
    derivative_stencil,
    legendre_table,
)
from .radial import RadialProfile, solve_lane_emden
from .rotation import (
    AngularMomentumLaw,
    CentrifugalField,
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
    damping: float = 0.5
    hl_threshold: float = 1e-3
    certify: bool = True


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


def _density_deriv_fine(
    grid: AxiGrid, eos: EquationOfState, u_center: float, modes: np.ndarray
) -> np.ndarray:
    """rho'(u) on (fine zeta) x (Gauss radius) for u given by mode coefficients."""
    return scaled_density_deriv(grid.fine_field_at_gauss(modes), eos, u_center)


def _gravity_deriv_modes(grid: AxiGrid, fp: np.ndarray, h_modes: np.ndarray) -> np.ndarray:
    """Mode coefficients of D[G] h, with rho'(u) given as ``fp`` by
    ``_density_deriv_fine``."""
    w = fp * grid.fine_field_at_gauss(h_modes)
    out = grid.potential_modes_from_gauss(grid.project_fine(w))
    out[0] -= out[0, 0]
    out[1:, 0] = 0.0
    return out


def gravity_map_deriv(
    u: AxiField, h: AxiField, eos: EquationOfState, u_center: float
) -> AxiField:
    """Directional derivative of the self-gravity map at u along h."""
    grid = u.grid
    fp = _density_deriv_fine(grid, eos, u_center, u.modes())
    return AxiField.from_modes(grid, _gravity_deriv_modes(grid, fp, h.modes()))


def _packed_block(grid: AxiGrid, k: int) -> tuple[slice, int]:
    """Rows of mode k in the packed vector and the first radial index kept."""
    nr = grid.n_r
    if k == 0:
        return slice(0, nr), 0
    return slice(nr + (k - 1) * (nr - 1), nr + k * (nr - 1)), 1


def gravity_jacobian_packed(
    grid: AxiGrid,
    eos: EquationOfState,
    u_center: float,
    modes: np.ndarray,
    *,
    diagonal: bool = False,
    out: np.ndarray | None = None,
):
    """Packed matrix J of the linearized self-gravity map at u, Fortran-ordered.

    Block (li, lj) is the degree-li radial kernel @ diag(coupling of mode lj
    into mode li at the Gauss radii) @ the interpolation, by
    ``RadialKernel.blocks``.
    With ``out``, a Fortran-ordered n x n matrix, J is added into it in
    place and ``out`` is returned.  With ``diagonal`` only the blocks J_kk
    are built, by the generator ``degree_blocks``, each as the caller asks
    for it, and nothing n x n is allocated: they are the part of J that
    preconditions the Newton systems, and all of J at a spherical state.
    """
    fp = _density_deriv_fine(grid, eos, u_center, modes)
    if diagonal:
        return degree_blocks(grid, np.einsum("la,ap,la->pl", grid.proj_f, fp, grid.leg_f))
    # coupling of incoming mode lj to outgoing mode li at each gauss radius
    coup = np.einsum("la,ap,ma->plm", grid.proj_f, fp, grid.leg_f)
    n = packed_size(grid)
    if out is None:
        jac = np.zeros((n, n), order="F")
    elif out.shape == (n, n) and out.flags.f_contiguous:
        jac = out
    else:
        raise ValueError(f"out must be a Fortran-ordered {n} x {n} matrix")
    for li in range(grid.n_l):
        rows, r0 = _packed_block(grid, li)
        blk = grid.kernel.blocks(li, coup[:, li, :])
        if li == 0:
            blk -= blk[:, :, :1]
        for lj in range(grid.n_l):
            cols, c0 = _packed_block(grid, lj)
            jac.T[cols, rows] += blk[lj, c0:, r0:]
    return jac


def newton_matrix(jac: np.ndarray) -> np.ndarray:
    """Overwrite ``jac`` with I - jac and return it.

    Applied to ``gravity_jacobian_packed`` (with the centrifugal linearization
    of an angular-momentum law added in) this gives the Newton matrix in one
    Fortran-ordered buffer, ready to be factored in place.
    """
    np.negative(jac, out=jac)
    diag = np.arange(jac.shape[0])
    jac[diag, diag] += 1.0
    return jac


def degree_blocks(grid: AxiGrid, coef: np.ndarray) -> Iterator[np.ndarray]:
    """Diagonal blocks J_kk of the linearized self-gravity map, one per
    degree k, each built when the caller asks for it (``newton_matrix``
    turns each into I - J_kk).

    ``coef[:, k]`` is the coupling of mode k into itself at the Gauss radii
    (rho'(u) itself at a spherical state, where these blocks are the whole
    linearization); blocks are built for the first ``coef.shape[1]``
    degrees.  Each is Fortran-ordered, n_r x n_r for degree 0 and
    (n_r - 1) x (n_r - 1) without the center for the others, as in the
    packed vector.
    """
    for k in range(coef.shape[1]):
        blk = grid.kernel.blocks(k, coef[:, k : k + 1])[0].T
        if k == 0:
            blk -= blk[0:1, :]
        else:
            blk = np.asfortranarray(blk[1:, 1:])
        yield blk


def lu_factor(a: np.ndarray, **kwargs):
    """``scipy.linalg.lu_factor`` for the certificate, imported on its first
    factorization so that no other path loads ``scipy.linalg``."""
    from scipy.linalg import lu_factor as factor

    return factor(a, **kwargs)


def _factor_in_place(mat: np.ndarray):
    """LU of ``mat`` in its own buffer, or None if ``mat`` is not finite or
    has an exact zero pivot."""
    if not np.isfinite(mat).all():
        return None
    from scipy.linalg import LinAlgWarning

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
    du = apply_stencil(*derivative_stencil(grid.r), u.values, axis=0)
    # with r0 None the boundary is found from the center, and r0 is then
    # 0.05 min R: a search beyond that r0 would find the same boundary, and
    # would fail too where the search from the center fails
    try:
        R = free_boundary(u, 0.0 if r0 is None else r0)
    except NoSignChange:
        R = None
    if r0 is None:
        r0 = 0.05 * (grid.r_inf if R is None else float(np.min(R)))
    a1 = bool(np.all(du[grid.r >= r0, :] < 0.0))
    a2 = R is not None and bool(np.all((R > r0) & (R < grid.r_inf)))
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
    block-diagonalizes over Legendre degrees; one SVD per block as it is built.
    """
    grid = u.grid
    modes = u.modes()
    if not _is_spherical(modes):
        raise DomainError("per-block certificate requires a spherical state")
    blocks = gravity_jacobian_packed(grid, eos, u_center, modes, diagonal=True)
    return {
        int(l): float(np.linalg.svd(newton_matrix(blk), compute_uv=False)[-1])
        for l, blk in zip(grid.lvals, blocks)
    }


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
    from scipy.linalg import lu_solve

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
        if law is None:
            mat = gravity_jacobian_packed(u.grid, eos, u_center, modes)
        elif scale is None:
            raise DomainError("angular-momentum certificate needs a ScaleSet")
        else:
            # B first, so that its factors are freed before J is added into
            # its buffer: one n x n buffer in all
            b_matrix = centrifugal_deriv_matrix(law, u, eos, scale)
            mat = gravity_jacobian_packed(u.grid, eos, u_center, modes, out=b_matrix)
        lu = _factor_in_place(newton_matrix(mat))
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
) -> np.ndarray:
    """Packed dense matrix of the centrifugal linearization, for the
    certificate, Fortran-ordered.

    It is the product of the factors of ``LinearizedCentrifugal``: packed
    h modes -> cylinder-mass response dm -> packed g modes, of rank <= n_r.
    """
    grid = u.grid
    lin = LinearizedCentrifugal(law, u, eos, scale)
    modes_of_dm = pack_modes(grid, lin.b_to_modes @ lin.cum)  # (n, n_q)
    dm_of_modes = pack_modes(grid, lin.dm_response().transpose(0, 2, 1))  # (n, n_q)
    del lin
    return (dm_of_modes @ modes_of_dm.T).T


# ---------------------------------------------------------------------------
# the solver


# GMRES for each Newton system: relative residual reached, iteration cap
_GMRES_RTOL = 1e-12
_GMRES_MAX_ITER = 50


def _gmres(apply, precondition, b: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Solve A x = b by right-preconditioned GMRES from x = 0 (Saad & Schultz
    1986, SIAM J. Sci. Stat. Comput. 7, 856); returns (x, iterations,
    relative residual |b - A x| / |b|).

    ``apply`` is x -> A x and ``precondition`` is x -> M^-1 x.  The Arnoldi
    basis of A M^-1 is orthogonalized by classical Gram-Schmidt done twice,
    and Givens rotations track the residual.  At the iteration cap the
    minimal-residual iterate of the basis built so far is returned.  The
    iteration runs on b / max|b|, so that the norms of a diverging Newton
    iterate's residual do not overflow.
    """
    size = float(np.max(np.abs(b)))
    if size == 0.0:
        return np.zeros_like(b), 0, 0.0
    b = b / size
    beta = float(np.linalg.norm(b))
    m = _GMRES_MAX_ITER
    basis = np.empty((m + 1, b.size))
    hess = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    basis[0] = b / beta
    k = 0
    while k < m:
        w = apply(precondition(basis[k]))
        h = basis[: k + 1] @ w
        w -= h @ basis[: k + 1]
        h2 = basis[: k + 1] @ w
        w -= h2 @ basis[: k + 1]
        col = hess[:, k]
        col[: k + 1] = h + h2
        col[k + 1] = np.linalg.norm(w)
        for i in range(k):
            a, c = col[i], col[i + 1]
            col[i], col[i + 1] = cs[i] * a + sn[i] * c, cs[i] * c - sn[i] * a
        d = np.hypot(col[k], col[k + 1])
        if not np.isfinite(d):
            # an overflowed product: a non-finite step, so that the next
            # residual reports the divergence
            return np.full_like(b, np.nan), k + 1, np.nan
        if d == 0.0:
            break
        cs[k], sn[k] = col[k] / d, col[k + 1] / d
        w_norm = col[k + 1]
        col[k], col[k + 1] = d, 0.0
        g[k + 1], g[k] = -sn[k] * g[k], cs[k] * g[k]
        k += 1
        if abs(g[k]) <= _GMRES_RTOL * beta or w_norm == 0.0:
            break
        basis[k] = w / w_norm
    y = np.linalg.solve(hess[:k, :k], g[:k])  # upper triangular
    return size * precondition(y @ basis[:k]), k, abs(g[k]) / beta


def _support_size(blk: np.ndarray) -> int:
    """The number of leading columns of ``blk`` through its last nonzero one.

    A column of J_kk is zero where rho'(u) is zero at every Gauss point that
    reads its node, so past the star's support."""
    nonzero = np.flatnonzero(np.any(blk != 0.0, axis=0))
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _invert_on_support(blk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(I - J_kk)^-1 for the block J_kk = ``blk`` (overwritten), as the pair
    (inverse, lower).

    With n_in = ``_support_size(blk)``, I - J_kk = [[I - A, 0], [-B, I]], so
    its inverse is [[(I - A)^-1, 0], [B (I - A)^-1, I]]: ``inverse`` is the
    n_in x n_in (I - A)^-1 and ``lower`` is -B.  An exactly singular I - A
    raises LinAlgError.
    """
    n_in = _support_size(blk)
    mat = newton_matrix(blk)
    return np.linalg.inv(mat[:n_in, :n_in]), mat[n_in:, :n_in].copy()


def _solve_block(block: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """(I - J_kk)^-1 x from the pair of ``_invert_on_support``."""
    inverse, lower = block
    y_in = inverse @ x[: len(inverse)]
    return np.concatenate([y_in, x[len(inverse) :] - lower @ y_in])


def _factor_blocks(
    grid: AxiGrid, eos: EquationOfState, u_center: float, modes: np.ndarray,
    hl_threshold: float,
) -> list:
    """The preconditioner at u given by mode coefficients: each per-degree
    block I - J_kk inverted on the star's support (``_invert_on_support``).

    Each n_r x n_r block is inverted before the next one is built.  A block
    that is not finite or is exactly singular raises SingularLinearization
    with sigma 0.0.
    """
    out = []
    for blk in gravity_jacobian_packed(grid, eos, u_center, modes, diagonal=True):
        if not np.isfinite(blk).all():
            raise SingularLinearization(0.0, hl_threshold)
        try:
            out.append(_invert_on_support(blk))
        except np.linalg.LinAlgError:
            raise SingularLinearization(0.0, hl_threshold) from None
    return out


def _support_note(grid: AxiGrid, blocks: list) -> str:
    """The preconditioner's support for the log, in radial nodes from the
    center (the blocks of degree k > 0 leave out the center node)."""
    nodes = max(len(inverse) + (k > 0) for k, (inverse, _) in enumerate(blocks))
    return f"support {nodes} of {grid.n_r} nodes"


def _newton_step(
    grid: AxiGrid,
    fp: np.ndarray,
    lin: LinearizedCentrifugal | None,
    blocks: list,
    rhs: np.ndarray,
) -> tuple[np.ndarray, int, float]:
    """Packed Newton step (I - J - B)^-1 rhs by GMRES; returns (step,
    iterations, relative residual).

    J is applied matrix-free at the state with rho'(u) = ``fp``, B through
    the centrifugal linearization ``lin`` of a momentum law (None
    otherwise), and the system is right-preconditioned by the block
    inverses ``blocks`` of ``_factor_blocks``.
    """
    def apply(x):
        modes = unpack_modes(grid, x)
        jh = _gravity_deriv_modes(grid, fp, modes)
        if lin is not None:
            jh += lin.apply_values(grid.synthesize(modes))
        return x - pack_modes(grid, jh)

    def precondition(x):
        out = np.empty_like(x)
        for k, block in enumerate(blocks):
            rows, _ = _packed_block(grid, k)
            out[rows] = _solve_block(block, x[rows])
        return out

    return _gmres(apply, precondition, rhs)


def _not_finite(history: list, U: np.ndarray) -> NoConvergence:
    """The error for an iteration whose residual stopped being finite: it
    names that iteration, the cause and the last finite residual."""
    it = len(history) - 1
    cause = "the density overflowed" if np.isfinite(U).all() else "the iterate is not finite"
    where = (
        f"after a last finite residual of {history[-2]:.3e} at iteration {it - 1}"
        if it > 0 else "at the starting iterate"
    )
    return NoConvergence(f"residual is not finite at iteration {it}: {cause} {where}", history)


def _solve_modes(
    grid: AxiGrid,
    eos: EquationOfState,
    u_center: float,
    U: np.ndarray,
    g_modes: np.ndarray | None,
    opts: SolverOptions,
    law: AngularMomentumLaw | None = None,
    scale: ScaleSet | None = None,
    *,
    blocks: list | None = None,
    stats: dict,
):
    """Newton iteration in mode space; returns (U, history, g_modes).

    ``blocks`` are the preconditioner's block inverses (``_factor_blocks``),
    built at the first Newton step if not given, and again at the step after
    one whose GMRES solve stops at its cap.  ``stats`` collects the GMRES
    iterations of each Newton step and the number of preconditioner builds,
    also when the iteration fails.
    """
    history = []
    blocks_from = "carried from the family"
    lin = None

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
            return U, history, g_modes
        if it == opts.max_iter:
            break
        if not np.isfinite(res):
            _log.debug("iter %2d  residual %.3e", it, res)
            raise _not_finite(history, U)
        if opts.newton:
            fp = _density_deriv_fine(grid, eos, u_center, U)
            if law is not None and lin is None:
                lin = LinearizedCentrifugal(law, u_field, eos, scale, cyl)
            built = ""
            if blocks is None:
                blocks = _factor_blocks(grid, eos, u_center, U, opts.hl_threshold)
                stats["preconditioner_builds"] += 1
                built = f"built ({_support_note(grid, blocks)})"
                blocks_from = f"of iteration {it}"
            delta, inner, lin_res = _newton_step(grid, fp, lin, blocks, pack_modes(grid, rhs))
            stats["gmres_iterations"].append(inner)
            capped = inner == _GMRES_MAX_ITER and lin_res > _GMRES_RTOL
            _log.debug(
                "iter %2d  residual %.3e  Newton step, preconditioner %s, "
                "GMRES %d iterations to %.1e%s",
                it, res, built or blocks_from, inner, lin_res, " (iteration cap)" if capped else "",
            )
            if capped:
                blocks = None  # too far from the operator: rebuild at the next iterate
            U = U + unpack_modes(grid, delta)
        else:
            _log.debug("iter %2d  residual %.3e  Picard step", it, res)
            U = U + opts.damping * rhs
    raise NoConvergence(
        f"no convergence after {opts.max_iter} iterations (residual {history[-1]:.3e})",
        history,
    )


def solve_equilibrium(
    g: CentrifugalField | None,
    eos: EquationOfState,
    u_center: float,
    init: AxiField,
    opts: SolverOptions | None = None,
    *,
    law: AngularMomentumLaw | None = None,
    scale: ScaleSet | None = None,
    preconditioner: list | None = None,
) -> EquilibriumSolution:
    """Solve u = g + G(u) starting from init.

    For angular-momentum laws pass ``law`` (and ``scale``); the centrifugal
    term is then rebuilt from the current iterate each step and its
    linearization, taken at the starting iterate, joins the Newton systems.
    The solution lives on ``init.grid``, the grid ``g`` was built on.  After
    convergence the free boundary, admissibility flags and (optionally) the
    invertibility certificate are produced; ``meta["certificate"]`` records
    how the certificate was found, and ``meta["newton"]`` the GMRES
    iterations of each Newton step and the number of preconditioner builds.
    ``preconditioner`` holds the block inverses of a warm-started family
    (``ConstantRotationFamily``); without it the solve builds its own.
    """
    opts = opts or SolverOptions()
    grid = init.grid
    if law is not None and scale is None:
        raise DomainError("angular-momentum solves need a ScaleSet")
    g_modes = None if g is None else g.g_modes
    U0 = init.modes().copy()
    U0[1:, 0] = 0.0
    meta = {}
    newton = {"gmres_iterations": [], "preconditioner_builds": 0}
    # a diverging iterate overflows the density; that surfaces as a
    # non-finite residual (NoConvergence), not as floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            U, history, g_modes = _solve_modes(
                grid, eos, u_center, U0.copy(), g_modes, opts, law, scale,
                blocks=preconditioner, stats=newton,
            )
        except NoConvergence as exc:
            if not opts.newton:
                raise
            _log.debug("Newton failed (%s); damped Picard from the start", exc)
            fallback = replace(opts, newton=False, max_iter=max(opts.max_iter * 4, 200))
            try:
                U, history, g_modes = _solve_modes(
                    grid, eos, u_center, U0.copy(), g_modes, fallback, law, scale, stats=newton
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
    if opts.newton:
        meta["newton"] = newton

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
    warm-starting each solve from the previous solution; the solves are
    those of one ``ConstantRotationFamily``.

    Raises ContinuationFailure with the partial results attached if a solve
    fails, including one whose field has no free boundary (NoSignChange); an
    empty schedule returns an empty list.
    """
    schedule = list(schedule)
    if not schedule:
        return []
    if schedule[0] < 0 or any(b2 <= b1 for b1, b2 in zip(schedule, schedule[1:])):
        raise DomainError("schedule must be nonnegative and strictly increasing")
    family = ConstantRotationFamily(eos, u_center, grid, opts or SolverOptions(), profile)
    out: list[EquilibriumSolution] = []
    for beta in schedule:
        try:
            out.append(family.solve_at(beta))
        except Exception as exc:  # noqa: BLE001 - annotate and re-raise
            raise ContinuationFailure(beta, exc, out) from exc
    return out


class ConstantRotationFamily:
    """Random-access rigid-rotation solves with warm starts, keyed by beta.

    Each solve starts from the nearest cached state, and every Newton solve
    of the family is preconditioned by the block inverses built once at its
    spherical start.  A converged field without a free boundary raises
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
        self._preconditioner = None

    def solve_at(self, beta: float) -> EquilibriumSolution:
        if beta < 0:
            raise DomainError(f"beta must be nonnegative, got {beta!r}")
        if beta in self._cache:
            return self._cache[beta]
        if self._cache:
            nearest = min(self._cache, key=lambda b: abs(b - beta))
            init = self._cache[nearest].u
        else:
            init = initial_field_from_profile(self.grid, self.profile)
        built = self._preconditioner is None and self.opts.newton
        if built:  # only at the first solve, whose start is spherical
            self._preconditioner = _factor_blocks(
                self.grid, self.eos, self.u_center, init.modes(), self.opts.hl_threshold
            )
            _log.debug(
                "preconditioner built at the spherical start (%s)",
                _support_note(self.grid, self._preconditioner),
            )
        cf = rigid_rotation(self.grid, beta)
        sol = solve_equilibrium(
            cf, self.eos, self.u_center, init, self.opts, preconditioner=self._preconditioner
        ).require_boundary()
        if built:
            sol.meta["newton"]["preconditioner_builds"] += 1
        sol.beta = beta
        self._cache[beta] = sol
        return sol
