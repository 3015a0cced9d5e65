"""Solver for the scaled equilibrium equation u = g + G(u).

G(u) = 1 + potential(density(u)) - potential(density(u))(center) is the
self-gravity update of the enthalpy field, normalized to 1 at the center.
The solver runs Newton-Kantorovich on even-Legendre mode coefficients.
Each Newton system is solved by GMRES to a fixed tight tolerance, with
products taken matrix-free at the current iterate and right-preconditioned
by the per-degree diagonal blocks of the linearization
(``gravity_jacobian_packed``), held as the radial kernel's generators and
each factored in chunks coupled by a Woodbury capacitance (``lu_factor``),
once per warm-started family at its spherical start, or at a lone solve's
first Newton step, and again only after a GMRES solve stops at its cap.
Invertibility of the linearization is certified by its smallest singular
value: per Legendre degree at a spherical state, and otherwise by block
LOBPCG on M^T M with M and M^T applied matrix-free and the solve's last
blocks as its preconditioner.  No n x n matrix is built.  The module uses
numpy alone.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .eos import EquationOfState, ScaleSet, scaled_density, scaled_density_deriv
from .errors import (
    DomainError,
    NoConvergence,
    NoSignChange,
    SingularLinearization,
)
from .grids import (
    AxiField,
    AxiGrid,
    RadialKernel,
    apply_stencil,
    cubic_spline,
    derivative_stencil,
    legendre_table,
    running_sums,
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
        """Evaluate the boundary curve at arbitrary zeta via its even-mode fit;
        NoSignChange if the solution has no free boundary."""
        grid = self.u.grid
        coeffs = grid.proj @ grid.half_range(self.require_boundary().R_of_zeta)
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
    # in place: the fine field is the largest array of a product
    w = grid.fine_field_at_gauss(h_modes)
    w *= fp
    out = grid.potential_modes_from_gauss(grid.project_fine(w))
    out[0] -= out[0, 0]
    out[1:, 0] = 0.0
    return out


def _gravity_deriv_transposed(grid: AxiGrid, fp: np.ndarray, y_modes: np.ndarray) -> np.ndarray:
    """The transpose of ``_gravity_deriv_modes`` on mode arrays, factor by
    factor in reverse order: the center subtraction of degree 0 and the
    zeroed center of the others, ``RadialKernel.apply_transpose``, the
    transposed fine-zeta projection, rho'(u) = ``fp``, the transposed
    synthesis and ``AxiGrid.at_gauss_transpose``."""
    w = y_modes.copy()
    w[0, 0] -= w[0].sum()
    w[1:, 0] = 0.0
    t = grid.proj_f.T @ grid.kernel.apply_transpose(w)
    t *= fp
    return grid.at_gauss_transpose(grid.leg_f @ t)


def gravity_map_deriv(
    u: AxiField, h: AxiField, eos: EquationOfState, u_center: float
) -> AxiField:
    """Directional derivative of the self-gravity map at u along h."""
    grid = u.grid
    fp = _density_deriv_fine(grid, eos, u_center, u.modes())
    return AxiField.from_modes(grid, _gravity_deriv_modes(grid, fp, h.modes()))


@dataclass
class DegreeBlock:
    """The diagonal block J_kk of the linearized self-gravity map for degree
    k, held as the generators (beta, delta, band) of
    ``RadialKernel.generators`` over the radial nodes.  Degree k > 0 leaves
    out the center node, as the packed vector does, so its column 0 is zero;
    degree 0 subtracts its center row from every row (``dense``)."""

    kernel: RadialKernel
    k: int
    beta: np.ndarray
    delta: np.ndarray
    band: np.ndarray

    @property
    def support(self) -> int:
        """The number of nodes through the last one whose column is not zero.

        A column of J_kk is zero where rho'(u) is zero at every Gauss point
        that reads its node, so past the star's support."""
        column = (self.beta != 0) | (self.delta != 0) | np.any(self.band != 0, axis=0)
        nonzero = np.flatnonzero(column)
        return int(nonzero[-1]) + 1 if nonzero.size else 0

    def entries(self, rows, cols) -> np.ndarray:
        """Entries of J_kk before degree 0's center subtraction, by node."""
        return self.kernel.entries(self.k, self.beta, self.delta, self.band, rows, cols)

    def dense(self) -> np.ndarray:
        """J_kk as an array in the packed vector's layout: n_r x n_r for
        degree 0 and (n_r - 1) x (n_r - 1) without the center for the others."""
        nodes = np.arange(self.k > 0, len(self.beta))
        blk = self.entries(nodes[:, None], nodes)
        if self.k == 0:
            blk -= blk[0]
        return blk


def gravity_jacobian_packed(
    grid: AxiGrid, eos: EquationOfState, u_center: float, modes: np.ndarray
) -> Iterator[DegreeBlock]:
    """The diagonal blocks J_kk of the packed linearized self-gravity map at
    u, built by the generator ``degree_blocks``, each as the caller asks for
    it: they are the part of J that preconditions the Newton systems and the
    certificate, and all of J at a spherical state.  Nothing n x n is
    allocated; products with the whole J are taken matrix-free
    (``_gravity_deriv_modes`` and ``_gravity_deriv_transposed``).
    """
    fp = _density_deriv_fine(grid, eos, u_center, modes)
    return degree_blocks(grid, np.einsum("la,ap,la->pl", grid.proj_f, fp, grid.leg_f))


def newton_matrix(jac: np.ndarray) -> np.ndarray:
    """Overwrite ``jac`` with I - jac and return it.

    Applied to a dense block J_kk (``DegreeBlock.dense``), this gives that
    diagonal block of the Newton matrix in the block's own buffer.
    """
    np.negative(jac, out=jac)
    diag = np.arange(jac.shape[0])
    jac[diag, diag] += 1.0
    return jac


def degree_blocks(grid: AxiGrid, coef: np.ndarray) -> Iterator[DegreeBlock]:
    """Diagonal blocks J_kk of the linearized self-gravity map, one per
    degree k, each built when the caller asks for it.

    ``coef[:, k]`` is the coupling of mode k into itself at the Gauss radii
    (rho'(u) itself at a spherical state, where these blocks are the whole
    linearization); blocks are built for the first ``coef.shape[1]``
    degrees.
    """
    for k in range(coef.shape[1]):
        beta, delta, band = (a[0] for a in grid.kernel.generators(k, coef[:, k : k + 1]))
        if k:
            beta[0] = delta[0] = 0.0
            band[:, 0] = 0.0
        yield DegreeBlock(grid.kernel, k, beta, delta, band)


def _sup_norm_modes(grid: AxiGrid, modes: np.ndarray) -> float:
    # the sup over the nodes zeta >= 0 is that over their mirror image
    return float(np.max(np.abs(grid.synthesize_half(modes))))


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
    in one spline through all rays.  The rays are those of the nodes
    zeta >= 0, and the roots are mirrored to the whole rule.
    """
    grid = u.grid
    vals = grid.half_range(u.values)
    zeta = grid.zeta_h
    cross = (vals[:-1] > 0) & (vals[1:] <= 0) & (grid.r[1:, None] > r0)
    k = np.argmax(cross, axis=0)
    single = (cross.sum(axis=0) == 1) & ~np.any(vals[grid.r <= r0] <= 0, axis=0)
    # reject profiles that come back up after the crossing
    back = np.any((vals > 0) & (np.arange(grid.n_r)[:, None] > k), axis=0)
    for j in range(len(zeta)):
        if not single[j]:
            raise NoSignChange(float(zeta[j]))
        if back[j]:
            raise NoSignChange(float(zeta[j]), "multiple sign changes")
    # coefficients of powers of r - r_k on each ray's crossing panel
    c = cubic_spline(grid.r, vals).c[:, k, np.arange(len(zeta))]
    lo = np.zeros(len(zeta))
    hi = grid.r[k + 1] - grid.r[k]
    # bisection: the cubic is positive at lo and not positive at hi
    while np.any(hi - lo > 1e-14 * grid.r_inf):
        mid = 0.5 * (lo + hi)
        pos = ((c[0] * mid + c[1]) * mid + c[2]) * mid + c[3] > 0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return grid.full_range(grid.r[k] + 0.5 * (lo + hi))


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
    block-diagonalizes over Legendre degrees; one SVD per block, each made
    dense from its generators as it is built.
    """
    grid = u.grid
    modes = u.modes()
    if not _is_spherical(modes):
        raise DomainError("per-block certificate requires a spherical state")
    blocks = gravity_jacobian_packed(grid, eos, u_center, modes)
    return {
        int(l): float(np.linalg.svd(newton_matrix(blk.dense()), compute_uv=False)[-1])
        for l, blk in zip(grid.lvals, blocks)
    }


# LOBPCG: block size, relative stopping change of sigma, step cap
_CERT_BLOCK = 3
_CERT_RTOL = 1e-14
_CERT_MAX_ITER = 100
# the start block's step, the golden ratio's fractional part (sqrt(5) - 1)/2
_GOLDEN = 0.6180339887498949


def _sigma_min_lobpcg(apply, apply_t, precondition, n: int) -> tuple[float, int, float | None]:
    """Smallest singular value of an n x n matrix M from its products
    ``apply`` (x -> M x) and ``apply_t`` (y -> M^T y): (sigma, steps,
    residual bound).

    Block LOBPCG (Knyazev 2001, SIAM J. Sci. Comput. 23, 517) for the
    _CERT_BLOCK smallest eigenvalues of M^T M, preconditioned by
    ``precondition``, an approximate (M^T M)^-1, and started from it applied
    to a fixed block: a golden-ratio Weyl sequence, centred, which needs no
    random generator.  Each step takes the Rayleigh-Ritz values on
    the span of the iterates X, their preconditioned residuals W and the last
    directions P: the smallest singular values of M Q, with Q R = [X, W, P]
    and M Q = [M X, M W, M P] R^-1, at one product with M for each column
    of W; M X and M P are combinations of the last M Q.  The Ritz vectors
    are the next X, and their parts off the old X the next P.  The block
    keeps the iteration converging where the smallest singular values are
    clustered and the preconditioner is far from (M^T M)^-1.  sigma = |M x|
    for the first Ritz vector x, from one more product with M, so that it is
    a Ritz value of M itself and not of the combined products: sigma >=
    sigma_min at every step.  The iteration stops when
    sigma moves by at most _CERT_RTOL relative, and raises NoConvergence if
    it has not after _CERT_MAX_ITER steps: sigma is then no certificate.
    With u = M x / sigma and v = x, M v - sigma u = 0, so some singular value
    of M lies within |M^T u - sigma v| / sqrt(2) of sigma.  Products that
    are not finite give sigma = 0.0 and no bound.
    """
    k = min(_CERT_BLOCK, n)
    start = ((np.arange(1, k * n + 1) * _GOLDEN) % 1.0 - 0.5).reshape(k, n)
    sigma = np.inf
    # a product that is not finite is reported by the tests below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.linalg.qr(np.column_stack([precondition(s) for s in start]))[0]
        mq = np.column_stack([apply(c) for c in q.T])
        for step in range(1, _CERT_MAX_ITER + 1):
            if not np.isfinite(mq).all():
                return 0.0, step, None
            # the k smallest Ritz pairs, smallest first
            c = np.linalg.svd(mq, full_matrices=False)[2][::-1][:k].T
            x, mx = q @ c, mq @ c
            mx[:, 0] = apply(x[:, 0])
            s = np.linalg.norm(mx, axis=0)
            last, sigma = sigma, float(s[0])
            # M^T u - sigma v for each pair
            residual = np.column_stack(
                [apply_t(mx[:, i]) / s[i] - s[i] * x[:, i] for i in range(k)]
            )
            if not np.isfinite(residual).all():
                return 0.0, step, None
            bound = float(np.linalg.norm(residual[:, 0]) / np.sqrt(2.0))
            if abs(sigma - last) <= _CERT_RTOL * sigma:
                return sigma, step, bound
            w = np.column_stack([precondition(r) for r in residual.T])
            basis, products = [x, w], [mx, np.column_stack([apply(col) for col in w.T])]
            if step > 1:  # no directions P yet after the first step
                basis.append(q[:, k:] @ c[k:])
                products.append(mq[:, k:] @ c[k:])
            q, r = np.linalg.qr(np.column_stack(basis))
            mq = np.column_stack(products) @ np.linalg.inv(r)
    raise NoConvergence(
        f"certificate: LOBPCG did not converge in {_CERT_MAX_ITER} steps (sigma_min <= "
        f"{sigma:.6e}, some singular value within {bound:.1e} of it)"
    )


def _newton_products(grid: AxiGrid, fp: np.ndarray, lin: LinearizedCentrifugal | None):
    """The products x -> M x and y -> M^T y on packed vectors, for the Newton
    matrix M = I - J - B: J at the state with rho'(u) = ``fp``, and B the
    centrifugal linearization ``lin`` of a momentum law (None otherwise)."""
    def apply(x):
        modes = unpack_modes(grid, x)
        jh = _gravity_deriv_modes(grid, fp, modes)
        if lin is not None:
            jh += lin.apply_half(grid.synthesize_half(modes))
        return x - pack_modes(grid, jh)

    def apply_t(y):
        modes = unpack_modes(grid, y)
        jt = _gravity_deriv_transposed(grid, fp, modes)
        if lin is not None:
            jt += lin.apply_transpose(modes)
        return y - pack_modes(grid, jt)

    return apply, apply_t


def hl_certificate(
    u: AxiField,
    eos: EquationOfState,
    u_center: float,
    law: AngularMomentumLaw | None = None,
    scale: ScaleSet | None = None,
    *,
    full_output: bool = False,
    preconditioner: list | None = None,
):
    """Smallest singular value of the discretized (I - D[gravity map]),
    including the centrifugal linearization for angular-momentum laws.

    Uses the per-block decomposition when the state is spherical and no
    momentum law couples the modes.  Otherwise sigma_min of the Newton
    matrix M = I - J - B comes from block LOBPCG on M^T M (``_sigma_min_lobpcg``)
    on the Newton solve's matrix-free products (``_newton_products``), with
    a momentum law's B from ``centrifugal_deriv_matrix`` (on the grid's one
    cylinder rule and spline tables, those of the Newton solve),
    preconditioned by D^-1 D^-T, with D the per-degree blocks I - J_kk
    factored from their generators (``_factor_blocks``): those of
    ``preconditioner`` if given, such as the Newton solve's that converged
    to u, and otherwise built at u.  A block that is not finite or is
    exactly singular, or products that are not finite, give
    0.0 with no bound: 0.0 then means "not certified", which a solve raises
    as SingularLinearization, as the Newton solve does for the same blocks.
    An iteration that reaches its step cap raises NoConvergence: its sigma
    is only an upper bound on sigma_min.  With ``full_output`` the result is
    (sigma, info), info = {"iterations", "residual_bound"}: the LOBPCG steps
    and the distance from sigma within which some singular value lies (both
    None on the per-block path, which takes a dense SVD of each block).
    """
    modes = u.modes()
    if law is None and _is_spherical(modes):
        sigma = min(hl_certificate_blocks(u, eos, u_center).values())
        info = {"iterations": None, "residual_bound": None}
        _log.debug("certificate: sigma_min %.6e from the per-degree blocks", sigma)
        return (sigma, info) if full_output else sigma
    if law is not None and scale is None:
        raise DomainError("angular-momentum certificate needs a ScaleSet")
    grid = u.grid
    # B first, so that blocks built here are not held while it is built
    lin = None if law is None else centrifugal_deriv_matrix(law, u, eos, scale)
    try:
        blocks = preconditioner
        if blocks is None:
            blocks = _factor_blocks(grid, eos, u_center, modes, 0.0)
    except SingularLinearization:
        sigma, steps, bound = 0.0, 0, None
        note = "a preconditioner block is singular or not finite"
    else:
        apply, apply_t = _newton_products(
            grid, _density_deriv_fine(grid, eos, u_center, modes), lin
        )

        def precondition(r):
            return _solve_blocks(grid, blocks, _solve_blocks(grid, blocks, r, transposed=True))

        sigma, steps, bound = _sigma_min_lobpcg(apply, apply_t, precondition, packed_size(grid))
        note = f"preconditioner {_support_note(grid, blocks)}"
    info = {"iterations": steps, "residual_bound": bound}
    _log.debug(
        "certificate: sigma_min %.6e (%d LOBPCG steps, %s, residual bound %s)",
        sigma, steps, note, bound,
    )
    return (sigma, info) if full_output else sigma


def centrifugal_deriv_matrix(
    law: AngularMomentumLaw, u: AxiField, eos: EquationOfState, scale: ScaleSet
) -> LinearizedCentrifugal:
    """The certificate's B: the ``LinearizedCentrifugal`` of a momentum law
    at u, on the grid's memoized cylinder rule and spline tables.  The name
    is the one the benchmark's span on it wraps."""
    return LinearizedCentrifugal(law, u, eos, scale)


# ---------------------------------------------------------------------------
# the solver


# GMRES for each Newton system: relative residual reached, iteration cap
_GMRES_RTOL = 1e-12
_GMRES_MAX_ITER = 50
# Newton stops after this many residuals in a row grown by capped steps
_DIVERGING_GROWTHS = 3


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
    # most solves stop after a few iterations: the basis starts at 8 rows
    # and doubles as needed, up to m + 1
    basis = np.empty((min(8, m + 1), b.size))
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
        if k == len(basis):
            grown = np.empty((min(2 * k, m + 1), b.size))
            grown[:k] = basis
            basis = grown
        basis[k] = w / w_norm
    y = np.linalg.solve(hess[:k, :k], g[:k])  # upper triangular
    return size * precondition(y @ basis[:k]), k, abs(g[k]) / beta


# the per-degree solve splits the radial nodes into chunks of about _CHUNK
_CHUNK = 32


class _Chunks:
    """The nodes [0, n) of the per-degree solves, split into m chunks of s.

    n = m s covers the star's support and the 2 nodes past it that the band
    reaches, or all n_r nodes (nodes past n_r pad the last chunk, with
    I - J_kk = I there), so that a row past n meets the support through its
    inner running sum alone.  I - J_kk couples chunk a to the
    nodes outside it through 7 columns: the inner running sum through the
    node 3 before the chunk, the band's 2 columns just before it, the outer
    running sum from the node 3 after it, the band's 2 columns just after
    it, and for degree 0 the center subtraction.  ``reads`` holds the nodes
    where the first 6 read the solution, and ``live`` marks those a chunk
    has: none below the first chunk or above the last.
    """

    def __init__(self, kernel: RadialKernel, support: int):
        n_r = kernel.n_r
        n = max(min(support + 2, n_r), 1)
        self.m = m = -(-n // _CHUNK)
        self.s = s = -(-n // m)
        self.n = n = m * s
        # the kernel chunk of the generators beta and delta of each node,
        # and the node where each run of one chunk starts
        nodes = np.minimum(np.arange(n), n_r - 1)
        self.q_beta, self.q_delta = kernel.q_beta[nodes], kernel.q_delta[nodes]
        self.beta_starts = np.flatnonzero(np.diff(self.q_beta, prepend=-1))
        self.delta_starts = np.flatnonzero(np.diff(self.q_delta, prepend=-1))
        first = s * np.arange(m)[:, None]
        self.reads = np.clip(first + [-3, -2, -1, s + 2, s, s + 1], 0, n - 1)
        self.live = np.ones((m, 6), dtype=bool)
        self.live[0, :3] = self.live[-1, 3:] = False
        # ``reads`` in the concatenation (inner sums, solution, outer sums)
        self.picks = self.reads + n * np.array([0, 1, 1, 2, 1, 1])


class _Factors(NamedTuple):
    """One degree's factors from ``lu_factor``, or those of several degrees
    stacked along a leading axis."""

    inverse: np.ndarray  # (m, s, s): D^-1, chunk by chunk
    coupled: np.ndarray  # (m, s, 7): D^-1 U
    capacitance: np.ndarray | None  # (7 m, 7 m): C^-1
    beta: np.ndarray  # (n,): the generators over [0, n)
    delta: np.ndarray
    center: np.ndarray  # (n,): row 0 of J_00, 0 for the other degrees
    scale: np.ndarray  # (m, 6): the running sums' scales, 0 where not live
    beta_carry: np.ndarray  # the carries of ``running_sums``
    delta_carry: np.ndarray
    last: np.ndarray  # (n,): beta in the scale of node n - 1
    below: np.ndarray  # (n_r - n,): f_in past n, in the scale of node n - 1


def _couplings(chunks: _Chunks, f: _Factors, z: np.ndarray) -> np.ndarray:
    """V^T z: the 7 coupling columns of each chunk at solutions z (..., n),
    shape (..., m, 7)."""
    n, m, s = chunks.n, chunks.m, chunks.s
    inner = running_sums(f.beta * z, chunks.beta_starts, f.beta_carry)
    outer = running_sums(f.delta * z, chunks.delta_starts, f.delta_carry, reverse=True)
    picked = np.concatenate([inner, z, outer], axis=-1)[..., chunks.picks] * f.scale
    part = (f.center * z).reshape(z.shape[:-1] + (m, s)).sum(axis=-1)
    return np.concatenate([picked, (part.sum(axis=-1, keepdims=True) - part)[..., None]], axis=-1)


def _couplings_transposed(chunks: _Chunks, f: _Factors, b: np.ndarray) -> np.ndarray:
    """V b, the transpose of ``_couplings``: (..., m, 7) -> (..., n).

    The live nodes of ``reads`` differ, and the others take 0."""
    n, s = chunks.n, chunks.s
    picked = np.zeros(b.shape[:-2] + (3 * n,))
    picked[..., chunks.picks] = b[..., :6] * f.scale
    out = picked[..., n : 2 * n]
    out += f.beta * running_sums(picked[..., :n], chunks.beta_starts, f.beta_carry, reverse=True)
    out += f.delta * running_sums(picked[..., 2 * n :], chunks.delta_starts, f.delta_carry)
    part = b[..., 6]
    out += f.center * np.repeat(part.sum(axis=-1, keepdims=True) - part, s, axis=-1)
    return out


def lu_factor(block: DegreeBlock, chunks: _Chunks) -> _Factors | None:
    """One degree's factorization of I - J_kk for the block ``block`` on
    ``chunks``, or None if it is not finite or is exactly singular.

    On the nodes [0, n), I - J_kk = D - U V^T: D holds its diagonal chunks,
    degree 0's center subtraction included, and U V^T the rest, 7 columns a
    chunk (``_Chunks``), each of U nonzero on its chunk alone.  Each
    running-sum column of U is the node factor f_in or f_out over its chunk,
    scaled to a largest entry of 1, and its column of V the generators
    through or from the node it reads; each band column of U is that column
    of J_kk over the chunk, and its V reads one node.  By Woodbury,
    (D - U V^T)^-1 = D^-1 + D^-1 U C^-1 V^T D^-1 with the capacitance
    C = I - V^T D^-1 U of 7 m rows.  The chunks of D are inverted by one
    batched ``np.linalg.inv``.  No array of n x n is formed.  The function
    keeps the name ``lu_factor`` that the benchmark's span on the Newton
    matrix's factorizations wraps.
    """
    kernel, k = block.kernel, block.k
    if not all(np.isfinite(a).all() for a in (block.beta, block.delta, block.band)):
        return None
    n_r, n, m, s = kernel.n_r, chunks.n, chunks.m, chunks.s
    nodes = np.arange(n).reshape(m, s)
    on_grid = nodes < n_r
    center = block.entries(0, np.arange(n)) if k == 0 else np.zeros(n)
    diag = on_grid[:, :, None] * center.reshape(m, 1, s)
    diag -= block.entries(nodes[:, :, None], nodes[:, None, :])
    diag[:, np.arange(s), np.arange(s)] += 1.0
    # the running sums' columns of U, over each chunk's rows
    row = np.minimum(nodes, n_r - 1)
    at = np.minimum(chunks.reads, n_r - 1)
    c_in, c_out = kernel.c_in[k], kernel.c_out[k]
    inner = on_grid * kernel.f_in[k, row] * c_in[kernel.q_beta[at[:, :1]], kernel.q_in[row]]
    outer = on_grid * kernel.f_out[k, row] * c_out[kernel.q_delta[at[:, 3:4]], kernel.q_out[row]]
    big_in, big_out = (np.max(np.abs(a), axis=1, initial=0.0) for a in (inner, outer))
    big_in[big_in == 0.0] = 1.0
    big_out[big_out == 0.0] = 1.0
    band = block.entries(nodes[:, :, None], chunks.reads[:, None, [1, 2, 4, 5]])
    columns = np.concatenate([
        (inner / big_in[:, None])[..., None], band[..., :2],
        (outer / big_out[:, None])[..., None], band[..., 2:],
        -(k == 0) * on_grid[..., None],
    ], axis=-1)
    columns[..., :6] *= chunks.live[:, None, :]
    ones = np.ones(m)
    beta, delta = (np.append(a, np.zeros(max(n - n_r, 0)))[:n] for a in (block.beta, block.delta))
    q, starts = chunks.q_beta, chunks.beta_starts
    qd, starts_d = chunks.q_delta, chunks.delta_starts
    f = _Factors(
        inverse=None, coupled=None, capacitance=None,
        beta=beta, delta=delta, center=center,
        scale=chunks.live * np.stack([big_in, ones, ones, big_out, ones, ones], axis=-1),
        beta_carry=c_in[q[starts[:-1]], q[starts[1:]]],
        delta_carry=c_out[qd[starts_d[1:]], qd[starts_d[:-1]]],
        last=beta * c_in[q, q[-1]],
        below=kernel.f_in[k, n:] * c_in[q[-1], kernel.q_in[n:]],
    )
    try:
        inverse = np.linalg.inv(diag)
        coupled = inverse @ columns
        # C column by column: V^T of each column of D^-1 U over [0, n)
        full = np.zeros((m, 7, m, s))
        full[np.arange(m), :, np.arange(m)] = coupled.transpose(0, 2, 1)
        cap = np.eye(7 * m) - _couplings(chunks, f, full.reshape(7 * m, n)).reshape(7 * m, -1).T
        f = f._replace(inverse=inverse, coupled=coupled, capacitance=np.linalg.inv(cap))
    except np.linalg.LinAlgError:
        return None
    if not all(np.isfinite(a).all() for a in f[:3]):
        return None
    return f


class BlockInverse:
    """D^-1 and D^-T, with D the block diagonal of the per-degree blocks
    I - J_kk of ``blocks`` (the leading degrees of a state, ``DegreeBlock``),
    each factored by ``lu_factor`` on the nodes through the star's support
    and the rows below it; a block that is not finite or is exactly singular
    raises SingularLinearization with sigma 0.0 against ``hl_threshold``.

    ``support`` is the number of nodes through the last one whose column of
    a block is not zero.
    """

    def __init__(self, grid: AxiGrid, blocks: list, hl_threshold: float = 0.0):
        self.n_r = grid.n_r
        self.support = max(b.support for b in blocks)
        self.chunks = _Chunks(grid.kernel, self.support)
        factors = [lu_factor(b, self.chunks) for b in blocks]
        if any(f is None for f in factors):
            raise SingularLinearization(0.0, hl_threshold)
        self.factors = _Factors(*(np.stack(a) for a in zip(*factors)))

    def solve(self, modes: np.ndarray, transposed: bool = False) -> np.ndarray:
        """D^-1 modes, or D^-T modes with ``transposed``, for mode values at
        the nodes, one row per block; degrees k > 0 have no center value,
        and return 0 there.

        On [0, n) the Woodbury form of ``lu_factor``.  Past n, I - J_kk is
        [[I - A, 0], [-B, I]] with B f_in times the inner running sum through
        n (and for degree 0 the center row taken off every row), so
        y = x + B y there, and D^-T takes x + B^T x from the rows past n.
        """
        ch, f = self.chunks, self.factors
        k, n, m, s = len(modes), ch.n, ch.m, ch.s
        x = np.zeros((k, max(n, self.n_r)))
        x[:, : self.n_r] = modes
        past = x[:, n : self.n_r]
        if not transposed:
            z = (f.inverse @ x[:, :n].reshape(k, m, s, 1)).reshape(k, n)
            t = f.capacitance @ _couplings(ch, f, z).reshape(k, 7 * m, 1)
            y = z + (f.coupled @ t.reshape(k, m, 7, 1)).reshape(k, n)
            past += f.below * (f.last * y).sum(axis=1, keepdims=True)
            past -= (f.center * y).sum(axis=1, keepdims=True)
        else:
            y = x[:, :n] + f.last * (f.below * past).sum(axis=1, keepdims=True)
            y -= f.center * past.sum(axis=1, keepdims=True)
            t = (y.reshape(k, m, 1, s) @ f.coupled).reshape(k, 7 * m, 1)
            y += _couplings_transposed(ch, f, (np.swapaxes(f.capacitance, 1, 2) @ t).reshape(k, m, 7))
            y = (np.swapaxes(f.inverse, 2, 3) @ y.reshape(k, m, s, 1)).reshape(k, n)
        x[:, :n] = y
        x[1:, 0] = 0.0
        return x[:, : self.n_r]


def _solve_blocks(grid: AxiGrid, blocks: BlockInverse, x: np.ndarray, transposed: bool = False):
    """D^-1 x, or D^-T x with ``transposed``, on a packed vector: D is the
    block diagonal of the I - J_kk of ``_factor_blocks``."""
    return pack_modes(grid, blocks.solve(unpack_modes(grid, x), transposed))


def _factor_blocks(
    grid: AxiGrid, eos: EquationOfState, u_center: float, modes: np.ndarray,
    hl_threshold: float,
) -> BlockInverse:
    """The preconditioner at u given by mode coefficients: each per-degree
    block I - J_kk factored from its generators (``BlockInverse``).

    A block that is not finite or is exactly singular raises
    SingularLinearization with sigma 0.0.
    """
    blocks = list(gravity_jacobian_packed(grid, eos, u_center, modes))
    return BlockInverse(grid, blocks, hl_threshold)


def _support_note(grid: AxiGrid, blocks: BlockInverse) -> str:
    """The preconditioner's support for the log, in radial nodes from the
    center."""
    return f"support {blocks.support} of {grid.n_r} nodes"


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
    """Newton iteration in mode space; returns (U, history, g_modes, blocks).

    ``blocks`` are the preconditioner's factored blocks (``_factor_blocks``),
    built at the first Newton step if not given, and again at the step after
    one whose GMRES solve stops at its cap (where a singular block is a
    divergence, reported as a non-finite step); those of the last Newton step are
    returned (None if there was none).  A residual that is not finite, one
    made larger by ``_DIVERGING_GROWTHS`` capped steps in a row, or none
    within ``opts.tol`` after ``opts.max_iter`` steps, raises NoConvergence.
    ``stats`` collects the GMRES iterations of each Newton step and the
    number of preconditioner builds, also when the iteration fails.
    """
    history = []
    blocks_from = "carried from the family"
    lin = None
    capped = False
    grown = 0  # consecutive residuals that capped steps made larger

    for it in range(opts.max_iter + 1):
        if not np.isfinite(U).all():
            # a non-finite step: the residual is not finite either, and the
            # momentum law's map is not evaluated on such an iterate
            history.append(np.nan)
            _log.debug("iter %2d  residual nan", it)
            raise _not_finite(history, U)
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
            return U, history, g_modes, blocks
        if it == opts.max_iter:
            break
        if not np.isfinite(res):
            _log.debug("iter %2d  residual %.3e", it, res)
            raise _not_finite(history, U)
        grown = grown + 1 if capped and res > history[-2] else 0
        if grown == _DIVERGING_GROWTHS:
            _log.debug("iter %2d  residual %.3e  diverging: %d capped steps in a row made "
                       "it larger, no step", it, res, grown)
            grew = ", ".join(f"{r:.3e}" for r in history[-grown - 1:])
            raise NoConvergence(
                f"diverging at iteration {it}: {grown} capped Newton steps in a row "
                f"grew the residual ({grew})",
                history,
            )
        if law is not None and lin is None:
            lin = LinearizedCentrifugal(law, u_field, eos, scale, cyl)
        built = ""
        if blocks is None:
            try:
                blocks = _factor_blocks(grid, eos, u_center, U, opts.hl_threshold)
            except SingularLinearization:
                if not capped:
                    raise
                # a singular block at the rebuild after a capped step is a
                # diverging iterate, not a singular linearization: no step,
                # and the next residual ends the solve in NoConvergence, as
                # for an overflowed product
                _log.debug("iter %2d  residual %.3e  Newton step, preconditioner "
                           "singular at this iterate", it, res)
                U = U + np.nan
                continue
            stats["preconditioner_builds"] += 1
            built = f"built ({_support_note(grid, blocks)})"
            blocks_from = f"of iteration {it}"
        apply = _newton_products(grid, _density_deriv_fine(grid, eos, u_center, U), lin)[0]
        delta, inner, lin_res = _gmres(
            apply, lambda x: _solve_blocks(grid, blocks, x), pack_modes(grid, rhs)
        )
        del apply  # and rho'(u) with it, before the next residual
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
    ``preconditioner`` holds the factored blocks of a warm-started family
    (``ConstantRotationFamily``); without it the solve builds its own.  The
    certificate is preconditioned by the blocks of the last Newton step.
    """
    opts = opts or SolverOptions()
    grid = init.grid
    if law is not None and scale is None:
        raise DomainError("angular-momentum solves need a ScaleSet")
    g_modes = None if g is None else g.g_modes
    U0 = init.modes().copy()
    U0[1:, 0] = 0.0
    meta = {"newton": {"gmres_iterations": [], "preconditioner_builds": 0}}
    # a diverging iterate overflows the density; that surfaces as a
    # non-finite residual (NoConvergence), not as floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        U, history, g_modes, blocks = _solve_modes(
            grid, eos, u_center, U0, g_modes, opts, law, scale,
            blocks=preconditioner, stats=meta["newton"],
        )

    u_field = AxiField.from_modes(grid, U)
    report = check_admissibility(u_field, None)
    R = report.boundary if report.a2 else None
    sigma = None
    if opts.certify:
        sigma, meta["certificate"] = hl_certificate(
            u_field, eos, u_center, law=law, scale=scale, full_output=True,
            preconditioner=blocks,
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


class ConstantRotationFamily:
    """Random-access rigid-rotation solves with warm starts, keyed by beta.

    Each solve starts from the nearest cached state, and every Newton solve
    of the family is preconditioned by the factored blocks built once at its
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
        built = self._preconditioner is None
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
