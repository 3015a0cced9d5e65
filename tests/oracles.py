"""Independent numerical oracles used to freeze golden values and to check
the library's fast paths.

Everything here is deliberately primitive: fixed-step classical RK4 with
step halving to self-consistency, no adaptive machinery shared with the
library; dense products and per-ray splines where the library exploits
structure.  Run as a script to regenerate tests/golden_lane_emden.json.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve, solve_banded, svdvals
from scipy.optimize import brentq

GOLDEN_PATH = Path(__file__).parent / "golden_lane_emden.json"


def _rk4_profile(nu: float, h: float, r_max: float = 25.0):
    """Integrate the hydrostatic profile with fixed-step RK4 from a series
    start; returns the step trail (r, u, v) past the first zero."""

    def f(u):
        return max(u, 0.0) ** nu

    def rhs(r, u, v):
        return v, -f(u) - 2.0 * v / r

    r = 1e-6
    u = 1.0 - f(1.0) * r * r / 6.0
    v = -f(1.0) * r / 3.0
    trail = [(r, u, v)]
    while r < r_max:
        k1u, k1v = rhs(r, u, v)
        k2u, k2v = rhs(r + h / 2, u + h / 2 * k1u, v + h / 2 * k1v)
        k3u, k3v = rhs(r + h / 2, u + h / 2 * k2u, v + h / 2 * k2v)
        k4u, k4v = rhs(r + h, u + h * k3u, v + h * k3v)
        u += h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v += h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        r += h
        trail.append((r, u, v))
        if u < -0.05:
            break
    return trail


def _first_zero(trail):
    """Cubic-Hermite root between the bracketing steps."""
    for (r0, u0, v0), (r1, u1, v1) in zip(trail, trail[1:]):
        if u0 > 0.0 >= u1:
            h = r1 - r0
            lo, hi = 0.0, 1.0
            for _ in range(200):
                t = 0.5 * (lo + hi)
                h00 = (1 + 2 * t) * (1 - t) ** 2
                h10 = t * (1 - t) ** 2
                h01 = t * t * (3 - 2 * t)
                h11 = t * t * (t - 1)
                ut = h00 * u0 + h10 * h * v0 + h01 * u1 + h11 * h * v1
                if ut > 0:
                    lo = t
                else:
                    hi = t
            t = 0.5 * (lo + hi)
            xi = r0 + t * h
            # derivative of the Hermite cubic for mu = -xi^2 u'(xi)
            d00 = (6 * t * t - 6 * t) / h
            d10 = 3 * t * t - 4 * t + 1
            d01 = (6 * t - 6 * t * t) / h
            d11 = 3 * t * t - 2 * t
            du = d00 * u0 + d10 * v0 + d01 * u1 + d11 * v1
            return xi, -xi * xi * du
    raise RuntimeError("no zero found")


def lane_emden_oracle(nu: float, tol: float = 1e-10):
    """Step-halving RK4 until the first zero is self-consistent to tol."""
    h = 0.02
    xi_prev, mu_prev = _first_zero(_rk4_profile(nu, h))
    while True:
        h /= 2.0
        xi, mu = _first_zero(_rk4_profile(nu, h))
        if abs(xi - xi_prev) < tol and abs(mu - mu_prev) < tol:
            return xi, mu, h
        xi_prev, mu_prev = xi, mu
        if h < 1e-5:
            raise RuntimeError("step halving did not settle")


def trapezoid(y, x):
    """Composite trapezoid rule (np.trapezoid exists only from numpy 2.0)."""
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1])) / 2.0)


def packed_block(grid, k):
    """Rows of mode k in the packed vector (``equilibrium.pack_modes``)."""
    nr = grid.n_r
    return slice(0, nr) if k == 0 else slice(nr + (k - 1) * (nr - 1), nr + k * (nr - 1))


def gravity_jacobian_dense(grid, fp):
    """Packed linearized gravity map from dense (n_r x n_gauss) @ (n_gauss x n_r)
    block products; ``fp`` is rho'(u) on (fine zeta) x (Gauss radius)."""
    from rotstar.grids import interp_matrix

    coup = np.einsum("la,ap,ma->plm", grid.proj_f, fp, grid.leg_f)
    interp = interp_matrix(grid.r, grid.gauss_x)
    kernels = axigrid_kernels_loop(grid)
    n = grid.n_r + (grid.n_l - 1) * (grid.n_r - 1)
    jac = np.zeros((n, n))
    for li in range(grid.n_l):
        for lj in range(grid.n_l):
            blk = (kernels[li] * coup[:, li, lj][None, :]) @ interp
            if li == 0:
                blk = blk - blk[0:1, :]
            jac[packed_block(grid, li), packed_block(grid, lj)] = blk[
                (li > 0):, (lj > 0):
            ]
    return jac


def radial_kernel(r, x, w, l):
    """Two-sided radial Green's function of degree l with quadrature weights,
    as a dense matrix: K[i, p] = w_p x_p / (2l + 1) times (x_p / r_i)^(l + 1)
    for x_p < r_i and (r_i / x_p)^l otherwise, the ratios taken <= 1 so no
    power overflows.

    K couples a source value at the quadrature point x_p to the degree-l
    potential at r_i; row r = 0 is x w for l = 0 (0^0 = 1) and 0 otherwise.
    """
    r = np.asarray(r, dtype=float)[:, None]
    x = np.asarray(x, dtype=float)[None, :]
    above = x >= r
    with np.errstate(divide="ignore"):
        inner = np.where(above, 1.0, x / r) ** (l + 1)
    outer = np.where(above, r / x, 1.0) ** l
    return np.where(above, outer, inner) * (w * x / (2.0 * l + 1.0))


def axigrid_kernels_loop(grid):
    """The dense kernel tensor K[k, i, p] of ``grids.RadialKernel`` on the
    grid's nodes and Gauss points, by a loop over degrees with the ratios
    guarded at the center and the center row set by hand."""
    x = grid.gauss_x[None, :]
    r = grid.r[:, None]
    below = x < r
    kernels = np.empty((grid.n_l, grid.n_r, grid.n_gauss))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, l in enumerate(grid.lvals):
            inner = np.where(below, np.where(r > 0, x / r, 0.0), 1.0) ** (l + 1)
            outer = np.where(below, 1.0, r / x) ** l
            ker = np.where(below, inner, outer)
            ker[0, :] = 1.0 if l == 0 else 0.0  # (0/x)^l at the center
            kernels[k] = (grid.gauss_w * grid.gauss_x / (2.0 * l + 1.0)) * ker
    return kernels


def mode_operator_dense(mg, degree):
    """The first-order mode operator from the mode problem's own kernel,
    (1/r^2) int_0^r q y (s/r)^(j-1) s^3 ds + r int_r^R q y (r/s)^(j-1) ds over
    2 degree + 1, with the degree-0 kernel s (s/r - 1) on s < r written out."""
    from rotstar.grids import interp_matrix

    r = mg.r[:, None]
    x = mg.gauss_x[None, :]
    below = x < r
    if degree == 0:
        ker = np.where(below, x * (x / r - 1.0), 0.0)
    else:
        ker = np.where(below, (x / r) ** (degree + 1) * x, (r / x) ** (degree - 1) * r)
    ker = ker * mg.gauss_w[None, :] * mg.q_gauss[None, :]
    return ker @ interp_matrix(mg.r, mg.gauss_x) / (2.0 * degree + 1.0)


def solve_mode_dense(profile, eos, u_center, degree, source=None, far_coefficient=0.0,
                     n_nodes=700):
    """``perturb.solve_mode``'s mode values by one dense direct solve,
    y = (I - A)^-1 inhom, with A the n x n matrix of ``mode_operator_dense``."""
    from rotstar.perturb import ModeGrid

    mg = ModeGrid.build(profile, eos, u_center, n_nodes)
    src = np.zeros_like(mg.r) if source is None else np.asarray(source(mg.r), float)
    inhom = src + (
        far_coefficient * mg.r ** degree / (2.0 * degree + 1.0) if degree > 0 else 0.0
    )
    return np.linalg.solve(np.eye(mg.r.size) - mode_operator_dense(mg, degree), inhom)


def block_sigma_min_dense(grid, q):
    """Smallest singular value of I - (degree-l block) per even degree l, for
    a spherical state with rho'(u) = ``q`` at the Gauss radii."""
    from rotstar.grids import interp_matrix

    out = {}
    interp = interp_matrix(grid.r, grid.gauss_x)
    kernels = axigrid_kernels_loop(grid)
    for k, l in enumerate(grid.lvals):
        blk = (kernels[k] * q[None, :]) @ interp
        if l == 0:
            blk = blk - blk[0:1, :]
            mat = np.eye(grid.n_r) - blk
        else:
            mat = np.eye(grid.n_r - 1) - blk[1:, 1:]
        out[int(l)] = float(svdvals(mat)[-1])
    return out


def sigma_min_dense(mat):
    """Smallest singular value of ``mat`` from its full dense SVD."""
    return float(svdvals(mat)[-1])


def kernel_blocks(kernel, k, coef):
    """The blocks K_k @ diag(coef[:, j]) @ (the interpolation to the Gauss
    points) of ``RadialKernel``, dense from its generators and each
    transposed: out[j, c, i] is the entry of row i and column c of block j."""
    nodes = np.arange(kernel.n_r)
    return kernel.entries(k, *kernel.generators(k, coef), nodes, nodes[:, None])


def gravity_jacobian_packed(grid, eos, u_center, modes, *, out=None):
    """The packed matrix J of the linearized self-gravity map at u,
    Fortran-ordered, from ``kernel_blocks``: block (li, lj) is the
    degree-li radial kernel @ diag(coupling of mode lj into mode li at the
    Gauss radii) @ the interpolation.  With ``out``, a Fortran-ordered n x n
    matrix, J is added into it in place and ``out`` is returned.

    The full-matrix form of ``equilibrium.gravity_jacobian_packed``, which
    builds only the diagonal blocks."""
    from rotstar.equilibrium import _density_deriv_fine, packed_size

    fp = _density_deriv_fine(grid, eos, u_center, modes)
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
        blk = kernel_blocks(grid.kernel, li, coup[:, li, :])
        if li == 0:
            blk -= blk[:, :, :1]
        for lj in range(grid.n_l):
            jac.T[packed_block(grid, lj), packed_block(grid, li)] += blk[lj, (lj > 0):, (li > 0):]
    return jac


def newton_matrix_dense(u, eos, u_center, law=None, scale=None):
    """The dense Newton matrix I - J - B at u, Fortran-ordered, with B the
    dense ``centrifugal_deriv_dense`` of a momentum law (0 otherwise)."""
    from rotstar.equilibrium import newton_matrix
    from rotstar.rotation import LinearizedCentrifugal

    out = None
    if law is not None:
        out = np.asfortranarray(centrifugal_deriv_dense(LinearizedCentrifugal(law, u, eos, scale)))
    return newton_matrix(gravity_jacobian_packed(u.grid, eos, u_center, u.modes(), out=out))


def centrifugal_deriv_dense(lin):
    """The dense B of a momentum law's ``LinearizedCentrifugal`` on packed
    vectors, n x n: the cylinder-mass response ``dm_response_dense`` to the
    packed h, then the cumulative map ``weighted_cumulative_dense`` of the
    chain's weight and ``b_to_modes_dense`` to packed g modes."""
    from rotstar.equilibrium import pack_modes

    grid = lin.grid
    right = pack_modes(grid, dm_response_dense(lin).transpose(0, 2, 1))  # (n, n_q)
    left = pack_modes(grid, b_to_modes_dense(grid) @ weighted_cumulative_dense(grid, lin.weight))
    return left @ right.T


def weighted_sums(poly, t, weights):
    """out[l, i] = sum_a weights[l, a] f(t[i, a]) for 2-D t, f the piecewise
    polynomial ``poly`` (coefficients ``poly.c`` of (t - x_k)^(deg - m) on
    the panels of ``poly.x``, as in scipy's ``PPoly``).

    Each row of weights is binned per panel and power of (t - x_k) and then
    contracted with the coefficients in one product, so f is never formed at
    the individual points.
    """
    n_i, n_a = t.shape
    deg, npan = poly.c.shape[0] - 1, len(poly.x) - 1
    flat = t.ravel()
    k = np.clip(np.searchsorted(poly.x, flat, side="right") - 1, 0, npan - 1)
    s = flat - poly.x[k]
    powers = np.empty((deg + 1, flat.size))  # powers[m] = s^(deg - m)
    powers[deg] = 1.0
    for m in range(deg - 1, -1, -1):
        powers[m] = powers[m + 1] * s
    rows = np.repeat(np.arange(n_i) * (deg + 1), n_a)
    bins = ((rows + np.arange(deg + 1)[:, None]) * npan + k).ravel()
    size = n_i * (deg + 1) * npan
    coef = poly.c.reshape((deg + 1) * npan, -1)
    out = np.empty((len(weights), n_i, coef.shape[1]))
    # one row at a time, so that only one row's bins are held
    for row, w in zip(out, weights):
        binned = np.bincount(bins, (powers * np.tile(w, n_i)).ravel(), minlength=size)
        np.matmul(binned.reshape(n_i, (deg + 1) * npan), coef, out=row)
    return out.reshape((len(weights), n_i) + poly.c.shape[2:])


def b_to_modes_dense(grid):
    """The map b samples at grid.r -> g modes, (n_l, n_r, n_r): the
    fine-zeta projection of the not-a-knot cubic spline through each unit
    vector (scipy's ``CubicSpline``) at the clipped cylinder radii
    r_i sqrt(1 - zeta^2) of every node, with g_l(0) = 0 for l > 0."""
    basis = CubicSpline(grid.r, np.eye(grid.n_r))
    varpi_fine = grid.r[:, None] * np.sqrt(1.0 - grid.zeta_f[None, :] ** 2)
    out = weighted_sums(basis, np.clip(varpi_fine, 0, grid.r_inf), grid.proj_f)
    out[1:, 0, :] = 0.0
    return out


# block inverse iteration of ``sigma_min_lu``: block size
_LU_BLOCK = 6


def sigma_min_lu(mat):
    """Smallest singular value of the Newton matrix ``mat`` from one LU of
    the whole matrix: (sigma, steps, residual bound).

    Block inverse iteration on (M^T M)^-1 from a seeded start, with the
    certificate's stopping test and step cap.  Each step solves
    Y = M^-T X and Z = M^-1 Y, each from scipy's LU of ``mat``, and
    orthonormalizes Z into the next X; sigma is 1/sqrt of the largest
    eigenvalue of Y^T Y, a Ritz value of (M^T M)^-1, so sigma >= sigma_min
    at every step.  For the Ritz vector x, with y = M^-T x, z = M^-1 y,
    u = sigma y and v = z/|z|, both residuals M v - sigma u and
    M^T u - sigma v are known without M, and some singular value of M lies
    within sqrt((|Mv - sigma u|^2 + |M^T u - sigma v|^2)/2) of sigma.  A
    matrix that is not finite or has an exact zero pivot gives
    (0.0, 0, None), and solves that overflow give sigma = 0.0 and no bound.
    """
    from rotstar.equilibrium import _CERT_MAX_ITER, _CERT_RTOL

    if not np.isfinite(mat).all():
        return 0.0, 0, None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu = lu_factor(mat, check_finite=False)
    if not np.all(np.diagonal(lu[0])):
        return 0.0, 0, None
    n = len(mat)
    z = np.random.default_rng(0).standard_normal((n, min(_LU_BLOCK, n)))
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
    r_left = abs(1.0 / (sigma * znorm) - sigma)
    r_right = sigma * np.linalg.norm(xv - zv / znorm)
    return float(sigma), step, float(np.sqrt(0.5 * (r_left ** 2 + r_right ** 2)))


def dense_newton_step(grid, eos, u_center, modes, rhs, b_matrix=None):
    """The packed Newton step (I - J - B)^-1 rhs from an LU of the dense
    Newton matrix, J the linearized gravity map at ``modes`` and B the dense
    centrifugal linearization of a momentum law (None otherwise)."""
    from rotstar.equilibrium import newton_matrix

    mat = gravity_jacobian_packed(grid, eos, u_center, modes)
    if b_matrix is not None:
        mat += b_matrix
    mat = newton_matrix(mat)
    return lu_solve(lu_factor(mat), rhs)


def block_solve_lu(blk, x):
    """(I - J_kk)^-1 x for the block J_kk = ``blk`` from an LU of the whole
    I - J_kk, with no use of its zero columns."""
    return lu_solve(lu_factor(np.eye(len(blk)) - blk), x)


def cubic_spline_slopes_banded(x, y):
    """Node slopes of the not-a-knot cubic spline through (x, y) along axis 0,
    from one banded LAPACK solve of the tridiagonal system."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    dx = np.diff(x)
    dxr = dx.reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    ab = np.zeros((3, n))  # banded rows: upper, diagonal, lower
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    b = np.empty_like(y)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = x[2] - x[0]
    ab[1, 0] = dx[1]
    ab[0, 1] = d
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    ab[1, -1] = dx[-2]
    ab[-1, -2] = d
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    return solve_banded((1, 1), ab, b.reshape(n, -1)).reshape(y.shape)


def cumulative_map_dense(grid, law, cyl, scale):
    """The dm -> b map of a momentum law's linearization in one piece,
    n_r x n_r: ``weighted_cumulative_dense`` with the weight 2 j j'(m) / x^3
    at the Gauss points."""
    x = grid.gauss_x
    m_at = cyl.at_scaled(x)
    weight = 2.0 * law.j_at(m_at) * law.dj_at(m_at) / x ** 3
    return weighted_cumulative_dense(grid, weight / (scale.u_center * scale.length_scale ** 2))


def weighted_cumulative_dense(grid, weight):
    """The cumulative integral of the not-a-knot cubic spline through each
    unit vector (scipy's ``CubicSpline``), times ``weight`` at the Gauss
    points, summed panel by panel from the axis: n_r x n_r."""
    vals = CubicSpline(grid.r, np.eye(grid.n_r))(grid.gauss_x) * (grid.gauss_w * weight)[:, None]
    panels = vals.reshape(grid.n_r - 1, 4, grid.n_r).sum(axis=1)
    return np.vstack([np.zeros(grid.n_r), np.cumsum(panels, axis=0)])


def dm_response_dense(lin):
    """The cylinder-mass response of a ``LinearizedCentrifugal`` to each
    mode coefficient of h, shape (n_l, n_q, n_r): entry [l, q, i] is
    d dm(varpi_q) / d h_l(r_i).  Built from the dense (n_gauss x n_r)
    interpolation matrix and the rule's partial-panel stencils, one ray (a
    node zeta >= 0, ``zeta_h``) at a time."""
    from rotstar.grids import interp_matrix

    grid, rule = lin.grid, lin.rule
    nq, nj = grid.n_r, len(grid.zeta_h)
    rows = np.arange(nq)[:, None]
    x2 = grid.gauss_x ** 2
    interp = interp_matrix(grid.r, grid.gauss_x)
    out = np.zeros((grid.n_l, nq, grid.n_r))
    for j in range(nj):
        prefix = grid.cumulative((x2 * lin.fp_gauss[:, j])[:, None] * interp)
        col = prefix[rule.kcut[:, j]]
        part = np.einsum(
            "qg,qgs->qs", rule.part_w[:, j] * lin.fp_part[:, j], rule.part_coef[:, j]
        )
        np.add.at(col, (rows, rule.part_index[:, j] // nj), part)
        weight = lin.mass_pref * grid.zeta_hw[j] * grid.leg[:, j]
        out += weight[:, None, None] * col
    return out


def modes_at_radii_per_point(grid, modes, x):
    """``AxiGrid.eval_modes_at`` with every point interpolated on its own,
    repeated radii included: the direct quadrature's form before it took
    each distinct radius once."""
    from rotstar.grids import interp_stencil

    cols, weights = interp_stencil(grid.r, x.ravel())
    fr = np.einsum("lps,ps->lp", modes[:, cols], weights)
    return fr.reshape((grid.n_l,) + x.shape)


def free_boundary_per_ray(grid, values, r0):
    """Root of each column of ``values`` past r0 on its own cubic spline."""
    R = np.empty(grid.n_zeta)
    for j in range(grid.n_zeta):
        col = values[:, j]
        k = np.nonzero((col[:-1] > 0) & (col[1:] <= 0) & (grid.r[1:] > r0))[0][0]
        R[j] = brentq(CubicSpline(grid.r, col), grid.r[k], grid.r[k + 1], xtol=1e-12)
    return R


# the scalar 4-point Gauss rule of the recursive direct quadrature's leaves
_G4X, _G4W = np.polynomial.legendre.leggauss(4)


def _refine_cell(evalf, tr, tz, r_lo, r_hi, z_lo, z_hi, f_t, depth):
    """Recursively integrate K * (f - f_t) * r'^2 over a cell containing (or
    near) the singular target; the subtraction keeps the integrand bounded."""
    from rotstar.potential import _kernel_elliptic, _kernel_parts

    inside = (r_lo <= tr <= r_hi) and (z_lo <= tz <= z_hi)
    if depth == 0 or not inside:
        xr = 0.5 * (r_hi + r_lo) + 0.5 * (r_hi - r_lo) * _G4X
        wr = 0.5 * (r_hi - r_lo) * _G4W
        xz = 0.5 * (z_hi + z_lo) + 0.5 * (z_hi - z_lo) * _G4X
        wz = 0.5 * (z_hi - z_lo) * _G4W
        f = evalf(xr, xz) - f_t
        ker = _kernel_elliptic(*_kernel_parts(tr, tz, xr[:, None], xz[None, :]))
        w2 = (wr * xr ** 2)[:, None] * wz[None, :]
        return float(np.sum(ker * w2 * f))
    rm = 0.5 * (r_lo + r_hi)
    zm = 0.5 * (z_lo + z_hi)
    total = 0.0
    for rl, rh in ((r_lo, rm), (rm, r_hi)):
        for zl, zh in ((z_lo, zm), (zm, z_hi)):
            total += _refine_cell(evalf, tr, tz, rl, rh, zl, zh, f_t, depth - 1)
    return total


def potential_direct_recursive(
    field, refine_depth=5, window=2, zeta_cells=None, source_fn=None
):
    """``potential.potential_direct`` as a per-target recursion over the
    refinement cells, one leaf at a time: the reference for the level-by-level
    array version."""
    from scipy.special import eval_legendre

    from rotstar.grids import AxiField, panel_gauss
    from rotstar.potential import _kernel_elliptic, _kernel_parts, uniform_ball_potential

    grid = field.grid
    modes = field.modes()

    if source_fn is None:
        def evalf(r_arr, z_arr):
            fl = grid.eval_modes_at(modes, np.asarray(r_arr, dtype=float))
            pz = np.array([eval_legendre(l, np.asarray(z_arr, dtype=float))
                           for l in grid.lvals])
            return fl.T @ pz
    else:
        def evalf(r_arr, z_arr):
            r_arr = np.asarray(r_arr, dtype=float)
            z_arr = np.asarray(z_arr, dtype=float)
            return source_fn(r_arr[:, None], z_arr[None, :])
    n_zc = zeta_cells or 4 * grid.n_zeta  # zeta panels of the composite rule
    z_edges = np.linspace(-1.0, 1.0, n_zc + 1)
    r_edges = grid.r

    # coarse source points, ordered cell by cell ((n_r-1) * n_zc blocks of 16)
    xz_cells, wz_cells = panel_gauss(z_edges[:-1], z_edges[1:])
    xr_cells, wr_cells = panel_gauss(r_edges[:-1], r_edges[1:])
    n_rc = grid.n_r - 1
    src_r = np.repeat(xr_cells.reshape(n_rc, 1, 4, 1), n_zc, axis=1)
    src_z = np.broadcast_to(xz_cells.reshape(1, n_zc, 1, 4), (n_rc, n_zc, 4, 4))
    src_w = (wr_cells * xr_cells ** 2).reshape(n_rc, 1, 4, 1) * wz_cells.reshape(1, n_zc, 1, 4)
    if source_fn is None:
        f_modes_r = grid.eval_modes_at(modes, xr_cells.ravel())
        pz = np.stack([eval_legendre(l, xz_cells) for l in grid.lvals])
        src_f = np.einsum("lkg,ljz->kjgz", f_modes_r.reshape(grid.n_l, n_rc, 4), pz)
    else:
        src_f = source_fn(
            xr_cells.reshape(n_rc, 1, 4, 1), xz_cells.reshape(1, n_zc, 1, 4)
        ) * np.ones((n_rc, n_zc, 4, 4))
    shape = (n_rc, n_zc, 4, 4)
    src_r = np.broadcast_to(src_r, shape).reshape(-1)
    src_z = src_z.reshape(-1)
    src_w = src_w.reshape(-1)
    src_f = src_f.reshape(-1)

    out = np.empty((grid.n_r, grid.n_zeta))
    if source_fn is None:
        leg_t = np.stack([eval_legendre(l, grid.zeta) for l in grid.lvals])
        f_nodes = modes.T @ leg_t  # target values (n_r, n_zeta)
    else:
        f_nodes = source_fn(grid.r[:, None], grid.zeta[None, :]) * np.ones(
            (grid.n_r, grid.n_zeta)
        )
    for i in range(grid.n_r):
        tr = grid.r[i]
        kt = min(max(np.searchsorted(r_edges, tr) - 1, 0), n_rc - 1)
        near_k = range(max(kt - window, 0), min(kt + window + 1, n_rc))
        ker = _kernel_elliptic(
            *_kernel_parts(tr, grid.zeta[:, None], src_r[None, :], src_z[None, :])
        )
        base = ker * src_w[None, :]
        for j in range(grid.n_zeta):
            tz = grid.zeta[j]
            jt = min(max(np.searchsorted(z_edges, tz) - 1, 0), n_zc - 1)
            near_j = range(max(jt - window, 0), min(jt + window + 1, n_zc))
            f_t = float(f_nodes[i, j])
            vec = base[j] * (src_f - f_t)
            acc = float(np.sum(vec))
            for kk in near_k:
                for jj in near_j:
                    lo = 16 * (kk * n_zc + jj)
                    acc -= float(np.sum(vec[lo : lo + 16]))
                    acc += _refine_cell(
                        evalf, tr, tz,
                        r_edges[kk], r_edges[kk + 1],
                        z_edges[jj], z_edges[jj + 1],
                        f_t, refine_depth,
                    )
            out[i, j] = acc / (4.0 * math.pi) + f_t * uniform_ball_potential(
                grid.r_inf, tr
            )
    return AxiField(grid, out)


def kernel_eval(r, zeta, rp, zetap, method: str = "adaptive") -> float:
    """Azimuthal integral of 1/distance between the rings (r, zeta), (rp, zetap).

    ``method`` is "adaptive" (scipy's quadrature of the defining integral) or
    "elliptic" (the library's closed form ``_kernel_elliptic``, 4 K(m)/sqrt(a + b)
    as Gauss's 2 pi / AGM(sqrt(a + b), sqrt(a - b)); bitwise the value the same
    a, b take inside any batch).  Coincident points raise ValueError.
    """
    from scipy.integrate import quad

    from rotstar.potential import _kernel_elliptic, _kernel_parts

    a, b = _kernel_parts(r, zeta, rp, zetap)
    scale = max(r, rp, 1e-300)
    if a - b <= (1e-14 * scale) ** 2:
        raise ValueError(f"kernel evaluated at coincident points (r={r:g}, zeta={zeta:g})")
    if method == "elliptic":
        return float(_kernel_elliptic(a, b))
    val, _ = quad(
        lambda phi: 1.0 / math.sqrt(a - b * math.cos(phi)),
        0.0,
        2.0 * math.pi,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val


def mode_shooting_scipy(profile, eos, u_center, degree, far_coefficient, r_out, source=None):
    """Integrate the mode ODE from a regular series start by scipy's DOP853 and
    match the outer condition r y' + (degree+1) y = far_coefficient * r^degree
    at xi1 (where the density response vanishes), for homogeneous problems."""
    from scipy.integrate import solve_ivp

    from rotstar.eos import scaled_density_deriv
    from rotstar.errors import DomainError

    if source is not None:
        raise DomainError("shooting path implemented for homogeneous sources only")
    j = degree
    xi1 = profile.xi1

    def rhs(r, z):
        y, v = z
        q = scaled_density_deriv(profile.theta_at(r), eos, u_center)
        return (v, -2.0 * v / r + (j * (j + 1) / r ** 2 - q) * y)

    r0 = 1e-6 * xi1
    sol = solve_ivp(
        rhs,
        (r0, xi1),
        (r0 ** j, j * r0 ** (j - 1)),
        method="DOP853",
        rtol=1e-12,
        atol=1e-300,
        dense_output=True,
    )
    yh, vh = sol.sol(xi1)
    c = far_coefficient * xi1 ** j / (xi1 * vh + (j + 1) * yh)
    vals = c * sol.sol(np.clip(r_out, r0, xi1))[0]
    small = r_out < r0
    if np.any(small):
        vals[small] = c * r_out[small] ** j
    return vals


def regenerate() -> dict:
    data = {}
    for nu in (1.5, 2.0, 2.5, 3.0):
        xi, mu, h = lane_emden_oracle(nu)
        data[str(nu)] = {"xi1": xi, "mu1": mu, "final_step": h}
    data["1.0"] = {"xi1": math.pi, "mu1": math.pi, "final_step": 0.0}
    GOLDEN_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


if __name__ == "__main__":
    for key, val in regenerate().items():
        print(key, val)
