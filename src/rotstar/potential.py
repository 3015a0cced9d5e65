"""The Newtonian potential operator on axisymmetric fields.

Two independent evaluation paths are provided.  The production path expands
the source in even Legendre modes and applies the exact per-mode radial
kernels (no kernel singularity ever appears).  The direct path integrates
the azimuthally reduced kernel by composite quadrature with a subtraction
of the uniform-ball potential at the target and local cell refinement; it
exists to validate the multipole path on small grids.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularPoint
from .grids import AxiField, AxiGrid, panel_gauss

# the scalar leaf rule of _refine_cell, kept inline: a kernel-check visits
# ~17,400 leaves, and a panel_gauss call per leaf costs more than it saves
_G4X, _G4W = np.polynomial.legendre.leggauss(4)


def _kernel_parts(r, zeta, rp, zetap):
    a = r * r + rp * rp - 2.0 * r * rp * zeta * zetap
    b = 2.0 * r * rp * np.sqrt((1.0 - zeta ** 2) * (1.0 - zetap ** 2))
    return a, b


def kernel_eval(r, zeta, rp, zetap, method: str = "adaptive") -> float:
    """Azimuthal integral of 1/distance between the rings (r, zeta), (rp, zetap).

    ``method`` is "adaptive" (quadrature of the defining integral) or
    "elliptic" (complete elliptic integral closed form, used as an internal
    cross-check).
    """
    from scipy.integrate import quad  # validation path only
    from scipy.special import ellipk

    a, b = _kernel_parts(r, zeta, rp, zetap)
    scale = max(r, rp, 1e-300)
    if a - b <= (1e-14 * scale) ** 2:
        raise SingularPoint(
            f"kernel evaluated at coincident points (r={r:g}, zeta={zeta:g})"
        )
    if method == "elliptic":
        m = 2.0 * b / (a + b)
        return 4.0 * float(ellipk(m)) / math.sqrt(a + b)
    val, _ = quad(
        lambda phi: 1.0 / math.sqrt(a - b * math.cos(phi)),
        0.0,
        2.0 * math.pi,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val


def _kernel_elliptic_arrays(r, zeta, rp, zetap):
    from scipy.special import ellipk  # validation path only

    a, b = _kernel_parts(r, zeta, rp, zetap)
    m = 2.0 * b / (a + b)
    return 4.0 * ellipk(m) / np.sqrt(a + b)


def legendre_coeffs(field: AxiField) -> np.ndarray:
    """Even-degree Legendre coefficients f_l(r_i), shape (n_l, n_r)."""
    return field.modes()


def potential_multipole(field: AxiField) -> AxiField:
    """Potential of the field via the per-mode radial kernels."""
    grid = field.grid
    modes = field.modes()
    src = grid.modes_at_gauss(modes)
    out_modes = grid.potential_modes_from_gauss(src)
    return AxiField.from_modes(grid, out_modes)


def potential_modes_from_samples(grid: AxiGrid, mode_samples: np.ndarray) -> np.ndarray:
    """Potential mode values at the nodes from source mode samples given
    directly at the radial Gauss points (bypasses nodal interpolation, for
    sources that are exact at quadrature points)."""
    return grid.potential_modes_from_gauss(np.atleast_2d(mode_samples))


def uniform_ball_potential(radius: float, r):
    """Closed form for a unit-density ball: (R^2 - r^2/3)/2 inside, R^3/(3r) outside."""
    r = np.asarray(r, dtype=float)
    inside = (radius ** 2 - r ** 2 / 3.0) / 2.0
    with np.errstate(divide="ignore"):
        outside = radius ** 3 / (3.0 * np.maximum(r, 1e-300))
    out = np.where(r <= radius, inside, outside)
    return float(out) if out.ndim == 0 else out


def grad_at_origin(field: AxiField) -> float:
    """One-sided radial derivative estimate at r = 0 (max magnitude over zeta).

    Uses the second-order stencil on the first three nodes; for a field with
    a regular center this must vanish to discretization accuracy.
    """
    r1, r2 = field.grid.r[1], field.grid.r[2]
    w0 = -(r1 + r2) / (r1 * r2)
    w1 = r2 / (r1 * (r2 - r1))
    w2 = -r1 / (r2 * (r2 - r1))
    d = w0 * field.values[0] + w1 * field.values[1] + w2 * field.values[2]
    return float(np.max(np.abs(d)))


# ---------------------------------------------------------------------------
# direct quadrature path


def _refine_cell(evalf, tr, tz, r_lo, r_hi, z_lo, z_hi, f_t, depth):
    """Recursively integrate K * (f - f_t) * r'^2 over a cell containing (or
    near) the singular target; the subtraction keeps the integrand bounded."""
    inside = (r_lo <= tr <= r_hi) and (z_lo <= tz <= z_hi)
    if depth == 0 or not inside:
        xr = 0.5 * (r_hi + r_lo) + 0.5 * (r_hi - r_lo) * _G4X
        wr = 0.5 * (r_hi - r_lo) * _G4W
        xz = 0.5 * (z_hi + z_lo) + 0.5 * (z_hi - z_lo) * _G4X
        wz = 0.5 * (z_hi - z_lo) * _G4W
        f = evalf(xr, xz) - f_t
        ker = _kernel_elliptic_arrays(tr, tz, xr[:, None], xz[None, :])
        w2 = (wr * xr ** 2)[:, None] * wz[None, :]
        return float(np.sum(ker * w2 * f))
    rm = 0.5 * (r_lo + r_hi)
    zm = 0.5 * (z_lo + z_hi)
    total = 0.0
    for rl, rh in ((r_lo, rm), (rm, r_hi)):
        for zl, zh in ((z_lo, zm), (zm, z_hi)):
            total += _refine_cell(evalf, tr, tz, rl, rh, zl, zh, f_t, depth - 1)
    return total


def potential_direct(
    field: AxiField,
    refine_depth: int = 5,
    window: int = 2,
    zeta_cells: int | None = None,
    source_fn=None,
) -> AxiField:
    """Potential by direct kernel quadrature; intended for small validation grids.

    The kernel's logarithmic singularity at the target is removed by
    subtracting f(target) times the analytically known uniform-ball
    potential, and the cells nearest the target are refined dyadically.
    ``source_fn(r, zeta)``, when given, supplies exact source values at the
    quadrature points instead of interpolating the sampled field (for sources
    such as indicators that node samples cannot represent).
    """
    from scipy.special import eval_legendre  # validation path only

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
        ker = _kernel_elliptic_arrays(tr, grid.zeta[:, None], src_r[None, :], src_z[None, :])
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
