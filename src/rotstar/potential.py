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

from .errors import DomainError, SingularPoint
from .grids import AxiField, AxiGrid, interp_stencil, legendre_table, panel_gauss


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

    a, b = _kernel_parts(r, zeta, rp, zetap)
    scale = max(r, rp, 1e-300)
    if a - b <= (1e-14 * scale) ** 2:
        raise SingularPoint(
            f"kernel evaluated at coincident points (r={r:g}, zeta={zeta:g})"
        )
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


def _kernel_elliptic(a, b):
    """The integral of 1/sqrt(a - b cos phi) over one turn, 4 K(m)/sqrt(a + b)
    with m = 2b/(a + b), from the parts a, b of ``_kernel_parts``."""
    from scipy.special import ellipk  # validation path only

    m = 2.0 * b / (a + b)
    return 4.0 * ellipk(m) / np.sqrt(a + b)


def potential_multipole(field: AxiField) -> AxiField:
    """Potential of the field via the per-mode radial kernels."""
    grid = field.grid
    modes = field.modes()
    src = grid.at_gauss(modes)
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
    if refine_depth < 0:
        raise DomainError(f"refine_depth must be >= 0, got {refine_depth}")
    if window < 0:
        raise DomainError(f"window must be >= 0, got {window}")
    if zeta_cells is not None and zeta_cells < 1:
        raise DomainError(f"zeta_cells must be >= 1, got {zeta_cells}")
    grid = field.grid
    modes = field.modes()

    def cell_rule(r_lo, r_hi, z_lo, z_hi):
        """Radii, zetas, weights r'^2 dr' dzeta' and source values of the
        4 x 4 Gauss rule on each cell; the last two axes are radius, zeta."""
        xr, wr = panel_gauss(r_lo, r_hi)
        xz, wz = panel_gauss(z_lo, z_hi)
        w = (wr * xr ** 2)[:, :, None] * wz[:, None, :]
        if source_fn is None:
            cols, weights = interp_stencil(grid.r, xr.ravel())
            fr = np.einsum("lps,ps->lp", modes[:, cols], weights)
            fr = fr.reshape((grid.n_l,) + xr.shape)
            f = np.einsum("lmr,lmz->mrz", fr, legendre_table(grid.lvals, xz))
        else:
            f = source_fn(xr[:, :, None], xz[:, None, :]) * np.ones(w.shape)
        return xr[:, :, None], xz[:, None, :], w, f

    n_zc = 4 * grid.n_zeta if zeta_cells is None else zeta_cells
    z_edges = np.linspace(-1.0, 1.0, n_zc + 1)
    n_rc = grid.n_r - 1
    if source_fn is None:
        f_nodes = grid.synthesize(modes)  # target values (n_r, n_zeta)
    else:
        f_nodes = source_fn(grid.r[:, None], grid.zeta[None, :]) * np.ones(
            (grid.n_r, grid.n_zeta)
        )
    # the cells refined for a target: those within `window` cells of its own
    # cell, radially and in zeta
    kt = np.clip(np.searchsorted(grid.r, grid.r) - 1, 0, n_rc - 1)
    jt = np.clip(np.searchsorted(z_edges, grid.zeta) - 1, 0, n_zc - 1)
    near_k = np.abs(np.arange(n_rc) - kt[:, None]) <= window
    near_j = np.abs(np.arange(n_zc) - jt[:, None]) <= window

    # far field: the coarse rule on every cell, one kernel row per target
    # radius (never targets x sources at once).  The kernel is even under
    # (zeta, zeta') -> (-zeta, -zeta'), and the zeta nodes and cells are
    # mirror images (to rounding), so the rows of zeta < 0 are those of
    # zeta >= 0 with the cells mirrored.  _kernel_parts' a and b are
    # r^2 + r'^2 - r zeta (2 r' zeta') and r sqrt(1 - zeta^2) (2 r' sqrt(1 - zeta'^2)),
    # with the source factors formed once.
    kc, jc = np.divmod(np.arange(n_rc * n_zc), n_zc)
    xr, xz, w, f = cell_rule(grid.r[kc], grid.r[kc + 1], z_edges[jc], z_edges[jc + 1])
    cells = (n_rc, n_zc, 4, 4)
    w, wf = w.reshape(cells), (w * f).reshape(cells)
    r2, cz, sz = xr ** 2, 2.0 * xr * xz, 2.0 * xr * np.sqrt(1.0 - xz ** 2)
    half = grid.n_zeta // 2
    tz = grid.zeta[half:, None, None, None]
    acc = np.empty((grid.n_r, grid.n_zeta))
    for i, r in enumerate(grid.r):
        ker = _kernel_elliptic(r * r + r2 - r * tz * cz, r * np.sqrt(1.0 - tz ** 2) * sz)
        ker = ker.reshape((-1,) + cells)
        ker = np.concatenate((ker[::-1, :, ::-1, :, ::-1][:half], ker))
        kw = np.einsum("jkcrz,kcrz->jkc", ker, w)
        kwf = np.einsum("jkcrz,kcrz->jkc", ker, wf)
        near = near_k[i][:, None] & near_j[:, None, :]
        acc[i] = np.where(near, 0.0, kwf - f_nodes[i][:, None, None] * kw).sum(axis=(1, 2))

    # near field, level by level over every (target, near cell) pair: a cell
    # that holds its target (closed test, so a target on an edge goes into
    # every cell touching it) splits in four above depth 0; the others are leaves
    pi, pk = np.nonzero(near_k)
    pj, pc = np.nonzero(near_j)
    a, b = np.repeat(np.arange(len(pi)), len(pj)), np.tile(np.arange(len(pj)), len(pi))
    tgt = pi[a] * grid.n_zeta + pj[b]
    r_lo, r_hi = grid.r[pk[a]], grid.r[pk[a] + 1]
    z_lo, z_hi = z_edges[pc[b]], z_edges[pc[b] + 1]
    t_r, t_z = np.repeat(grid.r, grid.n_zeta), np.tile(grid.zeta, grid.n_r)
    t_f = f_nodes.ravel()
    for depth in range(refine_depth, -1, -1):
        tr, tz = t_r[tgt], t_z[tgt]
        split = (r_lo <= tr) & (tr <= r_hi) & (z_lo <= tz) & (tz <= z_hi) & (depth > 0)
        leaf = ~split
        xr, xz, w, f = cell_rule(r_lo[leaf], r_hi[leaf], z_lo[leaf], z_hi[leaf])
        ker = _kernel_elliptic(*_kernel_parts(tr[leaf, None, None], tz[leaf, None, None], xr, xz))
        vals = np.sum(ker * w * (f - t_f[tgt[leaf], None, None]), axis=(1, 2))
        # bincount adds in a fixed order, so the result is deterministic
        acc += np.bincount(tgt[leaf], weights=vals, minlength=acc.size).reshape(acc.shape)
        r_lo, r_hi, z_lo, z_hi = r_lo[split], r_hi[split], z_lo[split], z_hi[split]
        rm, zm = 0.5 * (r_lo + r_hi), 0.5 * (z_lo + z_hi)
        children = (
            (r_lo, r_lo, rm, rm),
            (rm, rm, r_hi, r_hi),
            (z_lo, zm, z_lo, zm),
            (zm, z_hi, zm, z_hi),
        )
        r_lo, r_hi, z_lo, z_hi = (np.stack(c, axis=1).ravel() for c in children)
        tgt = np.repeat(tgt[split], 4)
    ball = uniform_ball_potential(grid.r_inf, grid.r)
    return AxiField(grid, acc / (4.0 * math.pi) + f_nodes * ball[:, None])
