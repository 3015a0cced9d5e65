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

from .errors import DomainError
from .grids import AxiField, AxiGrid, legendre_table, panel_gauss


def _kernel_parts(r, zeta, rp, zetap):
    a = r * r + rp * rp - 2.0 * r * rp * zeta * zetap
    b = 2.0 * r * rp * np.sqrt((1.0 - zeta ** 2) * (1.0 - zetap ** 2))
    return a, b


# Gauss's AGM steps and the chunk of values each pass of them runs over.  From
# sqrt(a + b) and sqrt(a - b), 8 steps reach rounding for every ratio
# sqrt((a - b)/(a + b)) >= 1e-14, and two doubles a > b never give a ratio
# below about 1e-8; a chunk of 16384 keeps the three buffers in cache.
_AGM_STEPS = 8
_AGM_CHUNK = 16384
# potential_direct's blocks: the target zeta rows of a far-field kernel row
# per _kernel_elliptic call (its argument buffers hold this many rows), and
# the near-field leaves evaluated at once.  Every step is elementwise or a
# per-pair sum, so no value depends on either.
_DIRECT_ROWS = 3
_DIRECT_LEAVES = 1024


def _kernel_elliptic(a, b, out=None):
    """The integral of 1/sqrt(a - b cos phi) over one turn, from the parts a, b
    of ``_kernel_parts``: 4 K(m)/sqrt(a + b) with m = 2b/(a + b), taken in
    Gauss's form 2 pi / AGM(sqrt(a + b), sqrt(a - b)).

    The AGM starts from the kernel's own square roots, so no 1 - m is formed
    and the value keeps full accuracy as m -> 1.  Every step is elementwise
    and their number is fixed, so a value does not depend on the batch it is
    evaluated in.  Where a - b <= 0 the value is +inf.  ``out``, when given,
    is a C-contiguous array of the broadcast shape that receives the values.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = np.empty(a.shape) if out is None else out
    a, b, flat = a.ravel(), b.ravel(), out.reshape(-1)
    buffers = [np.empty(min(a.size, _AGM_CHUNK)) for _ in range(3)]
    for lo in range(0, a.size, _AGM_CHUNK):
        hi = min(lo + _AGM_CHUNK, a.size)
        p, q, t = (buf[: hi - lo] for buf in buffers)
        np.add(a[lo:hi], b[lo:hi], out=p)
        np.subtract(a[lo:hi], b[lo:hi], out=q)
        np.sqrt(p, out=p)
        # a - b <= 0 starts q at 0, where the geometric means stay
        np.sqrt(np.maximum(q, 0.0, out=q), out=q)
        for _ in range(_AGM_STEPS - 1):
            np.add(p, q, out=t)
            np.multiply(p, q, out=q)
            np.sqrt(q, out=q)
            np.multiply(t, 0.5, out=p)
        # the last step's arithmetic mean, its halving folded into 4 pi
        np.add(p, q, out=t)
        with np.errstate(divide="ignore"):  # a = b = 0 leaves t = 0
            np.divide(4.0 * math.pi, t, out=flat[lo:hi])
        flat[lo:hi][q == 0.0] = np.inf
    return out


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
            f = np.einsum(
                "lmr,lmz->mrz", grid.eval_modes_at(modes, xr), legendre_table(grid.lvals, xz)
            )
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
    # radius (never targets x sources at once), refilled in place and
    # evaluated _DIRECT_ROWS target zetas at a time.  The cells are the tensor
    # product of the radial and zeta cells (axes: radial cell, zeta cell,
    # radius, zeta), so each radial Gauss point is interpolated once.  The
    # kernel is even under (zeta, zeta') -> (-zeta, -zeta'), and the zeta
    # nodes and cells are mirror images (to rounding), so the rows of zeta < 0
    # are those of zeta >= 0 with the cells mirrored.  One product of the
    # rows of zeta >= 0 with the columns [w, w f, mirrored w, mirrored w f]
    # gives every target's sums over all cells; the near cells' terms, taken
    # from the same rows, are then subtracted.  _kernel_parts' a and b are
    # r^2 + r'^2 - r zeta (2 r' zeta') and r sqrt(1 - zeta^2) (2 r' sqrt(1 - zeta'^2)),
    # with the source factors formed once.
    xr, wr = (x[:, None, :, None] for x in panel_gauss(grid.r[:-1], grid.r[1:]))
    xz, wz = (x[None, :, None, :] for x in panel_gauss(z_edges[:-1], z_edges[1:]))
    w = wr * xr ** 2 * wz
    if source_fn is None:
        pz = legendre_table(grid.lvals, xz[0, :, 0])
        f = np.einsum("lkr,lcz->kcrz", grid.eval_modes_at(modes, xr[:, 0, :, 0]), pz)
    else:
        f = source_fn(xr, xz) * np.ones(w.shape)
    wf = w * f
    cols = np.stack((w, wf, w[:, ::-1, :, ::-1], wf[:, ::-1, :, ::-1]), axis=-1)
    r2, cz, sz = xr ** 2, 2.0 * xr * xz, 2.0 * xr * np.sqrt(1.0 - xz ** 2)
    # row j is the target zeta_h[j] and, mirrored, -zeta_h[j]: the targets of
    # ``half_range`` on the rule and on the rule reversed.  Each column pair's
    # near zeta cells are those of its own target
    n_t = len(grid.zeta_h)
    tz = grid.zeta_h[:, None, None, None, None]
    st = np.sqrt(1.0 - tz ** 2)
    own, mirror = grid.half_range(near_j.T).T, grid.half_range(near_j[::-1, ::-1].T).T
    near_cols = np.stack((own, own, mirror, mirror), axis=-1).astype(float)
    all_cols = cols.reshape(-1, 4)
    acc = np.empty((grid.n_r, grid.n_zeta))
    acc_own, acc_mirror = grid.half_range(acc), grid.half_range(acc[:, ::-1])
    f_own, f_mirror = grid.half_range(f_nodes), grid.half_range(f_nodes[:, ::-1])
    ker = np.empty((n_t,) + cz.shape)
    a_buf, b_buf = np.empty((2, min(_DIRECT_ROWS, n_t)) + cz.shape)
    for i, r in enumerate(grid.r):
        rr2 = r * r + r2
        for lo in range(0, n_t, _DIRECT_ROWS):
            hi = min(lo + _DIRECT_ROWS, n_t)
            a, b = a_buf[: hi - lo], b_buf[: hi - lo]
            np.subtract(rr2, np.multiply(r * tz[lo:hi], cz, out=a), out=a)
            np.multiply(r * st[lo:hi], sz, out=b)
            _kernel_elliptic(a, b, out=ker[lo:hi])
        sums = ker.reshape(n_t, -1) @ all_cols
        near = np.einsum("jkcrz,kcrzq->jcq", ker[:, near_k[i]], cols[near_k[i]])
        sums -= np.einsum("jcq,jcq->jq", near, near_cols)
        # the mirrored targets first: for odd n_zeta both hold zeta = 0
        acc_mirror[i] = sums[:, 3] - f_mirror[i] * sums[:, 2]
        acc_own[i] = sums[:, 1] - f_own[i] * sums[:, 0]

    # near field, level by level over every (target, near cell) pair: a cell
    # that holds its target (closed test, so a target on an edge goes into
    # every cell touching it) splits in four above depth 0; the others are
    # leaves, evaluated _DIRECT_LEAVES at a time
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
        leaf = np.flatnonzero(~split)
        vals = np.empty(len(leaf))
        for lo in range(0, len(leaf), _DIRECT_LEAVES):
            part = leaf[lo : lo + _DIRECT_LEAVES]
            xr, xz, w, f = cell_rule(r_lo[part], r_hi[part], z_lo[part], z_hi[part])
            ker = _kernel_elliptic(
                *_kernel_parts(tr[part, None, None], tz[part, None, None], xr, xz)
            )
            vals[lo : lo + len(part)] = np.sum(
                ker * w * (f - t_f[tgt[part], None, None]), axis=(1, 2)
            )
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
