"""Tensor grids for axisymmetric, equatorially symmetric fields, and the
one-dimensional routines the package builds on.

A field u(r, zeta) lives on radial nodes times Gauss-Legendre nodes in
zeta = cos(polar angle).  Equatorial symmetry restricts the Legendre
content to even degrees; the grid caches the even-degree transform
tables, a composite 4-point Gauss rule on the radial panels (``panel_gauss``;
``AxiGrid.cumulative`` integrates from the axis on it), the cubic
interpolation from nodes to the radial quadrature points as a 4-node stencil,
and the multipole potential's two-sided radial kernel of each degree in
separable form (``RadialKernel``: prefix and suffix sums over the panels,
with no n_r x n_gauss array).

The 1-D routines are piecewise polynomials (the not-a-knot cubic spline,
PCHIP, and the profile's dense output), the Legendre recurrence and the
cumulative trapezoid, in numpy alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_GAUSS4_X, _GAUSS4_W = np.polynomial.legendre.leggauss(4)


# ---------------------------------------------------------------------------
# one-dimensional building blocks


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting from 0."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def panel_gauss(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of the 4-point Gauss rule on each panel [lo, hi].

    lo and hi broadcast; the rule is the trailing axis of both outputs.
    """
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * _GAUSS4_X, half * _GAUSS4_W


def legendre_table(degrees, x) -> np.ndarray:
    """Table P[k] = P_{degrees[k]}(x) by the three-term recurrence, written
    for the differences d_n = P_n - P_(n-1), which keeps full accuracy near
    x = 1."""
    x = np.asarray(x, dtype=float)
    table = {0: np.ones_like(x), 1: x}
    d, p = x - 1.0, x
    for n in range(2, max(degrees) + 1):
        k = n - 1.0
        d = (2.0 * k + 1.0) / (k + 1.0) * (x - 1.0) * p + k / (k + 1.0) * d
        p = p + d
        table[n] = p
    return np.array([table[l] for l in degrees])


class PiecewisePoly:
    """Piecewise polynomial on increasing breakpoints x.

    On [x_k, x_k+1] the value is sum_m c[m, k] (t - x_k)^(deg - m), so c has
    shape (deg + 1, len(x) - 1, ...) and trailing axes are value axes.  The
    end pieces continue outside [x_0, x_-1].
    """

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x = x
        self.c = c

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        k = np.clip(np.searchsorted(self.x, flat, side="right") - 1, 0, len(self.x) - 2)
        s = (flat - self.x[k]).reshape((-1,) + (1,) * (self.c.ndim - 2))
        # constant term first, then c[m] s^p with the powers built by products
        out = self.c[-1, k]
        power = s
        for m in range(self.c.shape[0] - 2, -1, -1):
            out = out + self.c[m, k] * power
            if m:
                power = power * s
        return out.reshape(t.shape + self.c.shape[2:])

    def at(self, t: float) -> float:
        """The value at one point t of a scalar-valued polynomial: the
        arithmetic of ``__call__`` in the same order, on Python floats, so
        that the result is bitwise the same."""
        k = min(max(bisect_right(self.x, t) - 1, 0), len(self.x) - 2)
        s = t - float(self.x[k])
        c = self.c[:, k].tolist()
        out = c[-1]
        power = s
        for m in range(len(c) - 2, -1, -1):
            out = out + c[m] * power
            if m:
                power = power * s
        return out

    def weighted_sums(self, t: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """out[l, i] = sum_a weights[l, a] f(t[i, a]) for 2-D t.

        Each row of weights is binned per panel and power of (t - x_k) and
        then contracted with the coefficients in one product, so f is never
        formed at the individual points.
        """
        n_i, n_a = t.shape
        deg, npan = self.c.shape[0] - 1, len(self.x) - 1
        flat = t.ravel()
        k = np.clip(np.searchsorted(self.x, flat, side="right") - 1, 0, npan - 1)
        s = flat - self.x[k]
        powers = np.empty((deg + 1, flat.size))  # powers[m] = s^(deg - m)
        powers[deg] = 1.0
        for m in range(deg - 1, -1, -1):
            powers[m] = powers[m + 1] * s
        rows = np.repeat(np.arange(n_i) * (deg + 1), n_a)
        bins = ((rows + np.arange(deg + 1)[:, None]) * npan + k).ravel()
        size = n_i * (deg + 1) * npan
        coef = self.c.reshape((deg + 1) * npan, -1)
        out = np.empty((len(weights), n_i, coef.shape[1]))
        # one row at a time, so that only one row's bins are held
        for row, w in zip(out, weights):
            binned = np.bincount(bins, (powers * np.tile(w, n_i)).ravel(), minlength=size)
            np.matmul(binned.reshape(n_i, (deg + 1) * npan), coef, out=row)
            del binned
        return out.reshape((len(weights), n_i) + self.c.shape[2:])

    def derivative(self) -> "PiecewisePoly":
        deg = self.c.shape[0] - 1
        powers = np.arange(deg, 0, -1, dtype=float).reshape((-1,) + (1,) * (self.c.ndim - 1))
        return PiecewisePoly(self.x, self.c[:-1] * powers)


def _hermite_cubic(x, y, dydx) -> PiecewisePoly:
    """Cubic through values y and slopes dydx at x, along axis 0."""
    dxr = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dxr
    c = np.stack((t / dxr, (slope - dydx[:-1]) / dxr - t, dydx[:-1], y[:-1]))
    return PiecewisePoly(x, c)


def cubic_spline(x, y) -> PiecewisePoly:
    """Not-a-knot cubic spline through (x, y) along axis 0 of y.

    The slopes solve the usual tridiagonal system, by elimination without
    pivoting: past the first row every pivot is positive.  The third
    derivative is continuous across x_1 and x_-2.  Needs at least 4 nodes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 4:
        raise DomainError("a not-a-knot spline needs at least 4 nodes")
    dx = np.diff(x)
    dxr = dx.reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    # row i: lower[i - 1] s[i - 1] + diag[i] s[i] + upper[i] s[i + 1] = b[i]
    lower, diag, upper = np.empty(n - 1), np.empty(n), np.empty(n - 1)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper[1:] = dx[:-1]
    lower[:-1] = dx[1:]
    b = np.empty_like(y)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = x[2] - x[0]
    diag[0] = dx[1]
    upper[0] = d
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1] = dx[-2]
    lower[-1] = d
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    # Thomas elimination in the operation order of LAPACK's banded solve:
    # where that swaps no rows, as on the grids' nodes, the slopes are
    # bitwise scipy's.  The rows are Python floats for 1-D data, and views
    # of b, updated in place, otherwise.
    piv, up, low = diag.tolist(), upper.tolist(), lower.tolist()
    rows = b.tolist() if b.ndim == 1 else list(b)
    for i in range(1, n):
        mult = low[i - 1] / piv[i - 1]
        piv[i] -= mult * up[i - 1]
        rows[i] -= mult * rows[i - 1]
    rows[-1] /= piv[-1]
    for i in range(n - 2, -1, -1):
        rows[i] -= up[i] * rows[i + 1]
        rows[i] /= piv[i]
    return _hermite_cubic(x, y, np.array(rows))


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """One-sided three-point end slope, limited to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y) -> PiecewisePoly:
    """Monotone piecewise-cubic interpolant of 1-D data (Fritsch & Carlson,
    SIAM J. Numer. Anal. 17, 238, 1980): interior slopes are the weighted
    harmonic mean of the neighbouring secants, or 0 at a local extremum."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    dk = np.zeros_like(y)
    if len(x) == 2:
        dk[:] = m[0]
        return _hermite_cubic(x, y, dk)
    smooth = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    dk[1:-1][smooth] = 1.0 / whmean[smooth]
    dk[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    dk[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return _hermite_cubic(x, y, dk)


# ---------------------------------------------------------------------------
# grids


def clustered_nodes(
    r_max: float,
    n: int,
    *,
    axis_weight: float = 2.0,
    axis_width: float = 0.05,
    focus: float | None = None,
    focus_weight: float = 5.0,
    focus_width: float = 0.03,
) -> np.ndarray:
    """Monotone nodes on [0, r_max] with extra density near 0 and near ``focus``.

    Widths are fractions of r_max.  The map is the inverse CDF of a smooth
    density, so spacings vary smoothly (good for local cubic interpolation).
    """
    if n < 8:
        raise DomainError("need at least 8 radial nodes")
    t = np.linspace(0.0, 1.0, 8 * n + 1)
    dens = np.ones_like(t)
    dens += axis_weight * np.exp(-0.5 * (t / axis_width) ** 2)
    if focus is not None:
        if not (0.0 < focus < r_max):
            raise DomainError("focus must lie strictly inside (0, r_max)")
        dens += focus_weight * np.exp(-0.5 * ((t - focus / r_max) / focus_width) ** 2)
    cdf = cumulative_trapezoid(dens, t)
    cdf /= cdf[-1]
    nodes = np.interp(np.linspace(0.0, 1.0, n), cdf, t) * r_max
    nodes[0] = 0.0
    nodes[-1] = r_max
    return nodes


def interp_stencil(
    nodes: np.ndarray, points: np.ndarray, width: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Stencil columns and Lagrange weights of local-cubic interpolation.

    Each point uses the ``width`` nodes around the panel holding it (shifted
    inward at the ends).  Returns ``(cols, weights)``, both (n_points, width):
    the node indices of each point's stencil and the weights on them.
    """
    nodes = np.asarray(nodes, dtype=float)
    points = np.asarray(points, dtype=float)
    n = len(nodes)
    idx = np.clip(np.searchsorted(nodes, points) - 1, 0, n - 2)
    s0 = np.minimum(np.maximum(idx - (width // 2 - 1), 0), n - width)
    cols = s0[:, None] + np.arange(width)
    stencil = nodes[cols]
    # factors [p, s, m] of the weight of node s: x - x_m and x_s - x_m, with
    # the exact factor 1 at m = s; multiplied in ascending m as in the scalar
    # product formula, so the weights do not depend on the batch
    own = np.eye(width, dtype=bool)
    dx = np.where(own, 1.0, (points[:, None] - stencil)[:, None, :])
    dn = np.where(own, 1.0, stencil[:, :, None] - stencil[:, None, :])
    num = 1.0
    den = 1.0
    for m in range(width):
        num = num * dx[:, :, m]
        den = den * dn[:, :, m]
    return cols, num / den


def interp_matrix(nodes: np.ndarray, points: np.ndarray, width: int = 4) -> np.ndarray:
    """Dense matrix mapping nodal values to local-cubic values at ``points``;
    row p holds the weights of ``interp_stencil`` at its stencil columns."""
    cols, weights = interp_stencil(nodes, points, width)
    mat = np.zeros((len(cols), len(nodes)))
    mat[np.arange(len(cols))[:, None], cols] = weights
    return mat


def derivative_stencil(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stencil columns and weights of d/dr at the nodes themselves.

    Node i differentiates the cubic through nodes i - 1 .. i + 2 (shifted
    inward at the ends), by the barycentric rule; its own weight is minus the
    sum of the others, so constants have derivative 0.  Same layout as
    ``interp_stencil``.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    rows = np.arange(n)
    s0 = np.clip(rows - 1, 0, n - 4)
    cols = s0[:, None] + np.arange(4)
    stencil = nodes[cols]
    own = np.eye(4, dtype=bool)
    lam = 1.0 / np.prod(np.where(own, 1.0, stencil[:, :, None] - stencil[:, None, :]), axis=2)
    at = rows - s0  # position of node i in its stencil
    with np.errstate(divide="ignore"):
        weights = lam / lam[rows, at, None] / (nodes[:, None] - stencil)
    weights[rows, at] = 0.0
    weights[rows, at] = -weights.sum(axis=1)
    return cols, weights


def apply_stencil(cols: np.ndarray, weights: np.ndarray, values, axis: int = -1) -> np.ndarray:
    """sum_s weights[p, s] values[cols[p, s]] along the radial ``axis`` of
    ``values``: -1 for mode arrays (n_l, n_r), 0 for nodal fields (n_r, ...)."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    return np.moveaxis(np.einsum("...ps,ps->...p", v[..., cols], weights), -1, axis)


# Within one chunk of panels no node factor of ``RadialKernel`` exceeds 1e150,
# so no scaled power overflows, and a term that underflows in its chunk's
# scale is below 1e-158 of its weight.
_CHUNK_LOG = 150.0 * np.log(10.0)

# Interpolation to the Gauss points reads the 4 stencil nodes of a point's
# panel, and the stencils shift inward at both ends, so node c is read only by
# the Gauss points of panels c-3 .. c+2: a window of 24 points starting at
# Gauss point 4c - 12.
_PER_PANEL = 4
_LEAD = 12
_WINDOW = 24

def _windows(a: np.ndarray, width: int) -> np.ndarray:
    """Sliding windows along axis 0 of ``a``, one per node, the window axis
    last: ``a`` holds ``_PER_PANEL`` rows per panel plus ``width - _PER_PANEL``
    rows of padding."""
    return np.lib.stride_tricks.sliding_window_view(a, width, axis=0)[::_PER_PANEL]


class RadialKernel:
    """The two-sided radial Green's function of each degree l, in separable form.

    For nodes r_i and panel Gauss points x_p with weights w_p, 4 to a panel,
    the degree-l kernel couples a source value at x_p to the potential at r_i:
        K[i, p] = w_p x_p / (2l + 1) (x_p / r_i)^(l + 1)   for x_p < r_i,
        K[i, p] = w_p x_p / (2l + 1) (r_i / x_p)^l         for x_p > r_i.
    No Gauss point sits on a node, so row i splits at the node into an inner
    part over the panels below i and an outer part over the panels from i up,
    each a running sum over panels: the one-dimensional form of Greengard and
    Rokhlin (J. Comput. Phys. 73, 325, 1987).  The powers are scaled per chunk
    of panels, the inner ones by the chunk's largest Gauss point rho and the
    outer ones by its smallest sigma, and a chunk ends before a node factor
    (rho / r_i)^(l + 1) or (r_i / sigma)^l passes 1e150.  Sums move from chunk
    to chunk by the ratios (rho_a / rho_b)^(l + 1) and (sigma_b / sigma_a)^l,
    both <= 1.  Nothing n_r x n_gauss is held.

    ``cols`` and ``weights`` are the local-cubic stencil from the nodes to the
    Gauss points (``interp_stencil``), which ``generators`` composes with K.
    """

    def __init__(self, r, x, w, lvals, cols: np.ndarray, weights: np.ndarray):
        r = np.asarray(r, dtype=float)
        x = np.asarray(x, dtype=float)
        lv = np.asarray(lvals, dtype=float)[:, None]
        self.n_r = n_r = len(r)
        n_p = n_r - 1
        bottom, top = x[::_PER_PANEL], x[_PER_PANEL - 1 :: _PER_PANEL]
        l_max = float(lv.max())
        # chunks of panels [j0, j1), greedily as long as the node factors allow
        bounds = [0]
        while bounds[-1] < n_p:
            j0 = bounds[-1]
            j1 = np.searchsorted(top, r[j0 + 1] * np.exp(_CHUNK_LOG / (l_max + 1)), "right")
            if l_max > 0:
                reach = bottom[j0] * np.exp(_CHUNK_LOG / l_max)
                j1 = min(j1, np.searchsorted(r[:n_p], reach, "right"))
            bounds.append(int(j1))
        self.bounds = bounds
        chunk = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))  # per panel
        rho, sigma = top[np.array(bounds[1:]) - 1], bottom[bounds[:-1]]
        e_in, e_out = lv + 1.0, lv
        wx = w * x / (2.0 * lv + 1.0)
        self.k_in = wx * (x / np.repeat(rho[chunk], _PER_PANEL)) ** e_in
        self.k_out = wx * (np.repeat(sigma[chunk], _PER_PANEL) / x) ** e_out
        # node factors: the inner part of node i lies in the chunk of panel
        # i - 1, its outer part in the chunk of panel i
        self.f_in = np.zeros((len(lv), n_r))
        self.f_in[:, 1:] = (rho[chunk] / r[1:]) ** e_in
        self.f_out = np.zeros((len(lv), n_r))
        self.f_out[:, :-1] = (r[:-1] / sigma[chunk]) ** e_out
        # from chunk a to chunk b: c_in[k, a, b] for a <= b, c_out[k, a, b]
        # for a >= b (the other entries are finite and never used)
        up = np.arange(len(rho))[:, None] <= np.arange(len(rho))
        self.c_in = np.where(up, rho[:, None] / rho, 0.0) ** e_in[:, :, None]
        self.c_out = np.where(up.T, sigma / sigma[:, None], 0.0) ** e_out[:, :, None]
        # the chunk of each node's inner and outer parts (panels i - 1 and i)
        # and of each column's generators beta and delta (panels c + 2 and
        # c - 3, see ``generators``)
        node = np.arange(n_r)
        self.q_in, self.q_out, self.q_beta, self.q_delta = (
            chunk[np.clip(node + d, 0, n_p - 1)] for d in (-1, 0, 2, -3)
        )
        self.lvals = lv[:, 0]
        self.ratio = r[:-1] / r[1:]
        # wn[c, t]: interpolation weight of node c at Gauss point 4c - 12 + t
        t = np.arange(len(x))[:, None] + _LEAD - _PER_PANEL * cols
        self.window = np.zeros((n_r, _WINDOW))
        self.window[cols, t] = weights

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """sum_p K_l[i, p] samples[l, p]: source mode samples at the Gauss
        points -> potential mode values at the nodes, shape (n_l, n_r)."""
        n_l, n_r = self.f_in.shape
        s = np.asarray(samples, dtype=float)
        inner = (self.k_in * s).reshape(n_l, n_r - 1, _PER_PANEL).sum(axis=2)
        outer = (self.k_out * s).reshape(n_l, n_r - 1, _PER_PANEL).sum(axis=2)
        out = np.zeros((n_l, n_r))
        spans = list(zip(self.bounds[:-1], self.bounds[1:]))
        carry = np.zeros(n_l)
        for q, (j0, j1) in enumerate(spans):
            part = np.cumsum(inner[:, j0:j1], axis=1)
            part += carry[:, None]
            out[:, j0 + 1 : j1 + 1] = self.f_in[:, j0 + 1 : j1 + 1] * part
            if j1 < n_r - 1:
                carry = part[:, -1] * self.c_in[:, q, q + 1]
        carry = np.zeros(n_l)
        for q in range(len(spans) - 1, -1, -1):
            j0, j1 = spans[q]
            part = np.cumsum(outer[:, j1 - 1 : (j0 - 1 if j0 else None) : -1], axis=1)
            part += carry[:, None]
            out[:, j0:j1] += self.f_out[:, j0:j1] * part[:, ::-1]
            if q:
                carry = part[:, -1] * self.c_out[:, q, q - 1]
        return out

    def apply_transpose(self, values: np.ndarray) -> np.ndarray:
        """The transpose of ``apply``: out[l, p] = sum_i K_l[i, p] values[l, i],
        node values (n_l, n_r) -> Gauss samples (n_l, n_gauss).

        The running sums of ``apply`` run the other way with the same chunk
        carries: the inner part of panel j sums the nodes above it, a suffix
        sum from the last chunk down, and its outer part the nodes from its
        chunk's first up to j, a prefix sum from the first chunk up.
        """
        n_l, n_r = self.f_in.shape
        v = np.asarray(values, dtype=float)
        a, b = self.f_in * v, self.f_out * v
        inner, outer = np.empty((2, n_l, n_r - 1))
        spans = list(zip(self.bounds[:-1], self.bounds[1:]))
        carry = np.zeros(n_l)
        for q in range(len(spans) - 1, -1, -1):
            j0, j1 = spans[q]
            part = np.cumsum(a[:, j1:j0:-1], axis=1)  # nodes j1 down to j0 + 1
            part += carry[:, None]
            inner[:, j0:j1] = part[:, ::-1]
            if q:
                carry = part[:, -1] * self.c_in[:, q - 1, q]
        carry = np.zeros(n_l)
        for q, (j0, j1) in enumerate(spans):
            part = np.cumsum(b[:, j0:j1], axis=1)
            part += carry[:, None]
            outer[:, j0:j1] = part
            if j1 < n_r - 1:
                carry = part[:, -1] * self.c_out[:, q + 1, q]
        out = self.k_in.reshape(n_l, n_r - 1, _PER_PANEL) * inner[:, :, None]
        out += self.k_out.reshape(n_l, n_r - 1, _PER_PANEL) * outer[:, :, None]
        return out.reshape(n_l, -1)

    def generators(self, k: int, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The generators of the blocks K_k @ diag(coef[:, j]) @ (the
        interpolation to the Gauss points), one block per column j of
        ``coef``: (beta, delta, band), shapes (n_j, n_r), (n_j, n_r) and
        (n_j, 5, n_r).  ``entries`` reads the blocks from them.

        Column c reads only the Gauss points of panels c-3 .. c+2.  So rows
        i >= c+3 hold all of it in their inner part, the rank-1 product
        f_in[i] beta[c] (times the ratio between their chunks), and rows
        i <= c-3 all of it in their outer part, f_out[i] delta[c].  The 5
        rows in between are exact partial sums over those panels, band[d, c]
        in row c + d - 2: each panel sum is taken at its nearest node and
        carried from node to node by (r_(m-1) / r_m)^(l + 1) and
        (r_m / r_(m+1))^l.
        """
        n_r, n_j = self.n_r, coef.shape[1]
        l = self.lvals[k]
        # inner and outer sums of each column over its 6 panels, (c, e, 2 n_j)
        g = np.zeros((len(coef) + 2 * _LEAD, 2, n_j))
        np.multiply(self.k_in[k, :, None], coef, out=g[_LEAD:-_LEAD, 0])
        np.multiply(self.k_out[k, :, None], coef, out=g[_LEAD:-_LEAD, 1])
        g = _windows(g.reshape(len(g), 2 * n_j), _WINDOW).reshape(n_r, 2 * n_j, 6, _PER_PANEL)
        sums = np.matmul(g.transpose(0, 2, 1, 3), self.window.reshape(n_r, 6, _PER_PANEL, 1))
        sums = sums[..., 0]
        # node tables padded by 3, so that [d : d + n_r] is node c - 3 + d
        f_in, f_out, step_in, step_out = np.zeros((4, n_r + 6))
        f_in[3:-3], f_out[3:-3] = self.f_in[k], self.f_out[k]
        step_in[4:-3] = self.ratio ** (l + 1)
        step_out[3:-4] = self.ratio ** l

        def at(table, d):
            return table[d : d + n_r, None]

        # inner sums at nodes c-3+d (none at c-3), outer sums (none at c+3);
        # panel c-3+e lies between nodes c-3+e and c-2+e
        inner = np.zeros((7, n_r, n_j))
        outer = np.zeros((7, n_r, n_j))
        for d in range(1, 7):
            inner[d] = at(step_in, d) * inner[d - 1] + at(f_in, d) * sums[:, d - 1, :n_j]
        for d in range(5, -1, -1):
            outer[d] = at(step_out, d) * outer[d + 1] + at(f_out, d) * sums[:, d, n_j:]
        # the generators, in their chunk's scale; 0 past the ends
        beta = (inner[6] / np.where(at(f_in, 6) > 0, at(f_in, 6), np.inf)).T
        delta = (outer[0] / np.where(at(f_out, 0) > 0, at(f_out, 0), np.inf)).T
        return beta, delta, (inner[1:6] + outer[1:6]).transpose(2, 0, 1)

    def entries(self, k: int, beta, delta, band, rows, cols) -> np.ndarray:
        """Entries (rows, cols) of the degree-k block with generators
        (beta, delta, band) of ``generators``; the index arrays broadcast,
        leading axes of the generators are kept, and entries outside the
        n_r nodes are 0."""
        n_r = self.n_r
        d = rows - cols
        below = d >= 3
        r, c = np.minimum(rows, n_r - 1), np.minimum(cols, n_r - 1)
        out = np.where(below, self.f_in[k, r] * beta[..., c], self.f_out[k, r] * delta[..., c])
        if len(self.bounds) > 2:
            # generators and rows in different chunks: the ratio between them
            out *= np.where(below, self.c_in[k][self.q_beta[c], self.q_in[r]],
                            self.c_out[k][self.q_delta[c], self.q_out[r]])
        near = np.abs(d) <= 2
        out[..., near] = band[..., d[near] + 2, np.broadcast_to(c, d.shape)[near]]
        if np.max(rows) >= n_r or np.max(cols) >= n_r:
            out[..., (rows >= n_r) | (cols >= n_r)] = 0.0
        return out


class AxiGrid:
    """Discretization of [0, r_inf] x [-1, 1] with even-Legendre mode tables."""

    def __init__(self, r_nodes: np.ndarray, n_zeta: int, l_max: int):
        r_nodes = np.asarray(r_nodes, dtype=float)
        if r_nodes[0] != 0.0 or np.any(np.diff(r_nodes) <= 0):
            raise DomainError("radial nodes must start at 0 and strictly increase")
        if l_max % 2 != 0 or l_max < 0:
            raise DomainError("l_max must be a nonnegative even integer")
        if n_zeta < l_max + 1:
            raise DomainError("need n_zeta >= l_max + 1 for quadrature exactness")
        self.r = r_nodes
        self.n_r = len(r_nodes)
        self.r_inf = float(r_nodes[-1])
        self.l_max = int(l_max)
        self.lvals = np.arange(0, l_max + 1, 2)
        self.n_l = len(self.lvals)

        self.zeta, self.zeta_w = np.polynomial.legendre.leggauss(n_zeta)
        self.n_zeta = n_zeta
        # table P[k, j] = P_{l_k}(zeta_j)
        self.leg = legendre_table(self.lvals, self.zeta)

        self.zeta_f, self.zeta_fw = np.polynomial.legendre.leggauss(2 * n_zeta)
        self.leg_f = legendre_table(self.lvals, self.zeta_f)
        # projection onto even modes, on the grid's rule and on the fine rule
        self.proj = (2.0 * self.lvals[:, None] + 1.0) / 2.0 * self.zeta_w[None, :] * self.leg
        self.proj_f = (
            (2.0 * self.lvals[:, None] + 1.0) / 2.0 * self.zeta_fw[None, :] * self.leg_f
        )

        # composite 4-point Gauss rule on the radial panels
        x, w = panel_gauss(self.r[:-1], self.r[1:])
        self.gauss_x, self.gauss_w = x.ravel(), w.ravel()
        self.n_gauss = len(self.gauss_x)

        # the interpolation to the Gauss points: 4 nonzeros per row, shared by
        # the Gauss points of a panel
        self.interp_cols, self.interp_weights = interp_stencil(self.r, self.gauss_x)

        # the multipole potential's radial kernel of each degree
        self.kernel = RadialKernel(
            self.r, self.gauss_x, self.gauss_w, self.lvals,
            self.interp_cols, self.interp_weights,
        )

    @classmethod
    def build(
        cls,
        r_inf: float,
        n_r: int = 256,
        n_zeta: int = 32,
        l_max: int = 8,
        *,
        focus: float | None = None,
        focus_weight: float = 5.0,
        focus_width: float = 0.03,
    ) -> "AxiGrid":
        nodes = clustered_nodes(
            r_inf, n_r, focus=focus, focus_weight=focus_weight, focus_width=focus_width
        )
        return cls(nodes, n_zeta, l_max)

    # -- radial quadrature ----------------------------------------------

    def cumulative(self, vals: np.ndarray) -> np.ndarray:
        """int_0^{r_i} f dr at every node, for f sampled at ``gauss_x`` along
        axis 0; trailing axes are kept."""
        vals = np.asarray(vals, dtype=float)
        w = self.gauss_w.reshape((-1,) + (1,) * (vals.ndim - 1))
        panels = (w * vals).reshape((self.n_r - 1, 4) + vals.shape[1:]).sum(axis=1)
        out = np.zeros((self.n_r,) + vals.shape[1:])
        np.cumsum(panels, axis=0, out=out[1:])
        return out

    # -- mode transforms -------------------------------------------------

    def project(self, values: np.ndarray) -> np.ndarray:
        """Even-Legendre coefficients f_l(r_i) from grid values (n_r, n_zeta)."""
        return np.einsum("kj,ij->ki", self.proj, values)

    def synthesize(self, modes: np.ndarray) -> np.ndarray:
        """Grid values (n_r, n_zeta) from mode coefficients (n_l, n_r)."""
        return np.einsum("ki,kj->ij", modes, self.leg)

    def at_gauss(self, values: np.ndarray, axis: int = -1) -> np.ndarray:
        """Interpolate onto the panel Gauss points along the radial ``axis``
        (-1 for modes, 0 for nodal fields), on the 4-node stencil."""
        return apply_stencil(self.interp_cols, self.interp_weights, values, axis)

    def at_gauss_transpose(self, samples: np.ndarray) -> np.ndarray:
        """The transpose of ``at_gauss`` on mode arrays: Gauss samples
        (n_l, n_gauss) -> node values (n_l, n_r), each sample added onto the
        4 nodes of its stencil."""
        n_l = len(samples)
        rows = np.arange(n_l)[:, None, None] * self.n_r
        vals = np.asarray(samples, dtype=float)[:, :, None] * self.interp_weights
        out = np.bincount((rows + self.interp_cols).ravel(), vals.ravel(), minlength=n_l * self.n_r)
        return out.reshape(n_l, self.n_r)

    def fine_field_at_gauss(self, modes: np.ndarray) -> np.ndarray:
        """Field values on (fine zeta) x (gauss radius), shape (n_fine, n_gauss)."""
        return self.leg_f.T @ self.at_gauss(modes)

    def project_fine(self, values_fine: np.ndarray) -> np.ndarray:
        """Mode coefficients from values on the fine zeta rule (any radial set)."""
        return self.proj_f @ values_fine

    def potential_modes_from_gauss(self, source_modes_gauss: np.ndarray) -> np.ndarray:
        """Radial multipole integrals: source mode samples at Gauss points ->
        potential mode values at the nodes."""
        return self.kernel.apply(source_modes_gauss)

    def eval_modes_at(self, modes: np.ndarray, r_query: np.ndarray) -> np.ndarray:
        """Local-cubic evaluation of mode functions at arbitrary radii."""
        r_query = np.atleast_1d(np.asarray(r_query, dtype=float))
        mat = interp_matrix(self.r, r_query)
        return modes @ mat.T


@dataclass
class AxiField:
    """An equatorially symmetric axisymmetric field sampled on an AxiGrid."""

    grid: AxiGrid
    values: np.ndarray
    _modes: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_r, self.grid.n_zeta):
            raise DomainError(
                f"field shape {self.values.shape} does not match grid "
                f"({self.grid.n_r}, {self.grid.n_zeta})"
            )

    @classmethod
    def zeros(cls, grid: AxiGrid) -> "AxiField":
        return cls(grid, np.zeros((grid.n_r, grid.n_zeta)))

    @classmethod
    def from_function(cls, grid: AxiGrid, fn) -> "AxiField":
        """Sample fn(r, zeta) on the positive-zeta half and mirror it, so the
        stored values are exactly equatorially symmetric."""
        vals = np.empty((grid.n_r, grid.n_zeta))
        half = grid.n_zeta // 2
        rr = grid.r[:, None]
        zz = grid.zeta[None, half:]
        vals[:, half:] = fn(rr, zz)
        vals[:, :half] = vals[:, : -half - 1 : -1]
        vals[0, :] = vals[0, -1]
        return cls(grid, vals)

    @classmethod
    def from_modes(cls, grid: AxiGrid, modes: np.ndarray) -> "AxiField":
        modes = np.asarray(modes, dtype=float)
        f = cls(grid, grid.synthesize(modes))
        f._modes = modes.copy()
        return f

    def modes(self) -> np.ndarray:
        if self._modes is None:
            self._modes = self.grid.project(self.values)
        return self._modes

    def validate(self, tol: float = 1e-12) -> None:
        """Check equatorial symmetry and a constant center value."""
        scale = max(1.0, float(np.max(np.abs(self.values))))
        asym = np.max(np.abs(self.values - self.values[:, ::-1]))
        if asym > tol * scale:
            raise DomainError(f"field is not equatorially symmetric (dev {asym:.2e})")
        cdev = np.max(np.abs(self.values[0] - self.values[0, 0]))
        if cdev > tol * scale:
            raise DomainError(f"center value varies with zeta (dev {cdev:.2e})")

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __add__(self, other: "AxiField") -> "AxiField":
        return AxiField(self.grid, self.values + other.values)

    def __sub__(self, other: "AxiField") -> "AxiField":
        return AxiField(self.grid, self.values - other.values)

    def __rmul__(self, scalar: float) -> "AxiField":
        return AxiField(self.grid, float(scalar) * self.values)
