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
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import lu_factor, lu_solve, svdvals
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


def _packed_rows(grid, k):
    nr = grid.n_r
    return slice(0, nr) if k == 0 else slice(nr + (k - 1) * (nr - 1), nr + k * (nr - 1))


def gravity_jacobian_dense(grid, fp):
    """Packed linearized gravity map from dense (n_r x n_gauss) @ (n_gauss x n_r)
    block products; ``fp`` is rho'(u) on (fine zeta) x (Gauss radius)."""
    coup = np.einsum("la,ap,ma->plm", grid.proj_f, fp, grid.leg_f)
    n = grid.n_r + (grid.n_l - 1) * (grid.n_r - 1)
    jac = np.zeros((n, n))
    for li in range(grid.n_l):
        for lj in range(grid.n_l):
            blk = (grid.kernels[li] * coup[:, li, lj][None, :]) @ grid.interp
            if li == 0:
                blk = blk - blk[0:1, :]
            jac[_packed_rows(grid, li), _packed_rows(grid, lj)] = blk[
                (li > 0):, (lj > 0):
            ]
    return jac


def block_sigma_min_dense(grid, q):
    """Smallest singular value of I - (degree-l block) per even degree l, for
    a spherical state with rho'(u) = ``q`` at the Gauss radii."""
    out = {}
    for k, l in enumerate(grid.lvals):
        blk = (grid.kernels[k] * q[None, :]) @ grid.interp
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


def dense_newton_step(grid, eos, u_center, modes, rhs, b_matrix=None):
    """The packed Newton step (I - J - B)^-1 rhs from an LU of the dense
    Newton matrix, J the linearized gravity map at ``modes`` and B the dense
    centrifugal linearization of a momentum law (None otherwise)."""
    from rotstar.equilibrium import gravity_jacobian_packed, newton_matrix

    mat = newton_matrix(gravity_jacobian_packed(grid, eos, u_center, modes), b_matrix)
    return lu_solve(lu_factor(mat), rhs)


def dm_response_dense(lin):
    """``LinearizedCentrifugal.dm_response`` from the dense (n_gauss x n_r)
    interpolation matrix, one zeta column at a time."""
    grid, rule = lin.grid, lin.rule
    nq = len(rule.varpi)
    rows = np.arange(nq)[:, None]
    x2 = grid.gauss_x ** 2
    out = np.zeros((grid.n_l, nq, grid.n_r))
    for j in range(grid.n_zeta):
        prefix = grid.cumulative((x2 * lin.fp_gauss[:, j])[:, None] * grid.interp)
        col = prefix[rule.kcut[:, j]]
        part = np.einsum(
            "qg,qgs->qs", rule.part_w[:, j] * lin.fp_part[:, j], rule.part_coef[:, j]
        )
        np.add.at(col, (rows, rule.part_stencil[:, j]), part)
        weight = lin.mass_pref * grid.zeta_w[j] * grid.leg[:, j]
        out += weight[:, None, None] * col
    return out


def free_boundary_per_ray(grid, values, r0):
    """Root of each column of ``values`` past r0 on its own cubic spline."""
    R = np.empty(grid.n_zeta)
    for j in range(grid.n_zeta):
        col = values[:, j]
        k = np.nonzero((col[:-1] > 0) & (col[1:] <= 0) & (grid.r[1:] > r0))[0][0]
        R[j] = brentq(CubicSpline(grid.r, col), grid.r[k], grid.r[k + 1], xtol=1e-12)
    return R


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
