"""Spherically symmetric profiles: the hydrostatic ODE and its first zero,
the nonrotating base solution.

The profile theta solves

    -(1/r^2) d/dr (r^2 dtheta/dr) = scaled_density(theta),  theta(0) = 1,

with a regular center.  Past the first zero xi1 the density vanishes, so the
same integration continues theta as the harmonic tail -mu1 (1/xi1 - 1/r).

The adaptive Dormand-Prince steps (``_dp_steps``) and their quintic Hermite
dense output (``_quintic_hermite``) are the package's one ODE integrator;
``perturb.mode_shooting`` integrates the linear mode ODE with them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eos import EquationOfState, scaled_density
from .errors import DomainError, NoZeroFound, StepFailure
from .grids import PiecewisePoly, clustered_nodes

_SERIES_CUT = 1e-4  # switch radius between the center series and the ODE


@dataclass(frozen=True)
class RadialProfile:
    """A solved spherical profile on clustered nodes, with dense evaluation."""

    eos: EquationOfState
    u_center: float
    r_nodes: np.ndarray
    theta: np.ndarray
    dtheta: np.ndarray
    psi: np.ndarray
    xi1: float
    mu1: float
    r_inf: float
    _dense: object = field(repr=False, compare=False, default=None)

    def theta_at(self, r):
        return self._eval(r, 0)

    def psi_at(self, r):
        """psi = -dtheta/dr, positive away from the center."""
        return -self._eval(r, 1)

    def _eval(self, r, comp):
        if isinstance(r, float):
            return self._eval_scalar(r, comp)
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if np.any(r < 0) or np.any(r > self.r_inf * (1 + 1e-12)):
            raise DomainError("radius outside [0, r_inf]")
        out = np.empty_like(r)
        small = r < _SERIES_CUT
        f1 = scaled_density(1.0, self.eos, self.u_center)
        if comp == 0:
            out[small] = 1.0 - f1 * r[small] ** 2 / 6.0
        else:
            out[small] = -f1 * r[small] / 3.0
        if np.any(~small):
            out[~small] = self._dense[comp](np.minimum(r[~small], self.r_inf))
        return float(out[0]) if scalar else out

    def _eval_scalar(self, r: float, comp: int) -> float:
        """``_eval`` at one radius, as at every stage of an ODE step: the same
        arithmetic in the same order on Python floats, about 15 times faster
        than the masked array path."""
        if r < 0 or r > self.r_inf * (1 + 1e-12):
            raise DomainError("radius outside [0, r_inf]")
        if r < _SERIES_CUT:
            f1 = scaled_density(1.0, self.eos, self.u_center)
            return float(1.0 - f1 * (r * r) / 6.0 if comp == 0 else -f1 * r / 3.0)
        return float(self._dense[comp].at(min(r, self.r_inf)))

# Dormand & Prince (1980, J. Comput. Appl. Math. 6, 19), RK5(4)7M: stage
# nodes, stage rows (the last row is the 5th-order solution, so the last stage
# is the next step's first) and the weights of the 5th-minus-4th-order error.
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _dp_step(accel, r, u, v, a, h):
    """One Dormand-Prince step of u'' = accel(r, u, u') from (r, u, u', u'');
    returns the 5th-order (u, u', u'') at r + h and the two error estimates.

    The stage sums are written out term by term, in the tables' order and
    with their zero weights, on the Python floats of the trail: stage i has
    the values u_i, v_i and the acceleration a_i.
    """
    c2, c3, c4, c5, c6, c7 = _DP_C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), row6, row7 = _DP_A
    a61, a62, a63, a64, a65 = row6
    a71, a72, a73, a74, a75, a76 = row7
    e1, e2, e3, e4, e5, e6, e7 = _DP_E
    v1, a1 = v, a
    u2 = u + h * (a21 * v1)
    v2 = v + h * (a21 * a1)
    a2 = accel(r + c2 * h, u2, v2)
    u3 = u + h * (a31 * v1 + a32 * v2)
    v3 = v + h * (a31 * a1 + a32 * a2)
    a3 = accel(r + c3 * h, u3, v3)
    u4 = u + h * (a41 * v1 + a42 * v2 + a43 * v3)
    v4 = v + h * (a41 * a1 + a42 * a2 + a43 * a3)
    a4 = accel(r + c4 * h, u4, v4)
    u5 = u + h * (a51 * v1 + a52 * v2 + a53 * v3 + a54 * v4)
    v5 = v + h * (a51 * a1 + a52 * a2 + a53 * a3 + a54 * a4)
    a5 = accel(r + c5 * h, u5, v5)
    u6 = u + h * (a61 * v1 + a62 * v2 + a63 * v3 + a64 * v4 + a65 * v5)
    v6 = v + h * (a61 * a1 + a62 * a2 + a63 * a3 + a64 * a4 + a65 * a5)
    a6 = accel(r + c6 * h, u6, v6)
    u7 = u + h * (a71 * v1 + a72 * v2 + a73 * v3 + a74 * v4 + a75 * v5 + a76 * v6)
    v7 = v + h * (a71 * a1 + a72 * a2 + a73 * a3 + a74 * a4 + a75 * a5 + a76 * a6)
    a7 = accel(r + c7 * h, u7, v7)
    eu = h * (e1 * v1 + e2 * v2 + e3 * v3 + e4 * v4 + e5 * v5 + e6 * v6 + e7 * v7)
    ev = h * (e1 * a1 + e2 * a2 + e3 * a3 + e4 * a4 + e5 * a5 + e6 * a6 + e7 * a7)
    return u7, v7, a7, eu, ev


def _dp_steps(accel, trail, r_end, tol, stop_at_zero=False):
    """Extend ``trail`` = lists (r, u, u', u'') by adaptive Dormand-Prince
    steps up to r_end, or only to the end of the first step that takes u
    from > 0 to <= 0.

    The local error of each step is held to tol relative (tol * 1e-2
    absolute) in the RMS norm over (u, u').
    """
    rs, us, vs, acs = trail
    r, u, v, a = rs[-1], us[-1], vs[-1], acs[-1]
    atol = tol * 1e-2
    h = r
    while r < r_end:
        h = min(h, r_end - r)
        uu, vv, aa, eu, ev = _dp_step(accel, r, u, v, a, h)
        eu /= atol + tol * max(abs(u), abs(uu))
        ev /= atol + tol * max(abs(v), abs(vv))
        err = math.sqrt(0.5 * (eu * eu + ev * ev))
        if not math.isfinite(err) or h < 1e-13 * r:
            raise StepFailure(f"ODE integration failed at r={r:.6g} (step {h:.3e})")
        if err <= 1.0:
            r, u, v, a = r + h, uu, vv, aa
            rs.append(r)
            us.append(u)
            vs.append(v)
            acs.append(a)
            if stop_at_zero and us[-2] > 0.0 >= u:
                return
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0.0 else 5.0


def _quintic_hermite(trail) -> PiecewisePoly:
    """Quintic through u, u', u'' at both ends of every step: O(h^6) error
    in u and O(h^5) in u' on a step of length h."""
    r, u, v, a = (np.asarray(col) for col in trail)
    h = np.diff(r)
    du = u[1:] - (u[:-1] + h * (v[:-1] + 0.5 * h * a[:-1]))
    dv = h * (v[1:] - (v[:-1] + h * a[:-1]))
    da = h * h * (a[1:] - a[:-1])
    c = np.stack((
        (12.0 * du - 6.0 * dv + da) / (2.0 * h ** 5),
        (7.0 * dv - 15.0 * du - da) / h ** 4,
        (20.0 * du - 8.0 * dv + da) / (2.0 * h ** 3),
        0.5 * a[:-1],
        v[:-1],
        u[:-1],
    ))
    return PiecewisePoly(r, c)


def _land_on_zero(accel, trail) -> float | None:
    """Find the first + to - crossing of u and put a node on it.

    The zero is bisected on the crossing step's quintic, and the step is
    redone up to it, so the kink of the density lies on a node and the
    pieces on both sides are smooth.  Returns None if u does not cross.
    """
    rs, us, vs, acs = trail
    if len(us) < 2 or not us[-2] > 0.0 >= us[-1]:
        return None
    theta = _quintic_hermite([col[-2:] for col in trail])
    lo, hi = rs[-2], rs[-1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if theta(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    xi1 = 0.5 * (lo + hi)
    for col in trail:
        col.pop()
    u, v, a, _, _ = _dp_step(accel, rs[-1], us[-1], vs[-1], acs[-1], xi1 - rs[-1])
    rs.append(xi1)
    us.append(u)
    vs.append(v)
    acs.append(a)
    return xi1


def solve_lane_emden(
    eos: EquationOfState,
    u_center: float = 1.0,
    r_inf: float | None = None,
    tol: float = 1e-13,
    n_nodes: int = 600,
) -> RadialProfile:
    """Integrate the hydrostatic ODE, locate the first zero, extend harmonically.

    Parameters
    ----------
    eos, u_center : equation of state and central enthalpy (the white dwarf
        correction depends on u_center; the exact gamma-law does not).
    r_inf : outer radius of the returned profile.  Defaults to 1.5 * xi1,
        continuing the same integration past the zero.  If given and the
        zero is not bracketed below it, NoZeroFound is raised.
    tol : relative local error tolerance of the adaptive Dormand-Prince
        integrator; the zero is bisected on the dense quintic interpolant.
    n_nodes : size of the returned node set (clustered at 0 and xi1).
    """
    if u_center <= 0:
        raise DomainError("u_center must be positive")
    if not (1.0 <= eos.nu < 5.0):
        raise DomainError("finite-radius solve requires 1 <= nu < 5")

    def accel(r, u, v):
        return -scaled_density(u, eos, u_center) - 2.0 * v / r

    f1 = scaled_density(1.0, eos, u_center)
    r0 = _SERIES_CUT
    u0, v0 = 1.0 - f1 * r0 ** 2 / 6.0, -f1 * r0 / 3.0
    trail = ([r0], [u0], [v0], [accel(r0, u0, v0)])
    r_end = 1e4 if r_inf is None else r_inf
    _dp_steps(accel, trail, r_end, tol, stop_at_zero=True)
    xi1 = _land_on_zero(accel, trail)
    if xi1 is None:
        raise NoZeroFound(eos.nu, r_end)
    mu1 = -xi1 ** 2 * trail[2][-1]
    if r_inf is None:
        r_inf = 1.5 * xi1
    _dp_steps(accel, trail, r_inf, tol)
    nodes = clustered_nodes(r_inf, n_nodes, focus=xi1, focus_weight=4.0)
    theta = np.empty(n_nodes)
    dtheta = np.empty(n_nodes)
    inner = nodes >= _SERIES_CUT
    try:
        # the exterior steps grow with r, and h^5 of a step past ~1e61
        # overflows: refuse such an r_inf rather than return NaN rows
        with np.errstate(over="raise", invalid="raise"):
            dense = _quintic_hermite(trail)
            dense_slope = dense.derivative()
            theta[inner] = dense(nodes[inner])
            dtheta[inner] = dense_slope(nodes[inner])
    except FloatingPointError:
        raise DomainError(
            f"r_inf={r_inf:g} is too large: the profile's dense output is not finite"
        ) from None
    theta[~inner] = 1.0 - f1 * nodes[~inner] ** 2 / 6.0
    dtheta[~inner] = -f1 * nodes[~inner] / 3.0
    theta[0], dtheta[0] = 1.0, 0.0

    return RadialProfile(
        eos=eos,
        u_center=u_center,
        r_nodes=nodes,
        theta=theta,
        dtheta=dtheta,
        psi=-dtheta,
        xi1=xi1,
        mu1=mu1,
        r_inf=float(r_inf),
        _dense=(dense, dense_slope),
    )

