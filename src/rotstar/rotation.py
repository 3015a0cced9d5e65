"""Centrifugal potentials for the three rotation specifications.

A rotation law produces the centrifugal function b(varpi) on the cylinder
radius and the corresponding field g(r, zeta) = b(r sqrt(1 - zeta^2)).  For
angular-momentum laws j(m) the construction is self-referential through the
mass inside a cylinder, so it also exposes the linearization with respect
to the enthalpy field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .eos import EquationOfState, ScaleSet, mass_unit, scaled_density, scaled_density_deriv
from .errors import DivergentAxisIntegral, DomainError
from .grids import (
    AxiField, AxiGrid, SplineSampler, cubic_spline, interp_matrix, locate, panel_gauss, pchip,
)


@dataclass(frozen=True)
class ConstantRotation:
    """Rigid rotation at angular velocity omega."""

    omega: float

    def __post_init__(self):
        if self.omega < 0:
            raise DomainError("omega must be nonnegative")

    kind = "constant"

    def omega_at(self, varpi):
        return np.full_like(np.asarray(varpi, dtype=float), self.omega)


def _sample_tables(x, y, names: str) -> tuple[np.ndarray, np.ndarray]:
    """A law's abscissa and value tables as float arrays of one length >= 2."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise DomainError(
            f"{names} need the same number of samples, at least 2 "
            f"(got {x.size} and {y.size})"
        )
    return x, y


@dataclass(frozen=True)
class DifferentialRotation:
    """Angular velocity sampled against the physical cylinder radius,
    interpolated monotone-cubically between samples."""

    varpi: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        varpi, omega = _sample_tables(self.varpi, self.omega, "varpi and omega")
        object.__setattr__(self, "varpi", varpi)
        object.__setattr__(self, "omega", omega)
        if np.any(np.diff(self.varpi) <= 0) or self.varpi[0] != 0.0:
            raise DomainError("varpi samples must start at 0 and increase")
        if np.any(self.omega < 0):
            raise DomainError("omega samples must be nonnegative")
        object.__setattr__(self, "_interp", pchip(self.varpi, self.omega))

    kind = "differential"

    def omega_at(self, varpi):
        v = np.clip(np.asarray(varpi, dtype=float), 0.0, self.varpi[-1])
        return self._interp(v)


@dataclass(frozen=True)
class AngularMomentumLaw:
    """Specific angular momentum prescribed against the cylinder mass."""

    m: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        m, j = _sample_tables(self.m, self.j, "m and j")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "j", j)
        if self.m[0] != 0.0 or np.any(np.diff(self.m) <= 0):
            raise DomainError("mass samples must start at 0 and increase")
        if self.j[0] != 0.0:
            raise DomainError("j(0) must vanish")
        interp = pchip(self.m, self.j)
        object.__setattr__(self, "_interp", interp)
        object.__setattr__(self, "_dinterp", interp.derivative())
        norm = float(np.max(np.abs(self.j))) + float(
            np.max(np.abs(self._dinterp(self.m)))
        )
        if not np.isfinite(norm):
            raise DomainError("j norm (sup |j| + sup |dj/dm|) must be finite")
        object.__setattr__(self, "norm", norm)

    kind = "angular-momentum"

    def j_at(self, m):
        m = np.asarray(m, dtype=float)
        if np.any(m > self.m[-1] * (1 + 1e-12)):
            raise DomainError("j(m) samples do not cover the requested mass range")
        return self._interp(np.clip(m, 0.0, self.m[-1]))

    def dj_at(self, m):
        m = np.asarray(m, dtype=float)
        return self._dinterp(np.clip(m, 0.0, self.m[-1]))


RotationLaw = ConstantRotation | DifferentialRotation | AngularMomentumLaw


@dataclass
class CentrifugalField:
    """Sampled centrifugal function and the induced field on a grid."""

    varpi: np.ndarray          # scaled cylinder radii (grid units)
    b: np.ndarray
    db: np.ndarray
    g: AxiField
    g_modes: np.ndarray
    beta: float | None = None  # set for constant laws

    def sup_norm(self) -> float:
        """sup |b| + sup |db/dvarpi| over the sampled range."""
        return float(np.max(np.abs(self.b)) + np.max(np.abs(self.db)))


def _field_from_b(grid: AxiGrid, b_interp) -> tuple[AxiField, np.ndarray]:
    varpi_fine = grid.r[:, None] * np.sqrt(1.0 - grid.zeta_f[None, :] ** 2)
    vals_fine = b_interp(varpi_fine)
    g_modes = grid.project_fine(vals_fine.T)  # (n_l, n_r)
    g_modes[1:, 0] = 0.0
    g = AxiField.from_modes(grid, g_modes)
    return g, g_modes


def rigid_rotation(grid: AxiGrid, beta: float) -> CentrifugalField:
    """Rigid-rotation field b = beta varpi^2 / 4 on the grid.

    Its mode content is exact: g = beta r^2 (1 - zeta^2) / 4 has only the
    degree-0 and degree-2 parts +-beta r^2 / 6.
    """
    r = grid.r
    g_modes = np.zeros((grid.n_l, grid.n_r))
    g_modes[0] = beta * r ** 2 / 6.0
    g_modes[1] = -beta * r ** 2 / 6.0
    return CentrifugalField(
        r.copy(),
        0.25 * beta * r ** 2,
        0.5 * beta * r,
        AxiField.from_modes(grid, g_modes),
        g_modes,
        beta,
    )


def centrifugal_from_omega(
    law: RotationLaw, scale: ScaleSet, grid: AxiGrid
) -> CentrifugalField:
    """Centrifugal potential for constant or differential angular velocity.

    b(varpi) = u_center^{-1} * integral of Omega^2 varpi' dvarpi' up to the
    physical radius a*varpi, returned on the grid's scaled radii.  Constant
    Omega gives the closed form ``rigid_rotation`` with beta = 2 a^2 Omega^2 / u_center.
    """
    if isinstance(law, AngularMomentumLaw):
        raise DomainError("angular-momentum laws need centrifugal_from_momentum")
    a = scale.length_scale
    pref = a ** 2 / scale.u_center
    if isinstance(law, ConstantRotation):
        return rigid_rotation(grid, 2.0 * pref * law.omega ** 2)
    v, x = grid.r, grid.gauss_x
    b = pref * grid.cumulative(np.asarray(law.omega_at(a * x)) ** 2 * x)
    db = pref * np.asarray(law.omega_at(a * v)) ** 2 * v
    g, g_modes = _field_from_b(grid, cubic_spline(v, b))
    return CentrifugalField(v.copy(), b, db, g, g_modes, None)


# ---------------------------------------------------------------------------
# mass inside a cylinder and the angular-momentum construction


class CylinderRule:
    """Quadrature of integrals over {r sqrt(1-zeta^2) <= varpi_q} for the
    cylinder radii varpi_q = r_q of the grid's nodes.  Splits each radial ray
    into complete Gauss panels plus one partial panel ending at the cylinder
    cut.  The rays are those of the grid's nodes zeta >= 0 (``zeta_h``), as
    the integrands are even in zeta.  It depends on the grid alone:
    ``_grid_tables`` builds it once per grid."""

    def __init__(self, grid: AxiGrid):
        self.grid = grid
        nq, nj = grid.n_r, len(grid.zeta_h)
        sin = np.sqrt(1.0 - grid.zeta_h ** 2)
        rcut = np.minimum(grid.r[:, None] / sin[None, :], grid.r_inf)
        self.kcut = np.clip(
            np.searchsorted(grid.r, rcut, side="right") - 1, 0, grid.n_r - 2
        )
        # force full coverage when the cut leaves the domain
        at_edge = rcut >= grid.r_inf * (1 - 1e-15)
        self.kcut[at_edge] = grid.n_r - 1
        # partial panel [r_k, rcut) on every ray the cylinder cuts; rays it
        # covers whole (kcut = n_r - 1) or cuts at a node keep zero entries
        k = np.minimum(self.kcut, grid.n_r - 2)
        lo = grid.r[k]
        cut = (self.kcut < grid.n_r - 1) & (rcut > lo)
        x, w = panel_gauss(lo, rcut)
        self.part_x = np.where(cut[..., None], x, 0.0)
        self.part_w = np.where(cut[..., None], w * x ** 2, 0.0)
        s0 = np.minimum(np.maximum(k - 1, 0), grid.n_r - 4)
        stencil = np.where(cut[..., None], s0[..., None] + np.arange(4), 0)
        # the stencil nodes' flat indices in nodal values on the rays (n_r, nj)
        self.part_index = stencil * nj + np.arange(nj)[:, None]
        # local-cubic weights of the partial points, one batch per zeta column:
        # points inside (r_k, r_k+1) get the same 4-node stencil from interp_matrix
        self.part_coef = np.zeros((nq, nj, 4, 4))
        for j in range(nj):
            sel = np.nonzero(cut[:, j])[0]
            mat = interp_matrix(grid.r, self.part_x[sel, j].ravel())
            self.part_coef[sel, j] = np.take_along_axis(
                mat.reshape(len(sel), 4, grid.n_r), stencil[sel, j, None, :], axis=2
            )
            del mat  # one column's dense matrix at a time

    def field_at_partials(self, values: np.ndarray) -> np.ndarray:
        """Interpolate nodal field values on the rays (n_r, nj), a
        ``half_range``, to the partial points."""
        gathered = np.take(values, self.part_index)  # (nq, nj, 4 stencil)
        return np.einsum("qjgs,qjs->qjg", self.part_coef, gathered)

    def integrate(self, gauss_vals: np.ndarray, part_vals: np.ndarray) -> np.ndarray:
        """Accumulate integrand r^2 dr dzeta inside each cylinder.

        gauss_vals: integrand at (n_gauss, nj); part_vals at the partial
        points (n_q, nj, 4).  Returns the n_q cylinder integrals.
        """
        g = self.grid
        prefix = g.cumulative(g.gauss_x[:, None] ** 2 * gauss_vals)
        full = prefix[self.kcut, np.arange(self.kcut.shape[1])[None, :]]
        partial = np.einsum("qjg,qjg->qj", self.part_w, part_vals)
        return (full + partial) @ g.zeta_hw


@dataclass
class CylinderMass:
    """Sampled cylinder-mass curve m(varpi); varpi in scaled units, m physical."""

    varpi: np.ndarray
    mass: np.ndarray
    length_scale: float
    _interp: object = field(default=None, repr=False)

    def __post_init__(self):
        if self._interp is None:
            self._interp = pchip(self.varpi, self.mass)

    def at_scaled(self, varpi):
        v = np.clip(np.asarray(varpi, dtype=float), 0.0, self.varpi[-1])
        out = self._interp(v)
        return float(out) if out.ndim == 0 else out

    @property
    def total(self) -> float:
        return float(self.mass[-1])


@lru_cache(maxsize=1)
def _grid_tables(grid: AxiGrid) -> tuple[CylinderRule, SplineSampler, tuple, tuple]:
    """The momentum-law tables that depend on the grid alone: the cylinder
    rule at the grid radii, the not-a-knot spline on them (its n_r x n_r
    slope map) and, as panels and offsets (``locate``), the two point sets
    where ``LinearizedCentrifugal`` samples splines: the Gauss points and
    the cylinder radii r_i sqrt(1 - zeta^2) of every node at the fine zeta
    nodes.  The cylinder mass, the centrifugal map and every linearization
    of a grid read them; they are held for the last grid asked for only."""
    varpi_fine = grid.r[:, None] * np.sqrt(1.0 - grid.zeta_f[None, :] ** 2)
    return (
        CylinderRule(grid),
        SplineSampler(grid.r),
        locate(grid.r, grid.gauss_x),
        locate(grid.r, np.clip(varpi_fine, 0, grid.r_inf).ravel()),
    )


def mass_within_cylinder(u: AxiField, eos: EquationOfState, scale: ScaleSet) -> CylinderMass:
    """Physical mass inside the cylinder of scaled radius varpi, at the grid
    radii.

    The integrand is the scaled density of u over the region
    r sqrt(1 - zeta^2) <= varpi, times the unit prefactor of the scaling.
    """
    grid = u.grid
    rule = _grid_tables(grid)[0]
    values = grid.half_range(u.values)
    gvals = scaled_density(grid.at_gauss(values, axis=0), eos, scale.u_center)
    pvals = scaled_density(rule.field_at_partials(values), eos, scale.u_center)
    m = 2.0 * math.pi * mass_unit(eos, scale) * rule.integrate(gvals, pvals)
    m = np.maximum.accumulate(m)  # guard monotonicity against roundoff
    return CylinderMass(grid.r, m, scale.length_scale)


def _axis_integrability_check(integrand, v1: float) -> None:
    """The sampled integrand must not blow up like 1/varpi toward the axis."""
    t = v1 * np.logspace(-6.0, -1.0, 8)
    vals = np.asarray(integrand(t))
    if not np.all(np.isfinite(vals)):
        raise DivergentAxisIntegral("centrifugal integrand not finite near the axis")
    if np.all(vals == 0.0):
        return
    for i in range(len(t)):
        for k in range(i + 1, len(t)):
            if vals[i] > 0 and vals[i] >= vals[k] * (t[k] / t[i]) ** 0.5:
                raise DivergentAxisIntegral(
                    "centrifugal integrand decays slower than O(varpi^-1/2) "
                    "toward the axis"
                )


def centrifugal_from_momentum(
    law: AngularMomentumLaw,
    u: AxiField,
    eos: EquationOfState,
    scale: ScaleSet,
    grid: AxiGrid,
    cyl: CylinderMass | None = None,
) -> CentrifugalField:
    """Centrifugal potential b for a prescribed j(m), evaluated on the state u."""
    if cyl is None:
        cyl = mass_within_cylinder(u, eos, scale)
    pref = 1.0 / (scale.u_center * scale.length_scale ** 2)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        jj = law.j_at(cyl.at_scaled(t))
        return pref * jj ** 2 / t ** 3

    _axis_integrability_check(integrand, grid.r[1])
    b = grid.cumulative(integrand(grid.gauss_x))
    interp = cubic_spline(grid.r, b)
    db = np.zeros_like(grid.r)
    db[1:] = integrand(grid.r[1:])
    g, g_modes = _field_from_b(grid, lambda vv: interp(np.clip(vv, 0.0, grid.r_inf)))
    return CentrifugalField(grid.r.copy(), b, db, g, g_modes, None)


class LinearizedCentrifugal:
    """Linearization B of the momentum-law centrifugal map at u, as a chain
    of linear maps whose u-dependent coefficients are frozen here:

    - h -> dm, the cylinder-mass response at the grid radii: the rule's
      quadrature of rho'(u) h (``fp_gauss``, ``fp_part``);
    - dm -> b, the cumulative centrifugal integral of dm's cubic spline,
      the one the nonlinear path takes through b, times 2 j j'(m) / x^3 at
      the Gauss points (``weight``; ``b_from_dm``);
    - b -> g modes, the fine-zeta projection of b's cubic spline at the
      cylinder radii r sqrt(1 - zeta^2) of every node.

    ``apply_values`` runs the chain on nodal values and ``apply_transpose``
    its transpose, so B (rank <= n_r) is never formed, and neither is any
    table of n_r^2 per degree: the splines are sampled through their slope
    map.  Its sums over zeta run on the nodes zeta >= 0 (``half_range``).
    ``cyl``, if given, is u's cylinder mass.  The rule, the slope map
    and the sample points depend on the grid alone and come from
    ``_grid_tables``, shared with the nonlinear map and every other
    linearization on the grid.
    """

    def __init__(
        self, law: AngularMomentumLaw, u: AxiField, eos: EquationOfState, scale: ScaleSet,
        cyl: CylinderMass | None = None,
    ):
        self.grid = grid = u.grid
        if cyl is None:
            cyl = mass_within_cylinder(u, eos, scale)
        self.rule, self.spline, self.gauss_panels, self.fine_panels = _grid_tables(grid)
        values = grid.half_range(u.values)
        self.fp_gauss = scaled_density_deriv(grid.at_gauss(values, axis=0), eos, scale.u_center)
        self.fp_part = scaled_density_deriv(
            self.rule.field_at_partials(values), eos, scale.u_center
        )
        self.mass_pref = 2.0 * math.pi * mass_unit(eos, scale)
        self._transposed = None
        x = grid.gauss_x
        m_at = cyl.at_scaled(x)
        pref = 1.0 / (scale.u_center * scale.length_scale ** 2)
        self.weight = pref * 2.0 * law.j_at(m_at) * law.dj_at(m_at) / x ** 3

    def b_from_dm(self, dm: np.ndarray) -> np.ndarray:
        """b at the grid radii for the cylinder-mass response dm there."""
        return self.grid.cumulative(self.weight * self.spline.sample(dm, *self.gauss_panels))

    def apply_values(self, h_values: np.ndarray) -> np.ndarray:
        """g-mode response (n_l, n_r) for a nodal field perturbation
        (n_r, n_zeta)."""
        return self.apply_half(self.grid.half_range(h_values))

    def apply_half(self, h_values: np.ndarray) -> np.ndarray:
        """``apply_values`` from the perturbation's values at the nodes
        zeta >= 0 alone (``AxiGrid.synthesize_half``)."""
        grid = self.grid
        gvals = self.fp_gauss * grid.at_gauss(h_values, axis=0)
        pvals = self.fp_part * self.rule.field_at_partials(h_values)
        dm = self.mass_pref * self.rule.integrate(gvals, pvals)
        vals = self.spline.sample(self.b_from_dm(dm), *self.fine_panels).reshape(grid.n_r, -1)
        g_modes = grid.project_fine(vals.T)
        g_modes[1:, 0] = 0.0
        return g_modes

    def apply_transpose(self, y_modes: np.ndarray) -> np.ndarray:
        """The transpose of h modes -> ``apply_values`` of their synthesis on
        mode arrays (n_l, n_r), its factors in reverse order: the fine-zeta
        projection, the spline of b (``SplineSampler.sample_transpose``),
        the cumulative integral (a suffix sum over the panels), the weighted
        spline of dm, the cylinder integral (a suffix sum over the panels of
        the weights scattered at each ray's cut ``kcut``), the complete and
        partial panels' stencils (one scatter-add) and the synthesis."""
        grid, rule, nj = self.grid, self.rule, len(self.grid.zeta_h)
        if self._transposed is None:
            # the weights of each complete panel on the 4 stencil nodes its
            # Gauss points share and of each partial panel on its own, and the
            # flat indices of the cuts and of the stencils in (n_r, nj)
            npan, ray, weight = grid.n_r - 1, np.arange(nj), self.mass_pref * grid.zeta_hw
            x2w = (grid.gauss_x ** 2 * grid.gauss_w)[:, None] * self.fp_gauss
            stencil = grid.interp_weights.reshape(npan, 4, 4)
            part_w = rule.part_w * self.fp_part
            self._transposed = (
                weight * np.einsum("pgs,pgj->psj", stencil, x2w.reshape(npan, 4, nj)),
                weight[:, None] * np.einsum("qjg,qjgs->qjs", part_w, rule.part_coef),
                (rule.kcut * nj + ray).ravel(),
                np.concatenate([(grid.interp_cols[::4, :, None] * nj + ray).ravel(),
                                rule.part_index.ravel()]),
            )
        panel, part, cut, index = self._transposed
        y = y_modes.copy()
        y[1:, 0] = 0.0
        b = self.spline.sample_transpose((y.T @ grid.proj_f).ravel(), *self.fine_panels)
        beyond = np.cumsum(b[:0:-1])[::-1]  # panel p: the nodes above it
        samples = self.weight * grid.gauss_w * np.repeat(beyond, 4)
        dm = self.spline.sample_transpose(samples, *self.gauss_panels)
        at_cut = np.bincount(cut, np.repeat(dm, nj), minlength=grid.n_r * nj).reshape(-1, nj)
        below = np.cumsum(at_cut[:0:-1], axis=0)[::-1]  # panel p: the cuts beyond it
        weights = np.concatenate([(panel * below[:, None]).ravel(),
                                  (part * dm[:, None, None]).ravel()])
        h = np.bincount(index, weights, minlength=grid.n_r * nj)
        return grid.leg @ h.reshape(-1, nj).T


def centrifugal_deriv_apply(
    law: AngularMomentumLaw,
    u: AxiField,
    h: AxiField,
    eos: EquationOfState,
    scale: ScaleSet,
    grid: AxiGrid,
    cyl: CylinderMass | None = None,
) -> AxiField:
    """Apply the u-derivative of the momentum-law centrifugal map to h."""
    lin = LinearizedCentrifugal(law, u, eos, scale, cyl)
    return AxiField.from_modes(grid, lin.apply_values(h.values))
