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

import numpy as np

from .eos import EquationOfState, ScaleSet, mass_unit, scaled_density, scaled_density_deriv
from .errors import DivergentAxisIntegral, DomainError
from .grids import AxiField, AxiGrid, cubic_spline, interp_matrix, panel_gauss, pchip


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
    _interp: object = field(default=None, repr=False)

    def b_at(self, varpi):
        v = np.asarray(varpi, dtype=float)
        return self._interp(np.clip(v, 0.0, self.varpi[-1]))

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
        _interp=lambda v: 0.25 * beta * np.asarray(v) ** 2,
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
    interp = cubic_spline(v, b)
    g, g_modes = _field_from_b(grid, interp)
    return CentrifugalField(v.copy(), b, db, g, g_modes, None, _interp=interp)


# ---------------------------------------------------------------------------
# mass inside a cylinder and the angular-momentum construction


class CylinderRule:
    """Quadrature of integrals over {r sqrt(1-zeta^2) <= varpi_q} for a fixed
    set of scaled cylinder radii.  Splits each radial ray into complete Gauss
    panels plus one partial panel ending at the cylinder cut."""

    def __init__(self, grid: AxiGrid, varpi: np.ndarray):
        self.grid = grid
        self.varpi = np.asarray(varpi, dtype=float)
        nq, nj = len(self.varpi), grid.n_zeta
        sin = np.sqrt(1.0 - grid.zeta ** 2)
        rcut = np.minimum(self.varpi[:, None] / sin[None, :], grid.r_inf)
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
        self.part_stencil = np.where(cut[..., None], s0[..., None] + np.arange(4), 0)
        # local-cubic weights of the partial points, one batch per zeta column:
        # points inside (r_k, r_k+1) get the same 4-node stencil from interp_matrix
        self.part_coef = np.zeros((nq, nj, 4, 4))
        for j in range(nj):
            sel = np.nonzero(cut[:, j])[0]
            mat = interp_matrix(grid.r, self.part_x[sel, j].ravel())
            self.part_coef[sel, j] = np.take_along_axis(
                mat.reshape(len(sel), 4, grid.n_r), self.part_stencil[sel, j, None, :], axis=2
            )

    def field_at_partials(self, values: np.ndarray) -> np.ndarray:
        """Interpolate nodal field values (n_r, n_zeta) to the partial points."""
        j_idx = np.arange(self.grid.n_zeta)[None, :, None]
        gathered = values[self.part_stencil, j_idx]  # (nq, nj, 4 stencil)
        return np.einsum("qjgs,qjs->qjg", self.part_coef, gathered)

    def integrate(self, gauss_vals: np.ndarray, part_vals: np.ndarray) -> np.ndarray:
        """Accumulate integrand r^2 dr dzeta inside each cylinder.

        gauss_vals: integrand at (n_gauss, n_zeta); part_vals at the partial
        points (n_q, n_zeta, 4).  Returns the n_q cylinder integrals.
        """
        g = self.grid
        prefix = g.cumulative(g.gauss_x[:, None] ** 2 * gauss_vals)
        full = prefix[self.kcut, np.arange(g.n_zeta)[None, :]]
        partial = np.einsum("qjg,qjg->qj", self.part_w, part_vals)
        return (full + partial) @ g.zeta_w


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


def _default_varpi_samples(grid: AxiGrid, u: AxiField) -> np.ndarray:
    """Grid radii densified around the vacuum boundary of the l = 0 mode."""
    samples = list(grid.r)
    prof = u.modes()[0]
    sign_change = np.nonzero((prof[:-1] > 0) & (prof[1:] <= 0))[0]
    if len(sign_change):
        k = sign_change[0]
        lo = grid.r[max(k - 1, 0)]
        hi = grid.r[min(k + 2, grid.n_r - 1)]
        samples.extend(np.linspace(lo, hi, 41)[1:-1])
    return np.unique(np.asarray(samples))


def mass_within_cylinder(
    u: AxiField,
    eos: EquationOfState,
    scale: ScaleSet,
    varpi: np.ndarray | None = None,
) -> CylinderMass:
    """Physical mass inside the cylinder of scaled radius varpi.

    The integrand is the scaled density of u over the region
    r sqrt(1 - zeta^2) <= varpi, times the unit prefactor of the scaling.
    """
    grid = u.grid
    v = _default_varpi_samples(grid, u) if varpi is None else np.asarray(varpi, float)
    rule = CylinderRule(grid, v)
    gauss_field = grid.at_gauss(u.values, axis=0)
    gvals = scaled_density(gauss_field, eos, scale.u_center)
    pvals = scaled_density(rule.field_at_partials(u.values), eos, scale.u_center)
    m = 2.0 * math.pi * mass_unit(eos, scale) * rule.integrate(gvals, pvals)
    m = np.maximum.accumulate(m)  # guard monotonicity against roundoff
    return CylinderMass(v, m, scale.length_scale)


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
    return CentrifugalField(grid.r.copy(), b, db, g, g_modes, None, _interp=interp)


class LinearizedCentrifugal:
    """Linearization of the momentum-law centrifugal map at u, in factored form.

    The derivative along a field perturbation h is a chain of linear maps
    whose u-dependent coefficients are frozen here:

    - h -> dm, the cylinder-mass response at the grid radii
      (``dm_response`` on the even-mode basis);
    - dm -> b, the cumulative centrifugal integral on the cubic-spline basis
      of the nonlinear path (``cum``);
    - b -> g modes, the projection of b(r sqrt(1 - zeta^2)) (``b_to_modes``).

    The dense matrix is the product of these factors, so its rank is at most
    n_r; ``apply_values`` runs the chain on nodal values.
    """

    def __init__(
        self,
        law: AngularMomentumLaw,
        u: AxiField,
        eos: EquationOfState,
        scale: ScaleSet,
        cyl: CylinderMass | None = None,
    ):
        grid = u.grid
        self.grid = grid
        if cyl is None:
            cyl = mass_within_cylinder(u, eos, scale)
        self.rule = CylinderRule(grid, grid.r)
        self.fp_gauss = scaled_density_deriv(
            grid.at_gauss(u.values, axis=0), eos, scale.u_center
        )
        self.fp_part = scaled_density_deriv(
            self.rule.field_at_partials(u.values), eos, scale.u_center
        )
        self.mass_pref = 2.0 * math.pi * mass_unit(eos, scale)

        # cumulative map: dm samples at grid.r -> b samples at grid.r,
        # assembled on the cubic-spline basis used by the nonlinear path; the
        # cardinal basis (one spline per unit vector) serves both point sets
        v, x = grid.r, grid.gauss_x
        basis = cubic_spline(v, np.eye(grid.n_r))
        m_at = cyl.at_scaled(x)
        pref = 1.0 / (scale.u_center * scale.length_scale ** 2)
        integrand = basis(x)
        integrand *= (pref * 2.0 * law.j_at(m_at) * law.dj_at(m_at) / x ** 3)[:, None]
        self.cum = grid.cumulative(integrand)  # (n_r, n_r basis)
        del integrand  # before the projection's temporaries of the same size

        # b samples -> g modes (n_l, n_r, n_r basis): the fine-zeta projection
        # of the basis at the cylinder radii of every node
        varpi_fine = grid.r[:, None] * np.sqrt(1.0 - grid.zeta_f[None, :] ** 2)
        self.b_to_modes = basis.weighted_sums(np.clip(varpi_fine, 0, v[-1]), grid.proj_f)
        self.b_to_modes[1:, 0, :] = 0.0

    def dm_response(self) -> np.ndarray:
        """Cylinder-mass response to each mode coefficient of h, shape
        (n_l, n_q, n_r): entry [l, q, i] is d dm(varpi_q) / d h_l(r_i).

        Built one zeta column at a time: the cumulative integral over complete
        panels and the rule's partial-panel stencils, weighted by leg * zeta_w.
        The complete panels are summed on the interpolation stencil, whose 4
        nodes every Gauss point of a panel shares.
        """
        grid, rule = self.grid, self.rule
        nq = len(rule.varpi)
        rows = np.arange(nq)[:, None]
        npan = grid.n_r - 1
        panel_rows = np.arange(npan)[:, None]
        panel_cols = grid.interp_cols[::4]
        x2 = grid.gauss_x ** 2
        out = np.zeros((grid.n_l, nq, grid.n_r))
        prefix = np.zeros((grid.n_r, grid.n_r))
        for j in range(grid.n_zeta):
            vals = (x2 * self.fp_gauss[:, j])[:, None] * grid.interp_weights
            vals *= grid.gauss_w[:, None]
            prefix[1:] = 0.0
            prefix[1:][panel_rows, panel_cols] = vals.reshape(npan, 4, 4).sum(axis=1)
            np.cumsum(prefix[1:], axis=0, out=prefix[1:])
            col = prefix[rule.kcut[:, j]]
            part = np.einsum(
                "qg,qgs->qs", rule.part_w[:, j] * self.fp_part[:, j], rule.part_coef[:, j]
            )
            np.add.at(col, (rows, rule.part_stencil[:, j]), part)
            # one degree at a time, so that no temporary is as large as out
            for l, weight in enumerate(self.mass_pref * grid.zeta_w[j] * grid.leg[:, j]):
                out[l] += weight * col
        return out

    def apply_values(self, h_values: np.ndarray) -> np.ndarray:
        """g-mode response (n_l, n_r) for a nodal field perturbation."""
        gvals = self.fp_gauss * self.grid.at_gauss(h_values, axis=0)
        pvals = self.fp_part * self.rule.field_at_partials(h_values)
        dm = self.mass_pref * self.rule.integrate(gvals, pvals)
        b = self.cum @ dm
        return np.einsum("lib,b->li", self.b_to_modes, b)


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
