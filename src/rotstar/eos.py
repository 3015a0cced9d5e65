"""Barotropic equations of state, the enthalpy-density transform, and scaling constants.

The solvers work with a dimensionless enthalpy u normalized to 1 at the
center.  An equation of state enters only through the scaled density
``scaled_density(u)`` and its derivative.  All unit bookkeeping lives here:
:class:`ScaleSet` holds the scales, :func:`mass_unit` is the one mass unit
(of the total and of the cylinder mass), and :func:`beta_from_omega` gives
the rotation parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

POLYTROPE = "polytrope"
WHITE_DWARF = "white_dwarf"

_NU_TOL = 1e-12


@dataclass(frozen=True)
class WhiteDwarfParams:
    """Constants (A, B, c) of the degenerate-electron pressure law
    P = A c^5 F(X), rho = B c^3 X^3."""

    A: float
    B: float
    c: float

    def __post_init__(self):
        if not (self.A > 0 and self.B > 0 and self.c > 0):
            raise DomainError("white dwarf constants A, B, c must be positive")

    @property
    def kappa_per_enthalpy(self) -> float:
        """Coefficient k with rho = const * u^{3/2} (1 + k*u)^{3/2}."""
        return self.B / (16.0 * self.A * self.c ** 2)


@dataclass(frozen=True)
class EquationOfState:
    """A barotropic pressure law P(rho).

    Two closed-form kinds are supported: the exact gamma-law
    P = pressure_const * rho^gamma, and the zero-temperature white dwarf,
    whose small-density limit is the gamma = 5/3 polytrope.
    """

    kind: str
    gamma: float
    nu: float
    pressure_const: float
    wd_params: WhiteDwarfParams | None = None

    def __post_init__(self):
        if self.kind not in (POLYTROPE, WHITE_DWARF):
            raise DomainError(f"unknown equation-of-state kind {self.kind!r}")
        # gamma = 2 (nu = 1) sits on the boundary of the admissible range; it is
        # kept available because the linear-density case has a closed-form
        # profile used as an oracle.
        if not (1.0 < self.gamma <= 2.0):
            raise DomainError(f"gamma must lie in (1, 2], got {self.gamma}")
        if abs(self.nu * (self.gamma - 1.0) - 1.0) > _NU_TOL:
            raise DomainError(
                f"nu={self.nu!r} inconsistent with gamma={self.gamma!r}; "
                "expected nu = 1/(gamma-1)"
            )
        if self.pressure_const <= 0:
            raise DomainError("pressure_const must be positive")
        if self.kind == WHITE_DWARF:
            if self.wd_params is None:
                raise DomainError("white dwarf EOS requires wd_params")
            p = self.wd_params
            expected = 8.0 * p.A / (5.0 * p.B ** (5.0 / 3.0))
            if abs(self.gamma - 5.0 / 3.0) > _NU_TOL:
                raise DomainError("white dwarf EOS must have gamma = 5/3")
            if abs(self.pressure_const - expected) > 1e-12 * expected:
                raise DomainError(
                    "white dwarf pressure_const must equal 8A/(5 B^(5/3))"
                )
        elif self.wd_params is not None:
            raise DomainError("wd_params only allowed for the white dwarf kind")

    @classmethod
    def polytrope(cls, gamma: float, pressure_const: float = 1.0) -> "EquationOfState":
        return cls(POLYTROPE, gamma, 1.0 / (gamma - 1.0), pressure_const)

    @classmethod
    def from_index(cls, nu: float, pressure_const: float = 1.0) -> "EquationOfState":
        """Polytrope specified by the index nu = 1/(gamma - 1)."""
        return cls(POLYTROPE, 1.0 + 1.0 / nu, nu, pressure_const)

    @classmethod
    def white_dwarf(cls, A: float, B: float, c: float) -> "EquationOfState":
        params = WhiteDwarfParams(A, B, c)
        return cls(
            WHITE_DWARF,
            5.0 / 3.0,
            1.5,
            8.0 * A / (5.0 * B ** (5.0 / 3.0)),
            params,
        )

    # Density correction factors.  For the polytrope both vanish identically;
    # for the white dwarf they follow from
    # rho = (B^{5/2} / 4A^{3/2}) u^{3/2} (1 + B u / (16 A c^2))^{3/2}.

    def lambda_rho(self, xi):
        if self.kind == POLYTROPE:
            return np.zeros_like(np.asarray(xi, dtype=float))
        k = self.wd_params.kappa_per_enthalpy
        base = 1.0 + k * np.asarray(xi, dtype=float)
        if np.any(base < 0):
            raise DomainError("enthalpy below the white dwarf domain bound -16Ac^2/B")
        return base ** 1.5 - 1.0

    def lambda_rho_prime(self, xi):
        """[1 + (1/nu) xi d/dxi] applied to lambda_rho."""
        if self.kind == POLYTROPE:
            return np.zeros_like(np.asarray(xi, dtype=float))
        k = self.wd_params.kappa_per_enthalpy
        xi = np.asarray(xi, dtype=float)
        base = 1.0 + k * xi
        if np.any(base < 0):
            raise DomainError("enthalpy below the white dwarf domain bound -16Ac^2/B")
        return base ** 1.5 - 1.0 + (1.5 / self.nu) * k * xi * np.sqrt(base)


def _check_white_dwarf_domain(u, eos: EquationOfState, u_center: float) -> None:
    if eos.kind != WHITE_DWARF:
        return
    bound = -1.0 / eos.wd_params.kappa_per_enthalpy
    if np.min(u_center * np.asarray(u, dtype=float)) < bound:
        raise DomainError(
            "enthalpy argument below -16Ac^2/B; the white dwarf density is not real there"
        )


def scaled_density(u, eos: EquationOfState, u_center: float):
    """Dimensionless density (u v 0)^nu (1 + lambda_rho(u_center * u)).

    ``u_center`` is the central enthalpy used to undo the scaling inside the
    white dwarf correction factor.  Negative enthalpy maps to zero density.
    """
    if isinstance(u, float) and eos.kind == POLYTROPE:
        # one point of a polytrope, as at every stage of a Lane-Emden step:
        # the array path's arithmetic on a Python float
        return (u if u > 0.0 else 0.0) ** eos.nu
    u = np.asarray(u, dtype=float)
    _check_white_dwarf_domain(u, eos, u_center)
    up = np.maximum(u, 0.0)
    # in place: this runs on the fine field at every residual evaluation
    lam = 1.0 + eos.lambda_rho(u_center * up) if eos.kind == WHITE_DWARF else None
    up **= eos.nu
    if lam is not None:
        up *= lam
    return up if up.ndim else float(up)


def scaled_density_deriv(u, eos: EquationOfState, u_center: float):
    """Derivative of :func:`scaled_density` with respect to u.

    Vanishes for u <= 0 (the convention that makes the linearized problem
    well defined across the vacuum boundary).
    """
    u = np.asarray(u, dtype=float)
    _check_white_dwarf_domain(u, eos, u_center)
    inside = u > 0.0
    up = np.where(inside, u, 1.0)  # placeholder positive value under the mask
    # in place: this runs on the fine field, the largest array of a Newton step
    lam = 1.0 + eos.lambda_rho_prime(u_center * up) if eos.kind == WHITE_DWARF else None
    up **= eos.nu - 1.0
    up *= eos.nu
    if lam is not None:
        up *= lam
    up *= inside
    return up if up.ndim else float(up)


@dataclass(frozen=True)
class ScaleSet:
    """Physical scaling constants tying the dimensionless problem to units.

    length_scale is the radius unit a with
    a = (4 pi G)^{-1/2} (A gamma/(gamma-1))^{1/(2(gamma-1))} u_center^{-(2-gamma)/(2(gamma-1))}.
    """

    u_center: float
    rho_center: float
    length_scale: float
    grav_const: float

    def __post_init__(self):
        for name in ("u_center", "rho_center", "length_scale", "grav_const"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")

    @classmethod
    def from_central_enthalpy(
        cls, eos: EquationOfState, u_center: float, grav_const: float = 1.0
    ) -> "ScaleSet":
        if u_center <= 0:
            raise DomainError("u_center must be positive")
        a = length_scale(eos, u_center, grav_const)
        rho_scale = ((eos.gamma - 1.0) / (eos.pressure_const * eos.gamma)) ** eos.nu * (
            u_center ** eos.nu
        )
        rho_c = rho_scale * (1.0 + float(eos.lambda_rho(u_center)))
        return cls(u_center, rho_c, a, grav_const)

    @classmethod
    def from_central_density(
        cls, eos: EquationOfState, rho_center: float, grav_const: float = 1.0
    ) -> "ScaleSet":
        """Exact gamma-law only: invert rho_center = ((gamma-1) u / (A gamma))^nu."""
        if eos.kind != POLYTROPE:
            raise DomainError("from_central_density requires the exact gamma-law")
        if rho_center <= 0:
            raise DomainError("rho_center must be positive")
        u_center = (
            eos.pressure_const * eos.gamma / (eos.gamma - 1.0)
        ) * rho_center ** (eos.gamma - 1.0)
        return cls.from_central_enthalpy(eos, u_center, grav_const)


def length_scale(eos: EquationOfState, u_center: float, grav_const: float) -> float:
    g = eos.gamma
    return (
        (4.0 * math.pi * grav_const) ** -0.5
        * (eos.pressure_const * g / (g - 1.0)) ** (1.0 / (2.0 * (g - 1.0)))
        * u_center ** (-(2.0 - g) / (2.0 * (g - 1.0)))
    )


def mass_unit(eos: EquationOfState, scale: ScaleSet) -> float:
    """Physical mass of a unit of the dimensionless mass integral:
    rho_scale a^3, with rho_scale the central density without the white
    dwarf correction 1 + lambda_rho(u_center)."""
    rho_scale = scale.rho_center / (1.0 + float(eos.lambda_rho(scale.u_center)))
    return rho_scale * scale.length_scale ** 3


def beta_from_omega(omega: float, scale: ScaleSet, eos: EquationOfState) -> float:
    """Dimensionless rotation parameter for a constant angular velocity.

    beta = Omega^2/(2 pi G) * (A gamma/(gamma-1))^nu * u_center^{-nu}; for the
    exact gamma-law this equals Omega^2 / (2 pi G rho_center).
    """
    if omega < 0:
        raise DomainError("omega must be nonnegative")
    g = eos.gamma
    return (
        omega ** 2
        / (2.0 * math.pi * scale.grav_const)
        * (eos.pressure_const * g / (g - 1.0)) ** eos.nu
        * scale.u_center ** -eos.nu
    )
