"""Exception types raised across the library."""


class RotstarError(Exception):
    """Base class for all library errors."""


class DomainError(RotstarError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class NoZeroFound(RotstarError):
    """The radial profile stayed positive up to the outer radius."""

    def __init__(self, nu, r_inf):
        self.nu = nu
        self.r_inf = r_inf
        super().__init__(
            f"no zero of the profile below r_inf={r_inf:g} (nu={nu:g}); "
            "increase r_inf or check the polytropic index"
        )


class StepFailure(RotstarError):
    """The ODE integrator broke down."""


class DivergentAxisIntegral(RotstarError):
    """The centrifugal integral for an angular-momentum law diverges near the axis."""


class NoConvergence(RotstarError):
    """An iteration (equilibrium solve or mode contraction) failed to reach its tolerance.

    ``residual_history`` holds the per-step residuals or step sizes.
    """

    def __init__(self, message, residual_history=()):
        self.residual_history = list(residual_history)
        super().__init__(message)


class SingularLinearization(RotstarError):
    """The linearized operator is numerically singular (invertibility certificate failed)."""

    def __init__(self, sigma_min, threshold):
        self.sigma_min = sigma_min
        self.threshold = threshold
        super().__init__(
            f"smallest singular value {sigma_min:.3e} below threshold {threshold:.3e}"
        )


class NoSignChange(RotstarError):
    """No admissible single sign change of the enthalpy along a radial ray
    (``zeta`` is None when the failing ray is not singled out)."""

    def __init__(self, zeta, message=None):
        self.zeta = zeta
        super().__init__(message or f"no single + to - sign change along zeta={zeta:g}")


class NoBracket(RotstarError):
    """The root bracket does not contain a sign change."""


class GammaFourThirds(RotstarError):
    """The mass-density inversion is degenerate at gamma = 4/3."""


class ConfigError(RotstarError):
    """A run configuration is malformed."""

    def __init__(self, message, parameter=None):
        self.parameter = parameter
        super().__init__(message)
