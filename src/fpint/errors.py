"""Exception types shared across the package."""

from __future__ import annotations


class FpintError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FpintError, ValueError):
    """Arguments outside the mathematical domain of an operation."""


def require(cond: bool, msg: str) -> None:
    """Raise DomainError(msg) unless cond holds."""
    if not cond:
        raise DomainError(msg)


class PoleError(DomainError):
    """Evaluation requested exactly at a pole (e.g. gamma at 0, -1, -2, ...)."""


class UnknownBuiltin(FpintError, KeyError):
    """Requested builtin function name is not registered."""


class UnknownItem(FpintError, KeyError):
    """Requested catalog item id does not exist."""


class NoConvergence(FpintError, ArithmeticError):
    """A series or iteration failed to reach the requested tolerance."""


class ConvergenceDomain(FpintError, ValueError):
    """omega too close to (or beyond) the convergence boundary min(a, rho0)."""


class AllZeroError(FpintError, ValueError):
    """Function is identically zero as far as the coefficient probe can see."""


class ConsistencyError(FpintError, ValueError):
    """Supplied coefficient stream disagrees with the point evaluator."""


class TailNotIntegrable(FpintError, ValueError):
    """Declared tail decay does not admit the requested infinite integral."""


class ProvisoViolated(FpintError, ArithmeticError):
    """Leading asymptotic coefficient vanishes; the non-vanishing proviso fails."""


class FitIllConditioned(FpintError, ArithmeticError):
    """Least-squares extraction matrix exceeded the condition-number cap."""


class QuadratureFailure(FpintError, ArithmeticError):
    """Adaptive quadrature could not meet its budget."""


class TailBoundUnmet(QuadratureFailure):
    """Infinite-tail truncation could not certify the requested bound."""
