"""Exception types shared across the package."""

from __future__ import annotations


class DeadlinenetError(Exception):
    """Base class for all package-specific failures."""


class InvalidNetworkError(DeadlinenetError, ValueError):
    """A network description violates its invariants.

    Carries the full list of violations in ``report``.
    """

    def __init__(self, report):
        self.report = list(report)
        super().__init__("; ".join(str(v) for v in self.report))


class OpennessError(DeadlinenetError, RuntimeError):
    """The traffic equations have no unique nonnegative solution
    (the network is not open, or the solve is numerically degenerate)."""


class QuadratureError(DeadlinenetError, RuntimeError):
    """A numerical integral failed to reach the required accuracy, or a
    node's race statistics are not finite."""


class InfiniteMeanError(DeadlinenetError, ValueError):
    """An operation requiring finite component means met an infinite one."""


class ConfigError(DeadlinenetError, ValueError):
    """A scenario file is malformed (syntax, unknown keys, bad values)."""
