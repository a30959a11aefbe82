"""Exception types shared across the package.

All of them subclass ValueError so generic callers can catch one base,
while the CLI and the tests can distinguish what actually went wrong.
"""


class ConfigError(ValueError):
    """Invalid experiment parameters or a malformed config file."""


class DimensionError(ValueError):
    """Array arguments have incompatible or invalid dimensions."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class FullSpaceError(ValueError):
    """A projection basis already spans the whole space."""


class RankDeficiencyError(ValueError):
    """Vectors that were assumed independent are numerically dependent."""


class InfeasibleGeometryError(ValueError):
    """Channel geometry makes the requested power allocation unbounded."""


class DivergenceError(ValueError):
    """A requested expectation or integral does not converge."""


class BudgetError(ValueError):
    """Enumeration or evaluation would exceed its budget of work."""
