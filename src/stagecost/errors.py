"""Exception types shared across the toolkit.

Everything raised on bad input or an unsatisfiable request derives from
:class:`ToolkitError`, so the command-line layer can map domain failures to a
single exit code without enumerating modules.
"""


class ToolkitError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigError(ToolkitError):
    """A config document is malformed or violates a model invariant."""


class KernelNotFound(ToolkitError):
    """The named analysis kernel is not part of the workload."""


class InfeasibleUtilization(ToolkitError):
    """Busy time exceeds the idle-time budget of the staging tier."""


class NonPositiveTick(ToolkitError):
    """The simulator was asked to run with a tick <= 0 (or NaN)."""


class TickMismatch(ToolkitError, ValueError):
    """The simulator tick does not divide the run length ``tsim``."""


class TooManyTicks(ToolkitError):
    """The simulator tick would give more ticks than the simulator allows."""


class InvalidParameter(ToolkitError, ValueError):
    """A numeric parameter (chunk size, threshold, cutoff) is out of range."""


class InfeasibleConfig(ToolkitError):
    """An operation that requires a feasible config was given an infeasible one."""


# -- tabular data ------------------------------------------------------------

class MissingFile(ToolkitError):
    """An input path does not exist, or is not a regular file."""


class HeaderMismatch(ToolkitError):
    """Input files do not agree on a single well-formed header."""


class MalformedCSV(ToolkitError):
    """An input file is not UTF-8 text, or not CSV that the reader accepts."""


class EmptyInput(ToolkitError):
    """No data rows were supplied."""


class UnknownVariable(ToolkitError):
    """A referenced column name is not part of the schema."""


class ReadPastEnd(ToolkitError):
    """read() was called with no rows left before the cursor."""


class TypeMismatch(ToolkitError):
    """An operation was applied to a column of the wrong kind."""


# -- statistics --------------------------------------------------------------

class InsufficientObservations(ToolkitError):
    """Too few rows for the requested fit."""


class CollinearDesign(ToolkitError):
    """The design matrix is rank deficient: in its Householder QR, a column's part
    from the diagonal down fell to 1e-12 of the column's norm or below."""


class InvalidSums(ToolkitError):
    """Sum-of-squares inputs violate 0 <= ss_reg <= ss_total or n <= k + 1."""


class DomainError(ToolkitError):
    """A distribution function was evaluated outside its domain."""


class NumericOverflow(ToolkitError):
    """A sum of squares or a solution left the float range on finite data."""


# -- factor analysis ---------------------------------------------------------

class ConstantColumn(ToolkitError):
    """A column has zero variance, so correlations are undefined."""


class MissingData(ToolkitError):
    """Numeric input contains missing (or non-finite) cells."""


class ConvergenceFailure(ToolkitError):
    """An iterative routine exhausted its iteration budget."""


class LengthMismatch(ToolkitError):
    """Parallel sequences differ in length."""
