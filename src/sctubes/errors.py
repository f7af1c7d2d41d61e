"""Typed failure taxonomy shared by every module in the package.

Three branches, chosen so the command-line layer can map exceptions to
exit codes without inspecting messages: bad input data, numerical
degeneracy discovered mid-computation, and bad usage or configuration.
"""

from __future__ import annotations


class TubeError(Exception):
    """Base class for all errors raised by this package."""


class InputDataError(TubeError):
    """Input data are structurally unusable (exit code 2)."""


class DegeneracyError(TubeError):
    """A numerical precondition failed: positive definiteness or
    degrees of freedom (exit code 3)."""


class UsageError(TubeError):
    """Arguments or configuration do not fit the requested operation
    (exit code 4)."""


# --- input data -------------------------------------------------------

class MalformedHeader(InputDataError):
    """CSV header does not match the expected group,x1..xp,y1..ym layout."""


class NonNumericCell(InputDataError):
    """A covariate or response cell failed to parse as a finite number."""

    def __init__(self, row: int, col: int, text: str = ""):
        self.row = row
        self.col = col
        shown = f" ({text!r})" if text else ""
        super().__init__(f"non-numeric cell at row {row}, column {col}{shown}")


class EmptyGroup(InputDataError):
    """A group label with no observations, or a file with no data rows."""


class ShapeMismatch(InputDataError):
    """Array dimensions disagree across groups or with the declared layout."""


class RankDeficientDesign(InputDataError):
    """A group's design matrix does not have full column rank."""


class InsufficientObservations(InputDataError):
    """A group has fewer rows than regression coefficients plus one."""


class NotTwoGroups(InputDataError):
    """Groups are to be compared, but the data hold fewer than two."""


# --- numerical degeneracy ---------------------------------------------

class DegenerateScatter(DegeneracyError):
    """The pooled residual scatter is not positive definite, so nothing
    that needs its inverse can run."""


class DegreesOfFreedomTooSmall(DegeneracyError):
    """Wishart degrees of freedom below the matrix dimension."""


# --- usage / configuration --------------------------------------------

class NotUnivariate(UsageError):
    """An operation limited to a single covariate was asked to handle more."""


class UnboundedBox(UsageError):
    """A finite covariate region was required but some bound is infinite."""


class EmptyFamily(UsageError):
    """A comparison family with no pairs."""


class TooFewReplicates(UsageError):
    """Too few simulation replicates for the requested tail probability."""


class MetaMismatch(UsageError):
    """A simulated sample was produced under different models, family,
    or region than the one it is being used with."""


class ConfigError(UsageError):
    """A run configuration field is out of range or inconsistent."""


class InvalidArgument(UsageError, ValueError):
    """An argument that can come from the command line is out of range.

    Also a ValueError, so library callers that catch ValueError keep
    working; only this subclass, never a bare ValueError, counts as a
    usage error at the command line."""


def pair_of(values, convert, rule: str, error=InvalidArgument) -> tuple:
    """``values`` unpacked as exactly two items, each passed through
    ``convert``: the one reading of a pair, for box bounds, family pairs
    and their command-line texts. Anything else (another length, not a
    sequence, an item that ``convert`` refuses with a TypeError or
    ValueError) raises ``error`` stating ``rule``."""
    try:
        first, second = (convert(v) for v in values)
    except (TypeError, ValueError):
        raise error(f"{rule}, got {values!r}") from None
    return first, second
