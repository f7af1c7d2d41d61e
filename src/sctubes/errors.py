"""Typed failure taxonomy shared by every module in the package.

Three branches, chosen so the command-line layer can map exceptions to
exit codes without inspecting messages: bad input data, numerical
degeneracy discovered mid-computation, and bad usage or configuration.
"""

from __future__ import annotations

import operator


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
    """A simulated sample was drawn for other designs, or under another
    random stream version, than the fit it is used with."""


class ConfigError(UsageError):
    """A run configuration field is out of range or inconsistent."""


class InvalidArgument(UsageError, ValueError):
    """An argument that can come from the command line is out of range.

    Also a ValueError, so library callers that catch ValueError keep
    working; only this subclass, never a bare ValueError, counts as a
    usage error at the command line."""


def items_of(values, rule: str) -> tuple:
    """``values`` as a tuple: the one reading of the outer sequence of
    box bounds and family pairs. A value that is not iterable raises
    ``InvalidArgument`` stating ``rule``."""
    try:
        return tuple(values)
    except TypeError:
        raise InvalidArgument(f"{rule}, got {values!r}") from None


def index_of(value, name: str) -> int:
    """``value`` through ``operator.index``: the one reading of a 1-based
    group or response index. A value that is not an integer (a float, a
    string) raises ``InvalidArgument``."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {value!r}") from None


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


def group_pair(values) -> tuple[int, int]:
    """``values`` read by ``pair_of`` as two integer group indices (i, j)."""
    return pair_of(values, operator.index,
                   "a pair must be two integer group indices (i, j)")
