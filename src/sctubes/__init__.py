"""Simultaneous confidence tubes for comparing regression models.

Fit one multivariate linear regression per group, then compare the
groups' coefficient matrices jointly over a covariate region: simulate
the pivotal sup statistic, take its upper quantile as the critical
constant, and read off each pair's record (``pair_comparisons``) and
band (``cross_section``). The largest-root test (``roy_k_sample``)
tests all k coefficient matrices for equality at once; ``cli_io.main``
is the CLI.
"""

from .classical_tests import RoyResult, roy_k_sample
from .cli_io import ingest_csv
from .errors import (
    ConfigError,
    DegeneracyError,
    DegenerateScatter,
    DegreesOfFreedomTooSmall,
    EmptyFamily,
    EmptyGroup,
    InputDataError,
    InsufficientObservations,
    InvalidArgument,
    MalformedHeader,
    MetaMismatch,
    NonNumericCell,
    NotTwoGroups,
    NotUnivariate,
    RankDeficientDesign,
    ShapeMismatch,
    TooFewReplicates,
    TubeError,
    UnboundedBox,
    UsageError,
)
from .model_core import (
    FittedModels,
    GroupData,
    GroupedDataset,
    fit_models,
    validate_dataset,
)
from .rand_engine import StreamKey
from .sct_engine import (
    ComparisonFamily,
    ComparisonReport,
    CriticalConstantResult,
    SimulatedSample,
    compare,
    critical_constant,
    observed_statistic,
    pair_comparisons,
    simulate_pivot,
)
from .sup_solver import CovariateBox
from .tube_geometry import (
    SignificanceRegion,
    TubeCrossSection,
    cross_section,
    significance_region,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonFamily",
    "ComparisonReport",
    "ConfigError",
    "CovariateBox",
    "CriticalConstantResult",
    "DegeneracyError",
    "DegenerateScatter",
    "DegreesOfFreedomTooSmall",
    "EmptyFamily",
    "EmptyGroup",
    "FittedModels",
    "GroupData",
    "GroupedDataset",
    "InputDataError",
    "InsufficientObservations",
    "InvalidArgument",
    "MalformedHeader",
    "MetaMismatch",
    "NonNumericCell",
    "NotTwoGroups",
    "NotUnivariate",
    "RankDeficientDesign",
    "RoyResult",
    "ShapeMismatch",
    "SignificanceRegion",
    "SimulatedSample",
    "StreamKey",
    "TooFewReplicates",
    "TubeCrossSection",
    "TubeError",
    "UnboundedBox",
    "UsageError",
    "compare",
    "critical_constant",
    "cross_section",
    "fit_models",
    "ingest_csv",
    "observed_statistic",
    "pair_comparisons",
    "roy_k_sample",
    "significance_region",
    "simulate_pivot",
    "validate_dataset",
]
