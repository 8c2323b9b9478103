"""Staging-cost modelling and desk-scale data analysis toolkit.

The package answers one planning question - is it cheaper to analyse
simulation output on an SSD staging tier while it is produced, or to park
everything on the parallel file system and analyse it afterwards? - and
ships the small data tools used to study the question: a chunked CSV
datastore, a deterministic map-reduce engine, OLS regression with ANOVA,
and correlation-based schema advice.
"""

from .config import (
    KernelRate,
    SystemConfig,
    ValidationReport,
    Workload,
    load_config,
    validate,
)
from .datastore import ColumnSchema, Datastore, TableChunk, open_datastore
from .energy import (
    ComparisonReport,
    EnergyBreakdown,
    OfflineReport,
    compare,
    insitu_breakdown,
    offline_report,
)
from .mapreduce import JobResult, ProgressEvent, map_reduce
from .pca import (
    CorrelationMatrix,
    FactorModel,
    SchemaSuggestion,
    correlation_matrix,
    eigen_sym,
    extract_factors,
    suggest_schema,
)
from .sim import DiscrepancyReport, SimEvent, SimReport, simulate, validate_against_analytic
from .stats import AnovaTable, RegressionSummary, f_cdf, fit_ols, summary_from_ss

__version__ = "0.1.0"

__all__ = [
    "AnovaTable",
    "ColumnSchema",
    "ComparisonReport",
    "CorrelationMatrix",
    "Datastore",
    "DiscrepancyReport",
    "EnergyBreakdown",
    "FactorModel",
    "JobResult",
    "KernelRate",
    "OfflineReport",
    "ProgressEvent",
    "RegressionSummary",
    "SchemaSuggestion",
    "SimEvent",
    "SimReport",
    "SystemConfig",
    "TableChunk",
    "ValidationReport",
    "Workload",
    "compare",
    "correlation_matrix",
    "eigen_sym",
    "extract_factors",
    "f_cdf",
    "fit_ols",
    "insitu_breakdown",
    "load_config",
    "map_reduce",
    "offline_report",
    "open_datastore",
    "simulate",
    "suggest_schema",
    "summary_from_ss",
    "validate",
    "validate_against_analytic",
]
