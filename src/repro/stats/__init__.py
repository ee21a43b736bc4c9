"""Statistics substrate: power-law model, metrics collection, summaries."""

from .duration_models import (
    DurationModel,
    DurationModelFamily,
    EmpiricalFamily,
    LogNormalFamily,
    PowerLawFamily,
    make_family,
)
from .metrics import MetricsCollector, TaskOutcome
from .powerlaw import ALPHA_CAP, FitMethod, PowerLawFit, fit_power_law, ks_distance
from .timeline import Timeline, TimelineRecorder, TimelineSample, summarize_timeline
from .summaries import downsample, format_table

__all__ = [
    "DurationModel",
    "DurationModelFamily",
    "EmpiricalFamily",
    "LogNormalFamily",
    "PowerLawFamily",
    "make_family",
    "MetricsCollector",
    "TaskOutcome",
    "ALPHA_CAP",
    "FitMethod",
    "PowerLawFit",
    "fit_power_law",
    "ks_distance",
    "Timeline",
    "TimelineRecorder",
    "TimelineSample",
    "summarize_timeline",
    "downsample",
    "format_table",
]
