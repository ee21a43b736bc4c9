"""Workload generation: arrival processes, worker populations, task
generators, and the synthetic CrowdFlower case study."""

from .arrivals import deterministic_gaps, poisson_gaps
from .churn import ChurnProcess, ChurnStats
from .crowdflower import (
    CaseStudyReport,
    CaseStudyResponse,
    analyze_case_study,
    generate_case_study,
)
from .generators import (
    LocationSurveyGenerator,
    PoiSuggestionGenerator,
    PriceCheckGenerator,
    TaskGenerator,
    TaskGeneratorConfig,
    TrafficMonitoringGenerator,
)
from .trace import TaskTrace, TraceRecord, capture_trace, replay_trace
from .population import (
    PopulationConfig,
    generate_population,
    sample_behavior,
    sample_quality,
)

__all__ = [
    "ChurnProcess",
    "ChurnStats",
    "deterministic_gaps",
    "poisson_gaps",
    "CaseStudyReport",
    "CaseStudyResponse",
    "analyze_case_study",
    "generate_case_study",
    "LocationSurveyGenerator",
    "PoiSuggestionGenerator",
    "PriceCheckGenerator",
    "TaskGenerator",
    "TaskGeneratorConfig",
    "TrafficMonitoringGenerator",
    "TaskTrace",
    "TraceRecord",
    "capture_trace",
    "replay_trace",
    "PopulationConfig",
    "generate_population",
    "sample_behavior",
    "sample_quality",
]
