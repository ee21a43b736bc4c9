"""Discrete-event simulation substrate.

The paper evaluates REACT live on PlanetLab; this reproduction drives the
same middleware components in deterministic simulated time.  See DESIGN.md
section 2 for why the substitution preserves the reported behaviour.
"""

from .clock import EventClock
from .engine import Engine, SimulationError
from .events import Event, EventKind
from .process import GeneratorProcess, PeriodicProcess
from .rng import (
    STREAM_ARRIVALS,
    STREAM_CHURN,
    STREAM_FEEDBACK,
    STREAM_MATCHER,
    STREAM_TASKS,
    STREAM_WORKER_BEHAVIOR,
    STREAM_WORKER_POPULATION,
    RngRegistry,
)

__all__ = [
    "Engine",
    "EventClock",
    "SimulationError",
    "Event",
    "EventKind",
    "GeneratorProcess",
    "PeriodicProcess",
    "RngRegistry",
    "STREAM_ARRIVALS",
    "STREAM_CHURN",
    "STREAM_FEEDBACK",
    "STREAM_MATCHER",
    "STREAM_TASKS",
    "STREAM_WORKER_BEHAVIOR",
    "STREAM_WORKER_POPULATION",
]
