"""The :class:`Observability` facade: one registry + one tracer per run.

Platform components never import the registry or tracer directly; they take
an optional ``observability`` argument and fall back to :data:`NULL_OBS`,
whose registry hands out no-op instruments and whose tracer discards
events.  That keeps every call site unconditional (no ``if obs:`` branches
on hot paths) while the disabled cost stays at one attribute lookup plus an
empty method call — budgeted by the perf guard in
:mod:`repro.experiments.perf`.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Union

from .exporters import (
    write_chrome_trace,
    write_metrics_csv,
    write_prometheus,
    write_trace_jsonl,
)
from .registry import NULL_REGISTRY, MetricsRegistry
from .trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.clock import EventClock


class Observability:
    """Live telemetry context: a metrics registry plus a sim-time tracer.

    The tracer keeps the default ring-buffer capacity and reads sim time
    from the engine that :meth:`bind_engine` attaches; events recorded
    before that are stamped 0.
    """

    enabled = True

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()

    # ------------------------------------------------------------- wiring
    def bind_engine(self, engine: "EventClock") -> "Observability":
        """Use ``engine.now`` as the tracer clock (late binding: drivers
        build the observability context before the engine exists)."""
        self.tracer.set_clock(lambda: engine.now)
        return self

    # ------------------------------------------------------------- export
    def export(
        self,
        name: str,
        trace_dir: Optional[Union[str, Path]] = None,
        metrics_dir: Optional[Union[str, Path]] = None,
    ) -> List[Path]:
        """Write every exporter format for this run.

        ``trace_dir`` receives ``<name>.trace.json`` (Chrome/Perfetto) and
        ``<name>.trace.jsonl`` (archival log); ``metrics_dir`` receives
        ``<name>.prom`` (Prometheus text) and ``<name>.metrics.csv``.
        Either directory may be None to skip that half.
        """
        written: List[Path] = []
        if trace_dir is not None:
            trace_dir = Path(trace_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)
            written.append(
                write_chrome_trace(self.tracer.events, trace_dir / f"{name}.trace.json")
            )
            written.append(
                write_trace_jsonl(self.tracer.events, trace_dir / f"{name}.trace.jsonl")
            )
        if metrics_dir is not None:
            metrics_dir = Path(metrics_dir)
            metrics_dir.mkdir(parents=True, exist_ok=True)
            written.append(write_prometheus(self.registry, metrics_dir / f"{name}.prom"))
            written.append(
                write_metrics_csv(self.registry, metrics_dir / f"{name}.metrics.csv")
            )
        return written


class _NullObservability:
    """Disabled observability: shared, immutable, allocation-free."""

    __slots__ = ()
    enabled = False
    registry = NULL_REGISTRY
    tracer = NULL_TRACER

    def bind_engine(self, engine: "EventClock") -> "_NullObservability":
        return self

    def export(self, name, trace_dir=None, metrics_dir=None) -> List[Path]:
        return []


NULL_OBS = _NullObservability()

ObservabilityLike = Union[Observability, _NullObservability]


def resolve(observability: Optional[ObservabilityLike]) -> ObservabilityLike:
    """``None`` -> the shared null context (the component-side idiom)."""
    return observability if observability is not None else NULL_OBS
