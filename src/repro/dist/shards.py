"""Shard descriptions: the unit of work the parallel executor fans out.

A :class:`ShardSpec` is a picklable, self-contained description of one
hermetic simulation — an end-to-end policy run, one chaos twin, one
scenario-pack run, or one scalability sweep cell: a module-level runner
plus the keyword arguments to call it with.  Every driver in
:mod:`repro.dist.drivers` compiles its workload down to a list of specs;
:mod:`repro.dist.executor` runs them (in-process or across a process
pool) and :mod:`repro.dist.merge` folds the outcomes back together in
canonical order.

Shards are keyed by a content :func:`fingerprint` so a checkpoint written
by a previous run is only reused when the spec that produced it is
byte-for-byte the same work — a resumed run can never silently mix results
from a different config or seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class TelemetrySpec:
    """Per-shard telemetry request: where the worker exports its run.

    Workers own their telemetry end to end: each builds a fresh
    ``Observability``, runs, and writes the exporter files itself — the
    exporters are deterministic in the run, so a shard's files are
    byte-identical no matter which process produced them.
    """

    prefix: str
    trace_dir: Optional[str] = None
    metrics_dir: Optional[str] = None

    @property
    def enabled(self) -> bool:
        return self.trace_dir is not None or self.metrics_dir is not None


@dataclass(frozen=True)
class ShardSpec:
    """One unit of parallel work: ``runner(**kwargs)``.

    ``runner`` is a module-level experiment entry point (``run_endtoend``,
    ``run_chaos``, ``run_scenario``, ``evaluate_point``); pickle ships it
    by reference, so a spawn worker imports the same function.  ``kwargs``
    are configs, policies, seeds — frozen dataclasses or primitives, so
    the spec pickles across a spawn boundary and reprs deterministically
    for fingerprinting.  With an enabled ``telemetry`` the runner also
    gets ``observability=`` and its exports are named after ``label``.
    """

    shard_id: str
    runner: Callable[..., Any]
    kwargs: Dict[str, Any]
    label: str = ""
    telemetry: Optional[TelemetrySpec] = None


@dataclass
class ShardOutcome:
    """What one shard sends back: its result and the files it exported."""

    shard_id: str
    result: Any
    #: exporter files written by the worker (absolute path strings).
    written: List[str] = field(default_factory=list)
    #: True when the executor restored this outcome from a checkpoint
    #: instead of recomputing the shard.
    from_checkpoint: bool = False


def _canonical(value: Any) -> str:
    """Deterministic repr for fingerprinting (dicts sorted by key)."""
    if isinstance(value, dict):
        items = ", ".join(
            f"{k!r}: {_canonical(value[k])}" for k in sorted(value)
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(_canonical(v) for v in value)
        return ("[%s]" if isinstance(value, list) else "(%s)") % inner
    return repr(value)


def fingerprint(spec: ShardSpec) -> str:
    """Content hash of a spec; gates checkpoint reuse on resume.

    The runner enters by ``module.qualname``: a function's repr carries
    its memory address, which differs between processes.
    """
    runner = f"{spec.runner.__module__}.{spec.runner.__qualname__}"
    text = _canonical(
        (runner, spec.shard_id, spec.kwargs, spec.label, spec.telemetry)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_unique_ids(specs: List[ShardSpec]) -> None:
    seen: set[str] = set()
    for spec in specs:
        if spec.shard_id in seen:
            raise ValueError(f"duplicate shard id {spec.shard_id!r}")
        seen.add(spec.shard_id)


#: Shard ids must be usable as checkpoint file names on any platform.
_ID_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


def safe_id(*parts: Any) -> str:
    """Join id components into a filesystem-safe shard id."""
    raw = "-".join(str(p) for p in parts)
    return "".join(c if c in _ID_SAFE else "_" for c in raw)
