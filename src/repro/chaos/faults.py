"""Declarative fault schedules for chaos injection.

Every fault is a frozen dataclass pinned to simulated time: ``start`` is
when it strikes and ``duration`` how long it stays active (0 for one-shot
faults such as an abandonment wave).  A :class:`FaultSchedule` bundles a
tuple of faults with the seed of the injector's private RNG stream, so a
chaos scenario is a *value*: hashable, printable, and — because the engine
and every random draw are deterministic — exactly replayable.  Two runs of
the same workload under the same schedule produce bit-identical metrics.

Fault taxonomy (see docs/CHAOS.md for the full matrix):

========================  ====================================================
:class:`AbandonmentWave`  a fraction of currently-executing workers silently
                          walk away at ``start`` (mass §IV-B abandonment)
:class:`NoShowFault`      assignments made during the window are accepted but
                          never started: the worker sits ``hold_time`` seconds
                          and returns nothing
:class:`StaleProfileFault` completion observations reaching the Profiling
                          Component are distorted by ``distortion`` ×
:class:`MatcherStallFault` every batch started during the window is charged
                          ``extra_latency`` additional simulated seconds
:class:`SweepOutageFault` the Dynamic Assignment Component's Eq. 2 sweep
                          evaluates nothing during the window
:class:`BlackoutFault`    the region server loses all assignment state: no
                          batches run, in-flight batches abort, assigned
                          tasks are orphaned and re-adopted on recovery
========================  ====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Fault:
    """Base class: one scheduled disturbance of the platform."""

    #: Simulated time at which the fault activates.
    start: float
    #: Active window length in seconds; 0 means a one-shot fault.
    duration: float = 0.0

    def __post_init__(self) -> None:
        if not self.start >= 0:
            raise ValueError(f"fault start must be >= 0, got {self.start}")
        if not self.duration >= 0:
            raise ValueError(f"fault duration must be >= 0, got {self.duration}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def kind(self) -> str:
        """Stable kebab-case name for logs and reports."""
        return _KIND_NAMES[type(self)]


@dataclass(frozen=True)
class AbandonmentWave(Fault):
    """At ``start``, ``fraction`` of busy workers abandon their tasks."""

    #: Fraction of currently-executing workers that walk away.
    fraction: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 <= self.fraction <= 1.0):
            raise ValueError(f"fraction must be in [0,1], got {self.fraction}")


@dataclass(frozen=True)
class NoShowFault(Fault):
    """Workers accept tasks during the window but never start them."""

    #: Probability that an assignment made during the window is a no-show.
    probability: float = 1.0
    #: How long a no-show worker sits on the task before walking away.
    hold_time: float = 30.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability must be in [0,1], got {self.probability}")
        if not self.hold_time > 0:
            raise ValueError(f"hold_time must be positive, got {self.hold_time}")


@dataclass(frozen=True)
class StaleProfileFault(Fault):
    """Profile observations recorded during the window are corrupted."""

    #: Multiplier applied to every completion-time observation; values > 1
    #: make every worker look like a dawdler, values < 1 hide dawdling.
    distortion: float = 10.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.distortion < math.inf:
            raise ValueError(f"distortion must be finite and positive, got {self.distortion}")


@dataclass(frozen=True)
class MatcherStallFault(Fault):
    """The Scheduling Component's matcher latency spikes."""

    #: Extra simulated seconds charged to every batch started in-window.
    extra_latency: float = 30.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.extra_latency < math.inf:
            raise ValueError(
                f"extra_latency must be finite and positive, got {self.extra_latency}"
            )


@dataclass(frozen=True)
class SweepOutageFault(Fault):
    """The Eq. 2 reassignment monitor goes dark for the window."""


@dataclass(frozen=True)
class BlackoutFault(Fault):
    """The whole region server blacks out for the window."""


_KIND_NAMES = {
    AbandonmentWave: "abandonment-wave",
    NoShowFault: "no-show",
    StaleProfileFault: "stale-profile",
    MatcherStallFault: "matcher-stall",
    SweepOutageFault: "sweep-outage",
    BlackoutFault: "blackout",
}

FAULT_KINDS: Tuple[type, ...] = tuple(_KIND_NAMES)


@dataclass(frozen=True)
class FaultSchedule:
    """A seedable, replayable chaos scenario: faults plus the injector seed."""

    faults: Tuple[Fault, ...] = ()
    #: Seed of the injector's private RNG (wave victim choice, no-show coins).
    seed: int = 0

    def __post_init__(self) -> None:
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise TypeError(f"not a Fault: {fault!r}")

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    @property
    def horizon(self) -> float:
        """Simulated time by which every fault window has closed."""
        return max((fault.end for fault in self.faults), default=0.0)

    @classmethod
    def standard(
        cls,
        first_start: float = 60.0,
        spacing: float = 120.0,
        window: float = 40.0,
        seed: int = 0,
    ) -> "FaultSchedule":
        """One of every fault kind, spaced out so recovery is observable.

        The order goes from mildest to harshest — profile corruption, sweep
        outage, no-shows, a matcher stall, an abandonment wave, and finally
        a full blackout — each separated by ``spacing`` seconds of calm.
        """
        t = first_start
        faults = []
        for fault_type, kwargs in (
            (StaleProfileFault, {"duration": window}),
            (SweepOutageFault, {"duration": window}),
            (NoShowFault, {"duration": window}),
            (MatcherStallFault, {"duration": window}),
            (AbandonmentWave, {}),
            (BlackoutFault, {"duration": window}),
        ):
            faults.append(fault_type(start=t, **kwargs))
            t += spacing
        return cls(faults=tuple(faults), seed=seed)
