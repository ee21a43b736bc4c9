"""Live-service mode: the REACT middleware on a wall-clock asyncio runtime.

The paper's middleware serves real requesters and workers under real-time
constraints; everywhere else in this repo the platform components run under
the deterministic DES engine.  This package is the third execution mode
(after sequential DES and sharded DES): the *same* component classes —
Profiling, Task Management, Scheduling, Dynamic Assignment — driven by
monotonic wall time through the :class:`~repro.sim.clock.EventClock`
protocol, fronted by an HTTP/JSON gateway.

Layers (docs/SERVICE.md):

* :mod:`repro.service.runtime` — :class:`WallClockRuntime`, an asyncio
  event source satisfying ``EventClock`` (one armed timer driving an owned
  DES :class:`~repro.sim.engine.Engine` through each due instant, optional
  ``time_scale`` for accelerated tests);
* :mod:`repro.service.bridge` — :class:`LiveRegionServer`, the REACT
  region server wired for live traffic: worker inboxes and answer
  callbacks replace the simulator's behaviour draws;
* :mod:`repro.service.admission` — token-bucket admission control and the
  bounded-backlog guard behind the gateway's 429 + Retry-After responses;
* :mod:`repro.service.httpd` — a minimal stdlib asyncio HTTP/1.1 server;
* :mod:`repro.service.gateway` — :class:`ServiceGateway`, the endpoint
  surface (task submit, worker register/heartbeat/answer/deregister,
  ``/healthz`` ``/readyz`` ``/metrics``) with per-region routing via the
  :class:`~repro.platform.coordinator.Coordinator`;
* :mod:`repro.service.loadgen` — the closed-loop load-generation harness.

This is the only package in which reprolint's DET001 permits wall-clock
reads: everything under a simulation seed stays deterministic, and the
boundary is machine-checked (docs/STATIC_ANALYSIS.md).
"""

from .admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from .bridge import AnswerOutcome, DispatchNotice, LiveRegionServer
from .gateway import GatewayConfig, ServiceGateway
from .loadgen import LoadgenConfig, LoadReport, run_loadgen
from .runtime import ServiceRuntimeError, WallClockRuntime

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "AnswerOutcome",
    "DispatchNotice",
    "GatewayConfig",
    "LiveRegionServer",
    "LoadgenConfig",
    "LoadReport",
    "ServiceGateway",
    "ServiceRuntimeError",
    "TokenBucket",
    "WallClockRuntime",
    "run_loadgen",
]
