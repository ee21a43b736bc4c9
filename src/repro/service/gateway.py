"""The HTTP/JSON gateway: live REACT middleware behind a stdlib web surface.

:class:`ServiceGateway` assembles the live-service stack on the running
asyncio loop:

* a :class:`~repro.service.runtime.WallClockRuntime` drives the platform
  components in real time (``time_scale`` accelerates tests);
* a :class:`~repro.platform.coordinator.Coordinator` owns the region map and
  split-on-overload, building :class:`~repro.service.bridge.LiveRegionServer`
  instances through its ``server_factory`` hook;
* an :class:`~repro.service.admission.AdmissionController` sheds excess
  submit load as 429 + ``Retry-After`` (token bucket + bounded backlog);
* a :class:`~repro.service.httpd.HttpServer` speaks HTTP/1.1.

Endpoints (all JSON unless noted)::

    POST /tasks                      submit {deadline, reward?, category?,
                                     latitude?, longitude?} -> 201 {task_id}
                                     or 429 {reason, retry_after}
    GET  /tasks/<id>                 lifecycle state -> 200 / 404
    POST /workers                    register {worker_id?, latitude?,
                                     longitude?} -> 201 {worker_id}
    POST /workers/<id>/heartbeat     keep-alive -> 200 {assignment: ...|null}
    POST /workers/<id>/answer        {task_id, generation} -> 200 completed
                                     / 409 stale / 404 unknown
    POST /workers/<id>/deregister    -> 200
    GET  /healthz                    liveness (always 200 while serving)
    GET  /readyz                     503 once draining, else 200
    GET  /metrics                    Prometheus text (repro.obs exporter)

Tasks and workers that omit coordinates are placed round-robin on region
centers, so load spreads across servers without the client knowing the
geography.  Requesters and workers are *live* clients: the gateway never
draws behaviour outcomes — deadline hits are whatever the wall clock says.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, cast

from ..model.region import Region, RegionGrid
from ..model.task import Task, TaskCategory
from ..model.worker import WorkerProfile
from ..obs.exporters import prometheus_text
from ..obs.registry import MetricsRegistry
from ..platform.coordinator import Coordinator
from ..platform.cost import CostModel, ZeroCost
from ..platform.policies import SchedulingPolicy, react_policy
from ..sim.clock import EventClock
from ..sim.rng import RngRegistry
from .admission import AdmissionConfig, AdmissionController
from .bridge import LiveRegionServer
from .httpd import BadRequest, HttpRequest, HttpResponse, HttpServer, json_response
from .runtime import WallClockRuntime

#: Submit-to-answer latency buckets (clock seconds): the paper's deadlines
#: sit in [60, 120] s, so the tail buckets bracket that window.
LATENCY_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 60.0, 90.0, 120.0, 180.0)


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs for one gateway instance."""

    host: str = "127.0.0.1"
    #: 0 = ephemeral; the bound port is exposed as ``ServiceGateway.port``.
    port: int = 0
    #: Region grid served by the coordinator.
    lat_min: float = 0.0
    lat_max: float = 10.0
    lon_min: float = 0.0
    lon_max: float = 10.0
    rows: int = 1
    cols: int = 1
    #: Unassigned-queue depth that triggers a §V-D region split (None = off).
    overload_queue_limit: Optional[int] = None
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Deadline applied when a submit omits one (paper: U[60, 120] s).
    default_deadline: float = 90.0
    #: Workers silent for this many clock seconds are deregistered.
    liveness_timeout: Optional[float] = 30.0
    #: Clock seconds per wall second (accelerated tests run 50-500x).
    time_scale: float = 1.0
    #: Matcher RNG seed (tie-breaking); live mode has no other draws.
    seed: int = 20130521
    #: Wall-second budget for the drain phase of :meth:`ServiceGateway.stop`.
    drain_timeout: float = 10.0

    def __post_init__(self) -> None:
        # Checked here, not where the components read them, so a bad value
        # fails before anything binds a socket (``main`` reports it as a
        # usage error).  ``0 < x < inf`` is False for NaN too.
        for name in ("rows", "cols"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.time_scale < math.inf:
            raise ValueError(
                f"time_scale must be positive and finite, got {self.time_scale}"
            )
        if self.liveness_timeout is not None and not 0 < self.liveness_timeout < math.inf:
            raise ValueError(
                "liveness_timeout must be positive and finite (or None), "
                f"got {self.liveness_timeout}"
            )
        # A NaN deadline never compares as reached: stop() would wait for
        # the backlog forever.
        if not 0 <= self.drain_timeout < math.inf:
            raise ValueError(
                f"drain_timeout must be >= 0 and finite, got {self.drain_timeout}"
            )


class ServiceGateway:
    """Bound HTTP gateway plus the live middleware stack behind it."""

    def __init__(
        self,
        config: Optional[GatewayConfig] = None,
        policy: Optional[SchedulingPolicy] = None,
    ) -> None:
        self.config = config if config is not None else GatewayConfig()
        self.policy = policy if policy is not None else react_policy()
        self.registry = MetricsRegistry()
        self.runtime: Optional[WallClockRuntime] = None
        self.coordinator: Optional[Coordinator] = None
        self.port: Optional[int] = None
        self.host: Optional[str] = None
        self._httpd: Optional[HttpServer] = None
        self._admission: Optional[AdmissionController] = None
        self._ready = False
        self._next_worker_id = 1
        self._rr_index = 0
        self.completed = 0
        self._latency = self.registry.histogram(
            "service_submit_to_answer_seconds",
            "Submit-to-answer latency for completed tasks (clock seconds)",
            buckets=LATENCY_BUCKETS,
        )
        self.registry.counter(
            "service_completed_total", "Answers accepted by the gateway",
            source=lambda: self.completed,
        )
        self._handler_errors = self.registry.counter(
            "service_handler_errors_total",
            "Handler exceptions answered with HTTP 500",
        )
        self.registry.gauge(
            "service_workers", "Workers currently registered",
            source=self._workers,
        )
        self.registry.gauge(
            "service_in_flight", "Tasks admitted and not yet finished",
            source=self._backlog,
        )

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Build the stack on the running loop and bind the listener."""
        if self.runtime is not None:
            raise RuntimeError("gateway already started")
        config = self.config
        self.runtime = WallClockRuntime(time_scale=config.time_scale)
        grid = RegionGrid(
            config.lat_min,
            config.lat_max,
            config.lon_min,
            config.lon_max,
            rows=config.rows,
            cols=config.cols,
        )
        self.coordinator = Coordinator(
            engine=self.runtime,
            policy=self.policy,
            regions=list(grid.regions),
            rng=RngRegistry(config.seed),
            cost_model=ZeroCost(),
            overload_queue_limit=config.overload_queue_limit,
            server_factory=self._make_server,
        )
        self._admission = AdmissionController(
            config.admission,
            clock=self.runtime,
            backlog_fn=self._backlog,
            registry=self.registry,
        )
        self._httpd = HttpServer(self._handle, error_counter=self._handler_errors)
        self.host, self.port = await self._httpd.start(config.host, config.port)
        self._ready = True

    async def stop(self) -> None:
        """Graceful drain: unready, wait for in-flight work, then tear down.

        ``/readyz`` flips to 503 immediately (load balancers stop routing);
        submits and registrations are refused while registered workers keep
        answering.  The wait ends when the backlog is empty, when no worker
        is left to take or answer it, or after ``drain_timeout`` wall
        seconds; any remaining work is abandoned.
        """
        self._ready = False
        deadline = asyncio.get_running_loop().time() + self.config.drain_timeout
        while self._backlog() > 0 and self._workers():
            if asyncio.get_running_loop().time() >= deadline:
                break
            await asyncio.sleep(0.02)
        for server in self.servers:
            server.stop()
        if self.runtime is not None:
            self.runtime.close()
        if self._httpd is not None:
            await self._httpd.close()

    @property
    def ready(self) -> bool:
        return self._ready

    @property
    def servers(self) -> List[LiveRegionServer]:
        """The coordinator's servers (none before :meth:`start`)."""
        if self.coordinator is None:
            return []
        return cast(List[LiveRegionServer], self.coordinator.servers)

    def summary(self) -> Dict[str, float]:
        """Aggregate middleware summary across the live servers."""
        assert self.coordinator is not None
        return self.coordinator.aggregate_summary()

    # ------------------------------------------------------------ internals
    def _make_server(
        self,
        clock: EventClock,
        policy: SchedulingPolicy,
        rng: RngRegistry,
        cost_model: Optional[CostModel],
    ) -> LiveRegionServer:
        return LiveRegionServer(
            clock=clock,
            policy=policy,
            rng=rng,
            cost_model=cost_model if cost_model is not None else ZeroCost(),
            liveness_timeout=self.config.liveness_timeout,
        )

    def _backlog(self) -> int:
        return sum(server.in_flight for server in self.servers)

    def _workers(self) -> int:
        return sum(len(server.profiling) for server in self.servers)

    def _next_location(self) -> tuple:
        """Round-robin region centers for clients that omit coordinates."""
        assert self.coordinator is not None
        regions: List[Region] = self.coordinator.regions
        region = regions[self._rr_index % len(regions)]
        self._rr_index += 1
        return region.center

    def _coords(self, body: Dict[str, object]) -> tuple:
        lat, lon = body.get("latitude"), body.get("longitude")
        if lat is None or lon is None:
            return self._next_location()
        try:
            return float(lat), float(lon)  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"bad coordinates: {lat!r}, {lon!r}") from exc

    @staticmethod
    def _body_dict(request: HttpRequest) -> Dict[str, object]:
        body = request.json()
        if body is None:
            return {}
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        return body

    # -------------------------------------------------------------- routing
    async def _handle(self, request: HttpRequest) -> HttpResponse:
        method, path = request.method, request.path
        parts = [part for part in path.split("/") if part]
        if path == "/healthz" and method == "GET":
            return json_response({"status": "ok"})
        if path == "/readyz" and method == "GET":
            if self._ready:
                return json_response({"status": "ready"})
            return json_response({"status": "draining"}, status=503)
        if path == "/metrics" and method == "GET":
            return HttpResponse(
                status=200,
                body=prometheus_text(self.registry).encode("utf-8"),
                content_type="text/plain; version=0.0.4",
            )
        if path == "/tasks" and method == "POST":
            return self._submit_task(request)
        if len(parts) == 2 and parts[0] == "tasks" and method == "GET":
            return self._task_status(parts[1])
        if path == "/workers" and method == "POST":
            return self._register_worker(request)
        if len(parts) == 3 and parts[0] == "workers" and method == "POST":
            worker_id = _int_segment(parts[1], "worker id")
            if parts[2] == "heartbeat":
                return self._heartbeat(worker_id)
            if parts[2] == "answer":
                return self._answer(worker_id, request)
            if parts[2] == "deregister":
                return self._deregister(worker_id)
        return json_response({"error": f"no route for {method} {path}"}, status=404)

    # ------------------------------------------------------------ endpoints
    def _submit_task(self, request: HttpRequest) -> HttpResponse:
        assert self._admission is not None and self.coordinator is not None
        if not self._ready:
            return json_response({"error": "draining"}, status=503)
        body = self._body_dict(request)
        try:
            deadline = float(body.get("deadline", self.config.default_deadline))  # type: ignore[arg-type]
            reward = float(body.get("reward", 0.05))  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"bad numeric field: {exc}") from exc
        category_raw = body.get("category", TaskCategory.GENERIC.value)
        try:
            category = TaskCategory(category_raw)
        except ValueError as exc:
            raise BadRequest(f"unknown category: {category_raw!r}") from exc
        latitude, longitude = self._coords(body)
        try:
            task = Task(
                latitude=latitude,
                longitude=longitude,
                deadline=deadline,
                reward=reward,
                category=category,
                description=str(body.get("description", "")),
            )
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
        self._server_for(latitude, longitude)  # 400 outside every region
        # The token is taken last, so a malformed submission never spends one.
        decision = self._admission.check()
        if not decision.admitted:
            retry_after = round(decision.retry_after, 3)
            return json_response(
                {
                    "error": "overloaded",
                    "reason": decision.reason,
                    "retry_after": retry_after,
                },
                status=429,
                headers={"Retry-After": f"{retry_after:g}"},
            )
        self.coordinator.submit_task(task)
        return json_response(
            {"task_id": task.task_id, "status": "admitted"}, status=201
        )

    def _task_status(self, segment: str) -> HttpResponse:
        task_id = _int_segment(segment, "task id")
        for server in self.servers:
            try:
                return json_response(server.task_status(task_id))
            except KeyError:
                continue
        return json_response({"error": f"unknown task {task_id}"}, status=404)

    def _register_worker(self, request: HttpRequest) -> HttpResponse:
        body = self._body_dict(request)
        if not self._ready:
            return json_response({"error": "draining"}, status=503)
        raw_id = body.get("worker_id")
        if raw_id is None:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
        else:
            worker_id = _int_value(raw_id, "worker_id")
            self._next_worker_id = max(self._next_worker_id, worker_id + 1)
        if self._server_of(worker_id) is not None:
            return json_response(
                {"error": f"worker {worker_id} already registered"}, status=409
            )
        latitude, longitude = self._coords(body)
        try:
            profile = WorkerProfile(
                worker_id=worker_id, latitude=latitude, longitude=longitude
            )
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
        server = self._server_for(latitude, longitude)
        server.add_worker(profile)
        return json_response({"worker_id": worker_id}, status=201)

    def _server_of(self, worker_id: int) -> Optional[LiveRegionServer]:
        """The server whose worker table holds ``worker_id``, if any.

        The tables are the one record of who is where: a region split can
        move an idle worker to a child server and a liveness sweep can cull
        a silent one, so the gateway keeps no route of its own to go stale.
        """
        for server in self.servers:
            if worker_id in server.profiling:
                return server
        return None

    def _heartbeat(self, worker_id: int) -> HttpResponse:
        server = self._server_of(worker_id)
        if server is None:
            return json_response(
                {"error": f"unknown worker {worker_id}; re-register"}, status=404
            )
        notice = server.heartbeat(worker_id)
        return json_response(
            {"assignment": asdict(notice) if notice is not None else None}
        )

    def _answer(self, worker_id: int, request: HttpRequest) -> HttpResponse:
        server = self._server_of(worker_id)
        if server is None:
            return json_response(
                {"error": f"unknown worker {worker_id}"}, status=404
            )
        body = self._body_dict(request)
        task_id = _int_value(body.get("task_id"), "task_id")
        generation = _int_value(body.get("generation"), "generation")
        outcome = server.submit_answer(worker_id, task_id, generation)
        if outcome.completed:
            self.completed += 1
            task = server.task_management.get(task_id)
            if task.total_time is not None:
                self._latency.observe(task.total_time)
            return json_response(
                {"status": "completed", "met_deadline": outcome.met_deadline}
            )
        if outcome.status == "stale":
            return json_response({"status": "stale"}, status=409)
        return json_response({"error": outcome.status}, status=404)

    def _deregister(self, worker_id: int) -> HttpResponse:
        server = self._server_of(worker_id)
        if server is None:
            return json_response(
                {"error": f"unknown worker {worker_id}"}, status=404
            )
        server.remove_worker(worker_id)
        return json_response({"status": "deregistered"})

    def _server_for(self, latitude: float, longitude: float) -> LiveRegionServer:
        """The server owning the point; a point outside every region is a 400."""
        assert self.coordinator is not None
        try:
            server = self.coordinator.server_for(latitude, longitude)
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
        return cast(LiveRegionServer, server)


def _int_segment(segment: str, label: str) -> int:
    try:
        return int(segment)
    except ValueError as exc:
        raise BadRequest(f"bad {label}: {segment!r}") from exc


def _int_value(value: object, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{label} must be an integer, got {value!r}")
    return value
