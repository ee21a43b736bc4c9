"""Closed-loop load generation against a running :class:`ServiceGateway`.

Simulates the paper's experimental population over real HTTP: a requester
coroutine submits tasks with Poisson inter-arrival gaps (the paper sweeps
1.5-12.5 tasks/s per region, §IV) while ``workers`` concurrent worker
coroutines register, heartbeat, execute whatever they are handed (a
uniform-random wall sleep) and post the answer back — the full
submit → admit → match → dispatch → answer loop, measured end to end.

The harness is *closed-loop on the worker side* (a worker never holds more
than one task) and *open-loop on arrivals* (the Poisson clock does not slow
down when the gateway sheds load), which is exactly the overload shape the
admission controller exists for: past saturation the submit rate keeps
hammering and the report shows 429s rising while admitted-task latency
stays bounded.

Everything here is wall-clock territory (DET001 exempts ``repro.service``),
but the stochastic draws — arrival gaps, work times — still come from a
seeded ``numpy`` generator so a load test is repeatable modulo scheduler
jitter.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .httpd import MAX_HEADER_LINE


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-test scenario."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Task arrival rate, tasks per wall second (paper axis: 1.5-12.5).
    arrival_rate: float = 5.0
    #: Wall seconds of task submission.
    duration: float = 10.0
    #: Concurrent worker coroutines.
    workers: int = 20
    #: Wall seconds between heartbeats while idle.
    heartbeat_interval: float = 0.1
    #: Uniform work-time window (wall seconds) per executed task.
    work_time_min: float = 0.2
    work_time_max: float = 1.0
    #: Task deadline submitted with each task (clock seconds).
    task_deadline: float = 90.0
    #: Wall seconds to keep workers draining after submission stops.
    drain_grace: float = 5.0
    seed: int = 20130521

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be positive, got {self.arrival_rate}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0 < self.work_time_min <= self.work_time_max:
            raise ValueError(
                f"work time window invalid: [{self.work_time_min}, {self.work_time_max}]"
            )


@dataclass
class LoadReport:
    """Aggregated outcome of one load-test run."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    rejected_by_reason: Dict[str, int] = field(default_factory=dict)
    completed: int = 0
    stale: int = 0
    errors: int = 0
    wall_seconds: float = 0.0
    #: Submit-to-answer latencies (wall seconds) for completed tasks.
    latencies: List[float] = field(default_factory=list)

    def percentile(self, q: float) -> Optional[float]:
        if not self.latencies:
            return None
        return float(np.percentile(np.asarray(self.latencies), q))

    def to_dict(self) -> Dict[str, object]:
        def _round(value: Optional[float]) -> Optional[float]:
            return round(value, 4) if value is not None else None

        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "rejected_by_reason": dict(self.rejected_by_reason),
            "completed": self.completed,
            "stale": self.stale,
            "errors": self.errors,
            "wall_seconds": round(self.wall_seconds, 3),
            "admitted_per_second": (
                round(self.admitted / self.wall_seconds, 3) if self.wall_seconds else 0.0
            ),
            "latency_p50": _round(self.percentile(50)),
            "latency_p95": _round(self.percentile(95)),
            "latency_p99": _round(self.percentile(99)),
        }


class AsyncHttpClient:
    """Tiny keep-alive HTTP/1.1 JSON client (one connection per instance)."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port, limit=MAX_HEADER_LINE
        )

    async def close(self) -> None:
        # Drop the shared references before suspending in wait_closed():
        # a concurrent request()/close() resuming mid-await must not see a
        # half-closed connection (ASYNC003 check-then-act discipline).
        writer = self._writer
        if writer is None:
            return
        self._reader = None
        self._writer = None
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, object]:
        """One round-trip; reconnects once on a dropped keep-alive socket."""
        try:
            return await self._round_trip(method, path, payload)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            await self.close()
            return await self._round_trip(method, path, payload)

    async def _round_trip(
        self, method: str, path: str, payload: Optional[dict]
    ) -> Tuple[int, object]:
        if self._writer is None or self._reader is None:
            await self._connect()
        assert self._reader is not None and self._writer is not None
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()

        status_line = await self._reader.readuntil(b"\r\n")
        parts = status_line.decode("latin-1").split(" ", 2)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        if not raw:
            return status, None
        try:
            return status, json.loads(raw)
        except json.JSONDecodeError:
            return status, raw


async def run_loadgen(config: LoadgenConfig) -> LoadReport:
    """Drive one closed-loop load test; returns the aggregated report."""
    report = LoadReport()
    rng = np.random.default_rng(config.seed)
    submit_times: Dict[int, float] = {}
    stop = asyncio.Event()
    started = time.monotonic()

    async def requester() -> None:
        client = AsyncHttpClient(config.host, config.port)
        end = started + config.duration
        try:
            while True:
                gap = float(rng.exponential(1.0 / config.arrival_rate))
                now = time.monotonic()
                if now + gap >= end:
                    break
                await asyncio.sleep(gap)
                report.submitted += 1
                try:
                    status, body = await client.request(
                        "POST", "/tasks", {"deadline": config.task_deadline}
                    )
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    report.errors += 1
                    continue
                if status == 201 and isinstance(body, dict):
                    report.admitted += 1
                    submit_times[int(body["task_id"])] = time.monotonic()
                elif status == 429:
                    report.rejected += 1
                    reason = "unknown"
                    if isinstance(body, dict):
                        reason = str(body.get("reason", "unknown"))
                    report.rejected_by_reason[reason] = (
                        report.rejected_by_reason.get(reason, 0) + 1
                    )
                else:
                    report.errors += 1
        finally:
            await client.close()

    async def worker(index: int) -> None:
        client = AsyncHttpClient(config.host, config.port)
        worker_rng = np.random.default_rng(config.seed + 7919 * (index + 1))
        worker_id: Optional[int] = None
        try:
            status, body = await client.request("POST", "/workers", {})
            if status != 201 or not isinstance(body, dict):
                report.errors += 1
                return
            worker_id = int(body["worker_id"])
            while not stop.is_set():
                status, body = await client.request(
                    "POST", f"/workers/{worker_id}/heartbeat"
                )
                if status != 200 or not isinstance(body, dict):
                    report.errors += 1
                    await asyncio.sleep(config.heartbeat_interval)
                    continue
                assignment = body.get("assignment")
                if not assignment:
                    await asyncio.sleep(config.heartbeat_interval)
                    continue
                task_id = int(assignment["task_id"])  # type: ignore[index]
                generation = int(assignment["generation"])  # type: ignore[index]
                work = float(
                    worker_rng.uniform(config.work_time_min, config.work_time_max)
                )
                await asyncio.sleep(work)
                status, body = await client.request(
                    "POST",
                    f"/workers/{worker_id}/answer",
                    {"task_id": task_id, "generation": generation},
                )
                if status == 200:
                    report.completed += 1
                    submitted_at = submit_times.pop(task_id, None)
                    if submitted_at is not None:
                        report.latencies.append(time.monotonic() - submitted_at)
                elif status == 409:
                    report.stale += 1
                else:
                    report.errors += 1
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            report.errors += 1
        finally:
            if worker_id is not None:
                try:
                    await client.request("POST", f"/workers/{worker_id}/deregister")
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    pass
            await client.close()

    worker_tasks = [
        asyncio.ensure_future(worker(index)) for index in range(config.workers)
    ]
    await requester()
    # Submission is over; give in-flight assignments a grace window to land.
    grace_end = time.monotonic() + config.drain_grace
    while submit_times and time.monotonic() < grace_end:
        await asyncio.sleep(0.05)
    stop.set()
    await asyncio.gather(*worker_tasks, return_exceptions=True)
    report.wall_seconds = time.monotonic() - started
    return report
