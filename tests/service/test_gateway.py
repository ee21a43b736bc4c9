"""ServiceGateway over real sockets: HTTP surface, backpressure, drain.

Every test boots a gateway on an ephemeral port inside ``asyncio.run`` and
talks to it with the loadgen's :class:`AsyncHttpClient` — the same code
path a live client uses.  ``time_scale`` accelerates the middleware clock
so batch triggers fire in tens of wall milliseconds.

The overload test is the PR's acceptance criterion: past the admission
rate the gateway sheds with 429 + ``Retry-After`` while the latency of
*admitted* tasks stays bounded.
"""

import asyncio

import pytest

from repro.platform.policies import react_policy
from repro.service.__main__ import main as service_main
from repro.service.admission import AdmissionConfig
from repro.service.gateway import GatewayConfig, ServiceGateway
from repro.service.loadgen import AsyncHttpClient, LoadgenConfig, run_loadgen

FAST = GatewayConfig(time_scale=50.0)


def run_async(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60.0))


async def boot(config=FAST, policy=None):
    gateway = ServiceGateway(config, policy=policy)
    await gateway.start()
    return gateway


async def poll_for_assignment(client, worker_id, attempts=200):
    for _ in range(attempts):
        status, body = await client.request(
            "POST", f"/workers/{worker_id}/heartbeat"
        )
        assert status == 200, body
        if body["assignment"]:
            return body["assignment"]
        await asyncio.sleep(0.02)
    raise AssertionError("no assignment delivered")


class TestHttpSurface:
    def test_health_ready_metrics(self):
        async def main():
            gateway = await boot()
            client = AsyncHttpClient(gateway.host, gateway.port)
            try:
                assert await client.request("GET", "/healthz") == (
                    200,
                    {"status": "ok"},
                )
                assert await client.request("GET", "/readyz") == (
                    200,
                    {"status": "ready"},
                )
                status, text = await client.request("GET", "/metrics")
                assert status == 200
                assert b"service_workers" in text
                assert b"service_in_flight" in text
            finally:
                await client.close()
                await gateway.stop()

        run_async(main())

    def test_full_task_lifecycle_over_http(self):
        async def main():
            gateway = await boot()
            client = AsyncHttpClient(gateway.host, gateway.port)
            try:
                status, body = await client.request("POST", "/workers", {})
                assert status == 201
                worker_id = body["worker_id"]

                status, body = await client.request(
                    "POST", "/tasks", {"deadline": 90.0}
                )
                assert status == 201 and body["status"] == "admitted"
                task_id = body["task_id"]

                assignment = await poll_for_assignment(client, worker_id)
                assert assignment["task_id"] == task_id
                assert assignment["generation"] == 1

                status, body = await client.request(
                    "POST",
                    f"/workers/{worker_id}/answer",
                    {"task_id": task_id, "generation": assignment["generation"]},
                )
                assert status == 200
                assert body == {"status": "completed", "met_deadline": True}
                assert gateway.completed == 1

                status, body = await client.request("GET", f"/tasks/{task_id}")
                assert status == 200
                assert body["phase"] == "completed"
                assert body["met_deadline"] is True

                status, text = await client.request("GET", "/metrics")
                assert b"service_completed_total 1" in text

                status, body = await client.request(
                    "POST", f"/workers/{worker_id}/deregister"
                )
                assert status == 200
                # Deregistered: the next heartbeat is told to re-register.
                status, body = await client.request(
                    "POST", f"/workers/{worker_id}/heartbeat"
                )
                assert status == 404
                # A re-registration starts a fresh row: the history of the
                # completed task is not revived.
                status, body = await client.request(
                    "POST", "/workers", {"worker_id": worker_id}
                )
                assert status == 201
                (server,) = [
                    s for s in gateway.coordinator.servers if worker_id in s.profiling
                ]
                history = server.profiling.history(worker_id)
                assert history.execution_times == []
                assert history.assignment_count == 0 and sum(history.finished) == 0
            finally:
                await client.close()
                await gateway.stop()

        run_async(main())

    def test_answer_to_an_old_generation_is_stale(self):
        async def main():
            gateway = await boot()
            client = AsyncHttpClient(gateway.host, gateway.port)
            try:
                status, body = await client.request("POST", "/workers", {})
                worker_id = body["worker_id"]
                status, body = await client.request(
                    "POST", "/tasks", {"deadline": 90.0}
                )
                task_id = body["task_id"]
                assignment = await poll_for_assignment(client, worker_id)
                generation = assignment["generation"]
                path = f"/workers/{worker_id}/answer"
                status, body = await client.request(
                    "POST", path, {"task_id": task_id, "generation": generation - 1}
                )
                assert (status, body) == (409, {"status": "stale"})
                status, body = await client.request(
                    "POST", path, {"task_id": task_id, "generation": generation}
                )
                assert status == 200 and body["status"] == "completed"
            finally:
                await client.close()
                await gateway.stop()

        run_async(main())

    def test_error_paths(self):
        async def main():
            gateway = await boot()
            client = AsyncHttpClient(gateway.host, gateway.port)
            try:
                status, _ = await client.request("GET", "/nope")
                assert status == 404
                status, _ = await client.request("GET", "/tasks/12345")
                assert status == 404
                status, _ = await client.request("GET", "/tasks/abc")
                assert status == 400
                status, _ = await client.request(
                    "POST", "/workers/7/answer", {"task_id": 1}
                )
                assert status == 404  # unknown worker
                status, _ = await client.request(
                    "POST", "/tasks", {"deadline": -5.0}
                )
                assert status == 400
                status, _ = await client.request(
                    "POST", "/tasks", {"category": "no-such-category"}
                )
                assert status == 400
                status, _ = await client.request(
                    "POST", "/tasks", {"latitude": "x", "longitude": 1.0}
                )
                assert status == 400
                # In range, but outside every region.
                status, body = await client.request(
                    "POST", "/tasks", {"latitude": 80.0, "longitude": 170.0}
                )
                assert status == 400 and "outside every region" in body["error"]
                for coords in (
                    {"latitude": "nan", "longitude": 1.0},
                    {"latitude": 91.0, "longitude": 1.0},
                    {"latitude": 80.0, "longitude": 170.0},
                ):
                    status, body = await client.request("POST", "/workers", coords)
                    assert status == 400, (coords, body)

                status, body = await client.request(
                    "POST", "/workers", {"worker_id": 5}
                )
                assert status == 201
                status, body = await client.request(
                    "POST", "/workers", {"worker_id": 5}
                )
                assert status == 409
                status, _ = await client.request(
                    "POST", "/workers/5/answer", {}
                )
                assert status == 400  # answer requires task_id
                status, body = await client.request(
                    "POST", "/workers/5/answer", {"task_id": 1}
                )
                assert status == 400  # and the generation it answers
                assert "generation" in body["error"]
                status, _ = await client.request(
                    "POST", "/workers/5/answer", {"task_id": 1, "generation": "1"}
                )
                assert status == 400
                status, text = await client.request("GET", "/metrics")
                assert b"service_handler_errors_total 0" in text
            finally:
                await client.close()
                await gateway.stop()

        run_async(main())

    def test_worker_culled_for_inactivity_can_register_again(self):
        async def main():
            gateway = await boot(GatewayConfig(time_scale=500.0, liveness_timeout=5.0))
            client = AsyncHttpClient(gateway.host, gateway.port)
            try:
                status, _ = await client.request("POST", "/workers", {"worker_id": 7})
                assert status == 201
                for _ in range(200):  # no heartbeats: the liveness sweep culls him
                    await asyncio.sleep(0.02)
                    if not any(7 in server.profiling for server in gateway.servers):
                        break
                else:
                    raise AssertionError("worker 7 was never culled")
                status, body = await client.request("POST", "/workers", {"worker_id": 7})
                assert status == 201, body
                status, _ = await client.request("POST", "/workers/7/heartbeat")
                assert status == 200
            finally:
                await client.close()
                await gateway.stop()

        run_async(main())


    def test_culled_worker_leaves_the_workers_gauge(self):
        async def main():
            gateway = await boot(GatewayConfig(time_scale=500.0, liveness_timeout=5.0))
            client = AsyncHttpClient(gateway.host, gateway.port)
            try:
                status, _ = await client.request("POST", "/workers", {"worker_id": 7})
                assert status == 201
                _, text = await client.request("GET", "/metrics")
                assert b"\nservice_workers 1\n" in text
                for _ in range(200):  # no heartbeats: the liveness sweep culls him
                    await asyncio.sleep(0.02)
                    if not any(7 in server.profiling for server in gateway.servers):
                        break
                else:
                    raise AssertionError("worker 7 was never culled")
                _, text = await client.request("GET", "/metrics")
                assert b"\nservice_workers 0\n" in text
            finally:
                await client.close()
                await gateway.stop()

        run_async(main())


class TestHandlerErrorCounter:
    def test_handler_crash_increments_counter_and_returns_500(self):
        from repro.service.httpd import HttpServer

        class Counter:
            def __init__(self):
                self.count = 0.0

            def inc(self, amount: float = 1.0) -> None:
                self.count += amount

        async def main():
            counter = Counter()

            async def exploding(request):
                raise RuntimeError("boom")

            server = HttpServer(exploding, error_counter=counter)
            host, port = await server.start()
            client = AsyncHttpClient(host, port)
            try:
                status, body = await client.request("GET", "/healthz")
                assert status == 500
                assert body == {"error": "internal error"}
            finally:
                await client.close()
                await server.close()
            return counter.count

        assert run_async(main()) == 1.0

    def test_gateway_exports_handler_error_metric(self):
        async def main():
            gateway = await boot()
            client = AsyncHttpClient(gateway.host, gateway.port)
            try:
                status, text = await client.request("GET", "/metrics")
                assert status == 200
                assert b"service_handler_errors_total 0" in text
            finally:
                await client.close()
                await gateway.stop()

        run_async(main())


class TestBackpressure:
    def test_rate_limit_returns_429_with_retry_hint(self):
        async def main():
            config = GatewayConfig(
                time_scale=1.0,
                admission=AdmissionConfig(rate=1.0, burst=1, max_in_flight=100),
            )
            gateway = await boot(config)
            client = AsyncHttpClient(gateway.host, gateway.port)
            try:
                status, _ = await client.request("POST", "/tasks", {})
                assert status == 201
                status, body = await client.request("POST", "/tasks", {})
                assert status == 429
                assert body["reason"] == "rate"
                assert body["retry_after"] > 0
            finally:
                await client.close()
                await gateway.stop()

        run_async(main())

    def test_malformed_submissions_spend_no_admission_token(self):
        async def main():
            config = GatewayConfig(
                time_scale=1.0,
                admission=AdmissionConfig(rate=0.01, burst=2, max_in_flight=100),
            )
            gateway = await boot(config)
            client = AsyncHttpClient(gateway.host, gateway.port)
            try:
                for _ in range(2):
                    status, _ = await client.request("POST", "/tasks", {"deadline": -5})
                    assert status == 400
                status, _ = await client.request(
                    "POST", "/tasks", {"latitude": 80.0, "longitude": 170.0}
                )
                assert status == 400  # outside every region
                for _ in range(2):
                    status, _ = await client.request("POST", "/tasks", {})
                    assert status == 201
                status, body = await client.request("POST", "/tasks", {})
                assert status == 429
                assert body["reason"] == "rate"
            finally:
                await client.close()
                await gateway.stop()

        run_async(main())

    @pytest.mark.parametrize(
        "body",
        [
            {"deadline": "nan"},
            {"deadline": float("nan")},
            {"deadline": "inf"},
            {"deadline": 60, "reward": "nan"},
            {"deadline": 60, "reward": float("inf")},
        ],
        ids=["deadline-nan-string", "deadline-nan", "deadline-inf-string",
             "reward-nan-string", "reward-inf"],
    )
    def test_non_finite_deadline_or_reward_is_a_400_and_spends_no_token(self, body):
        async def main():
            config = GatewayConfig(
                time_scale=1.0,
                admission=AdmissionConfig(rate=0.01, burst=1, max_in_flight=100),
            )
            gateway = await boot(config)
            client = AsyncHttpClient(gateway.host, gateway.port)
            try:
                status, reply = await client.request("POST", "/tasks", body)
                assert status == 400, reply
                status, _ = await client.request("POST", "/tasks", {})
                assert status == 201
                status, _ = await client.request("POST", "/tasks", {})
                assert status == 429
            finally:
                await client.close()
                await gateway.stop()

        run_async(main())

    def test_backlog_bound_returns_429(self):
        async def main():
            config = GatewayConfig(
                time_scale=1.0,
                admission=AdmissionConfig(
                    rate=100.0, burst=100, max_in_flight=1
                ),
            )
            gateway = await boot(config)
            client = AsyncHttpClient(gateway.host, gateway.port)
            try:
                status, _ = await client.request("POST", "/tasks", {})
                assert status == 201  # no workers: stays in flight
                status, body = await client.request("POST", "/tasks", {})
                assert status == 429
                assert body["reason"] == "backlog"
                assert body["retry_after"] == pytest.approx(1.0)
            finally:
                await client.close()
                await gateway.stop()

        run_async(main())

    def test_overload_sheds_while_admitted_latency_stays_bounded(self):
        """Acceptance: open-loop arrivals far above the admission rate.

        The bucket admits ~0.5/clock-second (5/wall-second at scale 10)
        against ~40 submits/second, so most submits bounce with 429; the
        few admitted tasks flow through match -> dispatch -> answer fast
        enough that completed-task p95 stays a small number of wall
        seconds, nowhere near the 90 clock-second deadline.
        """

        async def main():
            config = GatewayConfig(
                time_scale=10.0,
                admission=AdmissionConfig(rate=0.5, burst=2, max_in_flight=1000),
            )
            gateway = await boot(config, policy=react_policy(batch_threshold=1))
            try:
                report = await run_loadgen(
                    LoadgenConfig(
                        host=gateway.host,
                        port=gateway.port,
                        arrival_rate=40.0,
                        duration=2.0,
                        workers=8,
                        heartbeat_interval=0.02,
                        work_time_min=0.05,
                        work_time_max=0.15,
                        drain_grace=5.0,
                        seed=20130521,
                    )
                )
            finally:
                await gateway.stop()
            return report

        report = run_async(main())
        assert report.rejected > 0
        assert report.rejected_by_reason.get("rate", 0) > 0
        assert report.rejected > report.admitted  # shedding dominated
        assert report.completed > 0
        assert report.errors == 0
        p95 = report.percentile(95)
        assert p95 is not None and p95 < 5.0


class TestLifecycle:
    def test_double_start_raises(self):
        async def main():
            gateway = await boot()
            try:
                with pytest.raises(RuntimeError, match="already started"):
                    await gateway.start()
            finally:
                await gateway.stop()

        run_async(main())

    def test_drain_unreadies_then_closes_the_listener(self):
        async def main():
            config = GatewayConfig(
                time_scale=50.0, drain_timeout=0.5, liveness_timeout=None
            )
            gateway = await boot(config)
            client = AsyncHttpClient(gateway.host, gateway.port)
            # A registered worker that never answers and one in-flight task
            # keep stop() in its drain loop until drain_timeout expires.
            status, _ = await client.request("POST", "/workers", {})
            assert status == 201
            status, _ = await client.request("POST", "/tasks", {})
            assert status == 201
            stopper = asyncio.ensure_future(gateway.stop())
            await asyncio.sleep(0.05)
            assert not gateway.ready
            status, body = await client.request("GET", "/readyz")
            assert status == 503 and body == {"status": "draining"}
            status, _ = await client.request("POST", "/tasks", {})
            assert status == 503  # draining refuses new work
            status, _ = await client.request("POST", "/workers", {})
            assert status == 503
            await stopper
            await client.close()
            with pytest.raises((ConnectionError, OSError)):
                probe = AsyncHttpClient(gateway.host, gateway.port)
                try:
                    await probe.request("GET", "/healthz")
                finally:
                    await probe.close()

        run_async(main())

    def test_drain_ends_at_once_with_no_worker_registered(self):
        # Nobody can take or answer the queued task, so waiting out the
        # ten-second budget would only delay shutdown.  (The task's hour
        # is 72 wall seconds at this scale: it cannot expire meanwhile.)
        async def main():
            gateway = await boot(GatewayConfig(time_scale=50.0, drain_timeout=10.0))
            client = AsyncHttpClient(gateway.host, gateway.port)
            try:
                status, _ = await client.request("POST", "/tasks", {"deadline": 3600})
                assert status == 201
            finally:
                await client.close()
            loop = asyncio.get_running_loop()
            started = loop.time()
            await gateway.stop()
            assert gateway._backlog() == 1
            return loop.time() - started

        assert run_async(main()) < 2.0

    def test_drain_ends_when_the_last_worker_leaves(self):
        async def main():
            config = GatewayConfig(
                time_scale=50.0, drain_timeout=10.0, liveness_timeout=None
            )
            gateway = await boot(config)
            client = AsyncHttpClient(gateway.host, gateway.port)
            try:
                status, body = await client.request("POST", "/workers", {})
                assert status == 201
                worker_id = body["worker_id"]
                status, _ = await client.request("POST", "/tasks", {"deadline": 3600})
                assert status == 201
                stopper = asyncio.ensure_future(gateway.stop())
                await asyncio.sleep(0.2)
                assert not stopper.done()  # a worker could still answer
                status, _ = await client.request(
                    "POST", f"/workers/{worker_id}/deregister"
                )
                assert status == 200
                await asyncio.wait_for(stopper, timeout=2.0)
            finally:
                await client.close()

        run_async(main())

    @pytest.mark.parametrize("timeout", [-1.0, float("nan"), float("inf")])
    def test_drain_timeout_must_be_finite_and_non_negative(self, timeout):
        # A NaN or infinite budget never expires, so stop() would hang
        # while a task is queued.
        with pytest.raises(ValueError, match="drain_timeout"):
            GatewayConfig(drain_timeout=timeout)

    def test_zero_drain_timeout_is_allowed(self):
        assert GatewayConfig(drain_timeout=0.0).drain_timeout == 0.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("time_scale", 0.0),
            ("time_scale", -1.0),
            ("time_scale", float("nan")),
            ("time_scale", float("inf")),
            ("liveness_timeout", 0.0),
            ("liveness_timeout", float("nan")),
            ("liveness_timeout", float("inf")),
            ("rows", 0),
            ("cols", 0),
        ],
    )
    def test_clock_liveness_and_grid_are_checked(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            GatewayConfig(**{field: value})


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--admission-rate", "nan"], "rate"),
            (["--admission-rate", "0"], "rate"),
            (["--drain-timeout", "-1"], "drain_timeout"),
            (["--drain-timeout", "nan"], "drain_timeout"),
            (["--admission-burst", "0"], "burst"),
            (["--time-scale", "0"], "time_scale"),
            (["--time-scale", "nan"], "time_scale"),
            (["--liveness-timeout", "nan"], "liveness_timeout"),
            (["--rows", "0"], "rows"),
        ],
    )
    def test_bad_config_is_a_usage_error(self, argv, field, capsys):
        # The config check runs before anything binds a socket.
        with pytest.raises(SystemExit) as exit_info:
            service_main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {field} must be" in err
        assert "Traceback" not in err
