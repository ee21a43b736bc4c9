"""Region-server conformance: one battery, two deliveries.

Every scenario runs verbatim against the push delivery (``REACTServer``:
the server schedules simulated completions) and the pull delivery
(``LiveRegionServer``: a scripted worker polls its inbox and posts its
answer), both on the DES engine so every timing assertion is exact — the
contract of the shared :class:`~repro.platform.server.RegionServer`.  A
scripted worker answers ``duration`` seconds after his assignment is
published: the push worker's behaviour never delays and has a degenerate
``[duration, duration]`` window; the pull worker's answer is scheduled from
the dispatch hook.
"""

import pytest

from repro.model.task import Task, TaskCategory, TaskPhase
from repro.model.worker import WorkerBehavior, WorkerProfile
from repro.platform.cost import ZeroCost
from repro.platform.policies import react_policy
from repro.platform.server import REACTServer
from repro.service.bridge import LiveRegionServer
from repro.sim.engine import Engine
from repro.sim.events import EventKind
from repro.sim.rng import RngRegistry

DELIVERIES = ("push", "pull")


class Harness:
    """A started server of one delivery, plus scripted workers and tasks."""

    def __init__(self, delivery, **policy_overrides):
        self.engine = Engine()
        self.durations = {}
        common = dict(
            policy=react_policy(batch_threshold=1, **policy_overrides),
            rng=RngRegistry(seed=7),
            cost_model=ZeroCost(),
        )
        if delivery == "push":
            self.server = REACTServer(engine=self.engine, **common)
        else:
            self.server = LiveRegionServer(
                clock=self.engine, on_dispatch=self._answer_later, **common
            )
        self.server.start()

    def add_worker(self, worker_id, duration):
        self.durations[worker_id] = duration
        behavior = WorkerBehavior(
            min_time=duration, max_time=duration, quality=1.0,
            delay_probability=0.0, delay_cap=duration,
        )
        self.server.add_worker(WorkerProfile(worker_id=worker_id), behavior)

    def submit(self, deadline):
        task = Task(
            latitude=0.0, longitude=0.0, deadline=deadline,
            category=TaskCategory.GENERIC, submitted_at=self.engine.now,
        )
        self.server.submit_task(task)
        return task

    def run(self, until):
        self.engine.run(until=until)

    def current_task(self, worker_id):
        return self.server.profiling.current_task(worker_id)

    def is_free(self, worker_id):
        return self.server.profiling.is_free(worker_id)

    def history(self, worker_id):
        return self.server.profiling.history(worker_id)

    def censored(self, worker_id):
        """Observations without feedback: the censored holds."""
        history = self.history(worker_id)
        return len(history.execution_times) - sum(history.finished)

    def _answer_later(self, notice):
        def answer(_event):
            if notice.worker_id in self.server.profiling:
                self.server.heartbeat(notice.worker_id)
                self.server.submit_answer(
                    notice.worker_id, notice.task_id, notice.generation
                )

        delay = self.durations[notice.worker_id]
        self.engine.schedule(delay, EventKind.CALLBACK, answer)


@pytest.fixture(params=DELIVERIES)
def harness(request):
    return Harness(request.param)


@pytest.fixture(params=DELIVERIES)
def delivery(request):
    return request.param


def test_assignment_to_completion(harness):
    harness.add_worker(1, duration=3.0)
    task = harness.submit(deadline=60.0)
    harness.run(until=1.0)
    assert task.phase is TaskPhase.ASSIGNED and not harness.is_free(1)
    harness.run(until=30.0)
    assert task.phase is TaskPhase.COMPLETED and task.met_deadline
    metrics = harness.server.metrics
    assert metrics.completed == metrics.completed_on_time == 1
    assert metrics.positive_feedbacks == 1
    assert harness.history(1).execution_times == [pytest.approx(3.0)]
    assert harness.is_free(1) and harness.current_task(1) is None
    metrics.check_conservation()


def test_running_expiry_withdraws_censors_and_requeues(delivery):
    # With assign_expired and no Eq. 3 pruning the returned, now late task is
    # matchable again.  The expiry releases worker 1, so the requeued task
    # goes straight back to him, the only worker.  His result for the first
    # assignment (due at 100) is stale; the second one's lands at 110.
    harness = Harness(delivery, assign_expired=True, use_probabilistic_model=False)
    harness.add_worker(1, duration=100.0)
    task = harness.submit(deadline=10.0)
    harness.run(until=11.0)
    assert harness.server.metrics.expiry_returns == 1
    assert harness.censored(1) == 1
    assert harness.history(1).execution_times == [pytest.approx(10.0)]
    assert task.assigned_worker == 1 and task.assignments == 2
    assert harness.current_task(1) == task.task_id and not harness.is_free(1)
    harness.run(until=200.0)
    assert task.phase is TaskPhase.COMPLETED and not task.met_deadline
    assert task.completed_at == pytest.approx(110.0)
    assert harness.server.metrics.completed == 1
    assert harness.server.metrics.expiry_returns == 1
    assert harness.is_free(1) and harness.censored(1) == 1
    assert harness.history(1).execution_times == [
        pytest.approx(10.0), pytest.approx(100.0)
    ]
    harness.server.metrics.check_conservation()


def test_departure_mid_task_requeues_for_the_next_worker(harness):
    harness.add_worker(1, duration=5.0)
    task = harness.submit(deadline=60.0)
    harness.run(until=1.0)
    harness.server.remove_worker(1)
    assert 1 not in harness.server.profiling
    assert task.phase is TaskPhase.UNASSIGNED
    assert harness.server.task_management.unassigned_count == 1
    harness.add_worker(2, duration=5.0)
    harness.run(until=10.0)  # the periodic trigger at the latest
    assert task.assigned_worker == 2 and task.assignments == 2
    harness.run(until=30.0)  # worker 1's result, if any, is stale
    assert task.phase is TaskPhase.COMPLETED
    assert harness.server.metrics.completed == 1
    harness.server.metrics.check_conservation()


def test_stale_completion_frees_without_credit(delivery):
    harness = Harness(delivery)
    harness.add_worker(1, duration=30.0)
    task = harness.submit(deadline=10.0)
    harness.run(until=20.0)
    # Withdrawn at the deadline; the worker was released at once.
    assert task.phase is not TaskPhase.ASSIGNED
    assert harness.current_task(1) is None and harness.is_free(1)
    harness.run(until=40.0)  # his result for the withdrawn task arrives at 30
    assert harness.is_free(1)
    assert harness.history(1).execution_times == [pytest.approx(10.0)]
    assert harness.censored(1) == 1  # censored only
    assert harness.server.metrics.completed == 0
    harness.server.metrics.check_conservation()


def test_double_start_raises(harness):
    with pytest.raises(RuntimeError, match="already started"):
        harness.server.start()


def test_stop_disarms_every_timer(harness):
    harness.server.stop()
    harness.run(until=50.0)
    assert harness.engine.pending_active == 0


def test_summaries_share_their_keys():
    push, pull = (set(Harness(d).server.drain_and_summary()) for d in DELIVERIES)
    assert push == pull
