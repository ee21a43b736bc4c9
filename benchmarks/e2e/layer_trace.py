"""Outside-in layer tracing for the end-to-end benchmark.

A :class:`LayerTracer` wraps the public entry point of each layer (one layer
per ``repro`` module) with a span recorder, runs the workload, and restores
the originals on exit.  Nothing inside ``src/`` is edited: the wrappers are
installed on the classes and module attributes the program looks the entry
points up through, so they must be installed before the objects that bind
them (servers, engines, periodic processes) are built.

Each span records (layer, start ns, end ns, parent span index).  A layer's
self time is its spans' duration minus the part covered by child spans, so
the self times of all layers add up to the time covered by root spans.
Counts are taken at the same boundaries, after the wrapped call returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int]
Pre = Callable[[tuple], Any]
Post = Callable[[tuple, Any, Any], None]

#: TaskManagementComponent methods that change queue state.  The per-task
#: calls of a batch publish (commit_assignment, return_unmatched) are left
#: unwrapped: the publish callback makes one per queued task, ~1M per churn
#: repetition, and a span each would cost more than the calls themselves.
#: Their time stays in the caller's self time (engine dispatch).
_TASK_MUTATORS = (
    "add_task",
    "checkout_batch",
    "retire_expired",
    "complete",
    "withdraw",
    "defer",
    "release_deferred",
    "retire_unassigned",
    "extract_unassigned",
)
_METRIC_RECORDERS = (
    "record_received",
    "record_assignment",
    "record_matcher_run",
    "record_completion",
    "record_expired_unassigned",
)


class LayerTracer:
    """Span recorder plus the patches that feed it; use as a context manager."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        #: DeadlineEstimators seen, by id; their cache tallies are read on exit.
        self._estimators: Dict[int, Any] = {}

    # ------------------------------------------------------------ patching
    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        pre: Optional[Pre] = None,
        post: Optional[Post] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = pre(args) if pre is not None else None
            index = len(spans)
            spans.append(("", 0, 0, -1))
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if post is not None:
                post(args, result, state)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def __enter__(self) -> "LayerTracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()
        for estimator in self._estimators.values():
            self.counts["deadline.cache_lookups"] += estimator.cache_hits + estimator.cache_misses
            self.counts["deadline.fits"] += estimator.cache_misses
        self._estimators.clear()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _install(self) -> None:
        mod = importlib.import_module
        counts = self.counts
        Engine = mod("repro.sim.engine").Engine
        Builder = mod("repro.graph.builders").AssignmentGraphBuilder
        Estimator = mod("repro.core.deadline").DeadlineEstimator
        Dynamic = mod("repro.platform.dynamic_assignment").DynamicAssignmentComponent
        Scheduling = mod("repro.platform.scheduling").SchedulingComponent
        Tasks = mod("repro.platform.task_management").TaskManagementComponent
        Server = mod("repro.platform.server").REACTServer
        Metrics = mod("repro.stats.metrics").MetricsCollector
        Generator = mod("repro.workload.generators").TrafficMonitoringGenerator
        drivers = mod("repro.dist.drivers")

        def count_events(args: tuple, _result: Any, before: int) -> None:
            counts["sim.events"] += args[0].dispatched - before

        self.wrap(Engine, "run", "sim", pre=lambda a: a[0].dispatched, post=count_events)

        def count_build(_args: tuple, result: Any, _state: Any) -> None:
            report = result[1]
            counts["graph.candidate_edges"] += report.candidate_edges
            counts["graph.kept_edges"] += report.kept_edges

        self.wrap(Builder, "build", "graph", post=count_build)

        estimators = self._estimators

        def count_eq3(args: tuple, result: Any, _state: Any) -> None:
            counts["deadline.eq3_cells"] += result.size
            estimators[id(args[0])] = args[0]

        self.wrap(Estimator, "completion_probability_matrix", "deadline.eq3", post=count_eq3)

        def note_estimator(args: tuple, _result: Any, _state: Any) -> None:
            estimators[id(args[0])] = args[0]

        self.wrap(Estimator, "fit_worker", "deadline.fit", post=note_estimator)

        def count_sweep(_args: tuple, withdrawn: int, _state: Any) -> None:
            counts["dynamic.withdrawals"] += withdrawn

        self.wrap(Dynamic, "sweep", "dynamic.sweep", post=count_sweep)

        def count_eq2(args: tuple, _result: Any, _state: Any) -> None:
            counts["dynamic.eq2_rows"] += len(args[1])
            estimators[id(args[0])] = args[0]

        self.wrap(Estimator, "window_probability_batch", "dynamic.eq2", post=count_eq2)

        def count_cycles(args: tuple, _result: Any, _state: Any) -> None:
            counts["kernels.wbgm_cycles"] += len(args[5])

        # ReactMatcher looks the kernel up as ``kernels.wbgm_accept_loop``.
        self.wrap(mod("repro.core.kernels"), "wbgm_accept_loop", "kernels.wbgm", post=count_cycles)

        def count_match(args: tuple, result: Any, _state: Any) -> None:
            counts["matching.matched"] += result.size
            counts["matching.offered"] += args[1].n_tasks

        for module, cls, name in (
            ("react", "ReactMatcher", "react"),
            ("greedy", "GreedyMatcher", "greedy"),
            ("uniform", "UniformMatcher", "uniform"),
        ):
            matcher = getattr(mod(f"repro.core.matching.{module}"), cls)
            self.wrap(matcher, "match", f"matching.{name}", post=count_match)

        self.wrap(Scheduling, "maybe_trigger", "platform.scheduling")
        self.wrap(Scheduling, "periodic_trigger", "platform.scheduling")
        for name in _TASK_MUTATORS:
            self.wrap(Tasks, name, "platform.tasks")
        self.wrap(Server, "submit_task", "platform.server")

        for name in _METRIC_RECORDERS:
            self.wrap(Metrics, name, "stats.metrics")
        self.wrap(Generator, "make", "workload.gen")

        def count_result_bytes(_args: tuple, report: Any, _state: Any) -> None:
            counts["dist.result_bytes"] += sum(
                len(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
                for outcome in report.outcomes
            )

        # run_comparison_sharded calls the names it imported into drivers.
        self.wrap(drivers, "execute_shards", "dist.execute", post=count_result_bytes)
        self.wrap(drivers, "merge_endtoend", "dist.merge")

    # ------------------------------------------------------------ analysis
    def self_ns(self) -> Dict[str, int]:
        """Per-layer self time: duration minus child-span coverage."""
        child = [0] * len(self.spans)
        for _layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, int] = defaultdict(int)
        for index, (layer, start, end, _parent) in enumerate(self.spans):
            out[layer] += end - start - child[index]
        return out

    def span_counts(self) -> Counter:
        return Counter(layer for layer, _s, _e, _p in self.spans)

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
        origin = min((start for _l, start, _e, _p in self.spans), default=0)
        events = [
            {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 0,
                "tid": 0,
                "args": {"span": index, "parent": parent},
            }
            for index, (layer, start, end, parent) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
