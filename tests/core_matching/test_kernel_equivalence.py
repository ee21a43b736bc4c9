"""Seeded golden-equivalence suite for the optimized matching kernels.

The kernels layer (:mod:`repro.core.kernels`) promises *bit-identical*
behaviour to the seed loops preserved in :mod:`repro.core.kernels.reference`:
same selected edges, same acceptance counters, same RNG stream consumption.
These tests are the gate — an optimised kernel that diverges on a single
cycle fails here.  Each algorithm has one optimised kernel and one oracle:

* REACT: :func:`~repro.core.kernels.wbgm_accept_loop` against
  ``reference.react_match`` plus the dense task → worker row the test
  derives from the oracle's edges;
* Metropolis: :func:`~repro.core.kernels.metropolis_match` against
  ``reference.metropolis_match``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.deadline import DeadlineEstimator
from repro.core.kernels import reference
from repro.core.matching.metropolis import MetropolisMatcher, MetropolisParameters
from repro.core.matching.react import ReactMatcher, ReactParameters
from repro.graph.bipartite import BipartiteGraph
from repro.model.worker import WorkerProfile
from repro.model.task import TaskCategory
from repro.stats.duration_models import EmpiricalFamily


def _edge_arrays(seed: int, n_workers: int, n_tasks: int, zero_frac: float):
    """Full bipartite edge arrays with a sprinkling of zero weights."""
    rng = np.random.default_rng(seed)
    weights = rng.random((n_workers, n_tasks))
    weights[rng.random((n_workers, n_tasks)) < zero_frac] = 0.0
    ew = np.repeat(np.arange(n_workers), n_tasks).astype(np.int64)
    et = np.tile(np.arange(n_tasks), n_workers).astype(np.int64)
    return ew, et, weights.ravel()


def _draws(seed: int, n_edges: int, cycles: int):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_edges, size=cycles), rng.random(cycles)


def _reference_wbgm(ew, et, wt, n_workers, n_tasks, picks, alphas, inv_k):
    """The oracle REACT loop plus the dense row derived from its edges."""
    idx, stats = reference.react_match(
        ew, et, wt, n_workers, n_tasks, picks, alphas, inv_k
    )
    row = np.full(n_tasks, reference.NO_EDGE, dtype=np.int64)
    row[et[idx]] = ew[idx]
    return idx, row, stats


#: The optimised kernels, under the label the perf harness gives them in
#: ``BENCH_matching.json`` (``params.backend``; the oracle's is ``reference``).
OPTIMISED = [pytest.param(kernels, id="python")]


def _algorithms(impl):
    """Algorithm → (``impl``'s optimised kernel, oracle with the same outputs)."""
    return {
        "react_match": (impl.wbgm_accept_loop, _reference_wbgm),
        "metropolis_match": (impl.metropolis_match, reference.metropolis_match),
    }


ALGORITHMS = list(_algorithms(kernels))


def _assert_identical(optimised, oracle):
    """Same arrays (int64, bit for bit) and same stats, position by position."""
    assert len(optimised) == len(oracle)
    for got, want in zip(optimised, oracle):
        if isinstance(want, np.ndarray):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
        else:
            assert got == want


class TestKernelBitEquivalence:
    """Raw kernels: each optimised kernel against its oracle."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_workers=st.integers(1, 30),
        n_tasks=st.integers(1, 30),
        cycles=st.integers(0, 1500),
        k_constant=st.sampled_from([0.05, 0.5, 5.0]),
        zero_frac=st.sampled_from([0.0, 0.1]),
    )
    def test_matches_reference(
        self, algorithm, seed, n_workers, n_tasks, cycles, k_constant, zero_frac
    ):
        """Selected edges and stats, the contract both algorithms share."""
        kernel, oracle = _algorithms(kernels)[algorithm]
        ew, et, wt = _edge_arrays(seed, n_workers, n_tasks, zero_frac)
        picks, alphas = _draws(seed ^ 0x5EED, len(wt), cycles)
        args = (ew, et, wt, n_workers, n_tasks, picks, alphas, 1.0 / k_constant)
        got, want = kernel(*args), oracle(*args)
        _assert_identical((got[0], got[-1]), (want[0], want[-1]))

    @pytest.mark.parametrize("impl", OPTIMISED)
    def test_golden_seeds(self, impl):
        """Fixed-seed anchor cases (cheap, always run, no shrinking)."""
        for seed, shape, cycles, k in [
            (7, (200, 200), 1000, 0.05),  # the perf-harness configuration
            (11, (1, 1), 50, 0.05),
            (13, (40, 3), 500, 0.5),
            (17, (3, 40), 500, 0.05),
        ]:
            ew, et, wt = _edge_arrays(seed, *shape, zero_frac=0.05)
            picks, alphas = _draws(seed + 1, len(wt), cycles)
            args = (ew, et, wt, *shape, picks, alphas, 1.0 / k)
            for kernel, oracle in _algorithms(impl).values():
                _assert_identical(kernel(*args), oracle(*args))


class TestWbgmAcceptLoop:
    """Full REACT loop: cycle decisions AND the in-kernel assignment row."""

    @pytest.mark.parametrize("impl", OPTIMISED)
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_workers=st.integers(1, 30),
        n_tasks=st.integers(1, 30),
        cycles=st.integers(0, 1500),
        k_constant=st.sampled_from([0.05, 0.5, 5.0]),
        zero_frac=st.sampled_from([0.0, 0.1]),
    )
    def test_matches_reference(
        self, impl, seed, n_workers, n_tasks, cycles, k_constant, zero_frac
    ):
        """Edges, dense row, stats and int64 dtypes against the oracle."""
        ew, et, wt = _edge_arrays(seed, n_workers, n_tasks, zero_frac)
        picks, alphas = _draws(seed ^ 0x5EED, len(wt), cycles)
        args = (ew, et, wt, n_workers, n_tasks, picks, alphas, 1.0 / k_constant)
        _assert_identical(impl.wbgm_accept_loop(*args), _reference_wbgm(*args))

    @pytest.mark.parametrize("impl", OPTIMISED)
    def test_agrees_with_react_match(self, impl):
        """Same draws: the full loop IS the oracle's react_match + its own row."""
        ew, et, wt = _edge_arrays(7, 200, 200, zero_frac=0.05)
        picks, alphas = _draws(8, len(wt), 1000)
        args = (ew, et, wt, 200, 200, picks, alphas, 1.0 / 0.05)
        plain_idx, plain_stats = reference.react_match(*args)
        idx, row, stats = impl.wbgm_accept_loop(*args)
        assert np.array_equal(plain_idx, idx)
        assert plain_stats == stats
        # The row must be exactly the dense form of the kernel's own edges.
        expected = np.full(200, -1, dtype=np.int64)
        expected[et[idx]] = ew[idx]
        assert np.array_equal(row, expected)

    @pytest.mark.parametrize("impl", OPTIMISED)
    def test_assignment_one_to_one(self, impl):
        ew, et, wt = _edge_arrays(13, 40, 25, zero_frac=0.1)
        picks, alphas = _draws(14, len(wt), 2000)
        _, row, _ = impl.wbgm_accept_loop(ew, et, wt, 40, 25, picks, alphas, 20.0)
        matched = row[row >= 0]
        assert len(np.unique(matched)) == len(matched)  # workers distinct
        assert row.shape == (25,)

    def test_matcher_result_carries_dense_row(self, rng):
        graph = BipartiteGraph.full(np.random.default_rng(3).random((25, 18)))
        result = ReactMatcher(ReactParameters(cycles=800)).match(graph, rng)
        assert result.task_worker is not None
        assert np.array_equal(result.task_assignment_dense(), result.task_worker)
        # Dict view agrees with the pair view derived from the edges.
        pairs = {int(t): int(w) for w, t in zip(result.workers, result.tasks)}
        assert result.task_assignment() == pairs
        result.validate()


class TestMatcherEquivalence:
    """Matcher level: same result AND same RNG stream consumption."""

    @pytest.mark.parametrize(
        "matcher, oracle",
        [
            (ReactMatcher(ReactParameters(cycles=800)), reference.react_match),
            (
                MetropolisMatcher(MetropolisParameters(cycles=800)),
                reference.metropolis_match,
            ),
        ],
        ids=["react", "metropolis"],
    )
    def test_same_result_and_rng_state(self, matcher, oracle):
        graph = BipartiteGraph.full(np.random.default_rng(3).random((25, 18)))
        rng_matcher = np.random.default_rng(42)
        rng_oracle = np.random.default_rng(42)
        result = matcher.match(graph, rng_matcher)
        # The oracle is fed the twin generator's identical pre-draws.
        cycles = matcher.params.cycles
        picks = rng_oracle.integers(0, graph.n_edges, size=cycles)
        alphas = rng_oracle.random(cycles)
        ref_idx, ref_stats = oracle(
            graph.edge_workers,
            graph.edge_tasks,
            graph.edge_weights,
            graph.n_workers,
            graph.n_tasks,
            picks,
            alphas,
            1.0 / matcher.params.k_constant,
        )
        assert np.array_equal(result.edge_indices, ref_idx)
        assert result.stats == ref_stats
        assert result.cycles_used == cycles
        # The matcher draws exactly the two bulk sequences and nothing
        # else, so interleaving matcher calls with other consumers of the
        # stream stays reproducible.
        assert rng_matcher.bit_generator.state == rng_oracle.bit_generator.state


def _trained_worker(worker_id: int, history, seed: int = 0) -> WorkerProfile:
    profile = WorkerProfile(worker_id=worker_id)
    for t in history:
        profile.record_completion(float(t), TaskCategory.GENERIC, True)
    return profile


class TestDeadlineBatchEquivalence:
    """Vectorized Eq. (2)/(3) paths against the scalar implementations."""

    def _workers(self):
        rng = np.random.default_rng(5)
        workers = [
            _trained_worker(0, 5.0 + rng.pareto(2.0, 20) * 30.0),  # power law
            _trained_worker(1, []),  # untrained
            _trained_worker(2, [10.0, 10.0, 10.0, 10.0]),  # degenerate (alpha cap)
            _trained_worker(3, 1.0 + rng.pareto(1.2, 50) * 5.0),  # heavy tail
        ]
        return workers

    def test_eq3_matrix_matches_scalar(self):
        estimator = DeadlineEstimator(min_history=3)
        workers = self._workers()
        ttd = np.array([-5.0, 0.0, 1.0, 7.5, 40.0, 1e6])
        matrix = estimator.completion_probability_matrix(workers, ttd)
        assert matrix.shape == (len(workers), len(ttd))
        for i, worker in enumerate(workers):
            for j, t in enumerate(ttd):
                scalar = estimator.completion_probability(worker, float(t))
                assert matrix[i, j] == scalar.probability

    def test_eq3_matrix_empirical_family_matches_scalar(self):
        estimator = DeadlineEstimator(min_history=3, family=EmpiricalFamily())
        workers = self._workers()
        ttd = np.array([0.5, 12.0, 80.0])
        matrix = estimator.completion_probability_matrix(workers, ttd)
        for i, worker in enumerate(workers):
            for j, t in enumerate(ttd):
                assert matrix[i, j] == estimator.completion_probability(
                    worker, float(t)
                ).probability

    def test_eq2_batch_matches_scalar(self):
        estimator = DeadlineEstimator(min_history=3)
        workers = self._workers() * 3  # repeated workers share cached fits
        rng = np.random.default_rng(8)
        elapsed = rng.uniform(0.0, 30.0, size=len(workers))
        ttd = elapsed + rng.uniform(-5.0, 60.0, size=len(workers))  # some closed
        probs, trained = estimator.window_probability_batch(workers, elapsed, ttd)
        for i, worker in enumerate(workers):
            scalar = estimator.window_probability(worker, float(elapsed[i]), float(ttd[i]))
            assert probs[i] == scalar.probability
            assert trained[i] == scalar.trained

    def test_eq2_batch_rejects_bad_shapes(self):
        estimator = DeadlineEstimator()
        with pytest.raises(ValueError, match="arrays"):
            estimator.window_probability_batch(
                self._workers(), np.zeros(2), np.zeros(4)
            )
        with pytest.raises(ValueError, match="non-negative"):
            estimator.window_probability_batch(
                self._workers()[:1], np.array([-1.0]), np.array([5.0])
            )

    def test_empty_batch(self):
        probs, trained = DeadlineEstimator().window_probability_batch(
            [], np.empty(0), np.empty(0)
        )
        assert probs.shape == (0,)
        assert trained.shape == (0,)
