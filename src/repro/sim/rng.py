"""Named, seeded random-number streams.

Every stochastic decision in the reproduction — task arrival gaps, worker
execution durations, the 50% delay coin, feedback Bernoulli draws, the REACT
matcher's random edge flips — draws from an independent
:class:`numpy.random.Generator` stream derived from one experiment seed via
``SeedSequence.spawn``-style keying.  This gives two properties the paper's
figures need:

* *reproducibility*: the same config produces bit-identical series, and
* *variance isolation*: changing e.g. the matcher does not perturb the
  worker-behaviour stream, so algorithm comparisons (Figs. 5-10) see the same
  worker population and the same arrival trace.

Forked registries (experiment repetitions, per-server registries under the
multi-region :class:`~repro.platform.coordinator.Coordinator`, per-shard
workers in :mod:`repro.dist`) carry a *lineage* tuple that is threaded into
the ``spawn_key`` of every stream they create.  Keying by lineage instead of
deriving a child *seed* arithmetically guarantees nested forks never collide:
the old ``seed * 1_000_003 + offset`` derivation mapped distinct
``(seed, offset)`` chains onto the same child seed (e.g. ``fork(a).fork(b)``
collided with ``fork(a * 1_000_003 + b)``), silently correlating streams
between repetitions.

Migration note: root registries key streams exactly as before, so
single-server experiment baselines are unchanged.  Results that flow through
``fork`` (multi-region coordinator runs, repetition sweeps) draw from new
streams and BENCH baselines recorded before the change may shift.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

#: Separator between the fork lineage and the stream-name bytes inside a
#: ``spawn_key``.  Name bytes are < 256 and fork offsets are validated to be
#: < the sentinel, so no (lineage, name) pair can alias another — the key
#: space is prefix-free.
SPAWN_SENTINEL = 0xFFFF_FFFF


class RngRegistry:
    """Factory for independent named RNG streams under a single root seed."""

    def __init__(self, seed: int = 0, lineage: Tuple[int, ...] = ()) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._lineage = tuple(int(part) for part in lineage)
        for part in self._lineage:
            if not 0 <= part < SPAWN_SENTINEL:
                raise ValueError(
                    f"lineage entries must be in [0, {SPAWN_SENTINEL}), got {part}"
                )
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The *root* experiment seed (identical across all forks)."""
        return self._seed

    @property
    def lineage(self) -> Tuple[int, ...]:
        """Fork offsets from the root registry down to this one."""
        return self._lineage

    def spawn_key(self, name: str) -> Tuple[int, ...]:
        """The ``SeedSequence`` spawn key for stream ``name``.

        Root registries key by the name bytes alone — the derivation the
        repo has always used, so existing single-process baselines hold.
        Forked registries prepend their lineage plus a sentinel separator.
        """
        name_key = tuple(int(b) for b in name.encode("utf-8"))
        if not self._lineage:
            return name_key
        return (*self._lineage, SPAWN_SENTINEL, *name_key)

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream is keyed by hashing the name (and, for forked
        registries, the fork lineage) into the seed sequence, so the set of
        *other* streams requested never affects this one.
        """
        if name not in self._streams:
            seq = np.random.SeedSequence(
                entropy=self._seed, spawn_key=self.spawn_key(name)
            )
            self._streams[name] = np.random.default_rng(seq)
        return self._streams[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __iter__(self) -> Iterator[str]:
        return iter(self._streams)

    def fork(self, offset: int) -> "RngRegistry":
        """A registry with an independent stream family (repetitions, shards).

        The child keeps the root seed and appends ``offset`` to its lineage;
        streams are then keyed by the full lineage, so nested forks are
        independent by construction.  (The previous arithmetic derivation,
        ``seed * 1_000_003 + offset``, collided across fork chains.)
        """
        if not isinstance(offset, (int, np.integer)):
            raise TypeError(f"offset must be an int, got {type(offset).__name__}")
        if not 0 <= int(offset) < SPAWN_SENTINEL:
            raise ValueError(
                f"fork offset must be in [0, {SPAWN_SENTINEL}), got {offset}"
            )
        return RngRegistry(seed=self._seed, lineage=(*self._lineage, int(offset)))


#: Doubles a :class:`BlockReader` takes from its generator per refill.
BLOCK = 1024


class BlockReader:
    """Serves scalar draws from ``rng.random(BLOCK)`` blocks, in order.

    ``Generator.random(n)`` yields the same doubles as ``n`` scalar
    ``random()`` calls, and ``Generator.uniform(lo, hi)`` computes
    ``lo + (hi - lo) * u`` from the next such double, so a stream whose every
    draw is ``random``/``uniform`` gives bit-identical values through this
    reader at a fraction of the per-call cost (one list step instead of a
    NumPy call).  The reader takes a block ahead, so it must be the stream's
    only consumer: the generator's own state runs up to ``BLOCK`` doubles
    ahead of what has been served.  Unlike ``Generator.uniform`` it does not
    reject ``hi < lo``; callers draw from validated ranges.
    """

    __slots__ = ("_rng", "_take")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._take: Callable[[], float] = iter(()).__next__

    def random(self) -> float:
        try:
            return self._take()
        except StopIteration:
            self._take = iter(self._rng.random(BLOCK).tolist()).__next__
            return self._take()

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()


def spawn_seeds(seed: int, n: int) -> List[int]:
    """Derive ``n`` independent 64-bit child seeds from one root seed.

    Uses :meth:`numpy.random.SeedSequence.spawn`, the collision-free way to
    key independent experiment repetitions (each child seeds its own
    hermetic :class:`RngRegistry`).  Deterministic in ``(seed, n)``; the
    first ``k`` children are identical for any ``n >= k``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    children = np.random.SeedSequence(entropy=int(seed)).spawn(int(n))
    return [
        int(child.generate_state(2, np.uint32).view(np.uint64)[0])
        for child in children
    ]


# Canonical stream names used across the platform.  Keeping them in one place
# avoids typo-divergence between producer and consumer modules.
STREAM_ARRIVALS = "arrivals"
STREAM_WORKER_BEHAVIOR = "worker-behavior"
STREAM_WORKER_POPULATION = "worker-population"
STREAM_FEEDBACK = "feedback"
STREAM_MATCHER = "matcher"
STREAM_TASKS = "tasks"
STREAM_CHURN = "churn"
STREAM_CHAOS = "chaos"
STREAM_WORKER_ARRIVALS = "worker-arrivals"
STREAM_SCENARIO_GEO = "scenario-geo"
