"""Task arrival processes.

The paper's end-to-end experiment feeds one region server "tasks in a rate
of 9.375 tasks/second" (scalability: 1.5-12.5/s, deliberately above the AMT
marketplace rate of ~18K HITs/day).  Arrival processes are expressed as
generators of inter-arrival gaps so they plug into
:class:`~repro.sim.process.GeneratorProcess`.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np


def deterministic_gaps(
    rate: float, count: Optional[int] = None
) -> Iterator[tuple[float, int]]:
    """Evenly spaced arrivals at ``rate`` per second.

    Yields ``(gap_seconds, arrival_index)``.  ``count=None`` streams forever.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    gap = 1.0 / rate
    index = 0
    while count is None or index < count:
        yield gap, index
        index += 1


def poisson_gaps(
    rate: float, rng: np.random.Generator, count: Optional[int] = None
) -> Iterator[tuple[float, int]]:
    """Poisson process: exponential inter-arrival gaps with mean 1/rate."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    index = 0
    while count is None or index < count:
        yield float(rng.exponential(1.0 / rate)), index
        index += 1
