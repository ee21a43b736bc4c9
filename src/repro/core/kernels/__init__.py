"""Optimized hot-path kernels (matching inner loops, batched Eq. 2/3).

The reproduction's three hottest paths — the REACT/Metropolis cycle loops
(Algorithm 1), the Eq. (3) edge-instantiation matrix and the Eq. (2)
reassignment sweep — were originally written as per-item Python loops over
NumPy arrays, so the Fig. 3/9/10 scalability benchmarks measured interpreter
overhead (NumPy *scalar* indexing costs ~100 ns per access) rather than
algorithmic cost.  This package holds the kernels for those loops:

* :mod:`~repro.core.kernels.wbgm` — one optimised kernel per matching
  algorithm: :func:`wbgm_accept_loop` (REACT, Algorithm 1, with the dense
  task-assignment row) and :func:`metropolis_match` (the baseline).
  Plain-list state, vectorized gathers of the picked edges and hoisted
  attribute lookups; no dependencies beyond NumPy and the stdlib.
* :mod:`~repro.core.kernels.reference` — the seed loops, kept verbatim as
  the test oracle.  The seeded bit-equivalence suite (``tests/core_matching/
  test_kernel_equivalence.py``) pins both kernels against them.
* :mod:`~repro.core.kernels.deadline` — broadcasted power-law CCDF
  evaluation used by the vectorized Eq. (2)/(3) paths in
  :class:`~repro.core.deadline.DeadlineEstimator`.

Both matching kernels consume *pre-drawn* random sequences (one edge pick
and one uniform acceptance draw per cycle), so RNG stream consumption is
identical to the oracle's by construction; the equivalence suite asserts the
selected edges, stats counters and post-call RNG state all match bit for
bit.
"""

from __future__ import annotations

from .deadline import powerlaw_ccdf_grid, powerlaw_ccdf_values
from .wbgm import metropolis_match, wbgm_accept_loop

__all__ = [
    "metropolis_match",
    "wbgm_accept_loop",
    "powerlaw_ccdf_grid",
    "powerlaw_ccdf_values",
]
