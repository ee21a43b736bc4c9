"""Batched power-law CCDF kernel for the Eq. (2)/(3) hot paths.

:class:`~repro.stats.powerlaw.PowerLawFit.ccdf` evaluates one fitted worker
at a time.  Graph construction (Eq. 3) needs the whole worker × deadline
grid and the reassignment sweep (Eq. 2) needs one probability per assigned
task; both previously looped over workers in Python.  One helper serves
both: it takes the per-worker parameters (``alpha``, ``k_min``) as arrays
and evaluates a single broadcasted ``np.power``.

Elementwise the computation is identical to the scalar path —
``(k / k_min) ** (1 - alpha)``, head values (``k <= k_min``) forced to 1,
clipped to [0, 1] — and NumPy applies the same scalar ``pow`` kernel per
element either way, so results are bit-identical to per-fit calls.
"""

from __future__ import annotations

import numpy as np


def powerlaw_ccdf_values(
    alpha: np.ndarray, k_min: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """Pointwise CCDF: fit ``i`` evaluated at its own horizon ``k[i]``.

    With ``(N,)`` arrays the result is ``(N,)`` with ``out[i] = P_i(k_i)``:
    the Eq. (2) sweep shape, one assigned task per row, each with its own
    worker fit and elapsed/deadline horizon.  The arguments broadcast, so
    ``(W, 1)`` parameters over a ``(1, T)`` horizon give the Eq. (3)
    worker × deadline grid ``out[i, j] = P_i(k_j)``.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    k_min = np.asarray(k_min, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    # One result-sized buffer carries every step, so the Eq. 3 grid costs
    # one W×T matrix (plus the W×T head mask) rather than one per step.
    out = np.empty(np.broadcast_shapes(alpha.shape, k_min.shape, k.shape))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(k, k_min, out=out)
        np.power(out, 1.0 - alpha, out=out)
    np.copyto(out, 1.0, where=k <= k_min)
    return np.clip(out, 0.0, 1.0, out=out)
