"""Probabilistic deadline model (paper §IV-B, Eqs. 2-3).

For a worker with execution-time history ``k_1..k_n`` the Profiling
Component fits a power law (``k_min`` = the worker's fastest recorded time,
α via the CSN MLE — see :mod:`repro.stats.powerlaw`).  With CCDF
``P(k) = Pr(K >= k)`` the two decision probabilities are:

* **Edge instantiation** (Eq. 3), evaluated at graph-construction time:

      Pr(ExecTime < TimeToDeadline) = 1 − P(TimeToDeadline)

  The Scheduling Component only creates the edge when this exceeds an
  application-defined lower bound.

* **Mid-flight reassignment** (Eq. 2), evaluated by the Dynamic Assignment
  Component for a task that has been running ``t`` seconds:

      Pr(t < ExecTime < TTD) = 1 − (P(TTD) + (1 − P(t))) = P(t) − P(TTD)

  When it drops below the reassignment threshold (10% in the paper) the
  task is pulled back and rescheduled — "the probabilities for these
  distributions decrease rapidly after they exceed the typical values", so
  the remaining time may still suffice for a faster worker.

Workers with fewer than ``min_history`` completed tasks have no usable fit;
the paper trains each worker on his first ``z = 3`` tasks, during which both
probabilities are treated as certain (edges always instantiated, no
reassignment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..model.worker import WorkerProfile
from ..model.worker_table import WorkerRows, Workers, as_rows
from ..stats.duration_models import DurationModel, DurationModelFamily, PowerLawFamily
from ..stats.powerlaw import PowerLawFit
from .kernels.deadline import powerlaw_ccdf_grid, powerlaw_ccdf_values


@dataclass(frozen=True)
class DeadlineEstimate:
    """One Eq. 2/3 evaluation, kept for tracing and tests."""

    probability: float
    fit: Optional[PowerLawFit]
    trained: bool

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability out of [0,1]: {self.probability}")


class DeadlineEstimator:
    """Evaluates Eqs. (2) and (3) against worker histories.

    Parameters
    ----------
    min_history:
        The paper's ``z``: minimum completed tasks before the probabilistic
        model activates for a worker (3 in the experiments).
    family:
        Duration-model family fitted per worker (the paper's power law with
        its discrete MLE by default).
    """

    def __init__(
        self,
        min_history: int = 3,
        family: Optional[DurationModelFamily] = None,
    ) -> None:
        if min_history < 0:
            raise ValueError(f"min_history must be >= 0, got {min_history}")
        self.min_history = min_history
        # The distribution family is pluggable (ABL-MODEL ablation); the
        # paper's power law is the default.
        self.family = family if family is not None else PowerLawFamily()
        # Fit tallies, exported by the observability layer (plain ints here
        # — core must not depend on repro.obs).  A miss is one MLE run by
        # fit_worker; a batch row whose table fit is current counts as a hit.
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------- fitting
    def fit_worker(self, worker: WorkerProfile) -> Optional[DurationModel]:
        """Fit the worker's duration model, or None while he is untrained."""
        n_obs = len(worker.execution_times)
        if n_obs < self.min_history or n_obs == 0:
            return None
        self.cache_misses += 1
        return self.family.fit(worker.execution_times)

    def _fitted_rows(
        self, rows: WorkerRows, wanted: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(trained, alpha, k_min)`` of the rows, refitting stale rows first.

        ``trained`` marks the rows (among ``wanted``, default all) with
        enough history for a fit.  Only those rows are brought up to date:
        a row whose table fit predates its latest observation is refitted
        through :meth:`fit_worker`, in row order — the same fits at the same
        points as a per-worker walk.  On trained rows the table's ``fit``
        column holds the current model, and ``alpha``/``k_min`` its
        power-law parameters, NaN when the fit is not a power law; on other
        rows they are meaningless.
        """
        table = rows.table
        slots = rows.slots
        table.claim_fits(self)
        n_obs = table.n_obs[slots]
        trained = n_obs >= max(self.min_history, 1)
        if wanted is not None:
            trained &= wanted
        stale = trained & (table.fit_n_obs[slots] != n_obs)
        n_stale = int(np.count_nonzero(stale))
        self.cache_hits += int(np.count_nonzero(trained)) - n_stale
        if n_stale:
            profiles = table.profile
            for slot in slots[stale].tolist():
                fit = self.fit_worker(profiles[slot])
                assert fit is not None  # a trained row has the history
                table.set_fit(slot, fit)
        return trained, table.alpha[slots], table.k_min[slots]

    # ------------------------------------------------------------- Eq. (3)
    def completion_probability(
        self, worker: WorkerProfile, time_to_deadline: float
    ) -> DeadlineEstimate:
        """Eq. (3): Pr(ExecTime < TimeToDeadline) for a fresh assignment."""
        if time_to_deadline <= 0:
            return DeadlineEstimate(probability=0.0, fit=None, trained=False)
        fit = self.fit_worker(worker)
        if fit is None:
            # Untrained worker: the paper instantiates all edges for the
            # first z assignments, i.e. treats completion as certain.
            return DeadlineEstimate(probability=1.0, fit=None, trained=False)
        prob = 1.0 - float(fit.ccdf(time_to_deadline))
        return DeadlineEstimate(probability=min(max(prob, 0.0), 1.0), fit=fit, trained=True)

    def completion_probability_matrix(
        self,
        workers: Workers,
        time_to_deadline: np.ndarray,
    ) -> np.ndarray:
        """Vectorized Eq. (3): (len(workers), len(ttd)) probabilities.

        This is the graph-construction hot path.  ``workers`` are worker
        table rows (a profile list is tabulated first).  The power-law rows'
        ``alpha`` / ``k_min`` columns are gathered and evaluated as a single
        broadcasted power over the worker × TTD grid; any other fitted
        family falls back to one vectorized ``ccdf`` call on each such
        row's ``fit``.  Both paths are bit-identical to the scalar
        :meth:`completion_probability` (NumPy applies the same elementwise
        ``pow`` either way).
        """
        rows = as_rows(workers)
        ttd = np.asarray(time_to_deadline, dtype=np.float64)
        out = np.ones((len(rows), len(ttd)), dtype=np.float64)
        trained, alpha, k_min = self._fitted_rows(rows)
        powerlaw = np.flatnonzero(trained & ~np.isnan(alpha))
        if len(powerlaw):
            out[powerlaw, :] = 1.0 - powerlaw_ccdf_grid(alpha[powerlaw], k_min[powerlaw], ttd)
        if len(powerlaw) != np.count_nonzero(trained):
            fits = rows.fits
            for i in np.flatnonzero(trained & np.isnan(alpha)).tolist():
                out[i, :] = 1.0 - fits[i].ccdf(ttd)
        # Expired deadlines can never be met, trained or not.
        out[:, ttd <= 0] = 0.0
        return np.clip(out, 0.0, 1.0)

    # ------------------------------------------------------------- Eq. (2)
    def window_probability(
        self,
        worker: WorkerProfile,
        elapsed: float,
        time_to_deadline: float,
    ) -> DeadlineEstimate:
        """Eq. (2): Pr(t < ExecTime < TimeToDeadline) mid-execution.

        ``elapsed`` is ``t_ij`` (seconds since assignment); ``time_to_deadline``
        is measured from the *assignment* instant, so the window is
        ``(elapsed, time_to_deadline)``.
        """
        if elapsed < 0:
            raise ValueError(f"elapsed must be non-negative, got {elapsed}")
        if time_to_deadline <= elapsed:
            # Deadline already inside the elapsed window: no chance left.
            return DeadlineEstimate(probability=0.0, fit=None, trained=False)
        fit = self.fit_worker(worker)
        if fit is None:
            return DeadlineEstimate(probability=1.0, fit=None, trained=False)
        # 1 - (P(TTD) + (1 - P(t))) = P(t) - P(TTD); clamp guards the tiny
        # negative values the formula yields when t < k_min (both CCDFs 1).
        prob = float(fit.ccdf(elapsed)) - float(fit.ccdf(time_to_deadline))
        return DeadlineEstimate(probability=min(max(prob, 0.0), 1.0), fit=fit, trained=True)

    def window_probability_batch(
        self,
        workers: Workers,
        elapsed: np.ndarray,
        time_to_deadline: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized Eq. (2): one probability per (worker, window) row.

        ``workers[i]`` has been executing for ``elapsed[i]`` seconds against
        window ``time_to_deadline[i]``; this is the Dynamic Assignment sweep
        shape — the due assigned tasks evaluated in one batch call.
        ``workers`` are worker table rows (a profile list is tabulated).

        Returns ``(probabilities, trained)``.  Rows with ``trained`` False
        (untrained worker, or window already closed) carry the same
        probability the scalar :meth:`window_probability` reports (1.0 and
        0.0 respectively); power-law rows are evaluated with the gathered
        ``alpha`` / ``k_min`` columns, bit-identically to the scalar path.
        Closed windows need no fit, so their rows are never refitted.
        """
        rows = as_rows(workers)
        elapsed = np.asarray(elapsed, dtype=np.float64)
        ttd = np.asarray(time_to_deadline, dtype=np.float64)
        n = len(rows)
        if elapsed.shape != (n,) or ttd.shape != (n,):
            raise ValueError(
                f"elapsed/time_to_deadline must be ({n},) arrays, "
                f"got {elapsed.shape} and {ttd.shape}"
            )
        if n and elapsed.min() < 0:
            raise ValueError(f"elapsed must be non-negative, got {elapsed.min()}")

        probs = np.ones(n, dtype=np.float64)
        closed = ttd <= elapsed
        probs[closed] = 0.0
        trained, alpha, k_min = self._fitted_rows(rows, ~closed)
        powerlaw = np.flatnonzero(trained & ~np.isnan(alpha))
        if len(powerlaw):
            a = alpha[powerlaw]
            k = k_min[powerlaw]
            p = powerlaw_ccdf_values(a, k, elapsed[powerlaw]) - powerlaw_ccdf_values(
                a, k, ttd[powerlaw]
            )
            probs[powerlaw] = np.clip(p, 0.0, 1.0)
        if len(powerlaw) != np.count_nonzero(trained):
            fits = rows.fits
            for i in np.flatnonzero(trained & np.isnan(alpha)).tolist():
                fit = fits[i]
                p = float(fit.ccdf(elapsed[i])) - float(fit.ccdf(ttd[i]))
                probs[i] = min(max(p, 0.0), 1.0)
        return probs, trained

    def withdrawal_skip_horizons(
        self,
        workers: Workers,
        time_to_deadline: Sequence[float],
        threshold: float,
    ) -> List[float]:
        """Conservative elapsed-time horizons below which Eq. (2) stays ≥ threshold.

        One horizon per row: ``workers[i]`` against window
        ``time_to_deadline[i]``.  For a power-law fit the Eq. (2)
        probability ``P(t) − P(TTD)`` is nonincreasing in the elapsed time
        ``t``, so there is a crossing time before which the withdrawal rule
        *cannot* fire.  Solving ``(t/k_min)^{1−α} = threshold + P(TTD)`` for
        ``t`` and keeping 0.1% of safety margin (many orders of magnitude
        above ``pow`` rounding) gives a horizon with the guarantee: while
        the worker's observation count is unchanged, any sweep with
        ``elapsed < horizon`` would evaluate a probability ≥ threshold —
        i.e. no withdrawal.  The sweep uses this to skip the batch
        evaluation of provably-safe rows without changing a single
        withdrawal decision.

        A row's horizon is ``inf`` for an untrained worker (never withdrawn
        until his fit activates, which changes the observation count and
        invalidates the caller's cache) and ``0.0`` (never skip) for a
        non-power-law duration family, whose CCDF shape this closed form
        does not cover.  The fit parameters come from the gathered table
        columns; the arithmetic is scalar, row by row.
        """
        trained, alpha_col, k_min_col = self._fitted_rows(as_rows(workers))
        horizons: List[float] = []
        for ttd, is_trained, alpha, k_min in zip(
            time_to_deadline, trained.tolist(), alpha_col.tolist(), k_min_col.tolist()
        ):
            if not is_trained:
                horizons.append(math.inf)
            elif math.isnan(alpha):
                horizons.append(0.0)
            else:
                horizons.append(_skip_horizon(alpha, k_min, ttd, threshold))
        return horizons


def _skip_horizon(alpha: float, k_min: float, time_to_deadline: float, threshold: float) -> float:
    """One power-law row of :meth:`DeadlineEstimator.withdrawal_skip_horizons`."""
    if time_to_deadline <= k_min:
        p_ttd = 1.0
    else:
        p_ttd = min(max((time_to_deadline / k_min) ** (1.0 - alpha), 0.0), 1.0)
    target = threshold + p_ttd
    if target <= 0.0:
        # threshold 0 against a fully-decayed window: probability can
        # never go strictly below 0, so the rule never fires.
        return math.inf
    if target > 1.0:
        # Even an instant evaluation (P(t) = 1) sits under threshold:
        # the task is withdrawn at the very next sweep, never skip.
        return 0.0
    if alpha <= 1.0:
        # Degenerate fit: the CCDF head clamp keeps P(t) = 1 everywhere.
        return math.inf
    log_ratio = -math.log(target) / (alpha - 1.0)
    if log_ratio > 700.0:  # exp would overflow; the horizon is unreachable
        return math.inf
    return 0.999 * k_min * math.exp(log_ratio)
