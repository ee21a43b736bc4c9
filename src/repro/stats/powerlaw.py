"""Power-law distribution utilities (fit, CCDF, sampling, diagnostics).

Section IV-B of the paper builds its deadline-probability model on the
observation (Ipeirotis 2010, analysed with the tools of Clauset, Shalizi &
Newman 2009) that crowdsourcing task execution times follow a power law:

    p(k) ∝ k^(-α),    k >= k_min > 0

with complementary CDF

    P(k) = Pr(K >= k) = (k / k_min)^(-α + 1)

and maximum-likelihood exponent estimate

    α = 1 + n [ Σ_i ln( k_i / (k_min − ½) ) ]^(-1)          (paper's form)

The ``− ½`` shift is the CSN discrete-data approximation; the exact
continuous MLE omits it.  Both are provided (:data:`FitMethod`); the paper's
form is the default so the reproduction matches its numbers.

Everything here is vectorized NumPy — these functions sit on the hot path of
graph construction, where Eq. (3) is evaluated for every candidate
(worker, task) edge.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import numpy.typing as npt

ArrayLike = Union[np.ndarray, Sequence[float], float]
#: Every probability/quantile accessor returns a float64 array.
FloatArray = npt.NDArray[np.float64]


class FitMethod(enum.Enum):
    """Which MLE variant estimates the scaling exponent α."""

    #: α = 1 + n / Σ ln(k_i / (k_min − ½)) — the paper's (CSN discrete) form.
    PAPER_DISCRETE = "paper-discrete"
    #: α = 1 + n / Σ ln(k_i / k_min) — exact continuous-data MLE.
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class PowerLawFit:
    """A fitted power law ``p(k) ∝ k^(-alpha)`` for ``k >= k_min``.

    Immutable so that a fit captured at edge-construction time cannot be
    perturbed by later history updates.
    """

    alpha: float
    k_min: float
    n_samples: int
    method: FitMethod = FitMethod.PAPER_DISCRETE

    def __post_init__(self) -> None:
        if self.k_min <= 0:
            raise ValueError(f"k_min must be positive, got {self.k_min}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.alpha <= 1.0:
            raise ValueError(
                f"alpha must exceed 1 for a normalizable tail, got {self.alpha}"
            )

    # ------------------------------------------------------------- P(k)
    def ccdf(self, k: ArrayLike) -> FloatArray:
        """``P(k) = Pr(K >= k) = (k/k_min)^(1-α)``, clamped to [0, 1].

        Values below ``k_min`` are in the non-power-law head where the model
        provides no mass ordering; the paper treats them as "typical or
        faster", i.e. P(k) = 1.
        """
        k_arr = np.asarray(k, dtype=np.float64)
        # Evaluated only on the tail (k > k_min); values at or below k_min
        # are overwritten with 1, so overflow in the head is irrelevant.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.power(k_arr / self.k_min, 1.0 - self.alpha)
        out = np.where(k_arr <= self.k_min, 1.0, out)
        return np.clip(out, 0.0, 1.0)

    def ccdf_scalar(self, k: float) -> float:
        """Scalar ``P(k)`` (the :class:`~repro.stats.duration_models.
        DurationModel` protocol's convenience accessor)."""
        return float(self.ccdf(np.asarray([k], dtype=np.float64))[0])

    def cdf(self, k: ArrayLike) -> FloatArray:
        """``Pr(K < k) = 1 - P(k)``."""
        return np.asarray(1.0 - self.ccdf(k), dtype=np.float64)

    # --------------------------------------------------------- quantiles
    def quantile(self, q: ArrayLike) -> FloatArray:
        """Inverse CDF: the k with ``Pr(K < k) = q``."""
        q_arr = np.asarray(q, dtype=np.float64)
        if np.any((q_arr < 0) | (q_arr >= 1)):
            raise ValueError("quantile levels must lie in [0, 1)")
        return self.k_min * np.power(1.0 - q_arr, -1.0 / (self.alpha - 1.0))

    def median(self) -> float:
        return float(self.quantile(0.5))

    def mean(self) -> float:
        """Mean of the tail; infinite when α <= 2."""
        if self.alpha <= 2.0:
            return float("inf")
        return self.k_min * (self.alpha - 1.0) / (self.alpha - 2.0)

    # ----------------------------------------------------------- sampling
    def sample(self, rng: np.random.Generator, size: int = 1) -> FloatArray:
        """Inverse-transform sampling: ``k_min (1-U)^(-1/(α-1))``."""
        u = rng.random(size)
        return self.k_min * np.power(1.0 - u, -1.0 / (self.alpha - 1.0))


def fit_power_law(
    samples: ArrayLike,
    k_min: Optional[float] = None,
    method: FitMethod = FitMethod.PAPER_DISCRETE,
) -> PowerLawFit:
    """Fit a power law to positive samples.

    Parameters
    ----------
    samples:
        Observed values (the paper: a worker's recorded execution times).
    k_min:
        Lower cutoff; defaults to ``min(samples)`` — the paper sets "the
        lower bound k_min ... as the worker's lowest measured execution
        time".
    method:
        MLE variant, see :class:`FitMethod`.

    Raises
    ------
    ValueError
        On empty input, non-positive samples, or a degenerate history (all
        samples equal to ``k_min`` with the continuous method, which drives
        α → ∞; we cap it instead, see :data:`ALPHA_CAP`).
    """
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot fit a power law to an empty sample")
    # Narrow the Optional once; everything below works with a plain float
    # (mypy --strict rejects the old reassign-the-parameter pattern, which
    # left `k_min` typed Optional[float] through the arithmetic below).
    if k_min is None:
        # The default cutoff is the minimum, so the tail is every sample and
        # positivity is a check on the minimum (``not >`` also rejects NaN).
        cutoff = float(arr.min())
        if not cutoff > 0:
            raise ValueError("power-law samples must be strictly positive")
        tail = arr
    else:
        if np.any(arr <= 0):
            raise ValueError("power-law samples must be strictly positive")
        if k_min <= 0:
            raise ValueError(f"k_min must be positive, got {k_min}")
        cutoff = float(k_min)
        tail = arr[arr >= cutoff]
        if tail.size == 0:
            raise ValueError(f"no samples at or above k_min={cutoff}")

    if method is FitMethod.PAPER_DISCRETE:
        shift = cutoff - 0.5
        if shift <= 0:
            # The paper's discrete shift breaks down for sub-unit k_min
            # (log of a non-positive ratio); fall back to the exact form,
            # which the CSN paper itself recommends for continuous data.
            denom = float(np.log(tail / cutoff).sum())
        else:
            denom = float(np.log(tail / shift).sum())
    elif method is FitMethod.CONTINUOUS:
        denom = float(np.log(tail / cutoff).sum())
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown method {method}")

    if denom <= 0:
        alpha = ALPHA_CAP
    else:
        alpha = min(1.0 + tail.size / denom, ALPHA_CAP)
    return PowerLawFit(alpha=alpha, k_min=cutoff, n_samples=int(tail.size), method=method)


#: Cap on the fitted exponent.  A worker whose history is a single repeated
#: value gives denom → 0 and α → ∞; α = 50 already yields P(k) < 1e-13 one
#: decade above k_min, i.e. "this worker never exceeds typical time".
ALPHA_CAP = 50.0


def ks_distance(samples: ArrayLike, fit: PowerLawFit) -> float:
    """Kolmogorov-Smirnov distance between the empirical tail CDF and the fit.

    Goodness-of-fit diagnostic in the spirit of CSN §3; the reproduction uses
    it in tests to confirm that synthetic worker histories really are
    power-law shaped.
    """
    arr = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    tail = arr[arr >= fit.k_min]
    if tail.size == 0:
        raise ValueError("no samples in the fitted tail")
    empirical = np.arange(1, tail.size + 1) / tail.size
    model = fit.cdf(tail)
    return float(np.max(np.abs(empirical - model)))
