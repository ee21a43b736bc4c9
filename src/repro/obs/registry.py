"""Metrics registry: counter / gauge / histogram instruments.

A deliberately small, dependency-free re-implementation of the Prometheus
client-library data model, tuned for deterministic simulation telemetry:

* instruments are created once (idempotently) on a :class:`MetricsRegistry`
  and updated on the hot paths via plain attribute calls — or, when a
  component already keeps the count itself, created with a ``source``
  callable that the registry reads at snapshot time (one source of truth,
  nothing pushed twice);
* histograms use *fixed* bucket bounds chosen at creation time, so two runs
  of the same seeded simulation produce byte-identical snapshots;
* :meth:`MetricsRegistry.snapshot` returns samples in a deterministic order
  (sorted by metric name, then label values) regardless of creation or
  update order — the exporters (:mod:`repro.obs.exporters`) rely on this to
  make telemetry diffable across runs and commits.

When observability is disabled the platform components hold the shared
:data:`NULL_INSTRUMENT` / :data:`NULL_REGISTRY` singletons instead, whose
methods are empty — the disabled cost of an instrumented call site is one
attribute lookup and one no-op call (see the overhead guard in
:mod:`repro.experiments.perf`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (seconds): spans sub-second matcher
#: latencies through multi-minute task turnarounds.  ``+Inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0
)

LabelValues = Tuple[str, ...]


@dataclass(frozen=True)
class Sample:
    """One exported time-series point: ``name{labels} value``."""

    name: str
    labels: Tuple[Tuple[str, str], ...]
    value: float


class _Instrument:
    """Base class: a named metric with optional label dimensions."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        _validate_metric_name(name)
        for label in labelnames:
            _validate_label_name(label)
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._children: Dict[LabelValues, "_Instrument"] = {}

    # ------------------------------------------------------------- children
    def labels(self, **labelvalues: str) -> "_Instrument":
        """The child series for one label-value combination."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = type(self)(self.name, self.help)
            self._children[key] = child
        return child

    def _require_leaf(self) -> None:
        if self.labelnames:
            raise ValueError(
                f"{self.name} has labels {self.labelnames}; call .labels() first"
            )

    def _leaves(self) -> Iterable[Tuple[LabelValues, "_Instrument"]]:
        if self.labelnames:
            for key in sorted(self._children):
                yield key, self._children[key]
        else:
            yield (), self

    def samples(self) -> List[Sample]:
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing count (Prometheus ``counter``)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self._require_leaf()
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up (inc {amount})")
        self.value += amount

    def samples(self) -> List[Sample]:
        return [
            Sample(self.name, tuple(zip(self.labelnames, key)), leaf.value)
            for key, leaf in self._leaves()
        ]


class Gauge(_Instrument):
    """A value that can go up and down (Prometheus ``gauge``)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def set(self, value: float) -> None:
        self._require_leaf()
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_leaf()
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def samples(self) -> List[Sample]:
        return [
            Sample(self.name, tuple(zip(self.labelnames, key)), leaf.value)
            for key, leaf in self._leaves()
        ]


class SourcedInstrument(_Instrument):
    """A counter or gauge whose value is read from ``source()`` when sampled.

    The owning component keeps the count in a plain field; the registry
    only reads it (at :meth:`MetricsRegistry.snapshot` and
    :meth:`MetricsRegistry.value`), so the two can never disagree and the
    hot path pays nothing.  Pushing (``inc``/``set``) is rejected.
    """

    def __init__(self, kind: str, name: str, help: str, source: Callable[[], float]) -> None:
        super().__init__(name, help)
        self.kind = kind
        self._source = source

    @property
    def value(self) -> float:
        return float(self._source())

    def _read_only(self, *args: object) -> None:
        raise ValueError(f"{self.name} reads its source; it cannot be pushed")

    inc = dec = set = _read_only

    def samples(self) -> List[Sample]:
        return [Sample(self.name, (), self.value)]


class Histogram(_Instrument):
    """Fixed-bucket cumulative histogram (Prometheus ``histogram``).

    Buckets are upper bounds; observations land in the first bucket whose
    bound is >= the value, and every bucket is cumulative in the exported
    samples (``le`` convention), with an implicit ``+Inf`` bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"{name}: at least one bucket bound is required")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"{name}: bucket bounds must be strictly increasing")
        if any(math.isinf(b) for b in bounds):
            raise ValueError(f"{name}: +Inf bucket is implicit, do not list it")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def labels(self, **labelvalues: str) -> "Histogram":
        child = super().labels(**labelvalues)
        assert isinstance(child, Histogram)
        if child.buckets != self.buckets:
            child.buckets = self.buckets
            child.counts = [0] * (len(self.buckets) + 1)
        return child

    def observe(self, value: float) -> None:
        self._require_leaf()
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def samples(self) -> List[Sample]:
        out: List[Sample] = []
        for key, leaf in self._leaves():
            assert isinstance(leaf, Histogram)
            base = tuple(zip(self.labelnames, key))
            cumulative = 0
            for bound, count in zip(leaf.buckets, leaf.counts):
                cumulative += count
                out.append(
                    Sample(self.name + "_bucket", base + (("le", _fmt_bound(bound)),), cumulative)
                )
            cumulative += leaf.counts[-1]
            out.append(Sample(self.name + "_bucket", base + (("le", "+Inf"),), cumulative))
            out.append(Sample(self.name + "_sum", base, leaf.sum))
            out.append(Sample(self.name + "_count", base, leaf.count))
        return out


class MetricsRegistry:
    """Owns every instrument of one run; snapshot order is deterministic."""

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    # ----------------------------------------------------------- factories
    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        source: Optional[Callable[[], float]] = None,
    ) -> "Counter | SourcedInstrument":
        """A counter; with ``source`` it reads ``source()`` when sampled."""
        return self._get_or_create(Counter, name, help, labelnames, source)

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        source: Optional[Callable[[], float]] = None,
    ) -> "Gauge | SourcedInstrument":
        """A gauge; with ``source`` it reads ``source()`` when sampled."""
        return self._get_or_create(Gauge, name, help, labelnames, source)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        existing = self._instruments.get(name)
        if existing is not None:
            self._check_reuse(existing, Histogram, labelnames)
            assert isinstance(existing, Histogram)
            if existing.buckets != tuple(float(b) for b in buckets):
                raise ValueError(f"{name}: re-registered with different buckets")
            return existing
        instrument = Histogram(name, help, labelnames, buckets)
        self._instruments[name] = instrument
        return instrument

    def _get_or_create(
        self,
        cls,
        name: str,
        help: str,
        labelnames: Sequence[str],
        source: Optional[Callable[[], float]],
    ):
        existing = self._instruments.get(name)
        if existing is not None:
            if source is not None or isinstance(existing, SourcedInstrument):
                # Two owners of one sourced series would silently shadow
                # each other; a sourced series has exactly one.
                raise ValueError(f"{name}: a sourced instrument cannot be re-registered")
            self._check_reuse(existing, cls, labelnames)
            return existing
        if source is None:
            instrument = cls(name, help, labelnames)
        elif labelnames:
            raise ValueError(f"{name}: a sourced instrument cannot have labels")
        else:
            instrument = SourcedInstrument(cls.kind, name, help, source)
        self._instruments[name] = instrument
        return instrument

    @staticmethod
    def _check_reuse(existing: _Instrument, cls, labelnames: Sequence[str]) -> None:
        if type(existing) is not cls:
            raise ValueError(
                f"{existing.name} already registered as {existing.kind}, "
                f"cannot re-register as {cls.kind}"
            )
        if existing.labelnames != tuple(labelnames):
            raise ValueError(
                f"{existing.name}: label names {tuple(labelnames)} do not match "
                f"existing {existing.labelnames}"
            )

    # ------------------------------------------------------------ querying
    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def instruments(self) -> List[_Instrument]:
        """Every registered instrument, sorted by name."""
        return [self._instruments[name] for name in sorted(self._instruments)]

    def snapshot(self) -> List[Sample]:
        """All samples in deterministic (name, labels) order."""
        out: List[Sample] = []
        for instrument in self.instruments():
            out.extend(instrument.samples())
        return out

    def value(self, name: str, **labelvalues: str) -> float:
        """Convenience accessor for tests: the current scalar of a series."""
        instrument = self._instruments[name]
        leaf = instrument.labels(**labelvalues) if labelvalues else instrument
        leaf._require_leaf()
        return leaf.value  # type: ignore[attr-defined]


# --------------------------------------------------------------- null objects
class NullInstrument:
    """Shared no-op stand-in for every instrument type when obs is off."""

    __slots__ = ()

    def labels(self, **labelvalues: str) -> "NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = NullInstrument()


class NullRegistry:
    """Registry facade whose factories all return :data:`NULL_INSTRUMENT`."""

    __slots__ = ()

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = (), source=None):
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = (), source=None):
        return NULL_INSTRUMENT

    def histogram(self, name, help="", labelnames=(), buckets=DEFAULT_BUCKETS):
        return NULL_INSTRUMENT

    def snapshot(self) -> List[Sample]:
        return []


NULL_REGISTRY = NullRegistry()


# ------------------------------------------------------------------- helpers
def _validate_metric_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name) or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")


def _validate_label_name(name: str) -> None:
    if not name or not all(c.isalnum() or c == "_" for c in name) or name[0].isdigit():
        raise ValueError(f"invalid label name {name!r}")


def _fmt_bound(bound: float) -> str:
    """Bucket bound rendering: integral bounds drop the trailing ``.0``."""
    return repr(bound) if bound != int(bound) else str(int(bound))
