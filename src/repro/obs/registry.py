"""Metrics registry: counters, gauges, histograms for the auth plane.

Design constraints (they shape every line here):

- **Hot-path cheap.**  Metric writes sit inside ``BatchVerifier`` and
  the socket server.  A *disabled* registry must cost exactly one
  branch per write (``if not enabled: return``); an enabled one costs a
  couple of dict operations.  No locks anywhere: the stack is
  single-threaded asyncio, and CPython dict/int mutations are atomic
  under the GIL, so readers (``snapshot()``) never see torn state —
  the registry is lock-free on read by construction.
- **Deterministic.**  The clock is injectable (``clock=`` — default
  :func:`time.monotonic`) so tests drive histograms and timers with a
  fake clock, and nothing here ever touches an RNG: instrumentation
  must not perturb nonce streams or transcripts.
- **Bounded.**  Label sets per metric are capped
  (``max_label_sets``); once the cap is reached, new label
  combinations fold into a single ``other`` series instead of growing
  without bound under hostile label values (e.g. attacker-controlled
  device ids must never become a memory leak).

The registry renders to Prometheus text format or JSON via
:mod:`repro.obs.export` and is served over the wire by the ``metrics``
admin verb (wire 1.2, :mod:`repro.service.net.server`).
"""

from __future__ import annotations

import re
import time
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

# Log-scaled (powers of 4) latency bounds from 1 microsecond to ~17 s:
# 13 finite bounds + the implicit +Inf bucket.  Fixed — every latency
# histogram in the stack shares them, so scrapes from different
# replicas aggregate without bucket realignment.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    1e-6 * 4.0 ** k for k in range(13)
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: The series every metric folds into once ``max_label_sets`` distinct
#: label combinations exist (bounded-cardinality overflow).
OVERFLOW_LABEL = "other"


class Metric:
    """Shared series bookkeeping: label resolution + cardinality cap."""

    kind = ""

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: Dict[Tuple[str, ...], object] = {}
        self._overflow_key = (OVERFLOW_LABEL,) * len(self.labelnames)

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        """Resolve ``**labels`` to a series key, folding overflow.

        The cap check only binds for *new* keys: existing series keep
        updating after the cap, so totals already being tracked never
        silently migrate into ``other``.
        """
        if not self.labelnames:
            if labels:
                raise ValueError(
                    f"metric {self.name!r} takes no labels, got {labels!r}"
                )
            return ()
        if len(labels) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        try:
            key = tuple(str(labels[name]) for name in self.labelnames)
        except KeyError as exc:
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            ) from exc
        if key not in self._series \
                and len(self._series) >= self._registry.max_label_sets:
            return self._overflow_key
        return key

    def _sorted_keys(self) -> List[Tuple[str, ...]]:
        return sorted(self._series)

    def _snapshot(self) -> dict:
        raise NotImplementedError


class Counter(Metric):
    """Monotonically non-decreasing count (rendered with ``_total``)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: object) -> None:
        if not self._registry._enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(self._key(labels), 0)

    def _set_total(self, value: float, **labels: object) -> None:
        """Internal: absolute write for collectors and attribute counters.

        Deliberately *not* gated on ``enabled`` — the
        ``ServerMetrics``/``ChaosMetrics`` attribute APIs promise their
        counts stay correct regardless of registry state.
        """
        self._series[self._key(labels)] = value

    def _snapshot(self) -> dict:
        return {
            "name": self.name, "kind": self.kind, "help": self.help,
            "labelnames": list(self.labelnames),
            "samples": [
                {"labels": dict(zip(self.labelnames, key)),
                 "value": self._series[key]}
                for key in self._sorted_keys()
            ],
        }


class Gauge(Metric):
    """Point-in-time value (queue depth, pool level, resident set)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        if not self._registry._enabled:
            return
        self._series[self._key(labels)] = value

    def inc(self, amount: float = 1, **labels: object) -> None:
        if not self._registry._enabled:
            return
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        return self._series.get(self._key(labels), 0)

    def _snapshot(self) -> dict:
        return {
            "name": self.name, "kind": self.kind, "help": self.help,
            "labelnames": list(self.labelnames),
            "samples": [
                {"labels": dict(zip(self.labelnames, key)),
                 "value": self._series[key]}
                for key in self._sorted_keys()
            ],
        }


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0


class _Timer:
    """``with histogram.time():`` — observes the elapsed clock delta."""

    __slots__ = ("_histogram", "_labels", "_start")

    def __init__(self, histogram: "Histogram", labels: Dict[str, object]):
        self._histogram = histogram
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = self._histogram._registry.clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(
            self._histogram._registry.clock() - self._start, **self._labels
        )


class Histogram(Metric):
    """Fixed-bucket distribution; buckets shared across all label sets."""

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        if not self._registry._enabled:
            return
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        series.counts[bisect_left(self.buckets, value)] += 1
        series.sum += value
        series.count += 1

    def time(self, **labels: object) -> _Timer:
        return _Timer(self, labels)

    def _snapshot(self) -> dict:
        samples = []
        for key in self._sorted_keys():
            series = self._series[key]
            samples.append({
                "labels": dict(zip(self.labelnames, key)),
                "buckets": list(series.counts),
                "sum": series.sum,
                "count": series.count,
            })
        return {
            "name": self.name, "kind": self.kind, "help": self.help,
            "labelnames": list(self.labelnames),
            "bounds": list(self.buckets),
            "samples": samples,
        }


class MetricsRegistry:
    """The process-wide (or plane-wide) family of metrics.

    One registry is typically shared by a whole verifier plane — in a
    :class:`repro.service.ha.ReplicaGroup` all replicas write to the
    same registry (with a ``replica`` label where it matters), so
    scraping *any* replica returns the fleet-wide totals.

    ``metric = registry.counter(name, ...)`` is idempotent by name:
    re-registering returns the existing metric, and a kind or label
    mismatch raises instead of silently forking the series.
    """

    def __init__(self, *, enabled: bool = True,
                 clock: Callable[[], float] = time.monotonic,
                 max_label_sets: int = 64):
        if max_label_sets < 1:
            raise ValueError("max_label_sets must be at least 1")
        self._enabled = bool(enabled)
        self.clock = clock
        self.max_label_sets = int(max_label_sets)
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Callable[[], None]] = []

    # -- lifecycle --------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        """Metric writes become a single branch; stored series persist."""
        self._enabled = False

    # -- registration -----------------------------------------------------

    def _register(self, cls: type, name: str, help: str,
                  labelnames: Sequence[str], **kwargs: object) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls \
                    or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels {existing.labelnames}"
                )
            return existing
        metric = cls(self, name, help, labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._register(
            Histogram, name, help, labelnames,
            buckets=tuple(buckets) if buckets is not None
            else DEFAULT_LATENCY_BUCKETS,
        )

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def register_collector(self, collect: Callable[[], None]) -> None:
        """Add a sampling callback run at :meth:`snapshot` time.

        Collectors pull state that would be too hot (or too scattered)
        to push on every event — coalescer queue depth, spot-pool
        levels, storage-backend stats — so sampled series cost nothing
        between scrapes.
        """
        self._collectors.append(collect)

    # -- reading ----------------------------------------------------------

    def snapshot(self, run_collectors: bool = True) -> dict:
        """A plain-dict capture of every series (render-ready).

        Collectors only run on an *enabled* registry: a disabled one
        must observe nothing, not even on scrape.
        """
        if run_collectors and self._enabled:
            for collect in self._collectors:
                collect()
        return {
            "enabled": self._enabled,
            "metrics": [self._metrics[name]._snapshot()
                        for name in sorted(self._metrics)],
        }
