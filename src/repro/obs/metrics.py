"""Always-on metrics: counters, gauges, and log-scale histograms.

The metrics registry is live for the whole process and cheap enough to
leave on everywhere: a hook site costs one dict write.  The paper's
crossover analysis (lazy vs eager vs fusion as a function of bucket
occupancy, frontier sizes, and redundant updates) needs these signals on
*every* run — the workload profile and autotuner v2 consume them — so they
cannot hide behind ``repro trace``.

Design:

* **Declared names only.**  Every metric must be declared in
  :data:`repro.obs.events.METRICS`; constructing an undeclared one raises.
  This is the metric half of the span/metric name registry (the span half is
  :data:`~repro.obs.events.SPAN_NAMES`).
* **Per-thread shards.**  Counters and histograms write to a slot keyed by
  ``threading.get_ident()`` — distinct dict keys per thread, so concurrent
  updates never contend and never tear under the GIL.  Merging folds every
  shard into the main slot with commutative operations (sums; bucket-wise
  sums), so the merged value is independent of thread scheduling — that is
  what makes the registry deterministic despite being always on.  The
  parallel engine calls :func:`merge_shards` at its round barrier.
* **Log2 histograms.**  Fixed buckets at powers of two (bucket ``i`` holds
  values whose ``bit_length()`` is ``i``, i.e. ``[2^(i-1), 2^i)``), capped
  at 64 buckets — enough for any int64 quantity, no configuration, and the
  bucket index is one integer op.
* **Wall-clock metrics are quarantined.**  Metrics declared with
  ``wallclock: True`` (timings) are excluded from
  :meth:`MetricsRegistry.deterministic_snapshot`, mirroring
  ``WALL_CLOCK_FIELDS`` on :class:`~repro.runtime.stats.RuntimeStats`.

There is no off switch: per-thread shards, the declared-names check and
the barrier merge are synchronisation and input checking, not options.
"""

from __future__ import annotations

import threading
from typing import Iterator

from .events import METRIC_KINDS, METRICS

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "merge_shards",
    "reset_metrics",
    "snapshot",
    "deterministic_snapshot",
    "prometheus_text",
    "escape_label_value",
]

# Histogram bucket count: covers every non-negative int64 (bit_length <= 63)
# plus bucket 0 for the value 0.
HISTOGRAM_BUCKETS = 64

def _check_declared(name: str, kind: str) -> dict:
    spec = METRICS.get(name)
    if spec is None:
        raise ValueError(
            f"metric {name!r} is not declared in repro.obs.events.METRICS; "
            "declare it there (the name registry) before emitting it"
        )
    if spec["kind"] != kind:
        raise ValueError(
            f"metric {name!r} is declared as a {spec['kind']}, not a {kind}"
        )
    assert kind in METRIC_KINDS
    return spec


class Counter:
    """A monotonically increasing sum, sharded per thread."""

    __slots__ = ("name", "cat", "wallclock", "_shards")

    def __init__(self, name: str):
        spec = _check_declared(name, "counter")
        self.name = name
        self.cat = spec["cat"]
        self.wallclock = bool(spec.get("wallclock"))
        # thread ident -> partial sum; key None is the merged main slot.
        self._shards: dict[int | None, int] = {}

    def inc(self, amount: int = 1) -> None:
        shards = self._shards
        ident = threading.get_ident()
        shards[ident] = shards.get(ident, 0) + amount

    def merge(self) -> None:
        """Fold all thread shards into the main slot (commutative sum)."""
        shards = self._shards
        total = sum(shards.values())
        shards.clear()
        if total:
            shards[None] = total

    def value(self) -> int:
        return sum(self._shards.values())

    def reset(self) -> None:
        self._shards.clear()


class Gauge:
    """A last-write-wins sample (delta in use, worker count, ...).

    Gauges are not sharded: last-write-wins across threads is inherently a
    race, so a single slot (atomic under the GIL) is the honest model.  Use
    them for configuration-like values written from the coordinator.
    """

    __slots__ = ("name", "cat", "wallclock", "_value")

    def __init__(self, name: str):
        spec = _check_declared(name, "gauge")
        self.name = name
        self.cat = spec["cat"]
        self.wallclock = bool(spec.get("wallclock"))
        self._value: float | int | None = None

    def set(self, value: float | int) -> None:
        self._value = value

    def merge(self) -> None:  # symmetry with Counter/Histogram
        pass

    def value(self) -> float | int | None:
        return self._value

    def reset(self) -> None:
        self._value = None


class Histogram:
    """A fixed-bucket log2 histogram with count/sum/max, sharded per thread.

    ``observe(v)`` drops ``v`` into bucket ``v.bit_length()`` (clamped to
    :data:`HISTOGRAM_BUCKETS`); negative values clamp into bucket 0.
    """

    __slots__ = ("name", "cat", "wallclock", "_shards")

    def __init__(self, name: str):
        spec = _check_declared(name, "histogram")
        self.name = name
        self.cat = spec["cat"]
        self.wallclock = bool(spec.get("wallclock"))
        # thread ident -> [bucket counts, count, sum, max]
        self._shards: dict[int | None, list] = {}

    def _shard(self) -> list:
        ident = threading.get_ident()
        shard = self._shards.get(ident)
        if shard is None:
            shard = self._shards[ident] = [
                [0] * HISTOGRAM_BUCKETS, 0, 0, 0,
            ]
        return shard

    def observe(self, value: int | float) -> None:
        v = int(value)
        index = v.bit_length() if v > 0 else 0
        if index >= HISTOGRAM_BUCKETS:
            index = HISTOGRAM_BUCKETS - 1
        shard = self._shard()
        shard[0][index] += 1
        shard[1] += 1
        shard[2] += v
        if v > shard[3]:
            shard[3] = v

    def merge(self) -> None:
        """Fold all thread shards into the main slot (bucket-wise sums, so
        the result is independent of merge order)."""
        shards = self._shards
        if not shards:
            return
        merged = [[0] * HISTOGRAM_BUCKETS, 0, 0, 0]
        for shard in shards.values():
            for i, n in enumerate(shard[0]):
                merged[0][i] += n
            merged[1] += shard[1]
            merged[2] += shard[2]
            if shard[3] > merged[3]:
                merged[3] = shard[3]
        shards.clear()
        if merged[1]:
            shards[None] = merged

    def _combined(self) -> list:
        combined = [[0] * HISTOGRAM_BUCKETS, 0, 0, 0]
        for shard in self._shards.values():
            for i, n in enumerate(shard[0]):
                combined[0][i] += n
            combined[1] += shard[1]
            combined[2] += shard[2]
            if shard[3] > combined[3]:
                combined[3] = shard[3]
        return combined

    def value(self) -> dict:
        buckets, count, total, peak = self._combined()
        return {
            "buckets": buckets,
            "count": count,
            "sum": total,
            "max": peak,
        }

    def reset(self) -> None:
        self._shards.clear()


_KIND_TO_CLASS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """The process-wide metric set, lazily instantiated from declarations."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = _KIND_TO_CLASS[kind](name)
                    self._metrics[name] = metric
        # The cached-instance path must enforce the declaration too, or a
        # kind mismatch would silently hand back the wrong metric type.
        _check_declared(name, kind)
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge")

    def histogram(self, name: str) -> Histogram:
        return self._get(name, "histogram")

    def __iter__(self) -> Iterator:
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def merge_shards(self) -> None:
        """Deterministically fold per-thread shards (barrier-point merge)."""
        for metric in list(self._metrics.values()):
            metric.merge()

    def reset(self) -> None:
        """Drop every recorded value (per-run and per-test isolation)."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Every live metric as JSON-safe values, sorted by name."""
        out: dict = {}
        for metric in self:
            value = metric.value()
            if isinstance(metric, Gauge) and value is None:
                continue
            if isinstance(metric, (Counter, Gauge)) and not value:
                continue
            if isinstance(metric, Histogram) and value["count"] == 0:
                continue
            out[metric.name] = value
        return out

    def deterministic_snapshot(self) -> dict:
        """The bit-stable subset: every non-wall-clock metric.

        Runs that compute the same thing must produce this dict bit for bit
        regardless of thread scheduling — the same contract
        :meth:`RuntimeStats.deterministic_dict` gives for its counters.
        """
        return {
            name: value
            for name, value in self.snapshot().items()
            if not METRICS[name].get("wallclock")
        }

    def prometheus_text(self) -> str:
        """Prometheus text exposition.

        This is the **single** exposition function: ``repro metrics
        --format prom`` and the query service's ``/metrics`` endpoint both
        call it, so the two outputs can never drift apart.  Every series
        carries the ``# TYPE`` line scrapers require, and label values go
        through :func:`escape_label_value`.
        """
        lines: list[str] = []
        for metric in self:
            base = "repro_" + metric.name.replace(".", "_").replace("-", "_")
            if isinstance(metric, Counter):
                value = metric.value()
                if not value:
                    continue
                lines.append(f"# TYPE {base}_total counter")
                lines.append(f"{base}_total {value}")
            elif isinstance(metric, Gauge):
                value = metric.value()
                if value is None:
                    continue
                lines.append(f"# TYPE {base} gauge")
                lines.append(f"{base} {value}")
            else:
                data = metric.value()
                if data["count"] == 0:
                    continue
                lines.append(f"# TYPE {base} histogram")
                cumulative = 0
                for index, count in enumerate(data["buckets"]):
                    if count == 0:
                        continue
                    cumulative += count
                    bound = escape_label_value((1 << index) - 1)
                    lines.append(
                        f'{base}_bucket{{le="{bound}"}} {cumulative}'
                    )
                lines.append(
                    f'{base}_bucket{{le="+Inf"}} {data["count"]}'
                )
                lines.append(f"{base}_sum {data['sum']}")
                lines.append(f"{base}_count {data['count']}")
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide registry every hook site writes to.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """Resolve (or create) a declared counter on the global registry."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Resolve (or create) a declared gauge on the global registry."""
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """Resolve (or create) a declared histogram on the global registry."""
    return REGISTRY.histogram(name)


def merge_shards() -> None:
    """Barrier-point shard merge on the global registry."""
    REGISTRY.merge_shards()


def reset_metrics() -> None:
    """Reset the global registry (tests, per-run isolation)."""
    REGISTRY.reset()


def snapshot() -> dict:
    return REGISTRY.snapshot()


def deterministic_snapshot() -> dict:
    return REGISTRY.deterministic_snapshot()


def prometheus_text() -> str:
    return REGISTRY.prometheus_text()


def escape_label_value(value) -> str:
    """Escape a Prometheus label value per the text exposition format.

    Backslash, double quote, and newline are the three characters the spec
    requires escaping inside ``label="..."``; everything else passes
    through verbatim.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )
