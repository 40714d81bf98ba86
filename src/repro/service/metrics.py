"""Service metrics: counters, latency histograms and snapshot reporting.

The server (:mod:`repro.service.server`) feeds one :class:`ServiceMetrics`
instance; the ``stats`` request type serializes it with
:meth:`ServiceMetrics.snapshot`.  Everything is standard library and
single-threaded by design — the server only touches metrics from its event
loop, so no locking is needed there; the snapshot itself is a plain dict a
reader can serialize safely at any point.

The snapshot's ``cache`` sub-object deliberately matches the shape
``repro-spill cache stats --json`` prints for an on-disk store, so
dashboards can consume either source with one parser.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Histogram sample cap: beyond this many recorded values the reservoir
#: keeps every k-th sample instead, bounding memory on long-running servers
#: while keeping percentiles representative.
MAX_SAMPLES = 65536

#: The percentiles every snapshot reports.
REPORTED_PERCENTILES = (50.0, 95.0, 99.0)


class LatencyHistogram:
    """A bounded reservoir of latency samples with percentile queries.

    Samples are kept verbatim until :data:`MAX_SAMPLES`; past that the
    histogram decimates (keeps every second sample and doubles its stride),
    so memory stays bounded while min/max/count/sum remain exact.

    .. note:: **Known tail bias after decimation.**  Decimation keeps every
       k-th sample *in arrival order*, so once the reservoir has decimated,
       percentile queries answer from a strided subsample of the stream.
       For time-correlated latency (bursts, warmup, load waves) the stride
       systematically thins whichever regime arrives while ``_skip`` is
       counting down, skewing tail percentiles — p99 can land an entire
       burst away from the true value under sustained load.  Cumulative
       lifetime stats tolerate this; *windowed* health reporting must not,
       which is why the rolling-window path in
       :mod:`repro.service.health` uses fixed-bucket histograms whose
       quantiles are exact up to bucket resolution regardless of volume.
       Both behaviours are pinned by
       ``tests/service/test_reservoir_bias.py``.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._samples: List[float] = []
        self._stride = 1
        self._skip = 0

    def record(self, value: float) -> None:
        """Record one sample (milliseconds by convention)."""

        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)
        if self._skip > 0:
            self._skip -= 1
            return
        self._samples.append(value)
        self._skip = self._stride - 1
        if len(self._samples) >= MAX_SAMPLES:
            self._samples = self._samples[::2]
            self._stride *= 2

    def percentile(self, percent: float) -> float:
        """The ``percent``-th percentile (nearest-rank) of the reservoir."""

        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, round(percent / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    @property
    def mean(self) -> float:
        """Arithmetic mean of every recorded sample (exact, not reservoir)."""

        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """count/mean/min/max plus the reported percentiles, as a dict."""

        data: Dict[str, float] = {
            "count": self.count,
            "mean": round(self.mean, 4),
            "min": round(self.minimum or 0.0, 4),
            "max": round(self.maximum or 0.0, 4),
        }
        for percent in REPORTED_PERCENTILES:
            data[f"p{percent:g}"] = round(self.percentile(percent), 4)
        return data


@dataclass
class ServiceMetrics:
    """Every counter and histogram the compile server maintains."""

    #: Compile requests that arrived (admitted or not).
    received: int = 0
    #: Compile requests answered with a ``result``.
    completed: int = 0
    #: Compile requests answered with an ``error`` (all codes).
    errors: int = 0
    #: Messages that failed protocol validation (subset of ``errors``).
    protocol_errors: int = 0
    #: Compile requests rejected by admission control.
    rejected_overloaded: int = 0
    #: Requests rejected by policy-driven load shedding (subset of
    #: ``rejected_overloaded`` on the wire: shed rejections reuse the
    #: ``overloaded`` error code so clients retry transparently).
    rejected_shed: int = 0
    #: Compile requests rejected because the server was draining.
    rejected_shutting_down: int = 0
    #: Requests that attached to an identical in-flight compile.
    coalesced: int = 0
    #: Requests answered from the cache at admission (no queue, no batch).
    cache_hits: int = 0
    #: Requests answered from the fleet's shared cache tier (peer hits).
    peer_hits: int = 0
    #: Fresh compile results published to the shared tier (best-effort).
    peer_puts: int = 0
    #: Peer round trips that failed (transport/timeout; served as misses).
    peer_errors: int = 0
    #: Requests that went through a compile batch.
    compiled: int = 0
    #: Batches dispatched.
    batches: int = 0
    #: Sum of batch sizes (unique entries, coalesced waiters excluded).
    batched_entries: int = 0
    #: Largest batch dispatched so far.
    max_batch_size: int = 0
    #: Peak admission-queue depth observed.
    peak_queue_depth: int = 0

    latency_ms: LatencyHistogram = field(default_factory=LatencyHistogram)
    queue_ms: LatencyHistogram = field(default_factory=LatencyHistogram)
    compile_ms: LatencyHistogram = field(default_factory=LatencyHistogram)

    started_at: float = field(default_factory=time.monotonic)

    def record_batch(self, size: int) -> None:
        """Account one dispatched batch of ``size`` unique entries."""

        self.batches += 1
        self.batched_entries += size
        self.max_batch_size = max(self.max_batch_size, size)

    def observe_queue_depth(self, depth: int) -> None:
        """Track the peak admission-queue depth."""

        self.peak_queue_depth = max(self.peak_queue_depth, depth)

    @property
    def uptime_seconds(self) -> float:
        """Seconds since this metrics object was created (server start)."""

        return time.monotonic() - self.started_at

    @property
    def coalesce_rate(self) -> float:
        """Fraction of *completed* requests answered by coalescing."""

        return self.coalesced / self.completed if self.completed else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of completed requests answered from the cache front."""

        return self.cache_hits / self.completed if self.completed else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average unique entries per dispatched batch."""

        return self.batched_entries / self.batches if self.batches else 0.0

    def counter_values(self) -> Dict[str, int]:
        """The cumulative counters as a plain name → value dict.

        The bridge into the windowed health layer: a
        :class:`repro.service.health.HealthMonitor` delta-feeds these via
        ``feed_counters`` each tick, turning lifetime totals into
        per-window rates without double counting.
        """

        return {
            "received": self.received,
            "completed": self.completed,
            "errors": self.errors,
            "protocol_errors": self.protocol_errors,
            "rejected_overloaded": self.rejected_overloaded,
            "rejected_shed": self.rejected_shed,
            "rejected_shutting_down": self.rejected_shutting_down,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "peer_hits": self.peer_hits,
            "peer_puts": self.peer_puts,
            "peer_errors": self.peer_errors,
            "compiled": self.compiled,
        }

    def snapshot(
        self, queue_depth: int = 0, cache_stats: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One JSON-serializable view of every metric.

        ``queue_depth`` is the *current* admission-queue depth (a gauge the
        server samples at snapshot time); ``cache_stats`` is the shared
        store's stats dict (see :func:`cache_stats_payload`), absent when
        the server runs cacheless.
        """

        uptime = self.uptime_seconds
        snapshot: Dict[str, Any] = {
            "schema": "service-stats/v1",
            "uptime_seconds": round(uptime, 3),
            "requests": self.counter_values(),
            "rates": {
                "qps": round(self.completed / uptime, 3) if uptime > 0 else 0.0,
                "coalesce_rate": round(self.coalesce_rate, 4),
                "cache_hit_rate": round(self.cache_hit_rate, 4),
            },
            "batches": {
                "dispatched": self.batches,
                "mean_size": round(self.mean_batch_size, 3),
                "max_size": self.max_batch_size,
            },
            "queue": {
                "depth": queue_depth,
                "peak_depth": self.peak_queue_depth,
            },
            "latency_ms": self.latency_ms.summary(),
            "queue_ms": self.queue_ms.summary(),
            "compile_ms": self.compile_ms.summary(),
        }
        if cache_stats is not None:
            snapshot["cache"] = cache_stats
        return snapshot


def cache_stats_payload(cache) -> Dict[str, Any]:
    """The canonical JSON shape of one :class:`~repro.cache.store.CompileCache`.

    Shared by the service ``stats`` snapshot and by
    ``repro-spill cache stats --json`` so both report the identical schema.
    """

    return {
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
        "hit_rate": round(cache.stats.hit_rate, 4),
        "stores": cache.stats.stores,
        "evictions": cache.stats.evictions,
        "corrupt": cache.stats.corrupt,
        "entries": cache.entry_count(),
        "disk_bytes": cache.disk_bytes(),
    }
