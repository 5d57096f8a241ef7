"""Statistics collection: named counters, and the time series the
gauge sampler records into.

Protocol layers record events ("packets_sent", "retransmissions",
"explicit_acks") into a :class:`StatRegistry`; tests and benchmarks read
them back to assert protocol behaviour (e.g. that a lossless run performs
zero retransmissions, or that lazy FIFO popping reduced MicroChannel
accesses).

Distribution queries (percentiles) delegate to :mod:`repro.obs.hist`, and
counters and series snapshot to plain JSON-serializable dicts so the
observability exporters can embed them verbatim.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class TimeSeries:
    """(time, value) samples, e.g. instantaneous window occupancy.

    With ``capacity`` set the series is a ring buffer: once full, each
    new sample evicts the oldest one, which ``dropped_samples`` counts.
    Long soaks with a periodic gauge sampler need the bound — an
    unbounded series would grow by one tuple per sample for the entire
    run — while short benchmark runs keep the default unbounded list.
    """

    __slots__ = ("name", "samples", "capacity", "recorded")

    def __init__(self, name: str, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        #: a deque bounds the ring at C speed; the unbounded default stays
        #: a plain list (append is the hot operation either way)
        self.samples = (deque(maxlen=capacity) if capacity is not None
                        else [])
        #: samples ever recorded, evicted ones included
        self.recorded = 0

    def record(self, t: float, value: float) -> None:
        # the gauge sampler's hot call: the deque evicts, nothing is
        # compared per sample
        self.recorded += 1
        self.samples.append((t, value))

    @property
    def dropped_samples(self) -> int:
        """Samples evicted by the ring buffer (0 when unbounded)."""
        return self.recorded - len(self.samples)

    @property
    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    def _require_data(self) -> List[float]:
        vals = self.values
        if not vals:
            raise ValueError(f"time series {self.name!r} is empty")
        return vals

    def mean(self) -> float:
        vals = self._require_data()
        return sum(vals) / len(vals)

    def max(self) -> float:
        return max(self._require_data())

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]) of the values."""
        from repro.obs.hist import percentile

        return percentile(self._require_data(), p)

    def snapshot(self) -> Dict[str, float]:
        """JSON-serializable summary of the series.

        The values are extracted and sorted **once**; every percentile
        reads the shared sorted copy (one ``sorted`` per snapshot, not
        one per quantile).
        """
        from repro.obs.hist import percentile_sorted

        if not self.samples:
            return {"count": 0}
        vs = sorted(v for _, v in self.samples)
        snap = {
            "count": len(vs),
            "mean": sum(vs) / len(vs),
            "max": vs[-1],
            "p50": percentile_sorted(vs, 50),
            "p95": percentile_sorted(vs, 95),
            "p99": percentile_sorted(vs, 99),
            "last": self.samples[-1][1],
        }
        if self.dropped_samples:
            snap["dropped_samples"] = self.dropped_samples
        return snap

    def __len__(self) -> int:
        return len(self.samples)


class StatRegistry:
    """Namespace of counters for one component."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self._counters: Dict[str, Counter] = {}

    @property
    def counters(self) -> Dict[str, Counter]:
        """The live name -> :class:`Counter` table (read, never written,
        through this): a periodic reader binds the counters it wants
        once and sees a new one arrive as a change of the table's size."""
        return self._counters

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(self.prefix + name)
        return c

    def count(self, name: str, n: int = 1) -> None:
        # hot path: open-coded counter() + add() (called per packet)
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(self.prefix + name)
        c.value += n

    def get(self, name: str) -> int:
        """Current value of a counter (0 if never touched)."""
        c = self._counters.get(name)
        return 0 if c is None else c.value

    def snapshot(self) -> Dict[str, int]:
        """Counter values keyed by full (prefixed) name, sorted — stable
        and JSON-serializable (plain ints/floats only)."""
        return {c.name: c.value
                for _key, c in sorted(self._counters.items())}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StatRegistry({self.prefix!r}, {self.snapshot()})"
