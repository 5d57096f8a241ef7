"""Latency histograms with percentile queries.

The paper's evaluation reports *distributions* only through their means
(51.0 us round trip, Table 2 call costs); a production system needs the
tail too.  :class:`Histogram` collects raw observations and answers
p50/p95/p99/max queries; :func:`percentile` is the shared nearest-rank
implementation that :meth:`repro.sim.stats.TimeSeries.percentile` also
delegates to.

Values are kept verbatim (a simulation produces at most a few hundred
thousand observations per run) so percentiles are exact, not bucketed
approximations; the sorted view is cached between observations.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence


def percentile_sorted(vs: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an **already sorted** sequence.

    The single selection implementation: both :func:`percentile` and
    :meth:`Histogram.percentile` delegate here, so the nearest-rank rule
    cannot drift between them.
    """
    if not vs:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    if p == 0.0:
        return vs[0]
    k = math.ceil(p / 100.0 * len(vs)) - 1
    return vs[min(max(k, 0), len(vs) - 1)]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    return percentile_sorted(sorted(values), p)


class Histogram:
    """A named distribution of float observations (times, depths, sizes)."""

    __slots__ = ("name", "_values", "_sorted")

    def __init__(self, name: str):
        self.name = name
        self._values: List[float] = []
        self._sorted: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        self._values.append(float(value))
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def _ordered(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._values)
        return self._sorted

    def min(self) -> float:
        self._require_data()
        return self._ordered()[0]

    def max(self) -> float:
        self._require_data()
        return self._ordered()[-1]

    def mean(self) -> float:
        self._require_data()
        return sum(self._values) / len(self._values)

    def percentile(self, p: float) -> float:
        self._require_data()
        return percentile_sorted(self._ordered(), p)

    def _require_data(self) -> None:
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")

    def snapshot(self) -> Dict[str, float]:
        """JSON-serializable summary: count, min/mean/max, p50/p95/p99."""
        if not self._values:
            return {"count": 0}
        return {
            "count": self.count,
            "min": self.min(),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, n={self.count})"
