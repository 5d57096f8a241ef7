"""Unified observability: message-lifecycle spans, histograms, exporters.

Every layer of the stack — TB2 adapter, switch, generic NIC, AM, MPL,
Split-C's profiler — reports into one :class:`Observatory`:

* **spans** follow a single packet end-to-end (injection → MicroChannel
  DMA → send FIFO → switch → receive FIFO → handler), correlated by the
  ``trace_id`` carried on :class:`~repro.hardware.packet.Packet`;
* **histograms** answer p50/p95/p99/max queries for round-trip latency,
  handler run time, window occupancy, and switch queueing;
* **metrics** (:mod:`repro.obs.metrics`) sample gauges across every layer
  on a simulated-time timer — FIFO occupancy, window credit, link and TX
  utilization, scheduler depth, retransmit rates — into bounded ring
  buffers that also render as Chrome-trace counter tracks;
* **critical path** (:mod:`repro.obs.critpath`) is the one per-stage
  decomposition of a span — staging / queueing / DMA+wire / switch /
  poll / dispatch / handler / retransmit-backoff time — which
  reconstructs the paper's Table 2 / §2.3 breakdowns from a live run,
  rolls it up per kind, and names the bottleneck stage plus its
  saturated gauge;
* **exporter** emits the Chrome trace-event JSON (open in Perfetto; the
  one trace format, which ``spam-bench inspect`` validates and reads the
  stage breakdown back from); counter/histogram snapshots go into bench
  reports.

Usage::

    obs = Observatory().attach(machine)     # before running the workload
    ... run ...
    write_chrome_trace(obs, "trace.json")
    obs.hist("am.rtt_us").percentile(99)

See ``docs/observability.md`` for the span model and formats.
"""

from repro.obs.core import Observatory
from repro.obs.critpath import (
    CRIT_STAGES,
    attribution_coverage,
    bottleneck_verdict,
    critpath_rollup,
    critpath_segments,
    critpath_stages,
)
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.hist import Histogram, percentile
from repro.obs.metrics import MetricsSampler
from repro.obs.schema import validate_bench_report, validate_chrome_trace
from repro.obs.span import MessageSpan

__all__ = [
    "Observatory",
    "MetricsSampler",
    "CRIT_STAGES",
    "critpath_segments",
    "critpath_stages",
    "critpath_rollup",
    "bottleneck_verdict",
    "attribution_coverage",
    "Histogram",
    "percentile",
    "MessageSpan",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "validate_bench_report",
]
