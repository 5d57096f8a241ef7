"""Critical-path attribution: where did each message's microseconds go?

The span layer records absolute-time *marks*; this module turns them
into the paper's §2.3-style decomposition, the one stage vector every
consumer reads (the rollups, ``spam-bench profile``/``soak``/``check``,
the Chrome-trace slices and ``spam-bench inspect``).  TX queueing is
separated from go-back-N recovery backoff, and the switch interval is
separated into destination-link queueing vs. hardware latency, so the
rollup can name the *resource* behind the dominant stage, not just the
layer:

========================  ====================================================
stage                     what the time is
========================  ====================================================
``staging``               software builds + stages the packet (begin→stage)
``tx_queue``              length scan + send-FIFO wait, and every earlier
                          transit of a retransmitted packet
``retransmit_backoff``    waiting for NACK/keep-alive go-back-N recovery
``dma_wire``              MC DMA + i860 TX + input-link serialization
``switch_queue``          destination-link serialization wait (``queued_us``)
``switch_hw``             switch hardware latency (remainder of the interval)
``rx_dma``                MC DMA + i860 RX on the receiving adapter
``poll_wait``             delivered but the host hasn't polled yet
``dispatch``              per-packet poll + handler-table lookup
``handler``               the AM handler body
========================  ====================================================

:func:`critpath_segments` places each stage on the timeline.  The stages
tile ``begin → end`` exactly (each boundary mark is shared), also for a
retransmitted packet, so per-kind sums over a request/reply pair
reproduce the measured RTT — ``spam-bench profile`` requires the
attribution to cover the AM ping-pong round trip within ±5%.

Pure functions over an :class:`~repro.obs.core.Observatory` (or a plain
span iterable); imports nothing from the simulator or hardware.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.obs.span import MessageSpan

#: critical-path stage names, lifecycle order
CRIT_STAGES: Tuple[str, ...] = (
    "staging", "tx_queue", "retransmit_backoff", "dma_wire",
    "switch_queue", "switch_hw", "rx_dma", "poll_wait", "dispatch",
    "handler",
)

#: which sampler gauge explains pressure in each stage, as substring
#: patterns matched against :class:`~repro.obs.metrics.MetricsSampler`
#: series names (first pattern with a live series wins per stage)
STAGE_GAUGES: Dict[str, Tuple[str, ...]] = {
    "staging": (".send_fifo",),
    "tx_queue": (".send_fifo", ".win_inflight"),
    "retransmit_backoff": ("rate.retransmissions_per_s", ".win_credit"),
    "dma_wire": (".tx_util",),
    "switch_queue": (".util", "switch.in_flight"),
    "switch_hw": ("switch.in_flight",),
    "rx_dma": (".recv_fifo",),
    "poll_wait": (".recv_visible",),
    "dispatch": (".recv_visible",),
    "handler": (),     # explained by the handler histogram, not a gauge
}


#: (stage, start mark, end mark): the intervals between consecutive
#: lifecycle marks, before ``tx_queue`` and ``switch_hw`` are split
_INTERVALS: Tuple[Tuple[str, str, str], ...] = (
    ("staging", "begin", "stage"),
    ("tx_queue", "stage", "dma_start"),
    ("dma_wire", "dma_start", "wire_exit"),
    ("switch_hw", "wire_exit", "sw_deliver"),
    ("rx_dma", "sw_deliver", "visible"),
    ("poll_wait", "visible", "consume"),
    ("dispatch", "consume", "handler_start"),
    ("handler", "handler_start", "handler_end"),
)


def critpath_segments(span: MessageSpan) -> List[Tuple[str, float, float]]:
    """One span's critical path as ``(stage, start, duration)`` segments,
    in lifecycle order.

    A stage is present when both of its marks are and the interval is
    not negative.  Recovery backoff is carved out of the end of the
    ``stage → dma_start`` interval that holds it, and switch queueing out
    of the start of ``wire_exit → sw_deliver``.
    """
    m = span.marks
    out: List[Tuple[str, float, float]] = []
    for stage, a, b in _INTERVALS:
        ta, tb = m.get(a), m.get(b)
        if ta is None or tb is None or tb < ta:
            continue
        dur = tb - ta
        if stage == "tx_queue" and span.backoff_us > 0.0:
            back = span.backoff_us
            out.append((stage, ta, max(0.0, dur - back)))
            out.append(("retransmit_backoff", tb - back, back))
            continue
        if stage == "switch_hw" and span.queued_us > 0.0:
            queued = min(span.queued_us, dur)
            out.append(("switch_queue", ta, queued))
            ta, dur = ta + queued, dur - queued
        out.append((stage, ta, dur))
    return out


def critpath_stages(span: MessageSpan) -> Dict[str, float]:
    """One span's critical-path vector: stage -> duration."""
    return {stage: dur for stage, _start, dur in critpath_segments(span)}


def _spans(source) -> Iterable[MessageSpan]:
    spans = getattr(source, "spans", None)
    if spans is not None:          # an Observatory
        return spans.values()
    return source                  # already an iterable of spans


def critpath_rollup(source, by_kind: bool = True) -> Dict[str, Dict]:
    """Aggregate critical-path stages over every span.

    Returns ``{kind: {stage: {count,total_us,mean_us,max_us,share}}}``
    (plus the cross-kind ``"ALL"`` rollup); ``share`` is the stage's
    fraction of that kind's total attributed time — the number the
    bottleneck verdict ranks by.  With ``by_kind=False`` only ``"ALL"``
    is computed.
    """
    # {kind: {stage: [count, total, max]}}
    acc: Dict[str, Dict[str, List[float]]] = {"ALL": {}}
    for span in _spans(source):
        segments = critpath_segments(span)
        if not segments:
            continue
        targets = ["ALL", span.kind] if by_kind else ["ALL"]
        for key in targets:
            bucket = acc.get(key)
            if bucket is None:
                bucket = acc[key] = {}
            for stage, _start, dur in segments:
                cell = bucket.get(stage)
                if cell is None:
                    bucket[stage] = [1, dur, dur]
                else:
                    cell[0] += 1
                    cell[1] += dur
                    if dur > cell[2]:
                        cell[2] = dur
    out: Dict[str, Dict] = {}
    for kind, bucket in sorted(acc.items()):
        if not bucket:
            continue
        grand = sum(cell[1] for cell in bucket.values())
        out[kind] = {
            stage: {
                "count": int(bucket[stage][0]),
                "total_us": bucket[stage][1],
                "mean_us": bucket[stage][1] / bucket[stage][0],
                "max_us": bucket[stage][2],
                "share": (bucket[stage][1] / grand) if grand > 0.0 else 0.0,
            }
            for stage in CRIT_STAGES if stage in bucket
        }
    return out


def slowest_exemplars(source, k: int = 5) -> List[Dict]:
    """The ``k`` slowest completed spans, each with its full mark
    timeline and critical-path decomposition — the "show me one bad
    message" view of the rollup."""
    ranked: List[Tuple[float, MessageSpan]] = []
    for span in _spans(source):
        total = span.total_us()
        if total is not None:
            ranked.append((total, span))
    ranked.sort(key=lambda pair: (-pair[0], pair[1].trace_id))
    out = []
    for total, span in ranked[:k]:
        out.append({
            "trace_id": span.trace_id,
            "kind": span.kind,
            "src": span.src,
            "dst": span.dst,
            "seq": span.seq,
            "wire_bytes": span.wire_bytes,
            "total_us": total,
            "retransmits": span.retransmits,
            "drops": span.drops,
            "marks": dict(sorted(span.marks.items(),
                                 key=lambda kv: kv[1])),
            "stages": critpath_stages(span),
        })
    return out


def bottleneck_verdict(rollup: Dict[str, Dict], metrics=None) -> Dict:
    """Name the dominant critical-path stage over all messages and the
    gauge behind it.

    ``rollup`` is :func:`critpath_rollup` output; ``metrics`` is an
    optional :class:`~repro.obs.metrics.MetricsSampler` whose series
    corroborate the verdict (the saturated gauge's p95/max are quoted).
    """
    bucket = rollup.get("ALL", {})
    if not bucket:
        return {"stage": None, "share": 0.0, "gauge": None}
    stage = max(bucket, key=lambda s: bucket[s]["total_us"])
    verdict = {
        "stage": stage,
        "share": bucket[stage]["share"],
        "mean_us": bucket[stage]["mean_us"],
        "total_us": bucket[stage]["total_us"],
        "gauge": None,
    }
    if metrics is not None:
        # among the gauges that explain this stage, quote the most
        # loaded one (highest p95) as the saturated resource
        best_name, best_p95 = None, None
        for pattern in STAGE_GAUGES.get(stage, ()):
            for name, series in metrics.series.items():
                if pattern in name and len(series):
                    p95 = series.percentile(95)
                    if best_p95 is None or p95 > best_p95:
                        best_name, best_p95 = name, p95
        if best_name is not None:
            verdict["gauge"] = best_name
            verdict["gauge_p95"] = best_p95
            verdict["gauge_max"] = metrics.series[best_name].max()
    return verdict


def attribution_coverage(source, measured_rtt_us: float) -> Dict:
    """Fraction of a measured AM ping-pong RTT the critical path explains.

    §2.3 decomposes one round trip as request begin → request handler
    dispatch, then reply begin → reply handler end: the reply's whole
    lifecycle *rides inside* the request's handler, so the request's
    ``handler`` stage is excluded to avoid double-counting.  Stage means
    per kind are summed accordingly and compared against
    ``measured_rtt_us``.
    """
    rollup = critpath_rollup(source, by_kind=True)

    def kind_sum(kind: str, skip: Tuple[str, ...]) -> float:
        return sum(cell["mean_us"]
                   for stage, cell in rollup.get(kind, {}).items()
                   if stage not in skip)

    request_us = kind_sum("REQUEST", skip=("handler",))
    reply_us = kind_sum("REPLY", skip=())
    attributed = request_us + reply_us
    coverage = (attributed / measured_rtt_us
                if measured_rtt_us > 0.0 else 0.0)
    return {
        "measured_rtt_us": measured_rtt_us,
        "attributed_us": attributed,
        "request_us": request_us,
        "reply_us": reply_us,
        "coverage": coverage,
    }
