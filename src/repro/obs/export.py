"""Exporter: the Chrome trace-event JSON of one observed run.

:func:`chrome_trace` renders one :class:`~repro.obs.core.Observatory` in
the Chrome trace-event format (the ``{"traceEvents": [...]}`` flavour),
loadable in Perfetto / ``about:tracing`` with one process row per node
plus one for the switch, and thread rows for host / adapter / handler /
phase activity.  Each span renders as its
:func:`~repro.obs.critpath.critpath_segments`, one slice per stage, so
``spam-bench inspect`` reads the §2.3 stage breakdown back from the
slices.  When a :class:`~repro.obs.metrics.MetricsSampler` ran, every
gauge series additionally renders as a counter track (``"ph": "C"``)
under the process row its ``pid_of`` names.  Timestamps are already
microseconds — the simulator's native unit — so no scaling happens.
``otherData`` carries the span count and every drop counter.
:func:`write_chrome_trace` writes it to a file; it is the one trace
format.  Counter and histogram snapshots for bench reports are
:meth:`Observatory.snapshot`.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.obs.core import Observatory
from repro.obs.critpath import critpath_segments

#: synthetic "process" holding the switch's per-destination-link rows
SWITCH_PID = 9999
#: synthetic "process" for machine-wide counter tracks (scheduler depth,
#: event rates)
GLOBAL_PID = 9998

#: thread ids within a node's process row
TID_HOST = 0
TID_ADAPTER = 1
TID_HANDLER = 2
TID_PHASE = 3

_TID_NAMES = {
    TID_HOST: "host",
    TID_ADAPTER: "adapter",
    TID_HANDLER: "am handler",
    TID_PHASE: "phases",
}

#: critical-path stage -> (which end of the span owns it, thread row)
_STAGE_TRACK: Dict[str, Tuple[str, int]] = {
    "staging": ("src", TID_HOST),
    "tx_queue": ("src", TID_ADAPTER),
    "retransmit_backoff": ("src", TID_ADAPTER),
    "dma_wire": ("src", TID_ADAPTER),
    "switch_queue": ("switch", 0),
    "switch_hw": ("switch", 0),
    "rx_dma": ("dst", TID_ADAPTER),
    "poll_wait": ("dst", TID_HOST),
    "dispatch": ("dst", TID_HOST),
    "handler": ("dst", TID_HANDLER),
}


def _meta(pid: int, name: str, tid: int = None, tname: str = None) -> List[Dict]:
    out = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name}}]
    if tid is not None:
        out.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": tname}})
    return out


def chrome_trace(obs: Observatory) -> Dict:
    """Render the observatory as a Chrome trace-event JSON object."""
    events: List[Dict] = []
    pids = set()
    switch_rows = set()
    for span in obs.spans.values():
        for stage, start, dur in critpath_segments(span):
            side, tid = _STAGE_TRACK[stage]
            if side == "switch":
                pid, tid = SWITCH_PID, span.dst
                switch_rows.add(span.dst)
            else:
                pid = span.src if side == "src" else span.dst
                pids.add(pid)
            events.append({
                "name": f"{stage}:{span.kind}",
                "cat": span.kind,
                "ph": "X",
                "ts": start,
                "dur": dur,
                "pid": pid,
                "tid": tid,
                "args": {"trace_id": span.trace_id, "seq": span.seq,
                         "src": span.src, "dst": span.dst,
                         "bytes": span.wire_bytes},
            })
    for node, track, name, t0, t1 in obs.phase_spans:
        pids.add(node)
        events.append({
            "name": name, "cat": track, "ph": "X", "ts": t0,
            "dur": max(0.0, t1 - t0), "pid": node, "tid": TID_PHASE,
            "args": {"track": track},
        })
    counter_pids = set()
    if obs.metrics is not None:
        for name, series in sorted(obs.metrics.series.items()):
            pid = obs.metrics.pid_of.get(name, GLOBAL_PID)
            counter_pids.add(pid)
            for t, v in series.samples:
                events.append({
                    "name": name, "ph": "C", "ts": t, "pid": pid,
                    "args": {name.rpartition(".")[2]: v},
                })
    meta: List[Dict] = []
    if GLOBAL_PID in counter_pids:
        meta.extend(_meta(GLOBAL_PID, "machine"))
    for pid in sorted(pids | (counter_pids - {GLOBAL_PID, SWITCH_PID})):
        meta.extend(_meta(pid, f"node {pid}"))
        for tid, tname in _TID_NAMES.items():
            meta.extend(_meta(pid, f"node {pid}", tid, tname)[1:])
    if switch_rows or SWITCH_PID in counter_pids:
        meta.extend(_meta(SWITCH_PID, "switch"))
        for dst in sorted(switch_rows):
            meta.extend(_meta(SWITCH_PID, "switch", dst, f"link to n{dst}")[1:])
    other = {
        "generator": "repro.obs",
        "spans": len(obs.spans),
        "dropped_spans": obs.dropped_spans,
        "dropped_fault_events": obs.dropped_fault_events,
        "dropped_phase_spans": obs.dropped_phase_spans,
    }
    if obs.metrics is not None:
        other["counter_series"] = len(obs.metrics.series)
        other["sampler_period_us"] = obs.metrics.period_us
    return {
        "traceEvents": meta + sorted(events, key=lambda e: e["ts"]),
        "displayTimeUnit": "ns",
        "otherData": other,
    }


def write_chrome_trace(obs: Observatory, path: str) -> str:
    # compact, and through ``dumps``: ``json.dump`` streams through the
    # pure-Python encoder, ``dumps`` runs the C one (~4x faster here)
    with open(path, "w") as f:
        f.write(json.dumps(chrome_trace(obs)))
    return path

