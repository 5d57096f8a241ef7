"""Span-table edge cases: fault-event reconciliation against the span
table, and the ``span_limit`` safety valve.

The valve bounds each of the hub's three buffers (spans, fault events,
phase spans) and counts what each one refuses under its own name —
chaos campaigns treat a refused span as a sign the run outgrew its
tracing budget.  Past it, a packet still gets a trace id, and the fault
ledger still takes the drop it is owed for a fault it holds.
"""

from repro.hardware.packet import Packet, PacketKind
from repro.obs import Observatory


def _pkt(seq=0, kind=PacketKind.REQUEST):
    return Packet(src=0, dst=1, kind=kind, seq=seq)


# ---------------------------------------------------------------------------
# fault-event reconciliation
# ---------------------------------------------------------------------------

def test_full_sampling_reconciles_every_fault():
    obs = Observatory()          # every message traced: the soak contract
    pkts = [_pkt(i) for i in range(4)]
    for i, p in enumerate(pkts):
        obs.begin_message(p, float(i))
        obs.fault(p, "fabric_loss", float(i), "injected")
    assert all(e["trace_id"] in obs.spans for e in obs.fault_events)


# ---------------------------------------------------------------------------
# span_limit valve
# ---------------------------------------------------------------------------

def test_limit_dropped_packet_still_gets_a_trace_id():
    obs = Observatory(span_limit=1)
    kept, dropped = _pkt(0), _pkt(1)
    assert obs.begin_message(kept, 0.0) is not None
    assert obs.begin_message(dropped, 1.0) is None
    # stamped but not stored: its faults stay attributable, its marks go
    # nowhere, and a retransmission is not refused (or counted) again
    assert dropped.trace_id == kept.trace_id + 1
    assert obs.mark_packet(dropped, "visible", 2.0) is None
    assert obs.begin_message(dropped, 3.0) is None
    assert obs.dropped_spans == 1


def test_fault_event_buffer_shares_the_safety_valve():
    obs = Observatory(span_limit=1)
    p = _pkt(0)
    obs.begin_message(p, 0.0)
    obs.fault(p, "fabric_loss", 1.0, "first")
    obs.fault(p, "fabric_loss", 2.0, "second")   # buffer full
    assert len(obs.fault_events) == 1
    # counted as a refused fault event, not as a refused span
    assert obs.dropped_fault_events == 1
    assert obs.dropped_spans == 0


def test_full_fault_ledger_keeps_the_drop_a_held_fault_is_owed():
    obs = Observatory(span_limit=2)
    held, late = _pkt(0), _pkt(1)
    held.trace_id, late.trace_id = 1, 2
    obs.fault(held, "corrupt", 1.0)
    obs.fault(late, "drop", 2.0)
    assert obs.faults_before_full is None
    obs.packet_dropped(late, "fault_drop")   # full, but owed to fault 2
    assert obs.faults_before_full == 2
    obs.fault(late, "drop", 3.0)             # refused: no room for faults
    obs.packet_dropped(late, "fault_drop")   # refused: fault 2 got its drop
    obs.packet_dropped(held, "crc")          # kept: owed to fault 1
    obs.packet_dropped(held, "crc")          # refused: owed only once
    assert [(e["kind"], e["trace_id"]) for e in obs.fault_events] == [
        ("corrupt", 1), ("drop", 2), ("packet_dropped", 2),
        ("packet_dropped", 1)]
    assert obs.dropped_fault_events == 3
