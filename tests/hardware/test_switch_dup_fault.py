"""Regression: a fabric-duplicated packet must occupy the destination link.

The duplicate-fault path used to schedule the stray copy's delivery
without charging its wire time to ``_dest_link_free`` — the link briefly
carried two packets at once, and packets behind the duplicate arrived
one serialization too early.
"""

from types import SimpleNamespace

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.params import machine_params
from repro.hardware.switch import Switch
from repro.sim import Simulator


class _RecordingAdapter:
    """Stands in for a TB2Adapter on the receive side: records when each
    packet the switch hands over reaches it."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def accept(self, packet, arrive_at):
        now = self.sim.now
        self.arrivals.append((now + (arrive_at - now), packet))


def _full_packet(seq=0):
    return Packet(src=0, dst=1, kind=PacketKind.STORE_DATA, seq=seq,
                  payload=b"d" * 224)


def _setup(dup_delay_us=None):
    """A bare 2-node switch; with ``dup_delay_us``, its injector
    duplicates the first packet, the copy trailing by that delay."""
    sim = Simulator()
    params = machine_params("sp-thin").switch
    sw = Switch(sim, params)
    rx = _RecordingAdapter(sim)
    sw.attach(0, _RecordingAdapter(sim))
    sw.attach(1, rx)
    if dup_delay_us is not None:
        sw.faults = FaultInjector(FaultPlan(seed=0, rules=(
            FaultRule("duplicate", budget=1, delay_us=dup_delay_us),)))
    return sim, sw, rx, params


def test_duplicate_charges_dest_link_wire_time():
    sim, sw, rx, params = _setup(dup_delay_us=0.0)
    wire_time = _full_packet().wire_bytes / params.link_rate

    sw.inject(_full_packet(seq=0), wire_exit_time=0.0)
    # original serializes at [0, wire); the stray copy must hold the link
    # for its own wire time right behind it
    assert sw._dest_link_free[1] == pytest.approx(2 * wire_time)
    assert sw.stats.get("dup_link_charged") == 1

    # a packet converging right behind the pair queues behind BOTH copies;
    # the count is 2 — the duplicate itself queued behind the original
    # (delay 0, link busy), and the follower queued behind the duplicate
    sw.inject(_full_packet(seq=1), wire_exit_time=0.0)
    assert sw._dest_link_free[1] == pytest.approx(3 * wire_time)
    assert sw.stats.get("dest_link_queued") == 2
    # the rule's budget of one spent on the first packet alone
    assert [f.seq for f in sw.faults.injected] == [0]

    sim.run()
    times = sorted(t for t, _ in rx.arrivals)
    assert len(times) == 3  # original + duplicate + follower
    # follower delivered only after the duplicate's serialization slot
    assert times[2] == pytest.approx(2 * wire_time + params.latency)


def test_duplicate_with_delay_starts_no_earlier_than_its_hold():
    sim, sw, rx, params = _setup(dup_delay_us=50.0)
    wire_time = _full_packet().wire_bytes / params.link_rate

    sw.inject(_full_packet(seq=0), wire_exit_time=0.0)
    # the stray copy trails by the rule's delay, then serializes
    assert sw._dest_link_free[1] == pytest.approx(50.0 + wire_time)
    assert len(sw.faults.injected) == 1
    sim.run()
    times = sorted(t for t, _ in rx.arrivals)
    assert times[1] == pytest.approx(50.0 + params.latency)


def test_no_fault_leaves_link_accounting_unchanged():
    sim, sw, rx, params = _setup()
    wire_time = _full_packet().wire_bytes / params.link_rate
    sw.inject(_full_packet(seq=0), wire_exit_time=0.0)
    assert sw._dest_link_free[1] == pytest.approx(wire_time)
    assert sw.stats.get("dup_link_charged") == 0


class _ObsStub:
    """Minimal observability hub: just enough surface for Switch.inject."""

    def __init__(self):
        self.spans = {}
        self._hist = SimpleNamespace(observe=lambda v: None)

    def hist(self, name):
        return self._hist

    def packet_dropped(self, packet, reason):  # pragma: no cover
        pass


def test_duplicate_wire_time_counted_in_link_busy():
    """Regression: the stray copy holds the destination link, so its wire
    time must show up in the per-link utilization gauge's source counter
    (``link_busy_us``) — previously only ``_dest_link_free`` was charged
    and utilization undercounted under duplicate faults."""
    sim, sw, rx, params = _setup(dup_delay_us=0.0)
    sw.obs = _ObsStub()
    wire_time = _full_packet().wire_bytes / params.link_rate

    sw.inject(_full_packet(seq=0), wire_exit_time=0.0)
    # original + duplicate each serialize once on link 1
    assert sw.link_busy_us[1] == pytest.approx(2 * wire_time)
    assert len(sw.faults.injected) == 1

    sim.run()
    assert len(rx.arrivals) == 2


def test_duplicate_link_busy_untraced_stays_zero():
    sim, sw, rx, params = _setup(dup_delay_us=0.0)
    sw.inject(_full_packet(seq=0), wire_exit_time=0.0)
    # without an Observatory the gauge source is never touched (hot path)
    assert sw.link_busy_us[1] == 0.0
    assert len(sw.faults.injected) == 1
