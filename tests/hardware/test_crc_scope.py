"""The TB2 CRC's scope is complete: every in-flight byte change is checked.

The adapter stamps no CRC at staging; the fabric's ``corrupt`` fault,
the only path that changes a packet after it is staged, stamps the CRC
of the original contents on the copy it damages.  So an arrival with
``checksum == -1`` must be field-for-field what some adapter staged, and
every CRC reject must be an injected corruption.  Two §2.2 shapes run
under a plan with every fault kind: a ping-pong and a 3-chunk eager
``store`` + ``get``.
"""

import pytest

from repro.am import attach_spam
from repro.am.constants import CHUNK_BYTES
from repro.faults import FaultPlan, install_faults
from repro.faults import injector as injector_mod
from repro.faults.plan import FAULT_KINDS
from repro.hardware import build_sp_machine
from repro.hardware.packet import _field_values
from repro.sim import Simulator

NBYTES = 3 * CHUNK_BYTES


class _CrcScope:
    """Wraps both adapters' send-FIFO ``stage`` (every path that writes a
    packet into the send FIFO goes through it) and ``accept`` (every
    packet the fabric delivers goes through it).

    Staged packets are remembered by identity (their field values at
    staging) and by value, since a fabric ``duplicate`` delivers a copy
    that was never staged itself.
    """

    def __init__(self, machine):
        self.by_id = {}
        self.values = set()
        self.stamped_arrivals = 0
        for node in machine.nodes:
            self._wrap(node.adapter)

    def _wrap(self, adapter):
        fifo = adapter.send_fifo
        stage, accept = fifo.stage, adapter.accept

        def host_stage(pkt):
            stage(pkt)
            fields = _field_values(pkt)
            self.by_id[id(pkt)] = (pkt, fields)
            self.values.add(fields)

        def arrive(pkt, arrive_at):
            if pkt.checksum == -1:
                fields = _field_values(pkt)
                staged = self.by_id.get(id(pkt))
                if staged is not None and staged[0] is pkt:
                    assert fields == staged[1], (
                        f"{pkt!r} changed in flight and arrived unstamped")
                else:
                    assert fields in self.values, (
                        f"{pkt!r} changed in flight and arrived unstamped")
            else:
                self.stamped_arrivals += 1
            accept(pkt, arrive_at)

        fifo.stage = host_stage
        adapter.accept = arrive


def _machine():
    sim = Simulator()
    m = build_sp_machine(sim, 2)
    am0, am1 = attach_spam(m)
    inj = install_faults(m, FaultPlan.chaos(5, 0.04, delay_us=30.0))
    return m, am0, am1, inj, _CrcScope(m)


def _run(m, client, server_am, limit=5e7):
    sim = m.sim
    done = []

    def wrapped():
        yield from client
        done.append(True)

    def server():
        while not done:
            yield from server_am._wait_progress()

    sim.run_until_processes_done(
        [sim.spawn(wrapped(), name="client"), sim.spawn(server(),
                                                        name="server")],
        limit=limit)
    assert done, "the program did not finish"


def _ping_pong(iters=150):
    m, am0, am1, inj, scope = _machine()
    got = []

    def h_reply(token, x):
        got.append(x)

    def h_request(token, x):
        yield from token.reply_1(h_reply, x)

    def pinger():
        for i in range(iters):
            yield from am0.request_1(1, h_request, i)
            while len(got) <= i:
                yield from am0._wait_progress()

    _run(m, pinger(), am1)
    assert got == list(range(iters))
    return m, inj, scope


def _store_get():
    m, am0, am1, inj, scope = _machine()
    mem0, mem1 = m.node(0).memory, m.node(1).memory
    data = bytes((i * 37 + 11) % 256 for i in range(NBYTES))
    src, back = mem0.alloc(NBYTES), mem0.alloc(NBYTES)
    dst = mem1.alloc(NBYTES)
    mem0.write(src, data)

    def mover():
        yield from am0.store(1, src, dst, NBYTES)
        yield from am0.get(1, dst, back, NBYTES)

    _run(m, mover(), am1)
    assert mem1.read(dst, NBYTES) == data
    assert mem0.read(back, NBYTES) == data
    return m, inj, scope


SCENARIOS = {
    "ping-pong": _ping_pong,
    "eager-store-get": _store_get,
}


@pytest.fixture(scope="module")
def runs():
    return {name: run() for name, run in SCENARIOS.items()}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_only_corrupted_packets_carry_and_fail_a_crc(runs, scenario):
    m, inj, scope = runs[scenario]
    assert set(inj.counts()) == set(FAULT_KINDS), inj.counts()
    corrupted = m.switch.stats.get("packets_corrupted_fault")
    assert corrupted == inj.counts()["corrupt"]
    assert scope.stamped_arrivals == corrupted
    assert sum(node.adapter.stats.get("rx_dropped_corrupt")
               for node in m.nodes) == corrupted


def test_unstamped_corruption_is_caught(monkeypatch):
    """If the corrupt path stopped stamping, the damaged copy would pass
    the receive check; the scope check must see it arrive."""
    def unstamped(pkt):
        bad = pkt.clone()
        if bad.payload:
            bad.payload = bytes([bad.payload[0] ^ 0x40]) + bad.payload[1:]
        else:
            bad.handler ^= 0x1
        return bad

    monkeypatch.setattr(injector_mod, "_corrupted", unstamped)
    with pytest.raises(AssertionError, match="changed in flight"):
        _store_get()
