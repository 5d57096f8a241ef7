"""The idle-pop oversleep (ROADMAP item 23).

``SPAM._wait_progress`` looks for a visible receive-FIFO slot before its
idle pop charge and not after it.  A packet that becomes visible during
that charge stays in the FIFO while the host sleeps until the next
packet lands (or the keep-alive fires, when none comes).  On a blocking
bulk store most idle waits of the receiver begin this way.

Re-checking after the pop is a fidelity change with its own pin
statement: it moves ``am-bulk``'s simulated time and the bulk timeline
pins.  Until it is made, this test is a strict xfail; the day the
wait re-checks, it passes and the marker must go.
"""

import pytest

from repro.am import attach_spam
from repro.am.constants import CHUNK_BYTES
from repro.hardware import build_sp_machine
from repro.sim import Simulator


@pytest.mark.xfail(strict=True, reason="ROADMAP item 23: a packet that "
                   "lands during the idle pop waits for the next landing")
def test_no_idle_wait_begins_while_a_packet_is_visible():
    sim = Simulator()
    machine = build_sp_machine(sim, 2)
    am0, am1 = attach_spam(machine)
    nbytes = 2 * CHUNK_BYTES
    src = machine.node(0).memory.alloc(nbytes)
    dst = machine.node(1).memory.alloc(nbytes)
    adapter = machine.node(1).adapter
    rf = adapter.recv_fifo
    pop = adapter.host_recv_pop_batch
    #: idle pops after which a slot was visible, and those of them after
    #: which the server slept anyway
    visible_after_pop, overslept = [], []
    look = [False]

    def watched_pop():
        # below the lazy-pop batch: the idle pop
        idle = rf.pending_pop < rf.lazy_pop_batch
        freed = pop()
        if idle and rf.slots and rf.slots[0][0] <= sim.now:
            visible_after_pop.append(sim.now)
            look[0] = True
        return freed

    class _NextEvent:
        """At the first event after such a pop: is the server blocked?"""

        def on_execute(self, entry):
            if look[0]:
                look[0] = False
                if server._waiting:
                    overslept.append(visible_after_pop[-1])

        def on_stale(self, entry):
            pass

        def on_cancel(self, entry):
            pass

    adapter.host_recv_pop_batch = watched_pop
    sim.check = _NextEvent()

    def mover():
        yield from am0.store(1, src, dst, nbytes)

    def serve():
        while not sender.finished:
            yield from am1._wait_progress()

    sender = sim.spawn(mover(), name="mover")
    server = sim.spawn(serve(), name="server")
    sim.run_until_processes_done([sender, server], limit=1e8)
    assert visible_after_pop
    assert overslept == []
