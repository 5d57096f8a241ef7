"""A lossless async-get stream overflows the server's receive FIFO
(ROADMAP item 5, cause (iii)).

Node 0 issues 800 pipelined 64-byte ``get_async`` calls to node 1, the
kernel of Fig 3's ``am_get_async`` curve.  No fault is planted, yet node
1's 128-slot receive FIFO fills: explicit ACKs are unsequenced, so no
send window bounds them, and together with the GET_REQUESTs they outrun
the server's drain.  53 packets are dropped at a full FIFO (37 ACKs, 16
GET_REQUESTs), and §2.2's go-back-N resends 240 packets to recover them.
A ``store_async`` stream of the same size drops nothing.

Many of those packets find the FIFO full when they are injected and are
settled lazily, at the host's next touch of the FIFO, with exactly the
pops that came before their arrival (docs/architecture.md, "Acceptance
and settlement").  The first test pins the run as it is; the second is
the fix's acceptance, a strict xfail until the stream stops dropping.
Fixing it moves Fig 3's get curve.
"""

import pytest

from repro.bench import bandwidth
from tests.timeline import Timeline

GETS = 800

#: (count, repr(elapsed_us), rx_dropped_overflow, retransmissions,
#: timeline digest), recorded when every packet reached the host by an
#: event at its arrival
PIN = (800, "10336.956666666501", 53, 240,
       "f8b086899d51a5fe0e28ada979ddfcc7")


@pytest.fixture(scope="module")
def stream():
    machines = []
    am_pair = bandwidth.am_pair
    with Timeline() as timeline:

        def watched(params=None):
            machine = am_pair(params)
            timeline.watch(machine)
            machines.append(machine)
            return machine

        bandwidth.am_pair = watched
        try:
            count, elapsed = bandwidth._measure_am("am_get_async", 64,
                                                   GETS * 64)
        finally:
            bandwidth.am_pair = am_pair
    counters = dict.fromkeys(("rx_dropped_overflow", "retransmissions"), 0)
    for node in machines[0].nodes:
        for reg in (node.am.stats, node.adapter.stats):
            for key, value in reg.snapshot().items():
                name = key.rsplit(".", 1)[-1]
                if name in counters:
                    counters[name] += value
    return (count, repr(elapsed), counters["rx_dropped_overflow"],
            counters["retransmissions"], timeline.hexdigest())


def test_get_stream_is_pinned(stream):
    assert stream == PIN


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5(iii): unsequenced explicit ACKs and GET_REQUESTs "
    "overflow the server's receive FIFO on a lossless get stream"))
def test_lossless_get_stream_drops_nothing(stream):
    _count, _elapsed, dropped, retransmissions, _timeline = stream
    assert (dropped, retransmissions) == (0, 0)
