"""MPL semantics: matching, blocking/non-blocking, multi-packet messages,
and task arguments that fail fast at the call that names them."""

import pytest

from repro.hardware import build_sp_machine
from repro.mpl import attach_mpl
from repro.mpl.engine import ANY
from repro.sim import Simulator


def make(nprocs=2):
    sim = Simulator()
    m = build_sp_machine(sim, nprocs)
    attach_mpl(m)
    return m


def run(m, *progs, limit=1e8):
    sim = m.sim
    procs = [sim.spawn(p, name=f"mpl{i}") for i, p in enumerate(progs)]
    sim.run_until_processes_done(procs, limit=limit)
    return procs


class TestBasic:
    def test_send_recv_roundtrip_data(self):
        m = make()
        payload = bytes(range(256)) * 3
        out = []

        def sender():
            yield from m.node(0).mpl.mpc_bsend(payload, 1, tag=5)

        def receiver():
            data = yield from m.node(1).mpl.mpc_brecv(4096, 0, tag=5)
            out.append(data)

        run(m, sender(), receiver())
        assert out == [payload]

    @pytest.mark.parametrize("n", [0, 1, 224, 225, 8064, 50_000])
    def test_message_sizes(self, n):
        m = make()
        payload = bytes(i % 251 for i in range(n))
        out = []

        def sender():
            yield from m.node(0).mpl.mpc_bsend(payload, 1)

        def receiver():
            out.append((yield from m.node(1).mpl.mpc_brecv(max(n, 1), 0)))

        run(m, sender(), receiver())
        assert out == [payload]

    def test_messages_ordered_per_tag(self):
        m = make()
        out = []

        def sender():
            for i in range(20):
                yield from m.node(0).mpl.mpc_bsend(bytes([i]), 1, tag=3)

        def receiver():
            for _ in range(20):
                d = yield from m.node(1).mpl.mpc_brecv(1, 0, tag=3)
                out.append(d[0])

        run(m, sender(), receiver())
        assert out == list(range(20))

    def test_truncation_rejected(self):
        m = make()

        def sender():
            yield from m.node(0).mpl.mpc_bsend(b"12345678", 1)

        def receiver():
            yield from m.node(1).mpl.mpc_brecv(4, 0)

        with pytest.raises(ValueError):
            run(m, sender(), receiver())

    @pytest.mark.parametrize("call", ["mpc_bsend", "mpc_send"])
    def test_send_to_self_rejected(self, call):
        m = make()

        def sender():
            yield from getattr(m.node(0).mpl, call)(b"x", 0)

        with pytest.raises(ValueError):
            run(m, sender())

    def test_recv_from_self_rejected(self):
        # fails at the call instead of stalling until the credit watchdog
        m = make()

        def receiver():
            yield from m.node(0).mpl.mpc_brecv(8, 0)

        with pytest.raises(ValueError,
                           match="MPL receive must name a remote task"):
            run(m, receiver())


class TestMatching:
    def test_tag_selectivity(self):
        m = make()
        out = []

        def sender():
            yield from m.node(0).mpl.mpc_bsend(b"AA", 1, tag=1)
            yield from m.node(0).mpl.mpc_bsend(b"BB", 1, tag=2)

        def receiver():
            b = yield from m.node(1).mpl.mpc_brecv(2, 0, tag=2)
            a = yield from m.node(1).mpl.mpc_brecv(2, 0, tag=1)
            out.extend([b, a])

        run(m, sender(), receiver())
        assert out == [b"BB", b"AA"]

    def test_wildcard_source(self):
        m = make(3)
        out = []

        def sender(rank, data):
            def go():
                yield from m.node(rank).mpl.mpc_bsend(data, 2, tag=9)
            return go()

        def receiver():
            for _ in range(2):
                d = yield from m.node(2).mpl.mpc_brecv(8, ANY, tag=9)
                out.append(bytes(d))

        run(m, sender(0, b"from0"), sender(1, b"from1"), receiver())
        assert sorted(out) == [b"from0", b"from1"]

    def test_wildcard_tag(self):
        m = make()
        out = []

        def sender():
            yield from m.node(0).mpl.mpc_bsend(b"zz", 1, tag=42)

        def receiver():
            out.append((yield from m.node(1).mpl.mpc_brecv(2, 0, ANY)))

        run(m, sender(), receiver())
        assert out == [b"zz"]


class TestFlowControl:
    def test_large_stream_does_not_overflow(self):
        """A long burst must stay within the credit window: zero drops."""
        m = make()
        n_msgs, size = 30, 4096

        def sender():
            for i in range(n_msgs):
                yield from m.node(0).mpl.mpc_send(bytes(size), 1, tag=1)

        def receiver():
            for _ in range(n_msgs):
                yield from m.node(1).mpl.mpc_brecv(size, 0, tag=1)

        run(m, sender(), receiver(), limit=1e9)
        assert m.node(1).adapter.stats.get("rx_dropped_overflow") == 0
        assert m.node(1).mpl.engine.stats.get("credits_returned") > 0

    def test_interleaved_bidirectional_traffic(self):
        m = make()
        results = {}

        def peer(me, other):
            def go():
                mpl = m.node(me).mpl
                for i in range(10):
                    yield from mpl.mpc_bsend(bytes([me] * 500), other, tag=i)
                    d = yield from mpl.mpc_brecv(512, other, tag=i)
                    results.setdefault(me, []).append(d[0])
            return go()

        run(m, peer(0, 1), peer(1, 0), limit=1e9)
        assert results[0] == [1] * 10
        assert results[1] == [0] * 10


def test_brecv_from_a_silent_task_fails_after_one_second():
    m = make()
    with pytest.raises(RuntimeError,
                       match=r"^MPL on node 0 stalled 1 s with no arrivals$"):
        m.sim.run_until_processes_done(
            [m.sim.spawn(m.node(0).mpl.mpc_brecv(4, 1), name="mpl0")],
            limit=1e7)
    # the 1 s timer starts once the receive is posted, a few us in
    assert 1_000_000.0 <= m.sim.now < 1_000_100.0


CALLS = {
    "bsend": lambda mpl, task: mpl.mpc_bsend(b"x", task),
    "send": lambda mpl, task: mpl.mpc_send(b"x", task),
    "brecv": lambda mpl, task: mpl.mpc_brecv(4, task),
}

CASES = [  # (call, its task argument, a value outside 0..1)
    ("bsend", "dst", 5),   # returned; the switch raised a KeyError later
    ("bsend", "dst", -1),
    ("send", "dst", 2),
    ("brecv", "src", 9),   # stalled 1 s, then raised a RuntimeError
    ("brecv", "src", -2),
]


@pytest.mark.parametrize("name,arg,task", [
    pytest.param(*c, id=f"{c[0]}-{c[1]}={c[2]}") for c in CASES])
def test_task_argument_outside_job_is_named(name, arg, task):
    m = make()
    with pytest.raises(ValueError,
                       match=rf"^{arg}={task} is not an MPL task: "
                             r"valid range is 0\.\.1$"):
        m.sim.run_until_processes_done(
            [m.sim.spawn(CALLS[name](m.node(0).mpl, task), name="mpl0")],
            limit=1e7, max_events=200_000)
