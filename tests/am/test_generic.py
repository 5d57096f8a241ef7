"""Generic AM on the Table-4 peer machines (CM-5, Meiko CS-2, U-Net)."""

import pytest

from repro.am import attach_generic_am, attach_spam
from repro.am.handler import HandlerRestrictionError
from repro.bench.pingpong import am_roundtrip
from repro.hardware import build_generic_machine, build_sp_machine
from repro.hardware.params import machine_params
from repro.sim import Simulator


def make(name="cm5", nprocs=2):
    sim = Simulator()
    m = build_generic_machine(sim, nprocs, machine_params(name))
    ams = attach_generic_am(m)
    return m, ams


class TestGenericRequestReply:
    def test_request_reply_roundtrip(self):
        m, (am0, am1) = make()
        replies = []

        def on_reply(t, x):
            replies.append(x)

        def on_request(token, x):
            yield from token.reply_1(on_reply, x + 1)

        def sender():
            yield from am0.request_1(1, on_request, 41)
            while not replies:
                yield from am0._wait_progress()

        def receiver():
            while not replies:
                yield from am1._wait_progress()

        sim = m.sim
        p = sim.spawn(sender())
        sim.spawn(receiver())
        sim.run_until_processes_done([p], limit=1e7)
        assert replies == [42]

    def test_handler_restrictions_apply(self):
        m, (am0, am1) = make()
        errors = []

        def bad(token, x):
            try:
                yield from am1.request_1(0, lambda t, y: None, 0)
            except HandlerRestrictionError as e:
                errors.append(e)

        def sender():
            yield from am0.request_1(1, bad, 0)

        def receiver():
            while not errors:
                yield from am1._wait_progress()

        sim = m.sim
        p = sim.spawn(sender())
        q = sim.spawn(receiver())
        sim.run_until_processes_done([p, q], limit=1e7)
        assert len(errors) == 1


class TestGenericBulk:
    @pytest.mark.parametrize("name", ["cm5", "meiko", "unet"])
    @pytest.mark.parametrize("nbytes", [100, 1024, 5000])
    def test_store_moves_bytes(self, name, nbytes):
        m, (am0, am1) = make(name)
        data = bytes(i % 256 for i in range(nbytes))
        src = m.node(0).memory.alloc(nbytes)
        dst = m.node(1).memory.alloc(nbytes)
        m.node(0).memory.write(src, data)
        flag = [0]

        def sender():
            yield from am0.store(1, src, dst, nbytes)
            flag[0] = 1

        def receiver():
            while not flag[0]:
                yield from am1._wait_progress()

        sim = m.sim
        p = sim.spawn(sender())
        sim.spawn(receiver())
        sim.run_until_processes_done([p], limit=1e8)
        assert m.node(1).memory.read(dst, nbytes) == data

    def test_get_fetches_bytes(self):
        m, (am0, am1) = make("meiko")
        n = 3000
        data = bytes((7 * i) % 256 for i in range(n))
        remote = m.node(1).memory.alloc(n)
        local = m.node(0).memory.alloc(n)
        m.node(1).memory.write(remote, data)
        flag = [0]

        def getter():
            yield from am0.get(1, remote, local, n)
            flag[0] = 1

        def receiver():
            while not flag[0]:
                yield from am1._wait_progress()

        sim = m.sim
        p = sim.spawn(getter())
        sim.spawn(receiver())
        sim.run_until_processes_done([p], limit=1e8)
        assert m.node(0).memory.read(local, n) == data

    def test_store_completion_handler(self):
        m, (am0, am1) = make("cm5")
        done = []

        def on_complete(token, addr, nbytes, arg):
            done.append((token.src, nbytes, arg))

        n = 2048
        src = m.node(0).memory.alloc(n)
        dst = m.node(1).memory.alloc(n)
        flag = [0]

        def sender():
            yield from am0.store(1, src, dst, n, handler=on_complete, arg=5)
            flag[0] = 1

        def receiver():
            while not done:
                yield from am1._wait_progress()

        sim = m.sim
        p = sim.spawn(sender())
        q = sim.spawn(receiver())
        sim.run_until_processes_done([p, q], limit=1e8)
        assert done == [(0, n, 5)]


class TestTable4RoundTrips:
    """Table 4's round-trip column, on each simulated machine."""

    EXPECTED = {"cm5": 12.0, "meiko": 25.0, "unet": 66.0, "sp-thin": 51.0}

    @pytest.mark.parametrize("name,rtt", sorted(EXPECTED.items()))
    def test_roundtrip_matches_table4(self, name, rtt):
        measured = am_roundtrip(1, 40, name).rtt_us
        assert measured == pytest.approx(rtt, rel=0.10), name


class TestAttachValidation:
    def test_attach_generic_on_sp_rejected(self):
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        with pytest.raises(ValueError):
            attach_generic_am(m)

    def test_attach_spam_on_generic_rejected(self):
        sim = Simulator()
        m = build_generic_machine(sim, 2, machine_params("cm5"))
        with pytest.raises(ValueError):
            attach_spam(m)
