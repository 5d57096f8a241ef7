"""Table 1 conformance: every AM implementation exposes the same surface.

The paper's premise — AM as a *portable* substrate — requires the SP
implementation, the Table-4 peer machines' implementation, and the
AM-over-MPL shim to be drop-in interchangeable.  The Split-C runtime and
the Table-5 comparison rely on it; this suite pins it, and pins that the
three behave alike where Table 1 says they must: bad transfer sizes,
the handler restrictions, and what a blocking get returns.
"""

import inspect

import pytest

import repro.am
from repro.am import attach_generic_am, attach_spam
from repro.am.handler import HandlerRestrictionError
from repro.hardware import build_generic_machine, build_sp_machine
from repro.hardware.params import machine_params
from repro.mpl import attach_mpl_am
from repro.sim import Simulator
from repro.sim.primitives import Event

#: the Table-1 operations plus the attachment points portable code uses
SURFACE = [
    "request_1", "request_2", "request_3", "request_4",
    "store", "store_async", "get", "get_async",
    "poll", "wait_op", "register",
]
TOKEN_SURFACE = ["reply_1", "reply_2", "reply_3", "reply_4"]
STACKS = ["spam", "generic", "mpl-shim"]


def all_stacks():
    out = {}
    sim = Simulator()
    m = build_sp_machine(sim, 2)
    out["spam"] = (m, attach_spam(m))
    sim = Simulator()
    m = build_generic_machine(sim, 2, machine_params("cm5"))
    out["generic"] = (m, attach_generic_am(m))
    sim = Simulator()
    m = build_sp_machine(sim, 2)
    out["mpl-shim"] = (m, attach_mpl_am(m))
    return out


def portable_program(machine, ams):
    """One program text for every stack: a request / reply, a blocking
    store and a blocking get; returns the final simulated time."""
    sim = machine.sim
    am0, am1 = ams
    n = 3000
    data = bytes(i % 256 for i in range(n))
    src = machine.node(0).memory.alloc(n)
    dst = machine.node(1).memory.alloc(n)
    machine.node(0).memory.write(src, data)
    pings = []

    def on_reply(token, x):
        pings.append(x)

    def on_request(token, x):
        yield from token.reply_1(on_reply, x + 1)

    flag = [0]

    def node0():
        yield from am0.request_1(1, on_request, 41)
        while not pings:
            yield from am0._wait_progress()
        yield from am0.store(1, src, dst, n)
        back = machine.node(0).memory.alloc(n)
        yield from am0.get(1, dst, back, n)
        assert machine.node(0).memory.read(back, n) == data
        flag[0] = 1

    def node1():
        while not flag[0]:
            yield from am1._wait_progress()

    p = sim.spawn(node0())
    sim.spawn(node1())
    # wait on the driver only: the server parks on its arrival event
    # once traffic stops (the usual server idiom here)
    sim.run_until_processes_done([p], limit=1e9)
    assert pings == [42]
    assert machine.node(1).memory.read(dst, n) == data
    return sim.now


class TestSurface:
    @pytest.mark.parametrize("stack", ["spam", "generic", "mpl-shim"])
    def test_operations_present_and_generator_shaped(self, stack):
        m, ams = all_stacks()[stack]
        am = ams[0]
        for name in SURFACE:
            assert hasattr(am, name), f"{stack} lacks {name}"
            assert callable(getattr(am, name))
        # the calls are generator functions (or return generators)
        gen = am.request_1(1, lambda t, x: None, 0)
        assert inspect.isgenerator(gen)
        gen.close()

    @pytest.mark.parametrize("stack", ["spam", "generic", "mpl-shim"])
    def test_node_attachment(self, stack):
        m, ams = all_stacks()[stack]
        for node, am in zip(m.nodes, ams):
            assert node.am is am
            assert am.node is node

    def test_identical_program_runs_on_all_three(self):
        """One program text, three stacks: the portability claim."""
        times = {}
        for stack, (m, ams) in all_stacks().items():
            times[stack] = portable_program(m, ams)
        # same program, very different costs — the paper's whole point
        assert times["mpl-shim"] > times["spam"]

    @pytest.mark.parametrize("stack", ["spam", "generic", "mpl-shim"])
    def test_reply_tokens_conform(self, stack):
        m, ams = all_stacks()[stack]
        am0, am1 = ams
        shapes = []

        def on_reply(token, a, b, c, d):
            shapes.append((a, b, c, d))

        def on_request(token, x):
            for name in TOKEN_SURFACE:
                assert hasattr(token, name)
            yield from token.reply_4(on_reply, 1, 2, 3, x)

        flag = [0]

        def node0():
            yield from am0.request_1(1, on_request, 4)
            while not shapes:
                yield from am0._wait_progress()
            flag[0] = 1

        def node1():
            while not flag[0]:
                yield from am1._wait_progress()

        p = m.sim.spawn(node0())
        m.sim.spawn(node1())
        m.sim.run_until_processes_done([p], limit=1e8)
        assert shapes == [(1, 2, 3, 4)]


def _run_on_node0(m, am1, body):
    """Run generator ``body`` on node 0 while node 1 serves; returns the
    simulated time it ended at."""
    done = []

    def node0():
        yield from body()
        done.append(m.sim.now)

    def node1():
        while not done:
            yield from am1._wait_progress()

    p = m.sim.spawn(node0())
    m.sim.spawn(node1())
    m.sim.run_until_processes_done([p], limit=1e8)
    return done[0]


class TestBehaviour:
    @pytest.mark.parametrize("stack", STACKS)
    def test_is_active_messages(self, stack):
        m, ams = all_stacks()[stack]
        for node in m.nodes:
            assert isinstance(node.am, repro.am.ActiveMessages)

    @pytest.mark.parametrize("stack", STACKS)
    def test_negative_store_fails_before_time_moves(self, stack):
        m, (am0, am1) = all_stacks()[stack]
        src = m.node(0).memory.alloc(8)
        dst = m.node(1).memory.alloc(8)
        raised_at = []

        def body():
            try:
                yield from am0.store(1, src, dst, -5)
            except ValueError:
                raised_at.append(m.sim.now)

        _run_on_node0(m, am1, body)
        assert raised_at == [0.0]

    @pytest.mark.parametrize("stack", STACKS)
    def test_empty_get_rejected(self, stack):
        m, (am0, am1) = all_stacks()[stack]
        addr = m.node(0).memory.alloc(8)
        raised = []

        def body():
            try:
                yield from am0.get(1, addr, addr, 0)
            except ValueError:
                raised.append(m.sim.now)

        _run_on_node0(m, am1, body)
        assert raised == [0.0]

    @pytest.mark.parametrize("stack", STACKS)
    @pytest.mark.parametrize("action", ["request", "store", "get", "poll"])
    def test_handler_restrictions(self, stack, action):
        m, (am0, am1) = all_stacks()[stack]
        addr = m.node(1).memory.alloc(8)
        errors = []

        def forbidden(token, x):
            try:
                if action == "request":
                    yield from am1.request_1(0, lambda t, y: None, x)
                elif action == "store":
                    yield from am1.store(0, addr, addr, 8)
                elif action == "get":
                    yield from am1.get(0, addr, addr, 8)
                else:
                    yield from am1.poll()
            except HandlerRestrictionError as e:
                errors.append(e)

        def node0():
            yield from am0.request_1(1, forbidden, 1)

        def node1():
            while not errors:
                yield from am1._wait_progress()

        m.sim.spawn(node0())
        p = m.sim.spawn(node1())
        m.sim.run_until_processes_done([p], limit=1e8)
        assert len(errors) == 1

    @pytest.mark.parametrize("stack", STACKS)
    def test_second_reply_rejected(self, stack):
        m, (am0, am1) = all_stacks()[stack]
        replies, errors = [], []

        def on_reply(token, x):
            replies.append(x)

        def greedy(token, x):
            yield from token.reply_1(on_reply, 1)
            try:
                yield from token.reply_1(on_reply, 2)
            except HandlerRestrictionError as e:
                errors.append(e)

        def body():
            yield from am0.request_1(1, greedy, 0)
            while not replies:
                yield from am0._wait_progress()

        _run_on_node0(m, am1, body)
        assert replies == [1]
        assert len(errors) == 1

    @pytest.mark.parametrize("stack", STACKS)
    def test_blocking_get_returns_the_event_value(self, stack):
        m, (am0, am1) = all_stacks()[stack]
        n = 2000
        remote = m.node(1).memory.alloc(n)
        m.node(1).memory.write(remote, bytes(i % 253 for i in range(n)))
        local = m.node(0).memory.alloc(n)
        got = {}

        def body():
            ev = yield from am0.get_async(1, remote, local, n)
            while not ev.triggered:
                yield from am0._wait_progress()
            got["async"] = ev.value
            got["blocking"] = yield from am0.get(1, remote, local, n)

        _run_on_node0(m, am1, body)
        assert not isinstance(got["blocking"], Event)
        assert type(got["blocking"]) is type(got["async"])
        assert m.node(0).memory.read(local, n) == m.node(1).memory.read(remote, n)
