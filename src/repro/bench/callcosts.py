"""Table 2 measurement: AM call costs, measured as call durations.

``request_call_cost(N)`` times one ``am_request_N`` on an otherwise idle
2-node SP (so the in-call poll finds an empty network, matching Table 2's
footnote); ``reply_call_cost(N)`` times the ``am_reply_N`` a handler
issues, as the handler's inflation of the receiving poll.
"""

from __future__ import annotations

from repro.am import attach_spam
from repro.hardware import build_sp_machine
from repro.sim import Simulator

def request_call_cost(words: int) -> float:
    """Duration of one am_request_N call (empty-network poll included)."""
    sim = Simulator()
    machine = build_sp_machine(sim, 2)
    am0, _am1 = attach_spam(machine)
    t = {}

    def prog():
        t["start"] = sim.now
        yield from getattr(am0, f"request_{words}")(
            1, lambda tok, *a: None, *range(words))
        t["end"] = sim.now

    p = sim.spawn(prog())
    sim.run_until_processes_done([p], limit=1e6)
    return t["end"] - t["start"]


def reply_call_cost(words: int) -> float:
    """Duration of one am_reply_N call, measured inside the handler."""
    sim = Simulator()
    machine = build_sp_machine(sim, 2)
    am0, am1 = attach_spam(machine)
    spans = []

    def reply_sink(tok, *a):
        pass

    def replying_handler(tok, *_a):
        t0 = sim.now
        yield from getattr(tok, f"reply_{words}")(reply_sink, *range(words))
        spans.append(sim.now - t0)

    def sender():
        yield from am0.request_1(1, replying_handler, 1)

    def receiver():
        while not spans:
            yield from am1._wait_progress()

    p = sim.spawn(sender())
    q = sim.spawn(receiver())
    sim.run_until_processes_done([p, q], limit=1e6)
    return spans[0]


def empty_poll_cost() -> float:
    """Duration of an am_poll on an empty network (§2.5: 1.3 us)."""
    sim = Simulator()
    machine = build_sp_machine(sim, 2)
    am0, _am1 = attach_spam(machine)
    t = {}

    def prog():
        t["start"] = sim.now
        yield from am0.poll()
        t["end"] = sim.now

    p = sim.spawn(prog())
    sim.run_until_processes_done([p], limit=1e6)
    return t["end"] - t["start"]
