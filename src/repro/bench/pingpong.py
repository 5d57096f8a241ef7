"""Round-trip latency benchmarks (§2.3, Table 3, Table 4).

* :func:`am_roundtrip` — the paper's ping-pong with ``am_request_M`` /
  ``am_reply_M`` on 2 SP thin nodes: 51.0 us for one word, +~0.5 us/word;
  on any registered machine (CM-5 / Meiko / U-Net) it is Table 4's
  round-trip column.
* :func:`raw_roundtrip` — the flow-control-free baseline: 47 us.
* :func:`mpl_roundtrip` — mpc_bsend/mpc_recv ping-pong: 88 us.
"""

from __future__ import annotations

from typing import Optional

from repro.am import attach_am, raw_pingpong_roundtrip
from repro.hardware.machine import build_machine, build_sp_machine
from repro.sim import Simulator


def raw_roundtrip(iterations: int = 200) -> float:
    """Raw one-word round trip on SP thin nodes (paper: 47 us)."""
    sim = Simulator()
    machine = build_sp_machine(sim, 2)
    return raw_pingpong_roundtrip(machine, iterations)


def _am_pingpong(machine, words: int, iterations: int) -> float:
    ams = [machine.node(i).am for i in range(2)]
    am0, am1 = ams
    sim = machine.sim
    obs = machine.obs
    got = [0]
    args = tuple(range(words))

    def reply_handler(token, *xs):
        got[0] += 1

    def request_handler(token, *xs):
        yield from getattr(token, f"reply_{words}")(reply_handler, *xs)

    def pinger():
        for _ in range(iterations):
            before = got[0]
            t_iter = sim.now
            yield from getattr(am0, f"request_{words}")(
                1, request_handler, *args
            )
            while got[0] == before:
                yield from am0._wait_progress()
            if obs is not None:
                obs.hist("am.rtt_us").observe(sim.now - t_iter)

    def ponger():
        while got[0] < iterations:
            yield from am1._wait_progress()

    t0 = sim.now
    p = sim.spawn(pinger(), name="ping")
    sim.spawn(ponger(), name="pong")
    sim.run_until_processes_done([p], limit=1e9)
    return (sim.now - t0) / iterations


def am_roundtrip(words: int = 1, iterations: int = 200,
                 machine_name: str = "sp-thin") -> float:
    """AM M-word round trip (paper: 51.0 us at one word on thin nodes)."""
    if not 1 <= words <= 4:
        raise ValueError("AM carries 1..4 word arguments")
    sim = Simulator()
    machine = build_machine(sim, 2, machine_name)
    attach_am(machine)
    return _am_pingpong(machine, words, iterations)


def am_roundtrip_observed(words: int = 1, iterations: int = 200,
                          machine_name: str = "sp-thin",
                          sample_period_us: Optional[float] = None):
    """Like :func:`am_roundtrip` but with an Observatory attached.

    Returns ``(mean_rtt_us, obs)`` — the observatory holds one message
    span per packet (whose marks give its critical-path stages), the
    ``am.rtt_us`` round-trip histogram, handler-time and occupancy
    histograms, and the merged counters of every layer, ready for the
    exporters.  With
    ``sample_period_us`` its periodic gauge sampler runs as well.
    """
    from repro.obs import Observatory

    if not 1 <= words <= 4:
        raise ValueError("AM carries 1..4 word arguments")
    sim = Simulator()
    machine = build_machine(sim, 2, machine_name)
    obs = Observatory().attach(machine)
    attach_am(machine)
    if sample_period_us is not None:
        obs.start_sampler(period_us=sample_period_us)
    mean = _am_pingpong(machine, words, iterations)
    return mean, obs


def mpl_roundtrip(iterations: int = 200) -> float:
    """MPL one-word ping-pong with mpc_bsend / mpc_recv (paper: 88 us)."""
    from repro.mpl import attach_mpl

    sim = Simulator()
    machine = build_sp_machine(sim, 2)
    attach_mpl(machine)
    mpl0 = machine.node(0).mpl
    mpl1 = machine.node(1).mpl
    word = b"\x2a\x00\x00\x00"

    def pinger(node):
        for _ in range(iterations):
            yield from mpl0.mpc_bsend(word, 1, tag=7)
            yield from mpl0.mpc_brecv(4, 1, tag=8)

    def ponger(node):
        for _ in range(iterations):
            yield from mpl1.mpc_brecv(4, 0, tag=7)
            yield from mpl1.mpc_bsend(word, 0, tag=8)

    t0 = sim.now
    p = sim.spawn(pinger(machine.node(0)), name="mpl-ping")
    sim.spawn(ponger(machine.node(1)), name="mpl-pong")
    sim.run_until_processes_done([p], limit=1e9)
    return (sim.now - t0) / iterations
