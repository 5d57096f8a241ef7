"""Small-message kernels (§2.3, Tables 2–4).

* :func:`am_roundtrip` — the paper's ping-pong with ``am_request_M`` /
  ``am_reply_M`` on 2 SP thin nodes: 51.0 us for one word, +~0.5 us/word;
  on any registered machine (CM-5 / Meiko / U-Net) it is Table 4's
  round-trip column.  Its first request and reply calls are Table 2's
  call costs: the first request polls an empty network, as Table 2's
  footnote prices it.
* :func:`raw_roundtrip` — the flow-control-free baseline: 47 us.
* :func:`mpl_roundtrip` — mpc_bsend/mpc_brecv ping-pong: 88 us.
* :func:`measure_send_overhead` — Table 4's per-message send overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.am import raw_pingpong_roundtrip
from repro.bench.bandwidth import _measure_mpl
from repro.bench.harness import am_pair, run_programs
from repro.hardware.machine import build_sp_machine
from repro.hardware.params import machine_params
from repro.sim import Simulator


@dataclass(frozen=True)
class RoundTrip:
    """One AM ping-pong: the mean round trip and its first calls (us)."""

    rtt_us: float
    #: the first ``am_request_M`` call, empty-network poll included
    request_us: float
    #: the first ``am_reply_M`` call, timed inside the request handler
    reply_us: float


def _check_iterations(iterations: int) -> None:
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")


def raw_roundtrip(iterations: int = 200) -> float:
    """Raw one-word round trip on SP thin nodes (paper: 47 us)."""
    _check_iterations(iterations)
    machine = build_sp_machine(Simulator(), 2)
    return raw_pingpong_roundtrip(machine, iterations)


def _am_pingpong(machine, words: int, iterations: int) -> RoundTrip:
    """``iterations`` M-word round trips between nodes 0 and 1 of an AM
    machine; each one lands in ``am.rtt_us`` when an Observatory is
    attached."""
    sim = machine.sim
    obs = machine.obs
    got = [0]
    first = {}
    args = tuple(range(words))

    def reply_handler(token, *xs):
        got[0] += 1

    def request_handler(token, *xs):
        t0 = sim.now
        yield from getattr(token, f"reply_{words}")(reply_handler, *xs)
        first.setdefault("reply", sim.now - t0)

    def pinger(node):
        am0 = node.am
        for _ in range(iterations):
            before = got[0]
            t_iter = sim.now
            yield from getattr(am0, f"request_{words}")(
                1, request_handler, *args
            )
            first.setdefault("request", sim.now - t_iter)
            while got[0] == before:
                yield from am0._wait_progress()
            if obs is not None:
                obs.hist("am.rtt_us").observe(sim.now - t_iter)

    def ponger(node):
        while got[0] < iterations:
            yield from node.am._wait_progress()

    run = run_programs(machine, [pinger, ponger], wait_for=[0],
                       limit_us=1e9)
    return RoundTrip(run.elapsed_us / iterations, first["request"],
                     first["reply"])


def am_roundtrip(words: int = 1, iterations: int = 200,
                 machine_name: str = "sp-thin", obs=None) -> RoundTrip:
    """AM M-word round trip (paper: 51.0 us at one word on thin nodes);
    ``obs`` attaches as in :func:`~repro.bench.harness.am_pair`."""
    if not 1 <= words <= 4:
        raise ValueError("AM carries 1..4 word arguments")
    _check_iterations(iterations)
    machine = am_pair(machine_params(machine_name), obs)
    return _am_pingpong(machine, words, iterations)


def mpl_roundtrip(iterations: int = 200) -> float:
    """MPL one-word ping-pong with mpc_bsend / mpc_brecv (paper: 88 us):
    the blocking MPL stream of 4-byte messages."""
    _check_iterations(iterations)
    count, elapsed = _measure_mpl("mpl_send_reply", 4, 4 * iterations)
    return elapsed / count


def measure_send_overhead(machine_name: str, iterations: int = 50) -> float:
    """Per-message send overhead: CPU time consumed per one-way message in
    a send stream (LogP's 'o'), excluding polling for replies."""
    _check_iterations(iterations)
    machine = am_pair(machine_params(machine_name))
    count = [0]

    def sink(token, x):
        count[0] += 1

    def sender(node):
        for i in range(iterations):
            yield from node.am.request_1(1, sink, i)

    def receiver(node):
        while count[0] < iterations:
            yield from node.am._wait_progress()

    run = run_programs(machine, [sender, receiver], wait_for=[0],
                       limit_us=1e8)
    return run.elapsed_us / iterations
