"""Host-call ratchet: Python calls per message on the AM paths.

The paper's Table 2 is a per-message ledger of host cost; this is the
same ledger for the simulator's own interpreter time.  Three programs run
on two nodes under ``cProfile``: a blocking 3-chunk ``store`` + ``get``
(the eager bulk path, counted per packet the adapters put on the wire,
together with the simulator events each packet costs),
one-word ``request_1`` / ``reply_1`` ping-pong (the small-message path
and the idle wait, counted per round trip), and a one-way stream of
Split-C ``store_word`` calls ended by ``store_sync`` (the fine-grain
path whose receiver sleeps between packets, counted per store, together
with the simulator events each store costs).  The calls into
functions defined in each machine layer (``repro.sim``,
``repro.hardware``, ``repro.am``; a generator resume counts as a call)
are divided by that unit.  The programs are deterministic, so the counts
are exact and repeat on every run.

Each budget is the value measured when the fast paths went in.  A change
may lower a count (then lower its budget here too); it may not raise one.
"""

import cProfile
import gc
import os

import pytest

import repro
from repro.am import attach_spam
from repro.am.constants import CHUNK_BYTES
from repro.hardware import build_sp_machine
from repro.sim import Simulator
from repro.splitc import GlobalPtr, attach_splitc

#: calls per packet sent, by layer (measured, rounded up at the second
#: decimal; before the bulk fast paths: sim 21.93, hardware 26.58, am 29.34;
#: hardware was 18.39 before the CRC moved to the corrupting path and the
#: retransmission buffer stopped cloning; am was 20.64 before the duty
#: pass stopped checking for AM-level rendezvous work; sim was 15.27
#: before a Delay resume that is the next event ran without the heap;
#: sim 10.45, hardware 15.42 and am 20.29 before bulk host charges were
#: fused and packets delivered in one event; sim 8.18, hardware 13.45 and
#: am 11.75 before receive-FIFO slots were stamped)
BUDGET = {"sim": 4.68, "hardware": 12.12, "am": 9.70}

#: simulator events per packet sent on the same program (measured 2.731;
#: 7.269 before bulk host charges were fused and packets delivered in one
#: event, 4.336 before receive-FIFO slots were stamped: ROADMAP item 15's
#: ratchet)
EVENTS_PER_PACKET_BUDGET = 2.74

#: calls per ping-pong round trip, by layer (measured; before the
#: small-message fast paths: sim 71.42, hardware 49.97, am 95.03 here, and
#: 160.1 / 86.0 / 117.0 per op on perflab's ``am-pingpong``, which adds
#: its probes; hardware was 38.0 before the CRC left the staging path;
#: sim was 52.13 before the Delay run-ahead; sim 30.16 and hardware 32.0
#: before packets were delivered in one event; hardware 30.0 before
#: receive-FIFO slots were stamped)
PINGPONG_BUDGET = {"sim": 26.16, "hardware": 28.0, "am": 57.09}

PINGPONG_ITERS = 200

#: calls per one-way ``store_word``, by layer, and simulator events per
#: store (measured, rounded up at the second decimal: 10.108, 17.883,
#: 23.123 and 9.169 events; ROADMAP item 13's ratchet leg; 19.109, 19.052
#: and 10.279 events before packets were delivered in one event; 16.095,
#: 17.997 and 9.224 events before receive-FIFO slots were stamped)
STORE_WORD_BUDGET = {"sim": 10.11, "hardware": 17.89, "am": 23.13}
STORE_WORD_EVENTS_BUDGET = 9.17

STORE_WORDS = 1000

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def _layer(filename):
    rel = os.path.relpath(os.path.abspath(filename), _REPRO_DIR)
    head = rel.split(os.sep, 1)[0]
    return head if head in BUDGET else None


def _calls_per_packet():
    sim = Simulator()
    machine = build_sp_machine(sim, 2)
    am0, am1 = attach_spam(machine)
    mem0, mem1 = machine.node(0).memory, machine.node(1).memory
    nbytes = 3 * CHUNK_BYTES
    src = mem0.alloc(nbytes)
    mem0.write(src, bytes(i % 251 for i in range(nbytes)))
    dst = mem1.alloc(nbytes)
    back = mem0.alloc(nbytes)

    def mover():
        yield from am0.store(1, src, dst, nbytes)
        yield from am0.get(1, dst, back, nbytes)

    def server():
        while not sender.finished:
            yield from am1._wait_progress()

    sender = sim.spawn(mover(), name="mover")
    calls = _profiled_calls(sim, [sender, sim.spawn(server(), name="server")])
    assert mem0.read(back, nbytes) == mem0.read(src, nbytes)
    packets = sum(node.adapter.stats.snapshot()[f"tb2[{node.id}].tx_packets"]
                  for node in machine.nodes)
    return ({layer: n / packets for layer, n in calls.items()},
            sim.events_executed / packets)


def _calls_per_round_trip():
    sim = Simulator()
    machine = build_sp_machine(sim, 2)
    am0, am1 = attach_spam(machine)
    counts = {"got": 0, "served": 0}

    def h_reply(token, x):
        counts["got"] += 1

    def h_request(token, x):
        counts["served"] += 1
        yield from token.reply_1(h_reply, x)

    def pinger():
        for i in range(PINGPONG_ITERS):
            before = counts["got"]
            yield from am0.request_1(1, h_request, i)
            while counts["got"] == before:
                yield from am0._wait_progress()

    def ponger():
        while counts["served"] < PINGPONG_ITERS:
            yield from am1._wait_progress()

    calls = _profiled_calls(sim, [sim.spawn(pinger(), name="ping"),
                                  sim.spawn(ponger(), name="pong")])
    assert counts == {"got": PINGPONG_ITERS, "served": PINGPONG_ITERS}
    return {layer: n / PINGPONG_ITERS for layer, n in calls.items()}


def _calls_per_store_word():
    """``(calls per store by layer, events per store)``."""
    sim = Simulator()
    machine = build_sp_machine(sim, 2)
    attach_spam(machine)
    rt0, rt1 = attach_splitc(machine)
    dst = machine.node(1).memory.alloc(8 * STORE_WORDS)

    def storer():
        for i in range(STORE_WORDS):
            yield from rt0.store_word(GlobalPtr(1, dst + 8 * i), i)
        yield from rt0.store_sync(0)

    def sink():
        yield from rt1.store_sync(8 * STORE_WORDS)

    calls = _profiled_calls(sim, [sim.spawn(storer(), name="storer"),
                                  sim.spawn(sink(), name="sink")])
    got = machine.node(1).memory.read(dst, 8 * STORE_WORDS)
    assert got == b"".join(i.to_bytes(8, "little")
                           for i in range(STORE_WORDS))
    return ({layer: n / STORE_WORDS for layer, n in calls.items()},
            sim.events_executed / STORE_WORDS)


def _profiled_calls(sim, procs):
    """Run ``procs`` to completion under cProfile; calls by layer."""
    # earlier garbage must not be collected inside the profile: closing an
    # abandoned generator counts as a call into its layer
    gc.collect()
    gc.disable()
    prof = cProfile.Profile()
    prof.enable()
    try:
        sim.run_until_processes_done(procs, limit=1e8)
    finally:
        prof.disable()
        gc.enable()
    calls = dict.fromkeys(BUDGET, 0)
    for entry in prof.getstats():
        if isinstance(entry.code, str):
            continue  # a C builtin: no file, so no layer
        layer = _layer(entry.code.co_filename)
        if layer is not None:
            calls[layer] += entry.callcount
    return calls


@pytest.fixture(scope="module")
def per_packet():
    return _calls_per_packet()


@pytest.mark.parametrize("layer", sorted(BUDGET))
def test_calls_per_packet_within_budget(per_packet, layer):
    calls, _events = per_packet
    assert calls[layer] <= BUDGET[layer], (
        f"{layer}: {calls[layer]:.3f} calls/packet over the "
        f"{BUDGET[layer]} budget")


def test_events_per_packet_within_budget(per_packet):
    _calls, events = per_packet
    assert events <= EVENTS_PER_PACKET_BUDGET, (
        f"{events:.3f} events/packet over the {EVENTS_PER_PACKET_BUDGET} "
        f"budget")


def test_counts_are_deterministic(per_packet):
    assert _calls_per_packet() == per_packet


@pytest.fixture(scope="module")
def per_round_trip():
    return _calls_per_round_trip()


@pytest.mark.parametrize("layer", sorted(PINGPONG_BUDGET))
def test_calls_per_round_trip_within_budget(per_round_trip, layer):
    assert per_round_trip[layer] <= PINGPONG_BUDGET[layer], (
        f"{layer}: {per_round_trip[layer]:.3f} calls/round trip over the "
        f"{PINGPONG_BUDGET[layer]} budget")


def test_round_trip_counts_are_deterministic(per_round_trip):
    assert _calls_per_round_trip() == per_round_trip


@pytest.fixture(scope="module")
def per_store_word():
    return _calls_per_store_word()


@pytest.mark.parametrize("layer", sorted(STORE_WORD_BUDGET))
def test_calls_per_store_word_within_budget(per_store_word, layer):
    calls, _events = per_store_word
    assert calls[layer] <= STORE_WORD_BUDGET[layer], (
        f"{layer}: {calls[layer]:.3f} calls/store over the "
        f"{STORE_WORD_BUDGET[layer]} budget")


def test_events_per_store_word_within_budget(per_store_word):
    _calls, events = per_store_word
    assert events <= STORE_WORD_EVENTS_BUDGET, (
        f"{events:.3f} events/store over the {STORE_WORD_EVENTS_BUDGET} "
        f"budget")
