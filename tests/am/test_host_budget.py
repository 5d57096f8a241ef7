"""Host-call ratchet: Python calls per packet on the eager bulk path.

The paper's Table 2 is a per-message ledger of host cost; this is the
same ledger for the simulator's own interpreter time.  A blocking
3-chunk ``store`` + ``get`` on two nodes runs under ``cProfile``, and the
calls into functions defined in each machine layer (``repro.sim``,
``repro.hardware``, ``repro.am``; a generator resume counts as a call)
are divided by the packets the adapters put on the wire.  The program is
deterministic, so the counts are exact and repeat on every run.

Each budget is the value measured when the per-packet fast paths went
in.  A change may lower a count (then lower its budget here too); it may
not raise one.
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

#: calls per packet sent, by layer (measured, rounded up at the second
#: decimal; before the bulk fast paths: sim 21.93, hardware 26.58, am 29.34)
BUDGET = {"sim": 18.02, "hardware": 19.05, "am": 20.70}

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
    procs = [sender, sim.spawn(server(), name="server")]
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
    assert mem0.read(back, nbytes) == mem0.read(src, nbytes)
    calls = dict.fromkeys(BUDGET, 0)
    for entry in prof.getstats():
        if isinstance(entry.code, str):
            continue  # a C builtin: no file, so no layer
        layer = _layer(entry.code.co_filename)
        if layer is not None:
            calls[layer] += entry.callcount
    packets = sum(node.adapter.stats.snapshot()[f"tb2[{node.id}].tx_packets"]
                  for node in machine.nodes)
    return {layer: n / packets for layer, n in calls.items()}


@pytest.fixture(scope="module")
def per_packet():
    return _calls_per_packet()


@pytest.mark.parametrize("layer", sorted(BUDGET))
def test_calls_per_packet_within_budget(per_packet, layer):
    assert per_packet[layer] <= BUDGET[layer], (
        f"{layer}: {per_packet[layer]:.3f} calls/packet over the "
        f"{BUDGET[layer]} budget")


def test_counts_are_deterministic(per_packet):
    assert _calls_per_packet() == per_packet
