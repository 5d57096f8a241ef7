"""Golden event-order digests for every Table-5 stack.

Table 5 runs one Split-C text on five stacks: SP AM (``sp-am``), AM
emulated over MPL (``sp-mpl``) and the LogP peers (``cm5``, ``meiko``,
``unet``).  These pins hash every executed event's ``(time, seq,
callback)`` and record the final simulated time of

* a small Split-C program that reaches every runtime call that crosses
  the network: word reads and writes, split-phase bulk get/put,
  signaling bulk and word stores, the barrier and both collectives;
* the portable AM program of ``test_api_conformance`` (one request /
  reply, a blocking store and a blocking get), on its three stacks.

A change to the AM front end that all three implementations share must
leave every one of them untouched.
"""

import struct

import pytest

from repro.apps.workloads import STACKS, build_stack
from repro.check import EventDigest
from repro.splitc import GlobalPtr
from tests.am.test_api_conformance import all_stacks, portable_program
from tests.timeline import Timeline

NPROCS = 4
#: bulk bytes per rank: two SP chunks, many 1 KB generic-AM fragments
BULK = 10_000

#: stack -> (event digest, final simulated us, timeline digest); the
#: clocks were recorded before the AM implementations shared one front
#: end, the timelines (``tests.timeline``) before bulk host charges were
#: fused and packets delivered in one event.  That change re-pinned the
#: event digests of the TB2 stacks (before: sp-am 9fd2bd58..., sp-mpl
#: d017a83f..., spam 349d29f4..., mpl-shim a821724b...), and so did
#: stamping the receive-FIFO slots (before: sp-am 7c0aad10..., sp-mpl
#: ed018b46..., spam 9b9b85db..., mpl-shim c55f427b...)
SPLITC_PINS = {
    "sp-am": ("ee632237dcbd77fcb8004018a58d6f52", 2280.4800000000105,
              "05646b22b265d2b38f9e853a624aff52"),
    "sp-mpl": ("1898a778c7d739e6b526710e57128ad7", 4381.1955555555605,
               "97acbeef5efd7e376d0e35a5c8c74307"),
    "cm5": ("65edc2e79d81093df701013bc9ee4447", 3237.680000000001,
            "78c3fc8b25df5826556bfc62c7e6939b"),
    "meiko": ("7a40d476cf800bbe6cb3c17ecd0877a2", 1364.5000000000005,
              "9350bebc5c467699252d49a8a7d5bc4f"),
    "unet": ("d2ff0ff818bc051fc0c01c8af1fcf27e", 2908.8518796992457,
             "901458539bd0d7d4fb6d89d928ca478a"),
}
PORTABLE_PINS = {
    "spam": ("c9a2980647a090f2f803dcd322e67d08", 381.4333333333334,
             "f9a6e6c7e630c2c788f6142ee1f08578"),
    "generic": ("24e79333e0b909bd1795e74a09c95c68", 711.5600000000002,
                "5b77d7ce8b4349b8b55f9f7f315254ad"),
    "mpl-shim": ("899d79e793823d55b4750366975b6ec8", 672.2533333333337,
                 "e700a3e76b3ffdc0d0f01f46939859bc"),
}


def _splitc_run(stack):
    with Timeline() as timeline:
        return _splitc_run_traced(timeline, stack)


def _splitc_run_traced(timeline, stack):
    machine, rts = build_stack(stack, NPROCS)
    timeline.watch(machine)
    sim = machine.sim
    digest = sim.check = EventDigest()
    data = [bytes((r * 31 + i) % 251 for i in range(BULK))
            for r in range(NPROCS)]
    regions = []
    for r in range(NPROCS):
        mem = machine.node(r).memory
        # [source | put target | store target | fetched | word slot]
        base = mem.alloc(4 * BULK + 8)
        mem.write(base, data[r])
        regions.append(base)

    def prog(rank):
        rt = rts[rank]
        right, left = (rank + 1) % NPROCS, (rank - 1) % NPROCS
        base = regions[rank]
        yield from rt.barrier()
        yield from rt.write_word(GlobalPtr(right, regions[right] + 4 * BULK),
                                 100 + rank)
        yield from rt.barrier()
        word = yield from rt.read_word(GlobalPtr(left, regions[left] + 4 * BULK))
        assert word == 100 + (left - 1) % NPROCS
        yield from rt.put_bulk(GlobalPtr(right, regions[right] + BULK),
                               base, BULK)
        yield from rt.get_bulk(base + 3 * BULK, GlobalPtr(left, regions[left]),
                               BULK)
        yield from rt.sync()
        yield from rt.store_bulk(GlobalPtr(right, regions[right] + 2 * BULK),
                                 base, BULK)
        yield from rt.store_word(GlobalPtr(left, regions[left] + 4 * BULK),
                                 rank)
        yield from rt.all_store_sync()
        total = yield from rt.allreduce_int(rank + 1)
        assert total == NPROCS * (NPROCS + 1) // 2
        root = yield from rt.broadcast_int(7 if rank == 0 else None)
        assert root == 7

    procs = [sim.spawn(prog(r), name=f"pin{r}") for r in range(NPROCS)]
    sim.run_until_processes_done(procs, limit=1e9)
    for r in range(NPROCS):
        mem, left = machine.node(r).memory, (r - 1) % NPROCS
        base = regions[r]
        assert mem.read(base + BULK, BULK) == data[left]
        assert mem.read(base + 2 * BULK, BULK) == data[left]
        assert mem.read(base + 3 * BULK, BULK) == data[left]
        assert struct.unpack("<q", mem.read(base + 4 * BULK, 8))[0] \
            == (r + 1) % NPROCS
    return digest.hexdigest(), sim.now, timeline.hexdigest()


@pytest.mark.parametrize("stack", STACKS)
def test_splitc_program_pinned(stack):
    assert _splitc_run(stack) == SPLITC_PINS[stack]


@pytest.mark.parametrize("stack", sorted(PORTABLE_PINS))
def test_portable_program_pinned(stack):
    with Timeline() as timeline:
        machine, ams = all_stacks()[stack]
        timeline.watch(machine)
        digest = machine.sim.check = EventDigest()
        end = portable_program(machine, ams)
    assert (digest.hexdigest(), end, timeline.hexdigest()) \
        == PORTABLE_PINS[stack]
