"""Sample sort in Split-C (§3, Table 5's ``smpsort`` rows).

Phases (instrumented separately, per Figure 4):

1. sample: each rank contributes an oversampled set of keys to rank 0,
   which sorts them and broadcasts P-1 splitters;
2. partition: local keys are classified against the splitters (compute);
3. distribute: keys travel to their destination rank —
   * the **small-message variant** stores each key individually
     (one ``store_word``/Active Message per key: the fine-grain traffic
     that buries MPL's per-message overhead),
   * the **bulk variant** packs one array per destination and issues a
     single ``store_bulk`` each;
4. local sort of the received keys (compute).

Keys are real int64s; the harness verifies global sortedness and multiset
preservation.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.apps.workloads import AppResult, keys_for_rank, run_app
from repro.splitc import GlobalPtr

OVERSAMPLE = 8
WORD = 8
#: seed of the keys (see :func:`keys_for_rank`)
_KEY_SEED = 2023

#: calibrated compute charges (integer operations per key).  Derived from
#: Table 5: the bulk variant's time is almost all compute, giving
#: ~11.8 us/key of cpu on the Power2 (~590 ops at 50 Mops) — 1996 qsort +
#: bucketing with cold caches; see EXPERIMENTS.md.
SORT_OPS_PER_KEY = 450.0
PARTITION_OPS_PER_KEY = 140.0


def sample_sort_program(machine, rts, rank: int, keys: np.ndarray,
                        variant: str, shared: Dict):
    rt = rts[rank]
    nprocs = machine.nprocs
    n_local = len(keys)
    mem = machine.node(rank).memory

    # --- receive region: each rank can hold up to 3x its share ---------------
    cap = 3 * n_local + OVERSAMPLE * nprocs
    recv_addr, recv_arr = mem.alloc_array(cap, np.int64)
    shared.setdefault("recv", {})[rank] = (recv_addr, cap)
    shared.setdefault("recv_counts", {})[rank] = 0
    # per-sender slots so one-way stores never collide: sender s writes
    # into [s * 2*n_local/nprocs ...] — sized by worst case below
    yield from rt.barrier()

    # --- phase 1: sampling -----------------------------------------------
    samples = np.sort(keys)[:: max(1, n_local // OVERSAMPLE)][:OVERSAMPLE]
    yield from rt.profile.intops(OVERSAMPLE * 4)
    sample_region = shared["sample_region"]
    gp = GlobalPtr(0, sample_region + rank * OVERSAMPLE * WORD)
    src = mem.alloc(OVERSAMPLE * WORD)
    mem.write(src, samples.astype(np.int64).tobytes())
    yield from rt.store_bulk(gp, src, OVERSAMPLE * WORD)
    yield from rt.all_store_sync()

    if rank == 0:
        allsamp = np.frombuffer(
            machine.node(0).memory.read(sample_region,
                                        OVERSAMPLE * nprocs * WORD),
            np.int64)
        order = np.sort(allsamp)
        step = len(order) // nprocs
        splitters = order[step::step][: nprocs - 1]
        yield from rt.profile.intops(len(order) * 8)
        shared["splitters"] = splitters
    # broadcast splitters as words
    splitters = []
    for i in range(nprocs - 1):
        v = yield from rt.broadcast_int(
            int(shared["splitters"][i]) if rank == 0 else None)
        splitters.append(v)
    splitters = np.array(splitters, np.int64)

    # --- phase 2: partition ---------------------------------------------------
    dest = np.searchsorted(splitters, keys, side="right")
    yield from rt.profile.intops(PARTITION_OPS_PER_KEY * n_local)

    # --- phase 3: distribute --------------------------------------------------
    per_slot = (2 * n_local) // nprocs + OVERSAMPLE  # per-sender slot size
    base = shared["recv"]  # rank -> (addr, cap)
    if variant == "small":
        cursors = [0] * nprocs
        for key, d in zip(keys.tolist(), dest.tolist()):
            slot_addr = (base[d][0]
                         + (rank * per_slot + cursors[d]) * WORD)
            yield from rt.store_word(GlobalPtr(d, slot_addr), key)
            cursors[d] += 1
        sent = cursors
    elif variant == "bulk":
        sent = []
        for d in range(nprocs):
            bucket = keys[dest == d].astype(np.int64)
            sent.append(len(bucket))
            if len(bucket) == 0:
                continue
            if len(bucket) > per_slot:
                raise AssertionError("slot overflow; raise capacity")
            buf = mem.alloc(len(bucket) * WORD)
            mem.write(buf, bucket.tobytes())
            slot_addr = base[d][0] + rank * per_slot * WORD
            yield from rt.store_bulk(GlobalPtr(d, slot_addr), buf,
                                     len(bucket) * WORD)
        yield from rt.profile.intops(2.0 * n_local)
    else:
        raise ValueError(f"unknown variant {variant!r}")

    # publish how many keys each sender put in each slot (at the
    # destination's counts array, indexed by sender)
    counts_addr_of = shared["counts_addr_of"]
    for d in range(nprocs):
        gp = GlobalPtr(d, counts_addr_of[d] + rank * WORD)
        yield from rt.store_word(gp, int(sent[d]))
    yield from rt.all_store_sync()

    # --- phase 4: local sort ----------------------------------------------
    counts = np.frombuffer(
        machine.node(rank).memory.read(counts_addr_of[rank], nprocs * WORD),
        np.int64)
    mine: List[np.ndarray] = []
    for s in range(nprocs):
        cnt = int(counts[s])
        if cnt:
            raw = machine.node(rank).memory.read(
                base[rank][0] + s * per_slot * WORD, cnt * WORD)
            mine.append(np.frombuffer(raw, np.int64))
    merged = np.sort(np.concatenate(mine)) if mine else np.empty(0, np.int64)
    yield from rt.profile.intops(SORT_OPS_PER_KEY * max(1, len(merged)))
    yield from rt.barrier()
    return merged


def run_sample_sort(stack: str, nprocs: int = 8, keys_per_proc: int = 4096,
                    variant: str = "small") -> AppResult:
    """One Table-5 sample-sort configuration, verified against a sort
    of all the keys.

    Paper scale is ~1M keys total; the default here is smaller (the
    cpu/net *shape* is scale-stable — see EXPERIMENTS.md).
    """
    total = keys_per_proc * nprocs
    all_keys = [keys_for_rank(total, nprocs, r, _KEY_SEED)
                for r in range(nprocs)]
    shared: Dict = {}

    def make_prog(machine, rts, rank):
        if "sample_region" not in shared:
            shared["sample_region"] = machine.node(0).memory.alloc(
                OVERSAMPLE * nprocs * WORD)
        return _with_counts(machine, rts, rank, all_keys[rank],
                            variant, shared)

    result = run_app(stack, nprocs, make_prog)
    result.payload["verified"] = _verify(result, all_keys, nprocs)
    return result


def _with_counts(machine, rts, rank, keys, variant, shared):
    # allocate this node's counts region before anything else so that the
    # address is known; publish it in shared (addresses may differ per node)
    addr = machine.node(rank).memory.alloc(machine.nprocs * WORD)
    machine.node(rank).memory.write(addr, b"\x00" * machine.nprocs * WORD)
    shared.setdefault("counts_addr_of", {})[rank] = addr
    yield from rts[rank].barrier()
    out = yield from sample_sort_program(machine, rts, rank, keys,
                                         variant, shared)
    return out


def _verify(result: AppResult, all_keys, nprocs: int) -> bool:
    pieces = [result.payload[r] for r in range(nprocs)]
    got = np.concatenate(pieces)
    expect = np.sort(np.concatenate(all_keys))
    if len(got) != len(expect):
        return False
    if not (got == expect).all():
        return False
    # global order across ranks
    for a, b in zip(pieces, pieces[1:]):
        if len(a) and len(b) and a[-1] > b[0]:
            return False
    return True
