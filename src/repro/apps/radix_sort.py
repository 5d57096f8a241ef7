"""Parallel radix sort in Split-C (§3, Table 5's ``rdxsort`` rows).

Counting-sort passes over the key bits (11 bits per pass, 3 passes for the
paper's 32-bit keys).  Each pass:

1. local histogram of the current digit (compute);
2. histogram exchange: every rank bulk-stores its counts to rank 0, which
   computes every rank's global bucket offsets and bulk-stores them back;
3. permutation: every key moves to its global rank —
   * **small variant**: one ``store_word`` per key straight into its final
     slot on the destination processor (fine-grain traffic),
   * **large variant**: per-destination packed (slot, key) pairs moved
     with one ``store_bulk`` per destination, scattered locally on arrival;
4. ``all_store_sync`` and swap to the received array.

Keys are real int64s and the result is verified globally sorted.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.workloads import AppResult, keys_for_rank, run_app
from repro.splitc import GlobalPtr

WORD = 8
RADIX_BITS = 11
KEY_BITS = 32
#: seed of the keys (see :func:`keys_for_rank`)
_KEY_SEED = 999

#: calibrated per-pass compute charges (integer ops per key): the bulk
#: variant of Table 5 bounds cpu at ~8.7 us/key/pass on the Power2
#: (~435 ops at 50 Mops); see EXPERIMENTS.md
HIST_OPS_PER_KEY = 150.0
PERMUTE_OPS_PER_KEY = 250.0
SCATTER_OPS_PER_KEY = 35.0


def radix_sort_program(machine, rts, rank: int, keys: np.ndarray,
                       variant: str, shared: Dict,
                       radix_bits: int = RADIX_BITS):
    rt = rts[rank]
    nprocs = machine.nprocs
    n_local = len(keys)
    mem = machine.node(rank).memory
    buckets = 1 << radix_bits
    mask = buckets - 1
    passes = -(-KEY_BITS // radix_bits)

    # regions published to all ranks before the timed loop
    cur_addr, cur = mem.alloc_array(n_local, np.int64)
    nxt_addr, nxt = mem.alloc_array(n_local, np.int64)
    off_addr = mem.alloc(buckets * WORD)
    cur[:] = keys
    shared.setdefault("next_addr", {})[rank] = nxt_addr
    shared.setdefault("off_addr", {})[rank] = off_addr
    if rank == 0 and "hist_region" not in shared:
        shared["hist_region"] = mem.alloc(buckets * nprocs * WORD)
    yield from rt.barrier()

    for p in range(passes):
        shift = p * radix_bits
        digits = (cur >> shift) & mask
        hist = np.bincount(digits, minlength=buckets).astype(np.int64)
        yield from rt.profile.intops(HIST_OPS_PER_KEY * n_local)

        # -- histogram exchange -------------------------------------------
        hbuf = mem.alloc(buckets * WORD)
        mem.write(hbuf, hist.tobytes())
        yield from rt.store_bulk(
            GlobalPtr(0, shared["hist_region"] + rank * buckets * WORD),
            hbuf, buckets * WORD)
        yield from rt.all_store_sync()
        if rank == 0:
            counts = np.frombuffer(
                machine.node(0).memory.read(shared["hist_region"],
                                            buckets * nprocs * WORD),
                np.int64).reshape(nprocs, buckets)
            # offset of (bucket b, proc q) = all keys in smaller buckets
            # + same-bucket keys on smaller ranks
            bucket_tot = counts.sum(axis=0)
            bucket_base = np.concatenate(([0], np.cumsum(bucket_tot)[:-1]))
            proc_prefix = np.cumsum(counts, axis=0) - counts
            offsets = bucket_base[None, :] + proc_prefix  # (nprocs, buckets)
            yield from rt.profile.intops(4.0 * buckets * nprocs)
            obuf = machine.node(0).memory.alloc(buckets * nprocs * WORD)
            machine.node(0).memory.write(obuf, offsets.astype(np.int64).tobytes())
            for q in range(nprocs):
                yield from rt.store_bulk(
                    GlobalPtr(q, shared["off_addr"][q]),
                    obuf + q * buckets * WORD, buckets * WORD)
        yield from rt.all_store_sync()
        my_off = np.frombuffer(mem.read(off_addr, buckets * WORD),
                               np.int64).copy()

        # -- permutation -----------------------------------------------------
        # global index of each local key: offset[digit] + occurrence number
        order = np.argsort(digits, kind="stable")
        sorted_digits = digits[order]
        within = np.arange(n_local) - np.searchsorted(sorted_digits,
                                                      sorted_digits)
        g = np.empty(n_local, np.int64)
        g[order] = my_off[sorted_digits] + within
        yield from rt.profile.intops(PERMUTE_OPS_PER_KEY * n_local)
        dest_proc = g // n_local
        dest_slot = g % n_local
        next_addr_of = shared["next_addr"]
        if variant == "small":
            for key, dp, ds in zip(cur.tolist(), dest_proc.tolist(),
                                   dest_slot.tolist()):
                yield from rt.store_word(
                    GlobalPtr(int(dp), next_addr_of[int(dp)] + int(ds) * WORD),
                    int(key))
        elif variant == "large":
            for q in range(nprocs):
                sel = dest_proc == q
                cnt = int(sel.sum())
                if cnt == 0:
                    continue
                pairs = np.empty(2 * cnt, np.int64)
                pairs[0::2] = dest_slot[sel]
                pairs[1::2] = cur[sel]
                if q == rank:
                    nxt[dest_slot[sel]] = cur[sel]
                    continue
                pbuf = mem.alloc(2 * cnt * WORD)
                mem.write(pbuf, pairs.tobytes())
                stage = shared["stage_addr"][q][rank]
                yield from rt.store_bulk(GlobalPtr(q, stage), pbuf,
                                         2 * cnt * WORD)
                # record how many pairs went so the receiver can scatter
                yield from rt.store_word(
                    GlobalPtr(q, shared["stage_cnt"][q] + rank * WORD), cnt)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        yield from rt.all_store_sync()

        if variant == "large":
            # scatter staged (slot, key) pairs into the next array
            for s in range(nprocs):
                if s == rank:
                    continue
                cnt = int(np.frombuffer(
                    mem.read(shared["stage_cnt"][rank] + s * WORD, WORD),
                    np.int64)[0])
                if cnt == 0:
                    continue
                pairs = np.frombuffer(
                    mem.read(shared["stage_addr"][rank][s], 2 * cnt * WORD),
                    np.int64)
                nxt[pairs[0::2]] = pairs[1::2]
                yield from rt.profile.intops(SCATTER_OPS_PER_KEY * cnt)
            # reset counters for the next pass
            mem.write(shared["stage_cnt"][rank], b"\x00" * nprocs * WORD)
            yield from rt.barrier()
        cur, nxt = nxt, cur
        cur_addr, nxt_addr = nxt_addr, cur_addr
        # republish the (swapped) destination array for the next pass
        shared["next_addr"][rank] = nxt_addr
        yield from rt.barrier()

    yield from rt.barrier()
    return cur.copy()


def run_radix_sort(stack: str, nprocs: int = 8, keys_per_proc: int = 4096,
                   variant: str = "small",
                   radix_bits: int = RADIX_BITS) -> AppResult:
    """One Table-5 radix-sort configuration (paper scale ~1M keys
    total), verified against a sort of all the keys."""
    total = keys_per_proc * nprocs
    all_keys = [keys_for_rank(total, nprocs, r, _KEY_SEED)
                for r in range(nprocs)]
    shared: Dict = {}

    def make_prog(machine, rts, rank):
        if "stage_addr" not in shared:
            # staging areas for the large variant: per (receiver, sender)
            shared["stage_addr"] = {}
            shared["stage_cnt"] = {}
            for q in range(nprocs):
                memq = machine.node(q).memory
                shared["stage_addr"][q] = {
                    s: memq.alloc(2 * keys_per_proc * WORD)
                    for s in range(nprocs) if s != q
                }
                cnt_addr = memq.alloc(nprocs * WORD)
                memq.write(cnt_addr, b"\x00" * nprocs * WORD)
                shared["stage_cnt"][q] = cnt_addr
        return radix_sort_program(machine, rts, rank, all_keys[rank],
                                  variant, shared, radix_bits)

    result = run_app(stack, nprocs, make_prog)
    pieces = [result.payload[r] for r in range(nprocs)]
    got = np.concatenate(pieces)
    expect = np.sort(np.concatenate(all_keys))
    result.payload["verified"] = bool(
        len(got) == len(expect) and (got == expect).all())
    return result
