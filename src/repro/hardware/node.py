"""A processing node: CPU cost helpers + addressable memory + its NIC.

Software layers (AM, MPL, Split-C, MPI) are attached to nodes by the
machine builder and address each other's memory through :class:`Memory` —
a flat, growable byte space with a bump allocator, so bulk transfers move
real bytes between real addresses exactly as ``am_store``/``am_get``
require ("transfer data between blocks of memory specified by the node
initiating the transfer", §1.1).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Optional

from repro.hardware.params import HostParams, MachineParams
from repro.sim import Delay, Simulator
from repro.sim.stats import StatRegistry


class Memory:
    """Per-node memory: a segmented bump allocator over fixed buffers.

    Addresses are plain ints, so Split-C global pointers are ``(proc,
    addr)`` pairs with ordinary arithmetic, and ``am_store`` writes to a
    remote ``addr`` exactly as on the real machine.

    Each segment is an anonymous private ``mmap``: zero-filled by the
    kernel page by page on first touch, so a node pays resident memory
    only for the pages its program writes or reads, not for the whole
    1 MB, and a slice of it is already ``bytes`` (``read`` copies once).
    Segments are never resized once created — numpy arrays returned by
    :meth:`alloc_array` alias the backing store for the lifetime of the
    simulation.  An allocation always lives inside one segment, so
    in-allocation reads/writes/views are contiguous.

    The first segment is created by the first :meth:`alloc` of a
    nonzero size, not by the constructor: a node that never allocates
    (every rank of a one-word request ring) maps nothing at all.  A
    zero-length access is valid at any address in ``[0, brk]``, mapped
    or not.
    """

    _ALIGN = 64        # keep buffers cache-line aligned (flush model)
    _SEGMENT = 1 << 20  # default segment size

    def __init__(self):
        self._seg_bases: list[int] = []   # sorted segment base addresses
        self._segments: list[mmap.mmap] = []
        self._brk = 0                     # high-water address
        self._cur_free = 0                # free bytes in the last segment

    def _new_segment(self, nbytes: int) -> None:
        # imported by the first node that allocates, so a run whose nodes
        # never do does not load the extension module (~36 kB of RSS)
        import mmap

        size = max(self._SEGMENT, nbytes)
        # segments start at aligned addresses, contiguous address space
        base = (self._brk + self._ALIGN - 1) // self._ALIGN * self._ALIGN
        self._seg_bases.append(base)
        # private, not the shared default: a forked child gets a copy, as
        # of a bytearray, and a first touch faults a little cheaper
        self._segments.append(mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE))
        self._brk = base
        self._cur_free = size

    def _locate(self, addr: int, nbytes: int):
        """(segment, offset) containing [addr, addr+nbytes)."""
        i = bisect_right(self._seg_bases, addr) - 1
        if i < 0:
            if nbytes == 0 and addr == self._brk:
                # nothing mapped yet, so brk is 0: the empty access is an
                # empty slice of a throwaway mapping whose page it never
                # touches
                import mmap

                return mmap.mmap(-1, 1), 0
            raise IndexError(
                f"address {addr:#x} below memory start" if self._segments
                else f"address {addr:#x} in a memory that has allocated "
                     f"nothing")
        base = self._seg_bases[i]
        seg = self._segments[i]
        off = addr - base
        if off + nbytes > len(seg):
            raise IndexError(
                f"access [{addr:#x}, {addr + nbytes:#x}) crosses a segment "
                f"boundary or exceeds memory (segment of {len(seg)} bytes "
                f"at {base:#x}) — access within a single allocation"
            )
        return seg, off

    def alloc(self, nbytes: int) -> int:
        """Reserve ``nbytes`` and return the base address."""
        if nbytes < 0:
            raise ValueError("negative allocation")
        rounded = (nbytes + self._ALIGN - 1) // self._ALIGN * self._ALIGN
        if rounded > self._cur_free:
            self._new_segment(rounded)
        addr = self._brk
        self._brk += rounded
        self._cur_free -= rounded
        return addr

    def write(self, addr: int, data: bytes) -> None:
        seg, off = self._locate(addr, len(data))
        seg[off: off + len(data)] = data

    def read(self, addr: int, nbytes: int) -> bytes:
        seg, off = self._locate(addr, nbytes)
        return seg[off: off + nbytes]

    def view(self, addr: int, nbytes: int) -> memoryview:
        seg, off = self._locate(addr, nbytes)
        return memoryview(seg)[off: off + nbytes]

    def alloc_array(self, count: int, dtype=None) -> tuple[int, np.ndarray]:
        """Allocate space for ``count`` items of ``dtype`` (float64 unless
        given); return (addr, ndarray view aliasing this memory)."""
        # numpy is imported where arrays are computed with, not on the
        # path of every run that builds a machine
        import numpy as np

        dt = np.dtype(np.float64 if dtype is None else dtype)
        addr = self.alloc(count * dt.itemsize)
        arr = np.frombuffer(self.view(addr, count * dt.itemsize), dtype=dt)
        return addr, arr

    @property
    def brk(self) -> int:
        return self._brk


class Node:
    """One SP node (or a node of a Table-4 peer machine)."""

    def __init__(self, sim: Simulator, node_id: int, machine_params: MachineParams):
        self.sim = sim
        self.id = node_id
        self.machine_params = machine_params
        self.host: HostParams = machine_params.host
        self.memory = Memory()
        self.stats = StatRegistry(f"node[{node_id}].")
        #: observability hub (set by Observatory.attach; None = untraced)
        self.obs = None
        #: the TB2 adapter (SP machines) or GenericNIC (peer machines)
        self.adapter: Optional[Any] = None
        self.nic: Optional[Any] = None
        #: software layers, attached by their constructors
        self.am: Optional[Any] = None
        self.mpl: Optional[Any] = None
        self.mpi: Optional[Any] = None
        self.splitc: Optional[Any] = None
        #: cumulative CPU time charged through compute()/charge_* helpers,
        #: used by the Split-C profiler to split cpu vs net phases
        self.cpu_busy_us = 0.0

    # -- CPU cost helpers (all are generators: `yield from node.compute(x)`)

    def compute(self, us: float):
        """Charge ``us`` microseconds of pure computation."""
        self.cpu_busy_us += us
        yield Delay(us)

    def charge_flops(self, n: float):
        """Charge ``n`` double-precision flops of work."""
        yield from self.compute(n * self.host.flop_us)

    def charge_intops(self, n: float):
        """Charge ``n`` integer/pointer operations of work."""
        yield from self.compute(n * self.host.intop_us)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.id} on {self.machine_params.name})"
