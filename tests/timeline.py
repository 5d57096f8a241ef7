"""What the simulated machine did, as one digest.

An event digest (:class:`repro.check.EventDigest`) hashes every executed
event's ``(time, seq, callback)``, so it moves whenever the simulator
spends fewer or different events on the same machine behaviour.  A
:class:`Timeline` hashes the behaviour itself:

* per node, every packet that lands in its TB2 receive FIFO, as
  ``(time, src, kind, seq, offset)``.  It is read through the FIFO's
  ``check`` hook when the adapter queues the packet, and ``time`` is its
  stamp: the instant it becomes visible to the host.  A packet counts
  once the run's clock has reached its stamp; reading the digest settles
  what has arrived by then, as any read of the FIFO does;
* every process's finish time, with its name.

Two runs with the same timeline digest delivered the same packets to the
same hosts at the same simulated instants and finished every process at
the same instant, however many events each took to get there.

Usage::

    with Timeline() as tl:
        machine = build_sp_machine(sim, 2)
        tl.watch(machine)
        ...                         # spawn and run
    tl.hexdigest()

Finishes are recorded for every process that finishes inside the
``with`` block; deliveries for the machines passed to :meth:`watch`.
"""

import hashlib
import struct

from repro.sim.process import Process

_DELIVERY = struct.Struct("<dqqqq").pack
_FINISH = struct.Struct("<d").pack


class _FifoTap:
    """A receive FIFO's ``check`` hook that logs each delivery, then hands
    every call on to the checker that was there before (if any)."""

    def __init__(self, log, inner):
        self._log = log
        self._inner = inner

    def on_deliver(self, fifo):
        stamp, _order, p = fifo.slots[-1]
        self._log.append((stamp, _DELIVERY(stamp, p.src, int(p.kind),
                                           p.seq, p.offset)))
        if self._inner is not None:
            self._inner.on_deliver(fifo)

    def on_reserve(self, fifo):
        if self._inner is not None:
            self._inner.on_reserve(fifo)

    def on_consume(self, fifo):
        if self._inner is not None:
            self._inner.on_consume(fifo)

    def on_pop(self, fifo, freed):
        if self._inner is not None:
            self._inner.on_pop(fifo, freed)


class Timeline:
    """Per-node delivery timelines plus process finish times, hashed."""

    def __init__(self):
        #: node id -> (stamp, packed delivery), in delivery order
        self.deliveries = {}
        #: node id -> its adapter, whose clock says which stamps the run
        #: reached
        self._adapters = {}
        #: (process name, finish time), in finish order
        self.finishes = []
        self._saved_finish = None

    def watch(self, machine):
        """Tap the receive FIFO of every node that has a TB2 adapter."""
        for node in machine.nodes:
            adapter = getattr(node, "adapter", None)
            fifo = getattr(adapter, "recv_fifo", None)
            if fifo is None:
                continue
            log = self.deliveries.setdefault(node.id, [])
            self._adapters[node.id] = adapter
            fifo.check = _FifoTap(log, fifo.check)
        return self

    def __enter__(self):
        finishes = self.finishes
        saved = self._saved_finish = Process._finish

        def _finish(proc, result, error):
            finishes.append((proc.name, proc.sim.now))
            saved(proc, result, error)

        Process._finish = _finish
        return self

    def __exit__(self, *exc):
        Process._finish = self._saved_finish
        return False

    def hexdigest(self):
        h = hashlib.blake2b(digest_size=16)
        for nid in sorted(self.deliveries):
            h.update(_DELIVERY(-1.0, nid, 0, 0, 0))
            adapter = self._adapters[nid]
            now = adapter.sim.now
            adapter.settle(now)
            for stamp, record in self.deliveries[nid]:
                if stamp <= now:
                    h.update(record)
        # by name then time: same-instant finishes may swap order when a
        # fused stretch takes its seq earlier, and that is not behaviour
        for name, t in sorted(self.finishes):
            h.update(name.encode() + b"\0" + _FINISH(t))
        return h.hexdigest()
