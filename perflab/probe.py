"""What the workloads report to: host spans, sim spans, digest, queue depth.

One :class:`Probe` accompanies one workload execution.  Host spans (set-up
steps and the timed calls, on the host clock) are always recorded — there
are a handful per run.  Everything that costs something per operation is
recorded only by an *instrumenting* probe, in the traced pass:

* sim spans — the node programs wrap every public call they make
  (``am.request_1``, ``am.store``, ``mpi.send`` ...) in :meth:`Probe.stamp`,
  which reads ``sim.now`` before and after; spans of one operation share
  its id.  This is Table 2 measured from outside the program.
* the event digest — a recorder on ``sim.check`` hashes ``(time, seq,
  callback)`` of every executed event.
* queue depth — a sampler on the unsequenced lane (which leaves every
  ordinary event's ``(time, seq)`` untouched) reads
  ``sim.live_pending_count()`` at a fixed simulated period.

Spans stay in memory; :meth:`Probe.spans_json` serialises them once.
"""

from __future__ import annotations

import hashlib
import struct
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

_PACK = struct.Struct("<dq").pack


class DigestRecorder:
    """``sim.check`` hook object: folds the execution order into a digest.

    Entries with a negative sequence number belong to the unsequenced
    observer lane (our own queue-depth sampler, the soak's gauge sampler)
    and are digest-neutral by the engine's contract, so they are skipped.
    """

    __slots__ = ("_update", "hexdigest")

    def __init__(self) -> None:
        h = hashlib.blake2b(digest_size=16)
        self._update = h.update
        self.hexdigest = h.hexdigest

    def on_execute(self, entry) -> None:
        if entry[1] < 0:
            return
        fn = entry[2]
        self._update(_PACK(entry[0], entry[1]))
        self._update(getattr(fn, "__qualname__", type(fn).__name__).encode())

    def on_stale(self, entry) -> None:
        """Part of the hook contract; skipped entries are not hashed."""

    def on_cancel(self, entry) -> None:
        """Part of the hook contract; cancels are not hashed."""


class PendingSampler:
    """Mean live queue depth, sampled every ``period_us`` of simulated time."""

    __slots__ = ("sim", "period_us", "total", "samples")

    def __init__(self, sim, period_us: float) -> None:
        self.sim = sim
        self.period_us = period_us
        self.total = 0
        self.samples = 0
        sim.schedule_unsequenced(period_us, self._tick)

    def _tick(self) -> None:
        depth = self.sim.live_pending_count()
        self.total += depth
        self.samples += 1
        # stop with the workload: a sampler that re-armed on an empty
        # queue would keep a draining run alive for ever
        if depth > 0:
            self.sim.schedule_unsequenced(self.period_us, self._tick)


def _combine(digests: List[str]) -> str:
    """One digest for a workload made of several simulators."""
    if len(digests) == 1:
        return digests[0]
    return hashlib.blake2b("".join(digests).encode(),
                           digest_size=16).hexdigest()


class Probe:
    """Recorder for one workload execution (see the module docstring)."""

    def __init__(self, instrument: bool = False) -> None:
        self.instrument = instrument
        self._t0 = time.perf_counter()
        #: host spans: dicts of name, layer, start_s, end_s, parent
        self.host_spans: List[Dict] = []
        self._open: List[int] = []
        #: sim spans: (name, op id, start_us, end_us)
        self.sim_spans: List[tuple] = []
        self._recorders: List[DigestRecorder] = []
        self._samplers: List[PendingSampler] = []
        #: digests a phase obtained elsewhere (campaign delivery digests)
        self.extra_digests: List[str] = []

    # -- host clock ------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str):
        """Record a host span around a call into ``layer``."""
        idx = len(self.host_spans)
        rec = {"name": name, "layer": layer, "clock": "host",
               "start_s": time.perf_counter() - self._t0, "end_s": None,
               "parent": self._open[-1] if self._open else None}
        self.host_spans.append(rec)
        self._open.append(idx)
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end_s"] = time.perf_counter() - self._t0

    # -- sim clock -------------------------------------------------------

    def stamp(self, name: str, op: int, sim, gen):
        """Wrap a public call made by a node program.

        Uninstrumented, the call's own generator is returned unchanged, so
        ``yield from probe.stamp(...)`` costs one plain function call and
        no extra generator frame.
        """
        if not self.instrument:
            return gen
        return self._stamped(name, op, sim, gen)

    def _stamped(self, name: str, op: int, sim, gen):
        t0 = sim.now
        result = yield from gen
        self.sim_spans.append((name, op, t0, sim.now))
        return result

    def call_costs(self) -> Dict[str, float]:
        """Mean simulated duration per stamped call name."""
        total: Dict[str, float] = {}
        count: Dict[str, int] = {}
        for name, _op, t0, t1 in self.sim_spans:
            total[name] = total.get(name, 0.0) + (t1 - t0)
            count[name] = count.get(name, 0) + 1
        return {name: total[name] / count[name] for name in sorted(total)}

    # -- digest and queue depth ------------------------------------------

    def recorder(self) -> Optional[DigestRecorder]:
        """A digest recorder to put on a simulator's ``check`` hook, or
        None when not instrumenting."""
        if not self.instrument:
            return None
        rec = DigestRecorder()
        self._recorders.append(rec)
        return rec

    def watch(self, sim, period_us: float) -> Optional[PendingSampler]:
        """Instrument a simulator the workload built itself; returns the
        queue-depth sampler (None when not instrumenting)."""
        if not self.instrument:
            return None
        sim.check = self.recorder()
        sampler = PendingSampler(sim, period_us)
        self._samplers.append(sampler)
        return sampler

    def event_digest(self) -> Optional[str]:
        digests = [r.hexdigest() for r in self._recorders] + self.extra_digests
        return _combine(digests) if digests else None

    def pending_mean(self) -> Optional[float]:
        total = sum(s.total for s in self._samplers)
        samples = sum(s.samples for s in self._samplers)
        return total / samples if samples else None

    # -- output ----------------------------------------------------------

    def spans_json(self) -> List[Dict]:
        out = list(self.host_spans)
        out.extend({"name": name, "op": op, "clock": "sim",
                    "start_us": t0, "end_us": t1}
                   for name, op, t0, t1 in self.sim_spans)
        return out
