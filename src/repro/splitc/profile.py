"""Phase profiling: the cpu-vs-net split of Figure 4.

"All the benchmarks have been instrumented to account for the time spent
in local computation phases and in communication phases separately" (§3).
Benchmarks charge their computation through :meth:`PhaseProfile.compute`
(``intops`` and ``flops_polled`` price it per operation); everything else
in the measured region counts as communication time — which includes
message overhead, exactly as in the paper (that is why SP MPL's *net* bars
in Figure 4 balloon for the small-message sorts even though the machine is
identical).
"""

from __future__ import annotations

from typing import Optional

#: work between two am_poll checks of :meth:`PhaseProfile.flops_polled`
_POLL_QUANTUM_US = 1000.0


class PhaseProfile:
    """Per-node accounting of compute vs communication phases."""

    def __init__(self, node):
        self.node = node
        self.cpu_us = 0.0
        self._start: Optional[float] = None

    # -- measured region -----------------------------------------------------

    def start(self) -> None:
        self._start = self.node.sim.now

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("profile not started")
        elapsed = self.node.sim.now - self._start
        self._start = None
        self.total_us = elapsed
        return elapsed

    # -- compute phases ---------------------------------------------------

    def compute(self, us: float):
        """Charge a computation phase of ``us`` microseconds."""
        self.cpu_us += us
        t0 = self.node.sim.now
        yield from self.node.compute(us)
        self._record_phase(t0, self.node.sim.now)

    def intops(self, n: float):
        yield from self.compute(n * self.node.host.intop_us)

    def flops_polled(self, n: float, am):
        """A long compute phase with explicit am_poll checks sprinkled in
        ("explicit checks can be added using am_poll", §1.1) so this node
        keeps serving remote gets while it crunches.  Poll time counts as
        communication, compute time as cpu."""
        remaining = n * self.node.host.flop_us
        while remaining > 0:
            step = min(_POLL_QUANTUM_US, remaining)
            yield from self.compute(step)
            remaining -= step
            if remaining > 0:
                yield from am.poll()

    def _record_phase(self, t0: float, t1: float) -> None:
        obs = getattr(self.node, "obs", None)
        if obs is not None and t1 > t0:
            obs.phase(self.node.id, "phase", "compute", t0, t1)
            obs.hist("splitc.compute_us").observe(t1 - t0)

    # -- results --------------------------------------------------------------

    @property
    def net_us(self) -> float:
        if not hasattr(self, "total_us"):
            raise RuntimeError("profile not stopped")
        return max(0.0, self.total_us - self.cpu_us)

    def split(self):
        """(cpu_us, net_us, total_us)."""
        return self.cpu_us, self.net_us, self.total_us
