"""Deterministic fault injection: seeded chaos for the reliability layer.

§2.2 claims SP AM is reliable over a lossy fabric — sliding windows,
cumulative acks, NACK-triggered go-back-N, keep-alive probes.  This
package exists to *prove* it under sustained, adversarial conditions:

* :class:`FaultPlan` / :class:`FaultRule` — a declarative, seeded
  description of what to break: drops, duplicates, reorders, payload
  corruption in the switch fabric, forced receive-FIFO overflow, and
  send-DMA stalls, each with per-kind rates, sequence- or trace_id-
  targeted triggers, and bounded budgets;
* :class:`FaultInjector` — the deterministic executor the hardware
  models consult (``switch.faults`` / ``adapter.faults``), which also
  records every injection so tests can reconcile them against the
  observability layer's fault events;
* :func:`install_faults` — wire a plan into a built machine;
* :func:`run_soak` — the chaos soak behind ``spam-bench soak`` and
  ``tests/integration/test_chaos_soak.py``: a fixed op list (ping-pong
  rounds, a multi-chunk store/get, a Split-C phase) on
  :mod:`repro.check.campaign`'s runner under a fault plan, asserting
  exactly-once in-order delivery, window invariants, clean fault
  accounting and, its own policy, bounded recovery time.

See ``docs/faults.md`` for usage and ``docs/protocol.md`` for the
failure model each fault kind exercises.
"""

from repro.faults.injector import FaultAction, FaultInjector, InjectedFault, install_faults
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultRule
from repro.faults.soak import SoakResult, run_soak

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "FaultAction",
    "FaultInjector",
    "InjectedFault",
    "install_faults",
    "SoakResult",
    "run_soak",
]
