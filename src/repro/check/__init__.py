"""repro.check — the protocol invariant sanitizer.

Always-available runtime checking of the invariants the paper states but
never mechanizes: FIFO slot conservation (§2.1), go-back-N window and
exactly-once delivery (§2.2), MPI request lifecycle and receiver-region
allocation conservation (§4.1–4.2), and event-scheduler ordering —
plus :class:`EventDigest`, the event-order hash the digest pins compare.

Checking follows the observability zero-cost pattern: every instrumented
component carries a ``check`` attribute that defaults to ``None``, and
every hook site is guarded by ``if self.check is not None`` — disabled
checking costs one attribute load on the hot path and nothing else.

:mod:`repro.check.campaign` holds the one fault harness: a runner that
executes an op list on every rank of a fresh SP machine and checks it.
:func:`run_campaign` drives it with seeded random MPI op lists under the
sanitizer, :func:`repro.faults.run_soak` with the soak's fixed op list,
and :func:`shrink_failure` reduces a failing op list of either kind.

See ``docs/checking.md`` for the invariant catalogue and campaign usage.
"""

from repro.check.core import InvariantViolation, Sanitizer
from repro.check.digest import EventDigest
from repro.check.campaign import (
    CampaignResult,
    ShrinkResult,
    generate_ops,
    run_campaign,
    run_campaigns,
    shrink_failure,
)

__all__ = [
    "EventDigest",
    "InvariantViolation",
    "Sanitizer",
    "CampaignResult",
    "ShrinkResult",
    "generate_ops",
    "run_campaign",
    "run_campaigns",
    "shrink_failure",
]
