"""Split-C runtime over Active Messages (§3).

Split-C extends C with a global address space over distributed memory:
global pointers, split-phase assignments (``:=`` get/put), signaling
stores (``:-``), and bulk transfers.  The compiler front end is out of
scope; this package is the *runtime library* the generated code calls —
which is what the paper's benchmarks exercise — exposed as Python
generators for our simulated nodes.

The runtime is written against the Active-Messages API, so the same
benchmark code runs over SP AM, over the generic AM of the Table-4 peer
machines, and — via :class:`repro.mpl.am_shim.MPLAM` — over IBM MPL,
exactly the comparison of Table 5 / Figure 4.

The paper's programs call the :class:`SplitC` runtime, its
:class:`PhaseProfile` and :class:`GlobalPtr`, and that is the whole
public surface (docs/architecture.md lists each public call with its
caller).
"""

from repro.splitc.gptr import GlobalPtr
from repro.splitc.profile import PhaseProfile
from repro.splitc.runtime import SplitC, attach_splitc

__all__ = ["GlobalPtr", "SplitC", "attach_splitc", "PhaseProfile"]
