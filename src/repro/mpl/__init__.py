"""IBM MPL — the paper's message-passing baseline (§2.3–§2.6).

MPL is proprietary; the paper uses it as a measured black box.  This
package reproduces its *cost profile* with matching semantics over the
same simulated TB2 hardware path:

=========================  ==========
one-word round trip         88 us
asymptotic bandwidth        34.6 MB/s
n_1/2, pipelined send       ~2 KB
n_1/2, blocking send/reply  >3.2 KB
=========================  ==========

API (the subset the paper exercises; ``dst``/``src`` outside the job's
tasks raise ``ValueError`` at the call, and so does a send to the
calling task itself)::

    mpl.mpc_bsend(data, dst, tag)     blocking send (§2.3 round trip, Fig 3)
    mpl.mpc_brecv(n, src, tag)        blocking receive -> bytes
    mpl.mpc_send(data, dst, tag)      non-blocking send (Fig 3's pipelined
                                      curve); with no comm processor it
                                      has finished when it returns

docs/architecture.md lists each public call with its caller.

The high per-message software overhead relative to SP AM — buffer
management, matching, and an internal copy for eager-size messages — is
exactly the overhead the paper's §3 shows dragging down fine-grain
Split-C applications.
"""

from repro.mpl.api import MPL, MPLCosts, attach_mpl
from repro.mpl.am_shim import MPLAM, attach_mpl_am

__all__ = ["MPL", "MPLCosts", "attach_mpl", "MPLAM", "attach_mpl_am"]
