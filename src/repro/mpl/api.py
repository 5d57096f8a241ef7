"""Public MPL API: mpc_* calls with IBM MPL's measured cost profile.

Calibration targets (Table 3 and §2.3):

* ``mpc_bsend``/``mpc_brecv`` one-word ping-pong: **88 us** round trip —
  roughly 50 us of per-round software against SP AM's ~18 us;
* asymptotic pipelined bandwidth **34.6 MB/s** (30-byte data header);
* pipelined half-power point around **2 KB** — per-message costs are
  dominated by buffer management and the eager-copy;
* blocking (send + 0-byte reply) half-power point **> 3.2 KB**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.hardware.machine import Machine
from repro.mpl.engine import ANY, MPLEngine


@dataclass(frozen=True)
class MPLCosts:
    """Host software costs of the MPL library, microseconds."""

    #: fixed cost of an mpc_bsend / mpc_send call (envelope construction,
    #: buffer management, protocol selection)
    send_fixed: float = 15.6
    #: fixed cost of an mpc_brecv call (posting + matching)
    recv_fixed: float = 8.4
    #: per-data-packet injection cost (below the 6.47 us wire occupancy,
    #: so large transfers stay wire-bound at 34.6 MB/s)
    per_packet: float = 4.2
    #: per-packet receive/dispatch cost (excluding the incremental copy
    #: into the destination buffer, charged at HostParams.copy_rate)
    per_packet_recv: float = 2.2
    #: matching + descriptor hand-off when a receive finds its message
    match_cost: float = 1.4
    #: messages up to this size are copied into an internal send buffer
    eager_bytes: int = 16384
    #: rate of that internal copy (slower than a plain memcpy: it walks
    #: the message descriptor chain)
    buffer_copy_rate: float = 45.0
    #: cost of checking for arrivals when blocked
    poll_cost: float = 1.6
    #: building a credit-return packet
    credit_cost: float = 1.0


class MPL:
    """The MPL library instance on one node (``node.mpl``)."""

    def __init__(self, node, numtask: int, costs: Optional[MPLCosts] = None):
        if node.adapter is None:
            raise ValueError("MPL runs only on SP nodes")
        self.node = node
        self.costs = costs if costs is not None else MPLCosts()
        self.engine = MPLEngine(node, self.costs)
        self._numtask = numtask
        node.mpl = self

    def _check_task(self, arg: str, task: int) -> None:
        """Fail at the call, naming ``arg``, when ``task`` is not a task of
        this job (the transport would stall or misroute instead)."""
        if not 0 <= task < self._numtask:
            raise ValueError(
                f"{arg}={task} is not an MPL task: "
                f"valid range is 0..{self._numtask - 1}")

    # -- point to point -----------------------------------------------------

    def mpc_bsend(self, data: bytes, dst: int, tag: int = 0):
        """Blocking send: returns when the source buffer is reusable."""
        self._check_task("dst", dst)
        if dst == self.node.id:
            raise ValueError("MPL send must address a remote task")
        yield from self.engine.send_message(dst, bytes(data), tag)

    #: Non-blocking send.  MPL's asynchronous send still performs its
    #: injection on the calling thread: there is no comm processor on the
    #: Power2 side, so it has finished when it returns, like mpc_bsend.
    #: What it does *not* do is wait for any acknowledgement, which is
    #: exactly the pipelined-bandwidth configuration of Figure 3.
    mpc_send = mpc_bsend

    def mpc_brecv(self, nbytes: int, src: int = ANY, tag: int = ANY):
        """Blocking receive: returns the message bytes (must fit nbytes)."""
        if src != ANY:
            self._check_task("src", src)
            if src == self.node.id:
                # no send can match it: both sends refuse their own task
                raise ValueError("MPL receive must name a remote task")
        data = yield from self.engine.recv_message(src, tag)
        if len(data) > nbytes:
            raise ValueError(
                f"message of {len(data)} bytes truncated by {nbytes}-byte recv"
            )
        return data


def attach_mpl(machine: Machine, costs: Optional[MPLCosts] = None) -> List[MPL]:
    """Install MPL on every node of an SP machine."""
    if not machine.is_sp:
        raise ValueError("MPL exists only on the SP")
    return [MPL(node, machine.nprocs, costs) for node in machine.nodes]
