"""Public Active Messages API and per-machine attachment.

Matching Table 1 of the paper::

    am.request_M(dst, handler, i1..iM)   send an M-word request
    token.reply_M(handler, i1..iM)       send an M-word reply (in handler)
    am.store(...)                        long message, blocking
    am.store_async(...)                  long message, non-blocking
    am.get(...)                          fetch data from a remote node
    am.poll()                            poll the network

Every implementation is a :class:`~repro.am.handler.ActiveMessages`.
``attach_spam`` installs the full SP implementation (flow control, chunk
protocol) on an SP machine; ``attach_generic_am`` installs the LogP-cost
implementation on a Table-4 peer machine.  ``attach_am`` picks by machine
kind, so portable code (Split-C, the benchmarks) never branches.
"""

from __future__ import annotations

from typing import List, Optional

from repro.am.constants import AMCosts
from repro.am.endpoint import SPAM
from repro.am.generic import GenericAM
from repro.am.handler import ActiveMessages, HandlerTable
from repro.hardware.machine import Machine


def attach_spam(
    machine: Machine, costs: Optional[AMCosts] = None,
) -> List[SPAM]:
    """Install SP AM on every node of an SP machine."""
    if not machine.is_sp:
        raise ValueError(
            f"{machine.params.name!r} is not an SP; use attach_generic_am"
        )
    table = HandlerTable()
    return [SPAM(node, table, costs) for node in machine.nodes]


def attach_generic_am(machine: Machine) -> List[GenericAM]:
    """Install the generic (LogP-cost) AM on a peer machine."""
    if machine.is_sp:
        raise ValueError(
            f"{machine.params.name!r} is an SP; use attach_spam"
        )
    table = HandlerTable()
    return [GenericAM(node, table) for node in machine.nodes]


def attach_am(machine: Machine) -> List[ActiveMessages]:
    """Install the right AM implementation for the machine kind."""
    if machine.is_sp:
        return attach_spam(machine)
    return attach_generic_am(machine)
