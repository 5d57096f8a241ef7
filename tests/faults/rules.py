"""Count-triggered drop rules shared by the §2.2 loss tests."""

from repro.faults import FaultRule


def every_kth(k, drops, kinds=None):
    """Rules that drop every ``k``-th matching packet, ``drops`` times.

    Rule j (1-based) skips ``j*(k-1)`` matching packets, not ``j*k``: a
    rule that fires hides its packet from the rules after it, so rule j
    never sees the j-1 packets its predecessors dropped.  Rules left over
    once the traffic ends never fire and, at rate 1.0, draw no random
    number.
    """
    packet_kinds = None if kinds is None else frozenset(kinds)
    return tuple(FaultRule("drop", packet_kinds=packet_kinds,
                           after=j * (k - 1), budget=1)
                 for j in range(1, drops + 1))
