"""Global pointers: (processor, address) pairs."""

from __future__ import annotations

from typing import NamedTuple


class GlobalPtr(NamedTuple):
    """A Split-C global pointer.  Offsets are built from plain address
    math (``GlobalPtr(p, base + off)``), and *spread* pointers that
    stripe across processors from plain index math, by the apps."""

    proc: int
    addr: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GP({self.proc}:{self.addr:#x})"
