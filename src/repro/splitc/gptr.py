"""Global pointers: (processor, address) pairs with pointer arithmetic."""

from __future__ import annotations

from typing import NamedTuple


class GlobalPtr(NamedTuple):
    """A Split-C global pointer.

    Arithmetic moves the address on the same processor (Split-C's global
    pointer arithmetic; *spread* pointers that stripe across processors
    are built by the apps from plain index math).
    """

    proc: int
    addr: int

    def __add__(self, nbytes: int) -> "GlobalPtr":  # type: ignore[override]
        return GlobalPtr(self.proc, self.addr + nbytes)

    def __sub__(self, nbytes: int) -> "GlobalPtr":
        return GlobalPtr(self.proc, self.addr - nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GP({self.proc}:{self.addr:#x})"
