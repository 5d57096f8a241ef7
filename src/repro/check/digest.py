"""Event-order digest: a ``sim.check`` hook that hashes the execution order.

Two runs executed the same callbacks at the same simulated times in the
same order iff their digests agree.
"""

from __future__ import annotations

import hashlib
import struct

_PACK = struct.Struct("<dq").pack


class EventDigest:
    """Hashes ``(time, seq, callback qualname)`` of every executed event.

    Entries with a negative seq belong to the unsequenced observer lane
    (metrics-sampler ticks) and are digest-neutral by the engine's
    contract, so they are skipped.  Tombstone skips and cancels are not
    hashed.
    """

    __slots__ = ("_update", "_hexdigest")

    def __init__(self) -> None:
        h = hashlib.blake2b(digest_size=16)
        self._update = h.update
        self._hexdigest = h.hexdigest

    def on_execute(self, entry) -> None:
        if entry[1] < 0:
            return
        fn = entry[2]
        self._update(_PACK(entry[0], entry[1]))
        self._update(getattr(fn, "__qualname__", type(fn).__name__).encode())

    def on_stale(self, entry) -> None:
        pass

    def on_cancel(self, entry) -> None:
        pass

    def hexdigest(self) -> str:
        return self._hexdigest()
