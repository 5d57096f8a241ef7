"""Verifiable payload bytes for the soak and check harnesses.

Both harnesses fill buffers with ``(base + step * j) % 251`` so that any
received region can be compared byte for byte.  251 is prime, so every
step has an inverse and each pattern is one rotation of its step's
251-byte tile, repeated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

PERIOD = 251


@lru_cache(maxsize=None)
def _tile(step: int) -> Tuple[bytes, int]:
    """One period of ``(step * j) % PERIOD``, and ``1 / step`` mod PERIOD."""
    return (bytes(step * j % PERIOD for j in range(PERIOD)),
            pow(step, -1, PERIOD))


def periodic_payload(base: int, step: int, nbytes: int) -> bytes:
    """``bytes((base + step * j) % 251 for j in range(nbytes))``, built by
    repeating a cached tile and slicing it instead of byte by byte."""
    tile, inverse = _tile(step)
    # base + step*j = step * (start + j) (mod 251), start = base / step
    start = base * inverse % PERIOD
    return (tile * (nbytes // PERIOD + 2))[start: start + nbytes]
