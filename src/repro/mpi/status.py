"""MPI status objects and matching wildcards."""

from __future__ import annotations

from dataclasses import dataclass

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class Status:
    """Result of a completed receive (MPI_Status)."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    count: int = 0


def matches(want_src: int, want_tag: int, src: int, tag: int) -> bool:
    """MPI envelope matching with wildcards."""
    return ((want_src == ANY_SOURCE or want_src == src)
            and (want_tag == ANY_TAG or want_tag == tag))
