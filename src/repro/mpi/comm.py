"""Communicators: rank groups + context ids for matching isolation."""

from __future__ import annotations

from typing import List


class Communicator:
    """An MPI communicator: an ordered group of world ranks + context id.

    Point-to-point matching includes the context id, so traffic on a
    communicator never matches another context's.
    """

    def __init__(self, world_ranks: List[int], my_world_rank: int,
                 context: int):
        if my_world_rank not in world_ranks:
            raise ValueError("this process is not in the communicator")
        self.world_ranks = list(world_ranks)
        self.my_world_rank = my_world_rank
        self.context = context

    @property
    def rank(self) -> int:
        return self.world_ranks.index(self.my_world_rank)

    @property
    def size(self) -> int:
        return len(self.world_ranks)

    def world_rank_of(self, rank: int, arg: str = "rank") -> int:
        """The world rank of communicator rank ``rank``; ``arg`` names the
        caller's argument in the error for a rank outside the group."""
        if rank >= 0:  # a negative index would wrap around silently
            try:
                return self.world_ranks[rank]
            except IndexError:
                pass
        raise ValueError(
            f"{arg}={rank} is not a rank of this communicator: "
            f"valid range is 0..{len(self.world_ranks) - 1}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Communicator(rank={self.rank}/{self.size}, "
                f"ctx={self.context})")
