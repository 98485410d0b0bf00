"""Communicators: ordered rank groups over an :class:`~repro.mpi.runtime.MpiWorld`.

A communicator maps local ranks (0..size-1) to world ranks. The hierarchical
multi-communicator collectives of Section 3.1 (the approach ADAPT's single
topology-aware tree replaces) split the world communicator into per-node /
per-socket sub-communicators plus a leader communicator, exactly as
MVAPICH-style implementations do.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.machine.spec import CommLevel
from repro.mpi.runtime import MpiWorld, RankRuntime


class Communicator:
    """An ordered group of world ranks."""

    def __init__(self, world: MpiWorld, ranks: Sequence[int] | None = None):
        self.world = world
        self.ranks: tuple[int, ...] = (
            tuple(range(world.nranks)) if ranks is None else tuple(ranks)
        )
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError("duplicate ranks in communicator")
        self._local_of = {w: i for i, w in enumerate(self.ranks)}

    @property
    def size(self) -> int:
        return len(self.ranks)

    def world_rank(self, local: int) -> int:
        return self.ranks[local]

    def local_rank(self, world_rank: int) -> int:
        return self._local_of[world_rank]

    def locals_of(self, world_ranks: Iterable[int]) -> set[int]:
        """Local ranks of the members among ``world_ranks`` (others skipped)."""
        return {self._local_of[w] for w in world_ranks if w in self._local_of}

    def __contains__(self, world_rank: int) -> bool:
        return world_rank in self._local_of

    def runtime(self, local: int) -> RankRuntime:
        return self.world.ranks[self.ranks[local]]

    # -- topology-driven splits (Section 3.1 baseline) -------------------------

    def split_by_level(self, level: CommLevel) -> dict[tuple, "Communicator"]:
        """Partition into sub-communicators of ranks sharing a ``level`` group."""
        groups: dict[tuple, list[int]] = {}
        topo = self.world.topology
        for w in self.ranks:
            groups.setdefault(topo.group_key(w, level), []).append(w)
        return {key: Communicator(self.world, ranks) for key, ranks in groups.items()}

    def leaders_comm(self, level: CommLevel) -> "Communicator":
        """Communicator of the first rank of each ``level`` group."""
        seen: dict[tuple, int] = {}
        topo = self.world.topology
        for w in self.ranks:
            key = topo.group_key(w, level)
            if key not in seen:
                seen[key] = w
        return Communicator(self.world, sorted(seen.values()))
