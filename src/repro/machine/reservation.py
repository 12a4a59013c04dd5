"""Issue-slot reservation table.

Shared by the BUG assignment pass (Algorithm 2 reserves the slot it picked)
and by the list scheduler.  A cell counts how many of a cluster's issue slots
are taken in a given cycle; the table grows on demand.
"""

from __future__ import annotations

from repro.errors import ScheduleError


class ReservationTable:
    """Slot occupancy for ``n_clusters`` clusters of ``issue_width`` slots."""

    def __init__(self, n_clusters: int, issue_width: int) -> None:
        if n_clusters < 1 or issue_width < 1:
            raise ScheduleError("reservation table needs positive dimensions")
        self.n_clusters = n_clusters
        self.issue_width = issue_width
        self._used: dict[tuple[int, int], int] = {}

    def used(self, cycle: int, cluster: int) -> int:
        return self._used.get((cycle, cluster), 0)

    def has_free_slot(self, cycle: int, cluster: int) -> bool:
        self._check(cycle, cluster)
        return self.used(cycle, cluster) < self.issue_width

    def first_free_cycle(self, cluster: int, from_cycle: int) -> int:
        """Earliest cycle >= ``from_cycle`` with a free slot on ``cluster``."""
        cycle = max(0, from_cycle)
        while not self.has_free_slot(cycle, cluster):
            cycle += 1
        return cycle

    def reserve(self, cycle: int, cluster: int) -> int:
        """Take one slot; returns the slot index within the cycle."""
        self._check(cycle, cluster)
        key = (cycle, cluster)
        slot = self._used.get(key, 0)
        if slot >= self.issue_width:
            raise ScheduleError(
                f"cycle {cycle} cluster {cluster} is full ({self.issue_width} slots)"
            )
        self._used[key] = slot + 1
        return slot

    def _check(self, cycle: int, cluster: int) -> None:
        if cycle < 0:
            raise ScheduleError(f"negative cycle {cycle}")
        if not 0 <= cluster < self.n_clusters:
            raise ScheduleError(f"cluster {cluster} out of range")

    def max_cycle(self) -> int:
        """Highest cycle with any reservation (-1 when empty)."""
        return max((c for c, _ in self._used), default=-1)
