"""Inter-router links.

A link connects one router's output port to the neighbouring router's input
port.  In this simulator a link has single-cycle latency at full frequency;
its main role is utilisation accounting, which feeds both the energy model
and the congestion features observed by the RL controller.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.topology import Direction


@dataclass
class Link:
    """A directed link ``src`` --(direction)--> ``dst``."""

    src: int
    direction: Direction
    dst: int
    #: Flits carried so far (counted by ``NoCModel.apply_movements``).
    traversals: int = 0

    def utilization(self, cycles: int) -> float:
        """Lifetime utilisation: flits carried per cycle (0..1 for 1-flit links)."""
        if cycles <= 0:
            return 0.0
        return self.traversals / cycles

    @property
    def key(self) -> tuple[int, int]:
        return (self.src, self.dst)
