"""NoC topologies.

A topology maps node identifiers to grid coordinates and answers neighbour
queries per :class:`Direction`.  Meshes and tori are the topologies used by
the DRL-for-NoC literature; both are provided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator


class Direction(IntEnum):
    """Router port directions.

    ``LOCAL`` is the processing-element (NI) port; the four cardinal
    directions connect to neighbouring routers.
    """

    LOCAL = 0
    NORTH = 1
    SOUTH = 2
    EAST = 3
    WEST = 4

    @property
    def opposite(self) -> "Direction":
        """Return the port on the far end of a link leaving this port."""
        return _OPPOSITE[self]


# Indexed by Direction value (hot-path lookup, cheaper than a dict).
_OPPOSITE = (
    Direction.LOCAL,
    Direction.SOUTH,
    Direction.NORTH,
    Direction.WEST,
    Direction.EAST,
)

#: Cardinal (non-local) directions in a fixed iteration order.
CARDINAL_DIRECTIONS = (
    Direction.NORTH,
    Direction.SOUTH,
    Direction.EAST,
    Direction.WEST,
)


@dataclass(frozen=True)
class Coordinate:
    """(x, y) position of a node on the grid; x grows east, y grows north."""

    x: int
    y: int


class Mesh:
    """A 2-D mesh topology of ``width`` x ``height`` routers.

    Node ``i`` sits at ``(i % width, i // width)``.  Border routers simply
    lack neighbours in the off-chip directions.
    """

    def __init__(self, width: int, height: int | None = None) -> None:
        if height is None:
            height = width
        if width < 2 or height < 2:
            raise ValueError("mesh dimensions must be at least 2x2")
        self.width = width
        self.height = height
        # The topology is immutable, so coordinate and neighbour queries are
        # precomputed tables rather than per-call arithmetic (they sit on the
        # simulator's per-flit hot path).
        self._coordinate_table = tuple(
            Coordinate(node % width, node // width) for node in range(width * height)
        )
        self._neighbor_table = tuple(
            tuple(self._compute_neighbor(node, direction) for direction in Direction)
            for node in range(width * height)
        )

    # -- basic geometry -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def nodes(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    def coordinates(self, node: int) -> Coordinate:
        self._check_node(node)
        return self._coordinate_table[node]

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinate ({x}, {y}) outside {self.width}x{self.height} grid")
        return y * self.width + x

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise ValueError(f"node {node} outside topology with {self.num_nodes} nodes")

    # -- neighbour queries ----------------------------------------------

    def neighbor(self, node: int, direction: Direction) -> int | None:
        """Return the node reached by leaving ``node`` through ``direction``.

        Returns ``None`` when the port faces off-chip (mesh border), and the
        node itself for ``Direction.LOCAL``.
        """
        self._check_node(node)
        return self._neighbor_table[node][direction]

    def _compute_neighbor(self, node: int, direction: Direction) -> int | None:
        """Uncached neighbour arithmetic used to build the lookup table."""
        coord = Coordinate(node % self.width, node // self.width)
        if direction is Direction.LOCAL:
            return node
        if direction is Direction.NORTH:
            return None if coord.y == self.height - 1 else self.node_at(coord.x, coord.y + 1)
        if direction is Direction.SOUTH:
            return None if coord.y == 0 else self.node_at(coord.x, coord.y - 1)
        if direction is Direction.EAST:
            return None if coord.x == self.width - 1 else self.node_at(coord.x + 1, coord.y)
        if direction is Direction.WEST:
            return None if coord.x == 0 else self.node_at(coord.x - 1, coord.y)
        raise ValueError(f"unknown direction {direction!r}")

    def neighbors(self, node: int) -> dict[Direction, int]:
        """Map of populated cardinal ports to neighbour node ids."""
        result = {}
        for direction in CARDINAL_DIRECTIONS:
            other = self.neighbor(node, direction)
            if other is not None:
                result[direction] = other
        return result

    def direction_towards(self, src: int, dst_neighbor: int) -> Direction:
        """Direction of the port on ``src`` that connects to ``dst_neighbor``."""
        for direction in CARDINAL_DIRECTIONS:
            if self.neighbor(src, direction) == dst_neighbor:
                return direction
        raise ValueError(f"{dst_neighbor} is not adjacent to {src}")

    # -- distances -------------------------------------------------------

    def hop_distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes."""
        a, b = self.coordinates(src), self.coordinates(dst)
        return abs(a.x - b.x) + abs(a.y - b.y)

    def average_hop_distance(self) -> float:
        """Mean minimal hop count over all ordered src != dst pairs."""
        total = 0
        count = 0
        for src in self.nodes():
            for dst in self.nodes():
                if src == dst:
                    continue
                total += self.hop_distance(src, dst)
                count += 1
        return total / count if count else 0.0

    def diameter(self) -> int:
        return self.hop_distance(0, self.num_nodes - 1)

    def links(self) -> list[tuple[int, Direction, int]]:
        """All directed links as ``(src, out_direction, dst)`` triples."""
        result = []
        for node in self.nodes():
            for direction, neighbor in self.neighbors(node).items():
                result.append((node, direction, neighbor))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.width}x{self.height})"


class Torus(Mesh):
    """A 2-D torus: a mesh whose rows and columns wrap around."""

    def _compute_neighbor(self, node: int, direction: Direction) -> int | None:
        coord = Coordinate(node % self.width, node // self.width)
        if direction is Direction.LOCAL:
            return node
        if direction is Direction.NORTH:
            return self.node_at(coord.x, (coord.y + 1) % self.height)
        if direction is Direction.SOUTH:
            return self.node_at(coord.x, (coord.y - 1) % self.height)
        if direction is Direction.EAST:
            return self.node_at((coord.x + 1) % self.width, coord.y)
        if direction is Direction.WEST:
            return self.node_at((coord.x - 1) % self.width, coord.y)
        raise ValueError(f"unknown direction {direction!r}")

    def hop_distance(self, src: int, dst: int) -> int:
        a, b = self.coordinates(src), self.coordinates(dst)
        dx = abs(a.x - b.x)
        dy = abs(a.y - b.y)
        return min(dx, self.width - dx) + min(dy, self.height - dy)

    def diameter(self) -> int:
        return self.width // 2 + self.height // 2
