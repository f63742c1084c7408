"""Credit-based flow-control bookkeeping.

Each router output port keeps one credit counter per downstream virtual
channel.  A credit is consumed when a flit is sent into that VC and released
when the downstream router drains the flit from its input buffer.  The
:class:`CreditBook` class centralises that bookkeeping so it can be unit- and
property-tested independently of the router pipeline.
"""

from __future__ import annotations

from repro.noc.topology import Direction


class CreditBook:
    """Per-(output port, virtual channel) credit counters for one router."""

    def __init__(self, ports: list[Direction], num_vcs: int, depth: int) -> None:
        if num_vcs < 1:
            raise ValueError("need at least one virtual channel")
        if depth < 1:
            raise ValueError("buffer depth must be at least one flit")
        self._depth = depth
        self._ports = list(ports)
        # Indexed by the Direction value; ``None`` for ports not listed.
        self._credits: list[list[int] | None] = [None] * len(Direction)
        for port in ports:
            self._credits[port] = [depth] * num_vcs

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def levels(self) -> list[list[int] | None]:
        """The live credit counter lists (shared, not a copy), indexed by
        the ``Direction`` value, ``None`` for ports the book does not cover.

        The router pipeline and the network's credit return read and update
        these lists in place on the per-flit hot path, with the same
        underflow/overflow checks as :meth:`consume` / :meth:`release`.
        """
        return self._credits

    def available(self, port: Direction, vc: int) -> int:
        """Number of free downstream buffer slots for ``(port, vc)``."""
        return self._credits[port][vc]

    def total_available(self, port: Direction) -> int:
        """Free downstream slots summed over all VCs of ``port``."""
        return sum(self._credits[port])

    def has_credit(self, port: Direction, vc: int) -> bool:
        return self._credits[port][vc] > 0

    def consume(self, port: Direction, vc: int) -> None:
        """Spend one credit when a flit is sent downstream."""
        if self._credits[port][vc] <= 0:
            raise RuntimeError(f"credit underflow on port {port.name} vc {vc}")
        self._credits[port][vc] -= 1

    def release(self, port: Direction, vc: int) -> None:
        """Return one credit when the downstream buffer drains a flit."""
        if self._credits[port][vc] >= self._depth:
            raise RuntimeError(f"credit overflow on port {port.name} vc {vc}")
        self._credits[port][vc] += 1

    def ports(self) -> list[Direction]:
        return list(self._ports)
