"""Input-buffered virtual-channel wormhole router.

The router implements the canonical four-stage pipeline collapsed into a
single simulator cycle:

1. **RC** (route computation) — the head flit at the front of an idle input
   VC computes its candidate output ports via the configured routing
   algorithm and a selection policy picks one;
2. **VA** (virtual-channel allocation) — the packet claims a free virtual
   channel on the chosen output port; the VC is held until the tail flit
   leaves (wormhole switching);
3. **SA** (switch allocation) — per output port, a round-robin arbiter grants
   the crossbar to one requesting input VC, subject to one flit per input
   port per cycle and credit availability;
4. **ST/LT** (switch & link traversal) — the winning flit is removed from its
   input buffer and handed to the network, which delivers it to the
   downstream router (or ejects it) at the end of the cycle.

DVFS is modelled with a clock divider: a router at divider ``d`` only runs
the pipeline on cycles where ``cycle % d == 0``.

State layout
------------
The router keeps its state in flat lists of ints and flits, not in
per-VC objects, so that a flit hop costs a few list operations.

* Per input VC, indexed by *slot*: VC ``v`` of input port ``i`` of
  :attr:`Router.input_ports` (``[LOCAL]`` then the neighbour ports in
  ascending :class:`Direction` order) is slot ``i * num_vcs + v``.  Slot
  order is the static scan order that VC allocation and switch
  arbitration follow.

  - ``buffers[slot]``: the flit FIFO;
  - ``route[slot]``: the output port the packet at the front was routed
    to, or ``None`` while route computation is pending (the VC is idle);
  - ``out_vc[slot]``: the output VC allocated to that packet (``0`` when
    it is ejected at ``LOCAL``), or ``-1`` while VC allocation is pending;
  - ``occupied``: the set of slots whose buffers hold flits.

* Per output port, indexed by the ``Direction`` value (``LOCAL == 0``):

  - ``credit_levels[port][vc]``: free slots in the downstream buffer
    (the live lists of the router's :class:`CreditBook`);
  - ``vc_held[port][vc]``: whether a packet holds that output VC;
  - ``rr_pointer[port]``: the port's round-robin switch arbiter, as the
    slot its next search starts from;
  - ``port_blocked[port]``: the outgoing link has failed;
  - ``out_links``, ``downstream_slot``, ``upstream_credits``: wiring to
    the neighbours, filled in by :meth:`Router.connect`.

A *movement* is a plain tuple
``(flit, src_node, in_port, in_vc, out_port, out_vc, dst_node)``.
``dst_node`` is ``None`` for an ejection at the local NI.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable

from repro.noc.dvfs import OperatingPoint
from repro.noc.flow_control import CreditBook
from repro.noc.link import Link
from repro.noc.packet import Flit
from repro.noc.power import PowerModel
from repro.noc.routing import RoutingAlgorithm, SelectionPolicy
from repro.noc.topology import Direction, Mesh

#: ``(flit, src_node, in_port, in_vc, out_port, out_vc, dst_node)``: one
#: flit leaving a router in one cycle, for the network to apply.
Movement = tuple[Flit, int, Direction, int, Direction, int, "int | None"]

LOCAL = Direction.LOCAL
_NUM_PORTS = len(Direction)


class Router:
    """One NoC router attached to node ``node`` of ``topology``."""

    #: Optional observer invoked whenever :meth:`set_operating_point` changes
    #: the DVFS level; the simulator uses it to invalidate its cached leakage
    #: increment schedule without re-scanning every router every cycle.
    #: Operating-point changes must go through :meth:`set_operating_point`.
    on_operating_point_change: "Callable[[], None] | None" = None

    def __init__(
        self,
        node: int,
        topology: Mesh,
        *,
        num_vcs: int = 2,
        buffer_depth: int = 4,
        routing: RoutingAlgorithm,
        selection: SelectionPolicy = SelectionPolicy.MOST_CREDITS,
        operating_point: OperatingPoint,
        power: PowerModel,
        rng: random.Random | None = None,
    ) -> None:
        if num_vcs < 1:
            raise ValueError("routers need at least one virtual channel")
        if buffer_depth < 1:
            raise ValueError("buffer depth must be at least one flit")
        self.node = node
        self.topology = topology
        self.num_vcs = num_vcs
        self.enabled_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.routing = routing
        self.selection = selection
        self.power = power
        self._rng = rng or random.Random(node)

        neighbors = topology.neighbors(node)
        self.input_ports: list[Direction] = [LOCAL] + list(neighbors)
        self.output_ports: list[Direction] = list(self.input_ports)
        self._routable_ports = frozenset(neighbors)
        self.neighbor_node: list[int | None] = [None] * _NUM_PORTS
        for port, neighbor in neighbors.items():
            self.neighbor_node[port] = neighbor

        # Per input VC (see the module docstring for the slot layout).
        self.num_slots = len(self.input_ports) * num_vcs
        self.slot_base: list[int | None] = [None] * _NUM_PORTS
        for index, port in enumerate(self.input_ports):
            self.slot_base[port] = index * num_vcs
        self.slot_port: list[Direction] = [
            port for port in self.input_ports for _ in range(num_vcs)
        ]
        self.buffers: list[deque[Flit]] = [deque() for _ in range(self.num_slots)]
        self.route: list[Direction | None] = [None] * self.num_slots
        self.out_vc: list[int] = [-1] * self.num_slots
        self.occupied: set[int] = set()
        self.buffered_flits = 0

        # Per output port.
        self.credits = CreditBook(list(neighbors), num_vcs, buffer_depth)
        self.credit_levels = self.credits.levels
        self.vc_held: list[list[bool] | None] = [None] * _NUM_PORTS
        for port in neighbors:
            self.vc_held[port] = [False] * num_vcs
        self.rr_pointer = [0] * _NUM_PORTS
        self.port_blocked = [False] * _NUM_PORTS
        self.out_links: list[Link | None] = [None] * _NUM_PORTS
        self.downstream_slot: list[int | None] = [None] * _NUM_PORTS
        self.upstream_credits: list[list[int] | None] = [None] * _NUM_PORTS

        self._adopt_operating_point(operating_point)

    def connect(self, port: Direction, neighbor: "Router", link: Link) -> None:
        """Wire output ``port`` to ``neighbor`` over ``link``.

        Records where a flit sent on ``port`` lands (the neighbour's slot
        base for the facing input port) and which credit counters a flit
        leaving this router's ``port`` input returns a credit to (the
        neighbour's counters for its facing output port).
        """
        facing = port.opposite
        self.out_links[port] = link
        self.downstream_slot[port] = neighbor.slot_base[facing]
        self.upstream_credits[port] = neighbor.credit_levels[facing]

    # -- configuration knobs (the self-configuration surface) ------------------

    def _adopt_operating_point(self, point: OperatingPoint) -> None:
        self.operating_point = point
        self.divider = point.divider
        (self.read_pj, self.crossbar_pj, self.link_pj, self.write_pj) = (
            self.power.flit_energies(point)
        )

    def set_operating_point(self, point: OperatingPoint) -> None:
        self._adopt_operating_point(point)
        if self.on_operating_point_change is not None:
            self.on_operating_point_change()

    def set_routing(self, routing: RoutingAlgorithm) -> None:
        self.routing = routing

    def set_selection(self, selection: SelectionPolicy) -> None:
        self.selection = selection

    @staticmethod
    def validate_enabled_vcs(count: int, num_vcs: int) -> None:
        """Raise ``ValueError`` unless ``1 <= count <= num_vcs``.

        Shared with :meth:`NoCSimulator.set_enabled_vcs`, which validates the
        count once up front so a bad value cannot leave half the routers
        reconfigured when the exception propagates.
        """
        if not 1 <= count <= num_vcs:
            raise ValueError(f"enabled VC count must be in [1, {num_vcs}]")

    def set_enabled_vcs(self, count: int) -> None:
        self.validate_enabled_vcs(count, self.num_vcs)
        self.enabled_vcs = count

    def block_port(self, port: Direction) -> None:
        """Fail the outgoing link on ``port`` (fault-injection hook)."""
        self.port_blocked[port] = True

    def unblock_port(self, port: Direction) -> None:
        self.port_blocked[port] = False

    # -- flit ingress ------------------------------------------------------------

    def slot(self, port: Direction, vc: int) -> int:
        """The slot index of input VC ``vc`` on ``port``."""
        return self.slot_base[port] + vc

    def can_accept(self, port: Direction, vc: int) -> bool:
        return len(self.buffers[self.slot(port, vc)]) < self.buffer_depth

    def receive_flit(self, port: Direction, vc: int, flit: Flit) -> None:
        slot = self.slot(port, vc)
        buffer = self.buffers[slot]
        if len(buffer) >= self.buffer_depth:
            raise RuntimeError(
                f"buffer overflow at node {self.node} port {port.name} vc {vc}"
            )
        if not buffer:
            self.occupied.add(slot)
        buffer.append(flit)
        self.buffered_flits += 1

    def occupancy(self) -> int:
        """Total flits buffered across all input VCs."""
        return self.buffered_flits

    # -- pipeline ---------------------------------------------------------------

    def step(self, cycle: int) -> list[Movement]:
        """Run one router cycle; return the flit movements to apply."""
        movements: list[Movement] = []
        if self.buffered_flits and not cycle % self.divider:
            self.step_into(movements)
        return movements

    def step_into(self, movements: list[Movement]) -> None:
        """Run the pipeline, appending movements to a caller-owned list.

        Precondition: the router holds buffered flits and the current cycle
        is clock active (:meth:`step` and the simulator's router loop check
        both).

        With one occupied VC (the common case below saturation) the VC is
        the only requester of its output port, so RC, VA and SA reduce to a
        few list reads: no sorting, no grouping by port and no arbitration
        scan.  The switch-traversal stage after them is shared.
        """
        occupied = self.occupied
        route = self.route
        out_vcs = self.out_vc
        if len(occupied) == 1:
            (slot,) = occupied
            port = route[slot]
            if port is None:
                port = route[slot] = self._compute_route(slot)
            out_vc = out_vcs[slot]
            if out_vc < 0:
                out_vc = self._allocate_output_vc(slot, port)
                if out_vc < 0:
                    return
            if self.port_blocked[port]:
                return
            if port is not LOCAL and self.credit_levels[port][out_vc] <= 0:
                return
            # A lone requester always wins; the pointer moves just past it.
            self.rr_pointer[port] = (slot + 1) % self.num_slots
            grants = ((slot, port, out_vc),)
        else:
            grants = self._allocate(sorted(occupied))

        buffers = self.buffers
        energy = self.power.energy
        for slot, port, out_vc in grants:
            buffer = buffers[slot]
            flit = buffer.popleft()
            if not buffer:
                occupied.discard(slot)
            self.buffered_flits -= 1
            energy.buffer_pj += self.read_pj
            energy.crossbar_pj += self.crossbar_pj
            if port is LOCAL:
                dst_node = None
            else:
                energy.link_pj += self.link_pj
                levels = self.credit_levels[port]
                if levels[out_vc] <= 0:
                    raise RuntimeError(
                        f"credit underflow on port {port.name} vc {out_vc}"
                    )
                levels[out_vc] -= 1
                dst_node = self.neighbor_node[port]
                if flit.is_tail:
                    self.vc_held[port][out_vc] = False
            if flit.is_tail:
                route[slot] = None
                out_vcs[slot] = -1
            movements.append(
                (flit, self.node, self.slot_port[slot], slot % self.num_vcs,
                 port, out_vc, dst_node)
            )

    def _allocate(self, slots: list[int]) -> list[tuple[int, Direction, int]]:
        """RC, VA and SA over several occupied ``slots`` (ascending).

        Returns the ``(slot, out_port, out_vc)`` grants in output-port order:
        at most one per output port and one per input port, each to a VC
        whose downstream buffer has space.
        """
        route = self.route
        out_vcs = self.out_vc
        for slot in slots:
            port = route[slot]
            if port is None:
                port = route[slot] = self._compute_route(slot)
            if out_vcs[slot] < 0:
                self._allocate_output_vc(slot, port)
        requests: dict[Direction, list[int]] = {}
        for slot in slots:
            if out_vcs[slot] >= 0:
                requests.setdefault(route[slot], []).append(slot)
        grants: list[tuple[int, Direction, int]] = []
        blocked = self.port_blocked
        levels = self.credit_levels
        num_vcs = self.num_vcs
        used_inputs: set[int] = set()
        # Requests were grouped in slot order, so each list is ascending; a
        # VC requests one port, so a grant never changes another port's
        # candidates and the ports can be served one after another.
        for port in sorted(requests):
            if blocked[port]:
                continue
            if port is LOCAL:
                eligible = [
                    slot for slot in requests[port] if slot // num_vcs not in used_inputs
                ]
            else:
                credit = levels[port]
                eligible = [
                    slot
                    for slot in requests[port]
                    if slot // num_vcs not in used_inputs and credit[out_vcs[slot]] > 0
                ]
            if not eligible:
                continue
            # Round robin: the first eligible slot at or after the pointer,
            # wrapping around to the lowest one.
            pointer = self.rr_pointer[port]
            winner = eligible[0]
            if winner < pointer:
                for slot in eligible:
                    if slot >= pointer:
                        winner = slot
                        break
            self.rr_pointer[port] = (winner + 1) % self.num_slots
            used_inputs.add(winner // num_vcs)
            grants.append((winner, port, out_vcs[winner]))
        return grants

    def _compute_route(self, slot: int) -> Direction:
        head = self.buffers[slot][0]
        if not head.is_head:
            raise RuntimeError(
                f"flit ordering violated at node {self.node}: "
                f"expected head flit, found {head.flit_type}"
            )
        candidates = self.routing(self.topology, self.node, head.src, head.dst)
        if not candidates:
            raise RuntimeError(
                f"routing returned no candidates at node {self.node} for {head!r}"
            )
        if LOCAL in candidates:
            return LOCAL
        usable = [c for c in candidates if c in self._routable_ports]
        if not usable:
            raise RuntimeError(
                f"routing produced off-chip candidates {candidates} at node {self.node}"
            )
        unblocked = [c for c in usable if not self.port_blocked[c]]
        if unblocked:
            usable = unblocked
        return self._select_output(usable)

    def _select_output(self, candidates: list[Direction]) -> Direction:
        if len(candidates) == 1 or self.selection is SelectionPolicy.FIRST:
            return candidates[0]
        if self.selection is SelectionPolicy.RANDOM:
            return self._rng.choice(candidates)
        # MOST_CREDITS: prefer the least congested downstream port.
        return max(candidates, key=lambda port: (self.credits.total_available(port), -port))

    def _allocate_output_vc(self, slot: int, port: Direction) -> int:
        """Claim the lowest free enabled output VC on ``port`` for ``slot``;
        return it, or ``-1`` when none is free (retried on a later cycle)."""
        if port is LOCAL:
            self.out_vc[slot] = 0
            return 0
        held = self.vc_held[port]
        for out_vc in range(self.enabled_vcs):
            if not held[out_vc]:
                held[out_vc] = True
                self.out_vc[slot] = out_vc
                return out_vc
        return -1

    # -- introspection --------------------------------------------------------------

    def free_input_vc(self, port: Direction) -> int | None:
        """Index of an idle, empty, enabled input VC on ``port`` (for injection)."""
        base = self.slot_base[port]
        for vc in range(self.enabled_vcs):
            slot = base + vc
            if self.route[slot] is None and not self.buffers[slot]:
                return vc
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Router(node={self.node}, buffered={self.buffered_flits}, "
            f"op={self.operating_point.name})"
        )


__all__ = ["Movement", "Router"]
