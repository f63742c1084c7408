"""Unit tests for the VC wormhole router in isolation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.dvfs import DVFS_LEVELS_DEFAULT
from repro.noc.packet import Packet
from repro.noc.power import PowerModel
from repro.noc.router import Router
from repro.noc.routing import SelectionPolicy, get_routing_algorithm
from repro.noc.topology import Direction, Mesh

MESH = Mesh(4, 4)
FULL_SPEED = DVFS_LEVELS_DEFAULT[0]
QUARTER_SPEED = DVFS_LEVELS_DEFAULT[-1]


def make_router(node: int = 5, **kwargs) -> Router:
    defaults = dict(
        num_vcs=2,
        buffer_depth=4,
        routing=get_routing_algorithm("xy"),
        selection=SelectionPolicy.FIRST,
        operating_point=FULL_SPEED,
        power=PowerModel(),
    )
    defaults.update(kwargs)
    return Router(node, MESH, **defaults)


def load_packet(router: Router, packet: Packet, port: Direction = Direction.LOCAL, vc: int = 0):
    for flit in packet.flits():
        router.receive_flit(port, vc, flit)


class TestConstruction:
    def test_interior_router_has_five_ports(self):
        router = make_router(node=MESH.node_at(1, 1))
        assert len(router.input_ports) == 5
        assert Direction.LOCAL in router.input_ports

    def test_corner_router_has_three_ports(self):
        router = make_router(node=0)
        assert len(router.input_ports) == 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_router(num_vcs=0)
        with pytest.raises(ValueError):
            make_router(buffer_depth=0)


class TestIngress:
    def test_receive_respects_buffer_depth(self):
        router = make_router(buffer_depth=2)
        packet = Packet(src=5, dst=6, size=2, creation_cycle=0)
        load_packet(router, packet)
        assert router.buffered_flits == 2
        assert not router.can_accept(Direction.LOCAL, 0)
        extra = Packet(src=5, dst=6, size=1, creation_cycle=0)
        with pytest.raises(RuntimeError, match="overflow"):
            router.receive_flit(Direction.LOCAL, 0, extra.flits()[0])

    def test_free_input_vc_skips_busy_vcs(self):
        router = make_router()
        assert router.free_input_vc(Direction.LOCAL) == 0
        packet = Packet(src=5, dst=6, size=1, creation_cycle=0)
        router.receive_flit(Direction.LOCAL, 0, packet.flits()[0])
        assert router.free_input_vc(Direction.LOCAL) == 1

    def test_free_input_vc_respects_enabled_count(self):
        router = make_router(num_vcs=2)
        router.set_enabled_vcs(1)
        packet = Packet(src=5, dst=6, size=1, creation_cycle=0)
        router.receive_flit(Direction.LOCAL, 0, packet.flits()[0])
        assert router.free_input_vc(Direction.LOCAL) is None


class TestPipeline:
    def test_single_packet_traverses_towards_destination(self):
        router = make_router(node=5)
        packet = Packet(src=5, dst=7, size=1, creation_cycle=0)  # two hops east
        load_packet(router, packet)
        movements = router.step(0)
        assert len(movements) == 1
        _flit, src, in_port, _in_vc, out_port, _out_vc, dst_node = movements[0]
        assert (src, in_port) == (5, Direction.LOCAL)
        assert out_port is Direction.EAST
        assert dst_node == 6
        assert router.buffered_flits == 0

    def test_packet_for_local_node_is_ejected(self):
        router = make_router(node=5)
        packet = Packet(src=1, dst=5, size=1, creation_cycle=0)
        load_packet(router, packet, port=Direction.SOUTH)
        movements = router.step(0)
        assert len(movements) == 1
        _flit, _src, in_port, _in_vc, out_port, _out_vc, dst_node = movements[0]
        assert in_port is Direction.SOUTH
        assert out_port is Direction.LOCAL
        assert dst_node is None

    def test_one_flit_per_cycle_per_output(self):
        router = make_router(node=5)
        packet = Packet(src=5, dst=7, size=3, creation_cycle=0)
        load_packet(router, packet)
        total_moves = []
        for cycle in range(5):
            total_moves.extend(router.step(cycle))
        assert len(total_moves) == 3
        assert all(move[4] is Direction.EAST for move in total_moves)

    def test_wormhole_holds_output_vc_until_tail(self):
        router = make_router(node=5, num_vcs=2)
        first = Packet(src=5, dst=7, size=3, creation_cycle=0)
        second = Packet(src=1, dst=7, size=1, creation_cycle=0)
        load_packet(router, first, port=Direction.LOCAL, vc=0)
        load_packet(router, second, port=Direction.SOUTH, vc=0)
        router.step(0)
        # Both packets request EAST; they must use *different* output VCs
        # because the first holds its VC until the tail flit departs.
        local_vc = router.out_vc[router.slot(Direction.LOCAL, 0)]
        south_vc = router.out_vc[router.slot(Direction.SOUTH, 0)]
        assert local_vc != south_vc

    def test_vc_state_returns_to_idle_after_tail(self):
        router = make_router(node=5)
        packet = Packet(src=5, dst=6, size=2, creation_cycle=0)
        load_packet(router, packet)
        for cycle in range(3):
            router.step(cycle)
        slot = router.slot(Direction.LOCAL, 0)
        assert router.route[slot] is None  # idle: route computation pending
        assert router.out_vc[slot] == -1
        assert router.buffered_flits == 0

    def test_credit_exhaustion_blocks_traversal(self):
        router = make_router(node=5, buffer_depth=4)
        # Pretend the downstream buffer already holds two flits on every VC,
        # leaving only two credits for this packet's output VC.
        for vc in range(router.num_vcs):
            router.credits.consume(Direction.EAST, vc)
            router.credits.consume(Direction.EAST, vc)
        packet = Packet(src=5, dst=7, size=4, creation_cycle=0)
        load_packet(router, packet)
        moves = []
        for cycle in range(6):
            moves.extend(router.step(cycle))
        # Only the two remaining credits worth of flits can leave.
        assert len(moves) == 2
        out_vc = moves[0][5]
        router.credits.release(Direction.EAST, out_vc)
        moves.extend(router.step(6))
        assert len(moves) == 3

    def test_dvfs_divider_gates_pipeline(self):
        router = make_router(node=5, operating_point=QUARTER_SPEED)
        packet = Packet(src=5, dst=6, size=1, creation_cycle=0)
        load_packet(router, packet)
        assert router.step(1) == []  # inactive cycle
        assert router.step(2) == []
        assert len(router.step(4)) == 1  # divider-4 active cycle

    def test_blocked_port_prevents_traversal(self):
        router = make_router(node=5)
        router.block_port(Direction.EAST)
        packet = Packet(src=5, dst=6, size=1, creation_cycle=0)  # needs EAST
        load_packet(router, packet)
        for cycle in range(3):
            assert router.step(cycle) == []

    def test_adaptive_routing_avoids_blocked_port_when_possible(self):
        router = make_router(node=5, routing=get_routing_algorithm("west_first"))
        router.block_port(Direction.EAST)
        # Destination north-east: west-first allows EAST or NORTH; EAST is
        # blocked so the router must pick NORTH.
        packet = Packet(src=5, dst=10, size=1, creation_cycle=0)
        load_packet(router, packet)
        movements = router.step(0)
        assert len(movements) == 1
        assert movements[0][4] is Direction.NORTH

    def test_head_flit_required_at_front(self):
        router = make_router(node=5)
        packet = Packet(src=5, dst=6, size=3, creation_cycle=0)
        body_only = packet.flits()[1]
        router.receive_flit(Direction.LOCAL, 0, body_only)
        with pytest.raises(RuntimeError, match="ordering"):
            router.step(0)


class TestSelectionPolicies:
    def test_most_credits_prefers_uncongested_port(self):
        router = make_router(
            node=5,
            routing=get_routing_algorithm("west_first"),
            selection=SelectionPolicy.MOST_CREDITS,
        )
        # Drain credits on EAST so NORTH looks better for a north-east packet.
        for vc in range(router.num_vcs):
            for _ in range(router.buffer_depth):
                router.credits.consume(Direction.EAST, vc)
        packet = Packet(src=5, dst=10, size=1, creation_cycle=0)
        load_packet(router, packet)
        movements = router.step(0)
        assert movements and movements[0][4] is Direction.NORTH

    def test_configuration_setters(self):
        router = make_router()
        router.set_routing(get_routing_algorithm("odd_even"))
        router.set_selection(SelectionPolicy.RANDOM)
        router.set_operating_point(QUARTER_SPEED)
        assert router.operating_point is QUARTER_SPEED
        with pytest.raises(ValueError):
            router.set_enabled_vcs(0)
        with pytest.raises(ValueError):
            router.set_enabled_vcs(router.num_vcs + 1)


ARBITRATED_NODE = 5
REQUEST_FLITS = 12


def contended_router(requesters, num_vcs: int = 2) -> Router:
    """A router whose input VCs ``requesters`` each hold a long packet
    addressed to the router itself.

    Every requester asks for the LOCAL output port, never runs out of
    credits and keeps requesting for ``REQUEST_FLITS`` cycles, so exactly
    one flit leaves per cycle and the grant order is the switch arbiter's
    alone.
    """
    router = make_router(node=ARBITRATED_NODE, num_vcs=num_vcs, buffer_depth=REQUEST_FLITS)
    for port, vc in requesters:
        packet = Packet(src=0, dst=ARBITRATED_NODE, size=REQUEST_FLITS, creation_cycle=0)
        load_packet(router, packet, port=port, vc=vc)
    return router


def local_grants(router: Router, cycles: int) -> list[tuple[Direction, int]]:
    """The ``(in_port, in_vc)`` granted the LOCAL port on each cycle."""
    granted = []
    for cycle in range(cycles):
        movements = router.step(cycle)
        assert len(movements) == 1
        _flit, _src, in_port, in_vc, out_port, _out_vc, _dst = movements[0]
        assert out_port is Direction.LOCAL
        granted.append((in_port, in_vc))
    return granted


class TestSwitchArbitration:
    """The per-output-port round-robin switch arbiter."""

    def test_single_requester_always_wins(self):
        router = contended_router([(Direction.EAST, 1)])
        assert local_grants(router, 5) == [(Direction.EAST, 1)] * 5

    def test_full_contention_rotates_in_slot_order(self):
        requesters = [(port, vc) for port in Direction for vc in range(2)]
        router = contended_router(requesters)
        assert local_grants(router, 2 * len(requesters)) == requesters * 2

    def test_pointer_advances_past_winner(self):
        requesters = [(Direction.LOCAL, 0), (Direction.EAST, 1)]
        router = contended_router(requesters)
        assert local_grants(router, 4) == requesters * 2

    def test_partial_contention_does_not_starve(self):
        requesters = [(Direction.NORTH, 0), (Direction.WEST, 1)]
        router = contended_router(requesters)
        granted = local_grants(router, 6)
        assert granted.count(requesters[0]) == granted.count(requesters[1]) == 3


@settings(max_examples=100, deadline=None)
@given(
    num_vcs=st.integers(min_value=1, max_value=3),
    rounds=st.integers(min_value=1, max_value=REQUEST_FLITS),
    data=st.data(),
)
def test_round_robin_fairness_property(num_vcs, rounds, data):
    """No input VC is granted twice before every other persistent requester
    of the same output port is granted once (bounded waiting)."""
    universe = [(port, vc) for port in Direction for vc in range(num_vcs)]
    persistent = data.draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=len(universe), unique=True)
    )
    granted = local_grants(contended_router(persistent, num_vcs=num_vcs), rounds)
    assert all(grant in persistent for grant in granted)
    counts = {key: granted.count(key) for key in persistent}
    assert max(counts.values()) - min(counts.values()) <= 1


class TestTraversalEnergy:
    def test_hop_adds_precomputed_flit_energies(self):
        router = make_router(node=5, operating_point=QUARTER_SPEED)
        load_packet(router, Packet(src=5, dst=6, size=1, creation_cycle=0))
        router.step(0)
        read, crossbar, link, _write = router.power.flit_energies(QUARTER_SPEED)
        energy = router.power.energy
        assert (energy.buffer_pj, energy.crossbar_pj, energy.link_pj) == (read, crossbar, link)

    def test_operating_point_change_refreshes_energies(self):
        router = make_router()
        router.set_operating_point(QUARTER_SPEED)
        assert router.divider == QUARTER_SPEED.divider
        assert (router.read_pj, router.crossbar_pj, router.link_pj, router.write_pj) == (
            router.power.flit_energies(QUARTER_SPEED)
        )
