"""Unit tests for mesh and torus topologies."""

from collections import deque

import pytest

from repro.noc.topology import CARDINAL_DIRECTIONS, Direction, Mesh, Torus


def bfs_distances(topology: Mesh, source: int) -> dict[int, int]:
    """Hop distance from ``source`` to every node reachable over links."""
    distances = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in topology.neighbors(node).values():
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                frontier.append(neighbor)
    return distances


def undirected_edges(topology: Mesh) -> set[frozenset[int]]:
    return {frozenset((src, dst)) for src, _direction, dst in topology.links()}


class TestDirection:
    def test_opposites_are_symmetric(self):
        for direction in Direction:
            assert direction.opposite.opposite is direction

    def test_local_is_its_own_opposite(self):
        assert Direction.LOCAL.opposite is Direction.LOCAL

    def test_cardinal_directions_exclude_local(self):
        assert Direction.LOCAL not in CARDINAL_DIRECTIONS
        assert len(CARDINAL_DIRECTIONS) == 4


class TestMeshGeometry:
    def test_node_count(self):
        assert Mesh(4, 4).num_nodes == 16
        assert Mesh(3, 5).num_nodes == 15

    def test_square_by_default(self):
        mesh = Mesh(5)
        assert mesh.width == 5 and mesh.height == 5

    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            Mesh(1, 4)
        with pytest.raises(ValueError):
            Mesh(4, 0)

    def test_coordinate_roundtrip(self):
        mesh = Mesh(4, 3)
        for node in mesh.nodes():
            coord = mesh.coordinates(node)
            assert mesh.node_at(coord.x, coord.y) == node

    def test_coordinates_out_of_range(self):
        mesh = Mesh(4, 4)
        with pytest.raises(ValueError):
            mesh.coordinates(16)
        with pytest.raises(ValueError):
            mesh.node_at(4, 0)

    def test_corner_coordinates(self):
        mesh = Mesh(4, 4)
        assert mesh.coordinates(0) == mesh.coordinates(0)
        assert (mesh.coordinates(0).x, mesh.coordinates(0).y) == (0, 0)
        assert (mesh.coordinates(15).x, mesh.coordinates(15).y) == (3, 3)


class TestMeshNeighbors:
    def test_interior_node_has_four_neighbors(self):
        mesh = Mesh(4, 4)
        node = mesh.node_at(1, 1)
        assert len(mesh.neighbors(node)) == 4

    def test_corner_node_has_two_neighbors(self):
        mesh = Mesh(4, 4)
        assert len(mesh.neighbors(0)) == 2
        assert len(mesh.neighbors(15)) == 2

    def test_edge_node_has_three_neighbors(self):
        mesh = Mesh(4, 4)
        edge = mesh.node_at(1, 0)
        assert len(mesh.neighbors(edge)) == 3

    def test_neighbor_directions_are_consistent(self):
        mesh = Mesh(4, 4)
        node = mesh.node_at(2, 2)
        assert mesh.neighbor(node, Direction.EAST) == mesh.node_at(3, 2)
        assert mesh.neighbor(node, Direction.WEST) == mesh.node_at(1, 2)
        assert mesh.neighbor(node, Direction.NORTH) == mesh.node_at(2, 3)
        assert mesh.neighbor(node, Direction.SOUTH) == mesh.node_at(2, 1)

    def test_border_ports_face_off_chip(self):
        mesh = Mesh(4, 4)
        assert mesh.neighbor(0, Direction.WEST) is None
        assert mesh.neighbor(0, Direction.SOUTH) is None
        assert mesh.neighbor(15, Direction.EAST) is None
        assert mesh.neighbor(15, Direction.NORTH) is None

    def test_local_neighbor_is_self(self):
        mesh = Mesh(3, 3)
        for node in mesh.nodes():
            assert mesh.neighbor(node, Direction.LOCAL) == node

    def test_direction_towards_adjacent(self):
        mesh = Mesh(4, 4)
        assert mesh.direction_towards(0, 1) is Direction.EAST
        assert mesh.direction_towards(1, 0) is Direction.WEST
        assert mesh.direction_towards(0, 4) is Direction.NORTH

    def test_direction_towards_non_adjacent_raises(self):
        mesh = Mesh(4, 4)
        with pytest.raises(ValueError):
            mesh.direction_towards(0, 5)

    def test_neighbor_relation_is_symmetric(self):
        mesh = Mesh(5, 3)
        for node in mesh.nodes():
            for direction, other in mesh.neighbors(node).items():
                assert mesh.neighbor(other, direction.opposite) == node


class TestMeshDistances:
    def test_hop_distance_manhattan(self):
        mesh = Mesh(4, 4)
        assert mesh.hop_distance(0, 15) == 6
        assert mesh.hop_distance(0, 3) == 3
        assert mesh.hop_distance(5, 5) == 0

    def test_diameter(self):
        assert Mesh(4, 4).diameter() == 6
        assert Mesh(8, 8).diameter() == 14

    def test_average_hop_distance_matches_graph(self):
        mesh = Mesh(3, 3)
        lengths = {node: bfs_distances(mesh, node) for node in mesh.nodes()}
        total = sum(
            lengths[a][b] for a in mesh.nodes() for b in mesh.nodes() if a != b
        )
        expected = total / (mesh.num_nodes * (mesh.num_nodes - 1))
        assert mesh.average_hop_distance() == pytest.approx(expected)


class TestMeshGraph:
    def test_graph_is_connected_with_expected_edges(self):
        mesh = Mesh(4, 4)
        assert len(bfs_distances(mesh, 0)) == mesh.num_nodes
        # 2 * w * h - w - h bidirectional edges in a mesh
        assert len(undirected_edges(mesh)) == 2 * 4 * 4 - 4 - 4

    @pytest.mark.parametrize("topology", [Mesh(4, 4), Mesh(5, 3), Torus(4, 4), Torus(5, 3)])
    def test_diameter_matches_bfs(self, topology):
        eccentricities = [
            max(bfs_distances(topology, node).values()) for node in topology.nodes()
        ]
        assert topology.diameter() == max(eccentricities)

    def test_links_are_directed_pairs(self):
        mesh = Mesh(3, 3)
        links = mesh.links()
        assert len(links) == 2 * (2 * 3 * 3 - 3 - 3)
        assert all(mesh.neighbor(src, direction) == dst for src, direction, dst in links)


class TestTorus:
    def test_wraparound_neighbors(self):
        torus = Torus(4, 4)
        west_of_origin = torus.neighbor(0, Direction.WEST)
        assert west_of_origin == torus.node_at(3, 0)
        south_of_origin = torus.neighbor(0, Direction.SOUTH)
        assert south_of_origin == torus.node_at(0, 3)

    def test_every_node_has_four_neighbors(self):
        torus = Torus(4, 4)
        for node in torus.nodes():
            assert len(torus.neighbors(node)) == 4

    def test_hop_distance_uses_wraparound(self):
        torus = Torus(4, 4)
        assert torus.hop_distance(0, 3) == 1
        assert torus.hop_distance(0, 15) == 2

    def test_diameter_smaller_than_mesh(self):
        assert Torus(4, 4).diameter() < Mesh(4, 4).diameter()

    def test_graph_is_regular(self):
        torus = Torus(4, 4)
        edges = undirected_edges(torus)
        assert all(
            sum(node in edge for edge in edges) == 4 for node in torus.nodes()
        )
