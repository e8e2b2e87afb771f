import random

import numpy as np
import pytest

from privzone import (
    Graph,
    GraphValidityError,
    betweenness,
    bfs_layers,
    build_graph,
    diameter,
    gen_rgg,
    induced_diameter,
    line_graph,
)

from oracles import brandes_per_source, naive_betweenness, random_connected_graph, relabelled


class TestBuildGraph:
    def test_path_graph(self):
        g = build_graph([(0, 1), (1, 2)])
        assert g.node_count == 3
        assert g.edges == ((0, 1), (1, 2))
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_duplicate_edges_collapse(self):
        g = build_graph([(0, 1), (1, 0), (1, 2)])
        assert g.edges == ((0, 1), (1, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidityError, match="self-loop"):
            build_graph([(0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(GraphValidityError, match="empty"):
            build_graph([])

    def test_negative_id_rejected(self):
        with pytest.raises(GraphValidityError, match="negative"):
            build_graph([(-1, 2)])

    def test_node_count_is_max_id_plus_one(self):
        g = build_graph([(2, 5)])
        assert g.node_count == 6
        assert not g.is_connected()


class TestBfsLayers:
    def test_p4_from_middle(self, p4):
        got = bfs_layers(p4, 1)
        assert [set(layer) for layer in got.layers] == [{1}, {0, 2}, {3}]
        assert got.eccentricity == 2

    def test_k4(self, k4):
        got = bfs_layers(k4, 0)
        assert [set(layer) for layer in got.layers] == [{0}, {1, 2, 3}]
        assert got.eccentricity == 1

    def test_c6(self, c6):
        got = bfs_layers(c6, 0)
        assert [set(layer) for layer in got.layers] == [{0}, {1, 5}, {2, 4}, {3}]
        assert got.eccentricity == 3

    def test_disconnected_names_unreachable_node(self):
        g = build_graph([(0, 1), (2, 3)])
        with pytest.raises(GraphValidityError, match="node 2"):
            bfs_layers(g, 0)

    def test_invalid_source(self, p4):
        with pytest.raises(GraphValidityError):
            bfs_layers(p4, 9)


class TestDiameter:
    def test_fixtures(self, p4, k4, c6):
        assert diameter(p4) == 3
        assert diameter(k4) == 1
        assert diameter(c6) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(GraphValidityError, match="disconnected"):
            diameter(build_graph([(0, 1), (2, 3)]))

    def test_equals_max_eccentricity(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 50), 0.1, rng)
            assert diameter(g) == max(
                bfs_layers(g, s).eccentricity for s in range(g.node_count)
            )


class TestInducedDiameter:
    def test_p4_prefix(self, p4):
        assert induced_diameter(p4, {0, 1, 2}) == 2

    def test_singleton(self, c6):
        assert induced_diameter(c6, {4}) == 0

    def test_c6_arc(self, c6):
        assert induced_diameter(c6, {5, 0, 1}) == 2

    def test_induced_distances_not_full_graph(self, c6):
        # 2 and 4 are 2 apart in the cycle but 4 apart inside the arc 2..4-less path
        assert induced_diameter(c6, {2, 3, 4}) == 2
        assert induced_diameter(c6, {1, 2, 3, 4, 5}) == 4

    def test_disconnected_subset_rejected(self, c6):
        with pytest.raises(GraphValidityError, match="unreachable"):
            induced_diameter(c6, {0, 3})

    def test_empty_subset_rejected(self, c6):
        with pytest.raises(GraphValidityError, match="empty"):
            induced_diameter(c6, set())

    def test_sparse_path_matches_small_path(self):
        # force the >64-node code path and compare against full-set diameter
        rng = random.Random(17)
        g = random_connected_graph(90, 0.05, rng)
        all_nodes = set(range(g.node_count))
        assert induced_diameter(g, all_nodes) == diameter(g)


class TestBetweenness:
    def test_star_center_dominates(self, s4):
        values = betweenness(s4)
        assert values[0] == 1.0
        assert all(values[leaf] == 0.0 for leaf in range(1, 5))
        assert values[0] > max(values[1:])

    def test_p3_middle(self, p3):
        values = betweenness(p3)
        assert values[1] > values[0] == values[2]

    def test_disconnected_rejected(self):
        with pytest.raises(GraphValidityError, match="disconnected"):
            betweenness(build_graph([(0, 1), (2, 3)]))

    def test_matches_enumeration_oracle_on_random_graphs(self):
        rng = random.Random(101)
        for _ in range(100):
            g = random_connected_graph(rng.randint(2, 30), 0.15, rng)
            fast = betweenness(g)
            slow = naive_betweenness(g)
            assert [float(x) for x in fast] == slow

    def test_label_permutation_equivariant(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_connected_graph(rng.randint(3, 20), 0.3, rng)
            perm_rng = random.Random(77)
            h = relabelled(g, perm_rng)
            assert sorted(betweenness(g).tolist()) == pytest.approx(
                sorted(betweenness(h).tolist()), abs=0
            )

    def test_rgg_extremes_fixture(self):
        # frozen after validating the implementation against the enumeration
        # oracle on small graphs (test above)
        g = gen_rgg(300, 0.12, 7).graph
        values = betweenness(g)
        assert int(values.argmax()) == 216
        assert int(values.argmin()) == 18
        assert values.min() == 0.0
        assert values.max() == pytest.approx(0.282538233906, abs=1e-12)


class TestBetweennessMatchesPerSource:
    """The blocked, level-synchronous pass against one BFS per source: the
    path counts are exact integers, so the results must be identical."""

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_criterion_7_desk_graphs(self, seed):
        g = gen_rgg(300, 0.12, seed).graph
        assert np.array_equal(betweenness(g), brandes_per_source(g))

    def test_criterion_9_graph(self):
        g = gen_rgg(1000, 0.1, 424242).graph
        assert np.array_equal(betweenness(g), brandes_per_source(g))

    def test_block_edges(self):
        graphs = [Graph(1, ()), build_graph([(0, 1)])]
        for n in (127, 128, 129):
            path = [(i, i + 1) for i in range(n - 1)]
            graphs.append(build_graph(path))
            graphs.append(build_graph(path + [(n - 1, 0)]))
        for g in graphs:
            assert np.array_equal(betweenness(g), brandes_per_source(g)), g


class TestGenRgg:
    def test_deterministic(self):
        a = gen_rgg(50, 0.3, 7)
        b = gen_rgg(50, 0.3, 7)
        assert a.graph == b.graph
        assert np.array_equal(a.positions, b.positions)

    def test_two_nodes_max_radius(self):
        geo = gen_rgg(2, float(np.sqrt(2.0)), 1)
        assert geo.graph.edges == ((0, 1),)
        assert geo.graph.is_connected()

    def test_preconditions(self):
        with pytest.raises(GraphValidityError):
            gen_rgg(1, 0.5, 0)
        with pytest.raises(GraphValidityError):
            gen_rgg(10, 0.0, 0)
        with pytest.raises(GraphValidityError):
            gen_rgg(10, 1.5, 0)

    def test_edge_lengths_within_radius(self):
        geo = gen_rgg(120, 0.15, 3)
        pts = geo.positions
        for i, j in geo.graph.edges:
            assert np.hypot(*(pts[i] - pts[j])) <= 0.15
        # and every omitted pair in the kept component is farther apart
        present = set(geo.graph.edges)
        n = geo.graph.node_count
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in present:
                    assert np.hypot(*(pts[i] - pts[j])) > 0.15

    def test_all_isolated_rejected(self):
        with pytest.raises(GraphValidityError, match="fewer than 2"):
            gen_rgg(2, 1e-9, 0)

    def test_disconnected_keeps_largest_component(self):
        geo = gen_rgg(50, 0.08, 3)
        assert geo.discarded == 50 - geo.graph.node_count
        assert geo.discarded > 0
        assert geo.graph.is_connected()
        assert geo.graph.node_count >= 2
        # kept coordinates are original samples, still inside the unit square
        assert ((geo.positions >= 0) & (geo.positions <= 1)).all()


class TestLineGraph:
    def test_p3_becomes_single_edge(self, p3):
        dual, mapping = line_graph(p3)
        assert dual.node_count == 2
        assert dual.edges == ((0, 1),)
        assert mapping == ((0, 1), (1, 2))

    def test_triangle_self_dual(self):
        tri = build_graph([(0, 1), (1, 2), (0, 2)])
        dual, _ = line_graph(tri)
        assert dual.node_count == 3
        assert len(dual.edges) == 3

    def test_star_becomes_clique(self, s4):
        dual, _ = line_graph(s4)
        assert dual.node_count == 4
        assert len(dual.edges) == 6

    def test_edgeless_rejected(self):
        with pytest.raises(GraphValidityError, match="edgeless"):
            line_graph(Graph(3, ()))

    def test_count_identities_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(50):
            g = random_connected_graph(rng.randint(2, 25), 0.2, rng)
            dual, mapping = line_graph(g)
            assert dual.node_count == len(g.edges)
            assert len(dual.edges) == sum(
                d * (d - 1) // 2 for d in (g.degree(v) for v in range(g.node_count))
            )
            assert mapping == g.edges


class TestLayerProperties:
    def test_layers_partition_nodes(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 50), 0.15, rng)
            for s in range(g.node_count):
                layers = bfs_layers(g, s)
                assert set(layers.layers[0]) == {s}
                seen: set[int] = set()
                for layer in layers.layers:
                    assert layer, "no empty layer below the eccentricity"
                    assert not (seen & layer)
                    seen |= layer
                assert seen == set(range(g.node_count))
                assert sum(len(layer) for layer in layers.layers) == g.node_count

    def test_distances_symmetric_and_match_bfs(self):
        rng = random.Random(37)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 50), 0.15, rng)
            dist = g.distance_matrix()
            assert (dist == dist.T).all()
            for s in range(g.node_count):
                layers = bfs_layers(g, s)
                for d, layer in enumerate(layers.layers):
                    for v in layer:
                        assert dist[s, v] == d
