import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    sweep,
)

import privzone.graph as graph_module
from privzone.graph import _first_simplicial, _induced, _largest_component
from scipy.sparse.csgraph import dijkstra

from oracles import (
    TupleGraph,
    bfs_layers_by_queue,
    brandes_per_source,
    build_graph_by_tuples,
    connected_atlas_graphs,
    gen_rgg_dense,
    line_graph_by_sets,
    naive_betweenness,
    random_connected_graph,
    relabelled,
    simplicial_by_sets,
)


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

    def test_matches_queue_on_atlas_graphs(self):
        for g in connected_atlas_graphs():
            for s in range(g.node_count):
                assert bfs_layers(g, s) == bfs_layers_by_queue(g, s), (g.edges, s)

    def test_matches_queue_on_random_graphs(self):
        rng = random.Random(41)
        for _ in range(6):
            n = rng.randint(2, 300)
            g = random_connected_graph(n, rng.uniform(0.5, 4.0) / n, rng)
            for s in range(g.node_count):
                assert bfs_layers(g, s) == bfs_layers_by_queue(g, s), (g.edges, s)

    def test_matches_queue_on_criterion_9_graph(self):
        g = gen_rgg(1000, 0.1, 424242).graph
        for s in range(0, g.node_count, 97):
            assert bfs_layers(g, s) == bfs_layers_by_queue(g, s), s

    def test_reads_cached_matrix(self, monkeypatch):
        g = random_connected_graph(40, 0.1, random.Random(43))
        g.distance_matrix()
        monkeypatch.setattr(graph_module, "dijkstra", None)  # any distance search fails
        for s in range(g.node_count):
            assert bfs_layers(g, s) == bfs_layers_by_queue(g, s)

    def test_caches_nothing(self):
        g = random_connected_graph(40, 0.1, random.Random(47))
        bfs_layers(g, 3)
        assert g._dist is None


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
                bfs_layers_by_queue(g, s).eccentricity for s in range(g.node_count)
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

    def test_whole_node_set_gives_diameter(self):
        # the subgraph induced by every node is the graph itself
        rng = random.Random(17)
        g = random_connected_graph(90, 0.05, rng)
        all_nodes = set(range(g.node_count))
        assert induced_diameter(g, all_nodes) == diameter(g)

    def test_matches_networkx_on_random_subsets(self):
        import networkx as nx

        rng = random.Random(19)
        disconnected = 0
        for _ in range(100):
            g = random_connected_graph(rng.randint(2, 40), rng.uniform(0.02, 0.3), rng)
            nxg = nx.Graph(g.edges)
            nxg.add_nodes_from(range(g.node_count))
            keep = rng.random()
            sel = sorted(v for v in range(g.node_count) if rng.random() < keep) or [0]
            sub = nxg.subgraph(sel)
            if nx.is_connected(sub):
                assert induced_diameter(g, sel) == nx.diameter(sub), (g.edges, sel)
                continue
            disconnected += 1
            apart = min(set(sel) - nx.node_connected_component(sub, sel[0]))
            message = f"induced subgraph is disconnected: node {apart} is unreachable from node {sel[0]}"
            with pytest.raises(GraphValidityError) as info:
                induced_diameter(g, sel)
            assert str(info.value) == message, (g.edges, sel)
        assert disconnected > 10


class TestInduced:
    """`_induced`, the one source of induced subgraphs, against networkx's
    `subgraph` relabelled in ascending node order."""

    def test_matches_networkx_subgraph_relabelled(self):
        import networkx as nx

        rng = random.Random(23)
        edgeless = 0
        for _ in range(200):
            n = rng.randint(1, 30)
            g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15])
            nxg = nx.Graph(g.edges)
            nxg.add_nodes_from(range(n))
            keep = rng.random()
            sel = sorted(v for v in range(n) if rng.random() < keep) or [rng.randrange(n)]
            sub = nx.relabel_nodes(nxg.subgraph(sel), {v: k for k, v in enumerate(sel)})
            got = _induced(g, np.array(sel, dtype=np.int64))
            assert got == Graph(len(sel), list(sub.edges)), (g.edges, sel)
            edgeless += not sub.number_of_edges()
        assert edgeless > 20

    def test_huge_node_count_allocates_nothing_per_node(self):
        import tracemalloc

        g = Graph(10**12, [(0, 1), (1, 10**12 - 1)])
        tracemalloc.start()
        try:
            assert induced_diameter(g, [0, 1]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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

    @staticmethod
    def networkx_shapes():
        """Graphs whose levels are thin (grid, lollipop) or full (BA, WS),
        all with path counts far below 2**53."""
        import networkx as nx

        shapes = (
            nx.grid_2d_graph(8, 8),
            nx.lollipop_graph(20, 30),
            nx.barabasi_albert_graph(300, 4, seed=5),
            nx.connected_watts_strogatz_graph(300, 8, 0.1, seed=5),
        )
        for h in shapes:
            h = nx.convert_node_labels_to_integers(h)
            yield Graph(h.number_of_nodes(), list(h.edges()))

    @staticmethod
    def check_every_kernel(g: Graph, monkeypatch):
        """The default per-level choice, every level on the dense tile
        (fill threshold 0) and every level on the sparse product (threshold
        above any fill), each against the oracle and the BFS rows."""
        expected = brandes_per_source(g)
        rows = _rows_by_bfs(g, range(g.node_count))
        for fill in (graph_module._TILE_FILL, 0.0, 2.0):
            monkeypatch.setattr(graph_module, "_TILE_FILL", fill)
            fresh = Graph(g.node_count, g.edge_array)
            assert np.array_equal(betweenness(fresh), expected), (g, fill)
            assert np.array_equal(fresh._dist, rows), (g, fill)

    def test_shapes_on_both_kernels(self, monkeypatch):
        for g in self.networkx_shapes():
            self.check_every_kernel(g, monkeypatch)

    @pytest.mark.parametrize("block", [1, 3, 300])
    def test_block_sizes_on_both_kernels(self, block, monkeypatch):
        # 1 and 3 split the 300 nodes into one-node and odd blocks; 300 holds
        # them all in one block, so no landmark rows are read
        monkeypatch.setattr(graph_module, "_BETWEENNESS_BLOCK", block)
        self.check_every_kernel(gen_rgg(300, 0.12, 1).graph, monkeypatch)

    def test_compact_blocks_partition_the_nodes(self):
        g = gen_rgg(1000, 0.1, 424242).graph
        blocks = graph_module._compact_blocks(g)
        assert [len(b) for b in blocks] == [128] * 7 + [104]
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(1000))


class TestSimplicial:
    """The zero set of `betweenness` is the set of simplicial nodes on a
    connected graph, and `_first_simplicial` is its smallest member, both
    against `simplicial_by_sets`."""

    @staticmethod
    def check(g: Graph):
        expected = simplicial_by_sets(g)
        assert (betweenness(g) == 0).tolist() == expected, g
        assert _first_simplicial(g) == next((v for v, s in enumerate(expected) if s), None), g

    def test_atlas_graphs(self):
        for g in connected_atlas_graphs():
            self.check(g)

    def test_random_graphs(self):
        rng = random.Random(16)
        for _ in range(100):
            self.check(random_connected_graph(rng.randint(3, 40), rng.choice((0.05, 0.2, 0.5)), rng))

    def test_single_node_and_p2(self):
        self.check(Graph(1, ()))
        self.check(build_graph([(0, 1)]))

    def test_networkx_shapes_paths_and_cycles(self):
        for g in TestBetweennessMatchesPerSource.networkx_shapes():
            self.check(g)
        for n in (3, 4, 128, 129):
            path = [(i, i + 1) for i in range(n - 1)]
            self.check(build_graph(path))
            self.check(build_graph(path + [(n - 1, 0)]))

    def test_star_is_decided_by_degrees(self, monkeypatch):
        # The hub fails the degree test, so leaf 1 is tried first and only
        # its neighbour's adjacency, the hub's, is gathered: a whole-graph
        # A @ A would hold sum(deg**2) = 4e10 entries here.
        n = 200_000
        star = Graph(n + 1, np.stack((np.zeros(n, dtype=np.int64), np.arange(1, n + 1)), axis=1))
        star.csr()
        gathered = []
        real = graph_module._neighbours

        def counted(adj, rows):
            gathered.append(rows.size)
            return real(adj, rows)

        monkeypatch.setattr(graph_module, "_neighbours", counted)
        tracemalloc.start()
        try:
            first = _first_simplicial(star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == 1
        assert gathered == [1]
        assert peak < 128 * (n + 1), peak


def _rows_by_bfs(g: Graph, sources) -> np.ndarray:
    out = np.empty((len(sources), g.node_count), dtype=np.int32)
    for k, s in enumerate(sources):
        for d, layer in enumerate(bfs_layers_by_queue(g, s).layers):
            out[k, list(layer)] = d
    return out


class TestDistanceRows:
    """`Graph.distance_rows` against per-node BFS layers and the undirected
    scipy matrix it replaced."""

    @staticmethod
    def check(g: Graph):
        nodes = np.arange(g.node_count)
        undirected = dijkstra(g.csr(), directed=False, unweighted=True).astype(np.int32)
        by_bfs = _rows_by_bfs(g, nodes)
        assert np.array_equal(by_bfs, undirected)
        picked = np.concatenate((nodes[::-1], nodes[:3]))
        fresh = Graph(g.node_count, g.edges)
        rows = fresh.distance_rows(picked)
        assert rows.dtype == np.int32
        assert np.array_equal(rows, by_bfs[picked])
        assert fresh._dist is None
        assert np.array_equal(fresh.distance_matrix(), by_bfs)
        assert np.array_equal(fresh.distance_rows(picked), by_bfs[picked])

    def test_atlas_graphs(self):
        for g in connected_atlas_graphs():
            self.check(g)

    def test_block_edges(self):
        self.check(Graph(1, ()))
        for n in (127, 128, 129):
            path = [(i, i + 1) for i in range(n - 1)]
            self.check(build_graph(path))
            self.check(build_graph(path + [(n - 1, 0)]))

    def test_criterion_9_graph(self):
        self.check(gen_rgg(1000, 0.1, 424242).graph)

    def test_empty_sources(self, p4):
        assert p4.distance_rows([]).shape == (0, 4)

    def test_bad_sources_rejected(self, p4):
        for bad in ([0, 4], [-1, 2], [10**20], [-10**20]):
            with pytest.raises(GraphValidityError, match="outside"):
                p4.distance_rows(bad)
        with pytest.raises(GraphValidityError, match="node 100000000000000000000 outside"):
            bfs_layers(p4, 10**20)

    def test_disconnected_rejected(self):
        g = build_graph([(0, 1), (2, 3)])
        with pytest.raises(GraphValidityError, match="node 2 is unreachable"):
            g.distance_rows([0])


class TestBetweennessCachesDistances:
    """`betweenness` finds the hop counts in its own forward pass and leaves
    them as the graph's distance matrix."""

    @staticmethod
    def block_edge_graphs():
        yield Graph(1, ())
        for n in (127, 128, 129):
            path = [(i, i + 1) for i in range(n - 1)]
            yield build_graph(path)
            yield build_graph(path + [(n - 1, 0)])

    @staticmethod
    def check(g: Graph):
        fresh = Graph(g.node_count, g.edge_array)
        betweenness(fresh)
        assert fresh._dist.dtype == np.int32
        assert np.array_equal(fresh._dist, _rows_by_bfs(g, range(g.node_count)))

    def test_small_graphs(self):
        for g in (*connected_atlas_graphs(), *self.block_edge_graphs()):
            self.check(g)

    def test_criterion_9_graph(self):
        self.check(gen_rgg(1000, 0.1, 424242).graph)

    def test_cached_matrix_kept(self):
        for g in (*self.block_edge_graphs(), gen_rgg(300, 0.12, 4).graph):
            fresh = Graph(g.node_count, g.edge_array)
            expected = betweenness(fresh).tobytes()
            cached = Graph(g.node_count, g.edge_array)
            dist = cached.distance_matrix()
            assert betweenness(cached).tobytes() == expected
            assert cached._dist is dist

    def test_disconnected_caches_nothing(self):
        g = build_graph([(0, 1), (2, 3)])
        with pytest.raises(GraphValidityError, match="disconnected"):
            betweenness(g)
        assert g._dist is None

    def test_over_budget_caches_nothing(self, monkeypatch):
        g = random_connected_graph(200, 0.03, random.Random(11))
        expected = betweenness(Graph(g.node_count, g.edge_array)).tobytes()
        monkeypatch.setattr(graph_module, "_DIST_CACHE_BYTES", 200 * 200 * 4 - 1)
        fresh = Graph(g.node_count, g.edge_array)
        assert betweenness(fresh).tobytes() == expected
        assert fresh._dist is None
        monkeypatch.setattr(graph_module, "_DIST_CACHE_BYTES", 200 * 200 * 4)
        betweenness(fresh)
        assert np.array_equal(fresh._dist, _rows_by_bfs(g, range(200)))

    def test_block_beyond_physical_memory_refused(self, monkeypatch):
        # 4 KB pages: a block of 128 sources over 200 nodes at 72 bytes per
        # pair is 1,843,200 bytes, exactly 450 pages
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 449}
        monkeypatch.setattr(graph_module.os, "sysconf", pages.__getitem__)
        g = random_connected_graph(200, 0.03, random.Random(11))
        with pytest.raises(ValueError, match="a betweenness block of 128 sources over 200 nodes needs 1843200 bytes"):
            betweenness(g)
        assert g._dist is None
        pages["SC_PHYS_PAGES"] = 450
        assert np.array_equal(betweenness(g), brandes_per_source(g))

    def test_distance_matrix_beyond_physical_memory_refused(self, monkeypatch):
        # 4 KB pages: n x n int32 at n=200 is 160,000 bytes, 39.06 pages
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 39}
        monkeypatch.setattr(graph_module.os, "sysconf", pages.__getitem__)
        g = random_connected_graph(200, 0.03, random.Random(11))
        with pytest.raises(ValueError, match="the 200 x 200 distance matrix needs 160000 bytes"):
            g.distance_matrix()
        assert g._dist is None
        pages["SC_PHYS_PAGES"] = 40
        assert g.distance_matrix().shape == (200, 200)

    def test_concurrent_with_sweep(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to interleave the lazy caches
        try:
            for seed in range(1, 6):
                base = gen_rgg(300, 0.12, seed).graph
                n, edges = base.node_count, base.edge_array
                serial = Graph(n, edges)
                expected = (betweenness(serial).tobytes(), sweep(serial, seed))
                for _ in range(3):
                    g = Graph(n, edges)
                    with ThreadPoolExecutor(max_workers=4) as pool:
                        runs = [(pool.submit(betweenness, g), pool.submit(sweep, g, seed))
                                for _ in range(2)]
                        for scores, rows in runs:
                            got = (scores.result(timeout=60).tobytes(), rows.result(timeout=60))
                            assert got == expected
                    assert np.array_equal(g._dist, serial._dist)
        finally:
            sys.setswitchinterval(interval)


class TestConnectivity:
    def test_witness_is_smallest_node_outside_zeros_component(self):
        assert Graph(5, ((0, 1), (3, 4))).unreachable_from_zero() == 2
        assert Graph(4, ((0, 2), (1, 3))).unreachable_from_zero() == 1
        assert Graph(3, ((1, 2),)).unreachable_from_zero() == 1
        assert Graph(1, ()).unreachable_from_zero() is None
        with pytest.raises(GraphValidityError, match="node 1 is unreachable from node 0"):
            Graph(4, ((0, 2), (1, 3))).ensure_connected()

    def test_largest_component_ties_go_to_the_smallest_node_id(self):
        # node 0 alone; {1, 4, 6} and {2, 3, 5} tie at three nodes
        g = Graph(7, ((1, 4), (4, 6), (2, 3), (3, 5)))
        assert _largest_component(g) == [1, 4, 6]
        g = Graph(7, ((2, 3), (3, 5), (1, 4), (4, 6), (0, 2)))
        assert _largest_component(g) == [0, 2, 3, 5]
        assert _largest_component(Graph(3, ())) == [0]


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


class TestGenRggMatchesDense:
    """The sweep over x-sorted points against every pair of the n x n
    arrays: edges, positions and `discarded` must be equal."""

    @staticmethod
    def check(n, radius, seed):
        try:
            dense = gen_rgg_dense(n, radius, seed)
        except GraphValidityError as exc:  # every point isolated
            with pytest.raises(GraphValidityError, match=str(exc)):
                gen_rgg(n, radius, seed)
            return None
        fast = gen_rgg(n, radius, seed)
        assert np.array_equal(fast.graph.edge_array, dense.graph.edge_array)
        assert fast.graph.node_count == dense.graph.node_count
        assert np.array_equal(fast.positions, dense.positions)
        assert fast.discarded == dense.discarded
        return fast

    def test_random_cases(self):
        rng = random.Random(8)
        for _ in range(150):
            n = rng.randint(2, 400)
            radius = rng.choice([rng.uniform(0.02, 0.3), rng.uniform(0.3, 1.414)])
            self.check(n, radius, rng.randrange(10**6))

    def test_disconnected(self):
        dropped = [self.check(50, 0.08, seed).discarded for seed in range(10)]
        assert min(dropped) > 0

    def test_radius_near_sqrt2(self):
        for radius in (float(np.sqrt(2.0)), float(np.nextafter(np.sqrt(2.0), 0)), 1.41, 1.4):
            for seed in range(5):
                self.check(60, radius, seed)

    def test_two_nodes(self):
        for radius in (float(np.sqrt(2.0)), 0.5, 0.1):
            for seed in range(10):
                self.check(2, radius, seed)

    def test_3000_nodes(self):
        self.check(3000, 0.1, 424242)
        self.check(3000, 0.03, 1)

    def test_beyond_physical_memory_refused(self):
        with pytest.raises(ValueError, match="^drawing 1000000000000 points needs .* physical memory"):
            gen_rgg(10**12, 0.1, 1)
        # the points fit, but about n * n / 2 candidate pairs do not
        with pytest.raises(ValueError, match="^testing [0-9]+ candidate pairs needs .* physical memory"):
            gen_rgg(10**6, 1.4, 1)


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

    def test_dual_beyond_physical_memory_refused(self):
        # a star with 10**6 leaves has C(10**6, 2), about 5 * 10**11, dual edges
        leaves = np.arange(1, 10**6 + 1)
        star = build_graph(np.stack((np.zeros_like(leaves), leaves), axis=1))
        with pytest.raises(ValueError, match="^building 499999500000 line-graph edges needs .* physical memory"):
            line_graph(star)


class TestLayerProperties:
    def test_layers_partition_nodes(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 50), 0.15, rng)
            for s in range(g.node_count):
                for layers in (bfs_layers(g, s), bfs_layers_by_queue(g, s)):
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
                layers = bfs_layers_by_queue(g, s)
                for d, layer in enumerate(layers.layers):
                    for v in layer:
                        assert dist[s, v] == d


def _built(make, *args):
    try:
        return make(*args)
    except GraphValidityError as exc:
        return type(exc), str(exc)


def _same_graph(g, ref):
    """`g` (a Graph) equals `ref` (a TupleGraph) in node count, edges and
    adjacency; its CSR holds the same adjacency."""
    assert (g.node_count, g.edges, g.adjacency) == (ref.node_count, ref.edges, ref.adjacency)
    csr = g.csr()
    bounds = csr.indptr.tolist()
    assert [tuple(csr.indices[a:b].tolist()) for a, b in zip(bounds, bounds[1:])] == list(ref.adjacency)
    assert g.edge_array.dtype == np.int64 and g.edge_array.shape == (len(ref.edges), 2)


_PAIRS = st.lists(st.tuples(st.integers(-2, 13), st.integers(-2, 13)), max_size=30)


class TestGraphMatchesTuples:
    """`Graph` and `build_graph` against the tuple construction they
    replaced (`tests/oracles.py`), from tuples and from arrays alike: an
    equal graph, or the same exception type and message."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-1, 14), _PAIRS)
    def test_graph_from_tuples_and_arrays(self, n, pairs):
        ref = _built(TupleGraph, n, tuple(pairs))
        from_tuples = _built(Graph, n, tuple(pairs))
        from_array = _built(Graph, n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        if isinstance(ref, tuple):
            assert from_tuples == ref and from_array == ref
            return
        _same_graph(from_tuples, ref)
        _same_graph(from_array, ref)
        assert from_tuples == from_array and hash(from_tuples) == hash(from_array)
        assert (from_tuples.csr() != from_array.csr()).nnz == 0

    @settings(max_examples=400, deadline=None)
    @given(_PAIRS)
    def test_build_graph_from_tuples_and_arrays(self, pairs):
        ref = _built(build_graph_by_tuples, pairs)
        from_tuples = _built(build_graph, pairs)
        from_array = _built(build_graph, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        if isinstance(ref, tuple):
            assert from_tuples == ref and from_array == ref
            return
        _same_graph(from_tuples, ref)
        _same_graph(from_array, ref)
        assert from_tuples == from_array and hash(from_tuples) == hash(from_array)

    def test_equality_and_hash_follow_content(self):
        a = Graph(4, ((2, 1), (0, 1), (1, 2)))
        b = Graph(4, np.array([[0, 1], [1, 2]]))
        assert a == b and hash(a) == hash(b)
        assert a != Graph(5, ((0, 1), (1, 2)))
        assert a != Graph(4, ((0, 1), (1, 3)))
        assert len({a, b, Graph(4, ((0, 1),))}) == 2

    def test_edge_array_is_canonical_and_read_only(self):
        source = np.array([[3, 0], [0, 3], [2, 1]])
        g = Graph(4, source)
        source[0] = (1, 1)  # the graph keeps its own copy
        assert g.edge_array.tolist() == [[0, 3], [1, 2]]
        with pytest.raises(ValueError):
            g.edge_array[0, 0] = 2

    def test_ids_beyond_int64_rejected(self):
        with pytest.raises(GraphValidityError, match="int64"):
            Graph(3, ((0, 2**63),))
        with pytest.raises(GraphValidityError, match="int64"):
            build_graph([(0, 2**64)])

    def test_malformed_pairs_rejected(self):
        with pytest.raises(GraphValidityError, match="pairs"):
            Graph(4, np.array([[0, 1, 2]]))
        with pytest.raises(GraphValidityError, match="pairs"):
            Graph(4, [(0, 1), (2,)])

    def test_non_integer_ids_rejected(self):
        for edges in (((0.5, 2),), ((0, 2.0),), np.array([[0.5, 2.0]]), (("0", "1"),), ((None, 1),)):
            with pytest.raises(GraphValidityError, match="must be integers"):
                Graph(3, edges)

    @pytest.mark.parametrize("edges, match", [
        ([(0, 1.5), (1, 2)], "must be integers"),
        ([("0", "1")], "must be integers"),
        ([(0, 1, 2)], "pairs"),
    ])
    def test_build_graph_refuses_what_graph_refuses(self, edges, match):
        with pytest.raises(GraphValidityError, match=match):
            Graph(3, edges)
        with pytest.raises(GraphValidityError, match=match):
            build_graph(edges)

    def test_any_iterable_of_pairs(self):
        ref = Graph(3, ((0, 1), (1, 2)))
        assert Graph(3, {(2, 1), (0, 1)}) == ref
        assert Graph(3, ((i, i + 1) for i in range(2))) == ref
        assert Graph(3, [[np.int32(1), 0], (True, 2)]) == ref
        assert Graph(3, np.array([[0, 1], [2, 1]], dtype=np.uint8)) == ref
        assert Graph(1, []) == Graph(1, np.empty((0, 2), dtype=np.int64))


class TestHugeNodeIds:
    """A node count far beyond the edges allocates nothing n-sized until
    something asks for it; connectivity reads only the ids in edges.

    The node counts here are at least 2**40, so that code allocating one
    int64 per node would fail at once (8 TB) instead of filling memory.
    """

    def test_witness_names_node_1(self):
        g = build_graph([(0, 2**40)])
        assert g.node_count == 2**40 + 1
        assert g.unreachable_from_zero() == 1
        with pytest.raises(GraphValidityError, match="node 1 is unreachable"):
            g.distance_matrix()
        with pytest.raises(GraphValidityError, match="node 1 is unreachable"):
            betweenness(g)

    def test_line_graph_has_one_dual_node(self):
        dual, mapping = line_graph(build_graph([(0, 2**40)]))
        assert dual.node_count == 1 and dual.edges == ()
        assert mapping == ((0, 2**40),)

    def test_witness_from_occurring_ids(self):
        # node 3 has no edge; node 2 has one, in another component
        cases = [
            (Graph(6, ((0, 1), (2, 4), (1, 5))), 2),
            (Graph(6, ((0, 1), (1, 2), (2, 4), (4, 5))), 3),
            (Graph(4, ((1, 2), (2, 3))), 1),
            (Graph(3, ()), 1),
            (Graph(2**40, ((0, 1), (1, 2))), 3),
            (Graph(2**63, ((0, 2**63 - 1), (1, 2))), 1),
            (Graph(2**63, ((0, 2**63 - 1), (0, 1), (1, 2))), 3),
        ]
        for g, witness in cases:
            assert g.unreachable_from_zero() == witness

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=14))
    def test_witness_matches_bfs(self, n, pairs):
        pairs = [(i, j) for i, j in pairs if i != j and i < n and j < n]
        g = Graph(n, tuple(pairs))
        ref = TupleGraph(n, tuple(pairs))
        seen, queue = {0}, [0]
        while queue:
            for w in ref.adjacency[queue.pop()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        missing = [v for v in range(n) if v not in seen]
        assert g.unreachable_from_zero() == (missing[0] if missing else None)


class TestLineGraphMatchesSets:
    """`line_graph` (pairs of edge ends grouped by node) against the
    set-based dual it replaced (`tests/oracles.py`)."""

    def check(self, g):
        dual, mapping = line_graph(g)
        ref, ref_mapping = line_graph_by_sets(g)
        _same_graph(dual, ref)
        assert mapping == ref_mapping

    def test_atlas(self):
        for g in connected_atlas_graphs():
            self.check(g)

    def test_random_graphs(self):
        rng = random.Random(41)
        for _ in range(100):
            self.check(random_connected_graph(rng.randint(2, 30), rng.random() * 0.4, rng))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rgg(self, seed):
        self.check(gen_rgg(300, 0.12, seed).graph)

    def test_disconnected_and_sparse_ids(self):
        self.check(Graph(9, ((0, 1), (5, 8), (1, 2), (2, 0))))

    def test_hub_with_pendant_paths(self):
        # a hub of degree 320; every fourth leaf goes on as a path of 3 edges
        edges, tail = [(0, leaf) for leaf in range(1, 321)], 321
        for leaf in range(4, 321, 4):
            edges += [(leaf, tail), (tail, tail + 1), (tail + 1, tail + 2)]
            tail += 3
        self.check(build_graph(edges))

    def test_components_and_isolated_edges(self):
        rng = random.Random(43)
        for _ in range(20):
            edges, base = [], 0
            for _ in range(rng.randint(2, 6)):
                part = random_connected_graph(rng.randint(2, 25), rng.random() * 0.3, rng)
                edges += [(base + i, base + j) for i, j in part.edges]
                base += part.node_count + rng.randint(0, 3)  # ids no edge names
            for _ in range(rng.randint(1, 5)):  # isolated edges
                edges.append((base, base + 1))
                base += 2 + rng.randint(0, 3)
            rng.shuffle(edges)
            self.check(Graph(base + 1, edges))

    def test_rgg_1000(self):
        self.check(gen_rgg(1000, 0.1, 424242).graph)
