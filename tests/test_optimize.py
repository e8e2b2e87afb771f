import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from privzone import (
    ASYMMETRIC_NODE_CAP,
    DensityMap,
    Graph,
    GraphValidityError,
    SweepRow,
    betweenness,
    build_graph,
    diameter,
    gen_rgg,
    solve_asymmetric_exhaustive,
    solve_constrained,
    solve_tradeoff,
    sweep,
)

from oracles import (
    bfs_layers_by_queue,
    connected_atlas_graphs,
    random_connected_graph,
    solve_asymmetric_by_loop,
    sweep_by_analyze,
    sweep_by_matrix,
)


class TestSweep:
    def test_p4_rows(self, p4):
        rows = sweep(p4, 1)
        assert [(r.h, r.privacy, r.cost) for r in rows] == [
            (0, 1.0, 2),
            (1, 0.5, 3),
            (2, 0.25, 3),
            (3, 0.25, 3),
        ]
        assert [r.suppressed_count for r in rows] == [1, 3, 4, 4]
        assert [r.candidate_count for r in rows] == [1, 2, 4, 4]

    def test_k4_rows(self, k4):
        rows = sweep(k4, 0)
        assert [(r.h, r.privacy, r.cost) for r in rows] == [(0, 1.0, 3), (1, 0.25, 6)]

    def test_last_row_hits_uniform_floor(self):
        rng = random.Random(83)
        for _ in range(15):
            g = random_connected_graph(rng.randint(2, 30), 0.2, rng)
            s = rng.randrange(g.node_count)
            rows = sweep(g, s)
            assert len(rows) == diameter(g) + 1
            assert rows[-1].privacy == 1.0 / g.node_count

    def test_cost_nondecreasing_and_h_increasing(self):
        rng = random.Random(89)
        for _ in range(15):
            g = random_connected_graph(rng.randint(2, 30), 0.2, rng)
            rows = sweep(g, rng.randrange(g.node_count))
            assert [r.h for r in rows] == list(range(len(rows)))
            assert all(a.cost <= b.cost for a, b in zip(rows, rows[1:]))

    def test_candidate_count_nondecreasing(self):
        # unproven in general; checked here so any counterexample surfaces
        rng = random.Random(97)
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 30), 0.2, rng)
            rows = sweep(g, rng.randrange(g.node_count))
            counts = [r.candidate_count for r in rows]
            assert counts == sorted(counts), f"candidate count dipped: {counts}"


class TestSweepMatchesAnalyze:
    """The layer-extrema sweep against one full `analyze` per radius: exact
    SweepRow equality, with the uniform prior and with a random density."""

    @staticmethod
    def _check(g, sources, rng):
        density = DensityMap(rng.uniform(0.01, 1.0, g.node_count))
        for s in sources:
            assert sweep(g, s) == sweep_by_analyze(g, s), (g.edges, s)
            assert sweep(g, s, density) == sweep_by_analyze(g, s, density), (g.edges, s)

    def test_every_atlas_graph_every_source(self):
        rng = np.random.default_rng(11)
        for g in connected_atlas_graphs():
            self._check(g, range(g.node_count), rng)

    def test_random_graphs(self):
        rng = random.Random(13)
        nrng = np.random.default_rng(13)
        for _ in range(100):
            g = random_connected_graph(rng.randint(2, 40), rng.choice([0.05, 0.15, 0.4]), rng)
            self._check(g, [rng.randrange(g.node_count)], nrng)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_geometric_graphs(self, seed):
        g = gen_rgg(300, 0.12, seed).graph
        rng = random.Random(seed)
        self._check(g, rng.sample(range(g.node_count), 5), np.random.default_rng(seed))

    def test_single_node(self):
        g = Graph(1, ())
        assert sweep(g, 0) == sweep_by_analyze(g, 0) == [SweepRow(0, 1, 1, 1.0, 0)]

    def test_same_errors(self, p4):
        with pytest.raises(GraphValidityError, match="outside"):
            sweep(p4, 4)
        with pytest.raises(ValueError, match="density map size"):
            sweep(p4, 0, DensityMap(np.ones(3)))
        with pytest.raises(GraphValidityError, match="disconnected"):
            sweep(build_graph([(0, 1), (2, 3)]), 0)


class TestSweepMatchesMatrix:
    """The streamed sweep against `sweep_by_matrix`, the same layer extrema
    read from the whole distance matrix: exact SweepRow equality, with the
    uniform prior and with a random density."""

    @staticmethod
    def _check(g, sources, rng):
        density = DensityMap(rng.uniform(0.01, 1.0, g.node_count))
        for s in sources:
            rows, weighted = sweep(g, s), sweep(g, s, density)
            assert rows == sweep_by_matrix(g, s), (g.edges, s)
            assert weighted == sweep_by_matrix(g, s, density), (g.edges, s)

    def test_every_atlas_graph_every_source(self):
        rng = np.random.default_rng(17)
        for g in connected_atlas_graphs():
            self._check(g, range(g.node_count), rng)

    def test_random_graphs(self):
        rng = random.Random(19)
        nrng = np.random.default_rng(19)
        for _ in range(12):
            n = rng.randint(60, 300)
            g = random_connected_graph(n, rng.choice([1.0, 3.0, 8.0]) / n, rng)
            self._check(g, rng.sample(range(n), 2), nrng)

    def test_criterion_9_graph_cached_and_fresh(self):
        # betweenness caches its distance levels as the matrix, which the
        # sweep then slices; on a fresh graph it streams the rows instead
        cached = gen_rgg(1000, 0.1, 424242).graph
        scores = betweenness(cached)
        targets = [int(np.argmax(scores)), int(np.argmin(scores))]
        self._check(cached, targets, np.random.default_rng(23))
        for s in targets:
            self._check(gen_rgg(1000, 0.1, 424242).graph, [s], np.random.default_rng(s))

    def test_fresh_graph_keeps_no_matrix(self):
        g = gen_rgg(300, 0.12, 1).graph
        sweep(g, 0)
        assert g._dist is None



class TestSolveTradeoff:
    def test_large_gamma_means_report_everywhere(self, p4, c6):
        assert solve_tradeoff(p4, 1, 10.0).h_star == 0
        assert solve_tradeoff(c6, 0, 2.0).h_star == 0

    def test_small_gamma_means_never_broadcast(self, p4):
        solution = solve_tradeoff(p4, 1, 1e-9)
        assert solution.h_star >= bfs_layers_by_queue(p4, 1).eccentricity
        assert solution.privacy == 0.25

    def test_p4_medium_gamma(self, p4):
        solution = solve_tradeoff(p4, 1, 0.2)
        assert solution.h_star == 2
        assert solution.privacy == 0.25
        assert solution.cost == 3
        assert solution.objective == pytest.approx(0.85, abs=1e-12)
        assert solution.feasible is None

    def test_matches_explicit_argmin(self):
        rng = random.Random(103)
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 25), 0.2, rng)
            s = rng.randrange(g.node_count)
            gamma = rng.uniform(1e-4, 2.0)
            solution = solve_tradeoff(g, s, gamma)
            rows = sweep(g, s)
            best = min(rows, key=lambda r: (r.privacy + gamma * r.cost, r.h))
            assert solution.h_star == best.h
            assert solution.objective == best.privacy + gamma * best.cost

    def test_gamma_must_be_positive(self, p4):
        with pytest.raises(ValueError, match="positive"):
            solve_tradeoff(p4, 1, 0.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    @pytest.mark.parametrize("solve", [solve_tradeoff, solve_asymmetric_exhaustive])
    def test_gamma_must_be_finite(self, p4, gamma, solve):
        with pytest.raises(ValueError, match="^gamma must be positive and finite$"):
            solve(p4, 1, gamma)


class TestSolveConstrained:
    def test_xi_one_reports_everywhere(self, p4, c6):
        assert solve_constrained(p4, 1, 1.0).h_star == 0
        assert solve_constrained(c6, 3, 1.0).h_star == 0

    def test_p4_half(self, p4):
        solution = solve_constrained(p4, 1, 0.5)
        assert solution.h_star == 1
        assert solution.cost == 3
        assert solution.feasible is True
        assert solution.objective is None

    def test_infeasible_falls_back_to_never_broadcast(self, p4):
        solution = solve_constrained(p4, 1, 0.2)
        assert solution.feasible is False
        assert solution.h_star == 3
        assert solution.privacy == 0.25

    def test_matches_cost_argmin_over_feasible_rows(self):
        rng = random.Random(107)
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 25), 0.2, rng)
            s = rng.randrange(g.node_count)
            xi = rng.uniform(0.0, 1.0)
            solution = solve_constrained(g, s, xi)
            rows = sweep(g, s)
            feasible = [r for r in rows if r.privacy <= xi]
            if feasible:
                assert solution.feasible is True
                best = min(feasible, key=lambda r: (r.cost, r.h))
                assert (solution.h_star, solution.cost) == (best.h, best.cost)
                # feasible radii form an up-set, so first feasible == cheapest
                assert solution.h_star == feasible[0].h
            else:
                assert solution.feasible is False
                assert solution.h_star == rows[-1].h

    def test_xi_range_validated(self, p4):
        with pytest.raises(ValueError, match="xi"):
            solve_constrained(p4, 1, 1.5)


class TestSolveAsymmetricExhaustive:
    def test_p3_center_large_gamma(self, p3):
        # every silence set containing the middle of a path blanks both edges,
        # so the largest set wins regardless of gamma
        best, objective = solve_asymmetric_exhaustive(p3, 1, 10.0)
        assert best == {0, 1, 2}
        assert objective == pytest.approx(1 / 3 + 10.0 * 2, abs=1e-12)

    def test_p3_leaf_large_gamma(self, p3):
        best, objective = solve_asymmetric_exhaustive(p3, 0, 10.0)
        assert best == {0}
        assert objective == 11.0

    def test_p3_tiny_gamma_takes_everything(self, p3):
        best, objective = solve_asymmetric_exhaustive(p3, 1, 1e-6)
        assert best == {0, 1, 2}
        assert objective == pytest.approx(1 / 3 + 2e-6, abs=1e-12)

    def test_tie_breaks_toward_smaller_set(self):
        c4 = build_graph([(0, 1), (1, 2), (2, 3), (0, 3)])
        best, objective = solve_asymmetric_exhaustive(c4, 0, 0.5)
        assert best == {0}
        assert objective == 2.0

    def test_tie_breaks_lexicographically_at_equal_size(self):
        c4 = build_graph([(0, 1), (1, 2), (2, 3), (0, 3)])
        best, _ = solve_asymmetric_exhaustive(c4, 0, 0.4)
        assert best == {0, 1}  # beats the equally priced {0, 3}

    def test_never_worse_than_symmetric(self):
        rng = random.Random(109)
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 12), 0.25, rng)
            s = rng.randrange(g.node_count)
            gamma = rng.uniform(1e-3, 1.0)
            _, asym_obj = solve_asymmetric_exhaustive(g, s, gamma)
            sym = solve_tradeoff(g, s, gamma)
            assert asym_obj <= sym.objective

    @staticmethod
    def assert_matches_loop(g, s, gamma):
        best, objective = solve_asymmetric_exhaustive(g, s, gamma)
        ref_best, ref_objective = solve_asymmetric_by_loop(g, s, gamma)
        assert type(objective) is float
        assert (best, objective.hex()) == (ref_best, ref_objective.hex()), (g.edges, s, gamma)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [0.01, 1 / 6, 0.5, 1e308])
    def test_matches_loop_on_atlas(self, gamma):
        # 1/6 and 0.5 tie sets of different sizes and members; at 1e308 every
        # set that touches two or more edges costs inf
        for g in connected_atlas_graphs():
            if g.node_count <= 6:
                for s in range(g.node_count):
                    self.assert_matches_loop(g, s, gamma)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [8, 10, 12, 14, 16])
    def test_matches_loop_on_random_graphs(self, n):
        rng = random.Random(1907 + n)
        for extra_prob in (0.15, 0.4):
            g = random_connected_graph(n, extra_prob, rng)
            s = rng.randrange(n)
            for gamma in (rng.uniform(1e-3, 1.0), 1 / 12, 1e308):
                self.assert_matches_loop(g, s, gamma)

    @pytest.mark.filterwarnings("error")
    def test_cap_sized_memory(self):
        ws = build_graph(list(nx.connected_watts_strogatz_graph(20, 4, 0.3, seed=20).edges()))
        path = build_graph([(i, i + 1) for i in range(ASYMMETRIC_NODE_CAP - 1)])
        tracemalloc.start()
        try:
            solve_asymmetric_exhaustive(ws, 0, 0.05)
            # only {0} touches a single edge; every other set costs inf
            assert solve_asymmetric_exhaustive(path, 0, 1e308) == ({0}, 1e308)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.filterwarnings("error")
    def test_every_set_tied(self):
        # every set of K20 costs at least 19 edges, so every objective is inf
        # and all 2**19 sets tie; the smallest, {s}, wins, picked without a
        # Python key per tied set
        k20 = build_graph(list(nx.complete_graph(ASYMMETRIC_NODE_CAP).edges()))
        tracemalloc.start()
        try:
            best, objective = solve_asymmetric_exhaustive(k20, 7, 1e308)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (best, objective) == ({7}, np.inf)
        assert peak < 32 * 2**20, peak

    def test_node_cap_enforced(self):
        g = build_graph([(i, i + 1) for i in range(ASYMMETRIC_NODE_CAP)])
        with pytest.raises(GraphValidityError, match="solve_tradeoff"):
            solve_asymmetric_exhaustive(g, 0, 1.0)
