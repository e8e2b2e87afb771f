import random

import numpy as np
import pytest

from privzone import (
    DensityMap,
    Graph,
    InfeasibleError,
    Posterior,
    WalkTrace,
    analyze,
    bfs_layers,
    broadcast_set,
    build_graph,
    coverage_step,
    diameter,
    gen_rgg,
    observed_broadcast_set,
    posterior_bruteforce,
    simulate_walk,
    suppressed_set,
)

from privzone.fileio import format_trace_csv

from oracles import (
    connected_atlas_graphs,
    coverage_by_loop,
    observed_by_loop,
    posterior_by_bfs,
    random_connected_graph,
    trace_csv_by_loop,
    walk_steps_by_loop,
)


class TestSimulateWalk:
    def test_deterministic_per_seed(self, c6):
        a = simulate_walk(c6, 0, 1, 500, 42)
        b = simulate_walk(c6, 0, 1, 500, 42)
        assert a == b
        c = simulate_walk(c6, 0, 1, 500, 43)
        assert a != c

    def test_consecutive_nodes_adjacent(self, c6):
        trace = simulate_walk(c6, 0, 1, 1000, 5)
        for (_, u, _), (_, v, _) in zip(trace.steps, trace.steps[1:]):
            assert v in c6.adjacency[u]

    def test_broadcast_flag_tracks_suppressed_set(self, p4):
        ball = suppressed_set(p4, 1, 1)
        trace = simulate_walk(p4, 1, 1, 2000, 9)
        for _, node, broadcast in trace.steps:
            assert broadcast == (node not in ball)

    def test_total_silence_beyond_eccentricity(self, p4):
        trace = simulate_walk(p4, 1, 2, 300, 3)
        assert all(not broadcast for _, _, broadcast in trace.steps)

    def test_radius_zero_broadcasts_off_the_private_node_only(self, c6):
        trace = simulate_walk(c6, 2, 0, 2000, 11)
        for _, node, broadcast in trace.steps:
            assert broadcast == (node != 2)

    def test_needs_at_least_one_step(self, p4):
        with pytest.raises(ValueError, match="step"):
            simulate_walk(p4, 1, 1, 0, 1)

    def test_p4_long_walk_reveals_broadcast_set(self, p4):
        trace = simulate_walk(p4, 1, 1, 10_000, 3)
        assert observed_broadcast_set(trace) == broadcast_set(p4, 1, 1) == {3}


class TestObservedBroadcastSet:
    def test_empty_when_nothing_broadcast(self):
        trace = WalkTrace(nodes=[2, 3], broadcast=[False, False])
        assert observed_broadcast_set(trace) == set()

    def test_partial_trace_is_a_subset(self, c6):
        full = broadcast_set(c6, 0, 1)
        trace = simulate_walk(c6, 0, 1, 5, 21)
        assert observed_broadcast_set(trace) <= full

    def test_converges_after_coverage(self, c6):
        trace = simulate_walk(c6, 0, 1, 50_000, 13)
        step = coverage_step(trace, c6.node_count)
        assert step is not None and step < 50_000
        assert observed_broadcast_set(trace) == broadcast_set(c6, 0, 1)


class TestCoverageStep:
    def test_reports_first_full_visit(self):
        trace = WalkTrace(nodes=[0, 1, 0, 2], broadcast=[True] * 4)
        assert coverage_step(trace, 3) == 3

    def test_none_when_never_covered(self):
        trace = WalkTrace(nodes=[0, 1], broadcast=[True, True])
        assert coverage_step(trace, 3) is None


def assert_trace_matches_loops(g, s, h, steps, seed):
    """The array-backed walk and its readers against the tuple loops."""
    trace = simulate_walk(g, s, h, steps, seed)
    want = walk_steps_by_loop(g, s, h, steps, seed)
    case = (g.node_count, s, h, steps, seed)
    assert trace.nodes.tolist() == [v for _, v, _ in want], case
    assert trace.broadcast.tolist() == [b for _, _, b in want], case
    assert format_trace_csv(trace) == trace_csv_by_loop(want), case
    assert observed_broadcast_set(trace) == observed_by_loop(want), case
    assert coverage_step(trace, g.node_count) == coverage_by_loop(want, g.node_count), case
    return trace, want


@pytest.fixture(scope="module")
def criterion_9_graph():
    return gen_rgg(1000, 0.1, 424242).graph


class TestTraceMatchesLoops:
    """`simulate_walk`, `format_trace_csv`, `observed_broadcast_set` and
    `coverage_step` against the tuple-per-step loops in `tests/oracles.py`."""

    def test_every_atlas_graph_source_and_radius(self):
        # 12 steps: t crosses 9 -> 10
        for g in connected_atlas_graphs():
            for s in range(g.node_count):
                for h in range(bfs_layers(g, s).eccentricity + 2):  # 0..ecc+1
                    assert_trace_matches_loops(g, s, h, 12, 7 * s + h)

    def test_walk_inference_problems(self, criterion_9_graph):
        # the sources, radii and walk seeds perfbench's walk-inference
        # workload draws for its default seed 424242; t crosses 99999 ->
        # 100000 and node ids have 1 to 3 digits
        draw = random.Random("walk-inference:nodes")
        walk_seeds = random.Random("walk-inference:424242")
        for h in (1, 2, 3):
            s = draw.randrange(criterion_9_graph.node_count)
            trace, _ = assert_trace_matches_loops(
                criterion_9_graph, s, h, 250_000, walk_seeds.randrange(2**31)
            )
            assert trace.nodes.min() < 10 and trace.nodes.max() >= 100

    # chunk boundaries, and walks whose last t is 10 or 100000
    @pytest.mark.parametrize("steps", [1, 11, 16384, 16385, 2 * 16384 + 5, 100_001])
    def test_chunk_and_digit_boundaries(self, criterion_9_graph, steps):
        trace, want = assert_trace_matches_loops(criterion_9_graph, 0, 2, steps, steps)
        assert trace.steps == want

    def test_equality_compares_contents(self):
        a = WalkTrace(nodes=[0, 1, 0], broadcast=[True, False, True])
        assert a == WalkTrace(nodes=np.array([0, 1, 0]), broadcast=np.array([1, 0, 1]))
        assert a != WalkTrace(nodes=[0, 1], broadcast=[True, False])
        assert a != WalkTrace(nodes=[0, 1, 0], broadcast=[True, False, False])
        with pytest.raises(ValueError, match="equal length"):
            WalkTrace(nodes=[0, 1], broadcast=[True])


class TestPosteriorBruteforce:
    def test_p4_observed_single_far_node(self, p4):
        posterior = posterior_bruteforce(p4, {3})
        assert posterior.mass.tolist() == [0.5, 0.5, 0.0, 0.0]
        assert posterior.support == {0, 1}

    def test_empty_observation_is_uninformative(self, p4):
        posterior = posterior_bruteforce(p4, set())
        assert posterior.mass.tolist() == [0.25] * 4

    def test_everything_but_one_pins_it(self, p4):
        posterior = posterior_bruteforce(p4, {0, 2, 3})
        assert posterior.mass.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_density_prior_reweights_support(self, p4):
        rho = DensityMap(rho=np.array([1.0, 3.0, 1.0, 1.0]))
        posterior = posterior_bruteforce(p4, {3}, rho)
        assert posterior.mass.tolist() == [0.25, 0.75, 0.0, 0.0]

    def test_inconsistent_observation_rejected(self, p4):
        # {1} is no broadcast set: any radius around any node that silences
        # 0, 2 and 3 silences 1 as well
        with pytest.raises(InfeasibleError, match="inconsistent"):
            posterior_bruteforce(p4, {1})

    def test_zero_density_on_whole_support(self, p4):
        rho = DensityMap(rho=np.array([0.0, 0.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="zero density"):
            posterior_bruteforce(p4, {3}, rho)

    def test_mass_sums_to_one(self):
        rng = random.Random(113)
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 25), 0.2, rng)
            s = rng.randrange(g.node_count)
            h = rng.randint(0, diameter(g))
            posterior = posterior_bruteforce(g, broadcast_set(g, s, h))
            assert float(posterior.mass.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_posterior_validation(self):
        with pytest.raises(ValueError, match="sum"):
            Posterior(mass=np.array([0.3, 0.3]))
        with pytest.raises(ValueError, match="nonnegative"):
            Posterior(mass=np.array([-0.5, 1.5]))


class TestEndToEnd:
    def test_walk_then_inference_recovers_policy_privacy(self, p4, c6):
        for g, s, h in ((p4, 1, 1), (c6, 0, 1)):
            trace = simulate_walk(g, s, h, 100_000, 17)
            assert coverage_step(trace, g.node_count) is not None
            observed = observed_broadcast_set(trace)
            assert observed == broadcast_set(g, s, h)
            posterior = posterior_bruteforce(g, observed)
            assert float(posterior.mass[s]) == analyze(g, s, h).privacy


def _outcome(fn, g, observed, density):
    try:
        return fn(g, observed, density).mass
    except (ValueError, InfeasibleError) as exc:
        return type(exc), str(exc)


def _beyond(g, s, h):
    """Broadcast set of radius h around s, from BFS layers."""
    return set().union(*bfs_layers(g, s).layers[h + 1:])


def assert_matches_bfs(g, observed, density=None):
    """Same masses, bit for bit, or the same exception type and message."""
    got = _outcome(posterior_bruteforce, g, observed, density)
    want = _outcome(posterior_by_bfs, g, observed, density)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want), (g, observed)
    else:
        assert got == want, (g, observed)


class TestPosteriorMatchesBfs:
    """The enumeration over unheard nodes' distance rows against one
    `bfs_layers` per node (`posterior_by_bfs`)."""

    # Observations are built from BFS layers, not `broadcast_set`, which
    # would cache the graph's distance matrix: the posteriors must read
    # their rows from blocked dijkstra calls.

    def test_every_atlas_graph_source_and_radius(self):
        for atlas_graph in connected_atlas_graphs():
            # a copy: the shared atlas graphs may hold a cached matrix
            g = Graph(atlas_graph.node_count, atlas_graph.edges)
            seen = set()
            for s in range(g.node_count):
                layers = bfs_layers(g, s).layers
                for h in range(len(layers) + 1):  # 0..ecc+1
                    observed = frozenset().union(*layers[h + 1:])
                    if observed not in seen:
                        seen.add(observed)
                        assert_matches_bfs(g, set(observed))
            assert g._dist is None

    def test_random_graphs_with_and_without_density(self):
        rng = random.Random(307)
        for _ in range(100):
            g = random_connected_graph(rng.randint(2, 40), rng.uniform(0.02, 0.3), rng)
            s = rng.randrange(g.node_count)
            observed = _beyond(g, s, rng.randint(0, g.node_count))
            rho = np.array([rng.choice((0.0, rng.uniform(0.1, 5.0))) for _ in range(g.node_count)])
            rho[s] = 1.0
            assert_matches_bfs(g, observed)
            assert_matches_bfs(g, observed, DensityMap(rho=rho))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rggs(self, seed):
        g = gen_rgg(300, 0.12, seed).graph
        s = random.Random(seed).randrange(g.node_count)
        for h in (1, 4, 8):
            assert_matches_bfs(g, _beyond(g, s, h))

    def test_criterion_9_graph_never_builds_the_matrix(self):
        g = gen_rgg(1000, 0.1, 424242).graph
        for h in (1, 2, 3):
            assert_matches_bfs(g, _beyond(g, 0, h))
        assert g._dist is None

    def test_nothing_heard_on_a_path_longer_than_two_blocks(self):
        g = build_graph([(i, i + 1) for i in range(299)])
        posterior = posterior_bruteforce(g, set())
        assert posterior.mass.tolist() == [1.0 / 300] * 300
        assert_matches_bfs(g, set())
        assert g._dist is None

    def test_single_node(self):
        assert posterior_bruteforce(Graph(1, ()), set()).mass.tolist() == [1.0]
        assert_matches_bfs(Graph(1, ()), set())

    @pytest.mark.parametrize(
        "edges, observed, rho, error, match",
        [
            ([(0, 1), (2, 3)], {3}, None, ValueError, "disconnected"),
            ([(0, 1), (1, 2), (2, 3)], {7}, None, ValueError, "outside"),
            ([(0, 1), (1, 2), (2, 3)], {-1}, None, ValueError, "outside"),
            ([(0, 1), (1, 2), (2, 3)], {3}, [1.0, 1.0, 1.0], ValueError, "size"),
            ([(0, 1), (1, 2), (2, 3)], {0, 1, 2, 3}, None, InfeasibleError, "inconsistent"),
            ([(0, 1), (1, 2), (2, 3)], {1}, None, InfeasibleError, "inconsistent"),
            ([(0, 1), (1, 2), (2, 3)], {3}, [0.0, 0.0, 1.0, 1.0], ValueError, "zero density"),
        ],
    )
    def test_error_parity(self, edges, observed, rho, error, match):
        g = build_graph(edges)
        density = None if rho is None else DensityMap(rho=np.array(rho))
        with pytest.raises(error, match=match):
            posterior_bruteforce(g, observed, density)
        assert_matches_bfs(g, observed, density)
