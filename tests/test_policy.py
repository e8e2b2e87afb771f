import random

import numpy as np
import pytest

from privzone import (
    AsymmetricPolicy,
    DensityMap,
    analyze,
    asymmetric_privacy,
    bfs_layers,
    boundary_set,
    broadcast_set,
    build_graph,
    candidate_set,
    diameter,
    excluded_edges,
    gen_rgg,
    posterior_bruteforce,
    privacy_density,
    privacy_uniform,
    suppressed_set,
)

from oracles import candidate_set_by_layers, connected_atlas_graphs, random_connected_graph


class TestSuppressedSet:
    def test_p4(self, p4):
        assert suppressed_set(p4, 1, 1) == {0, 1, 2}

    def test_radius_zero_is_the_node_itself(self, c6, k4):
        assert suppressed_set(c6, 2, 0) == {2}
        assert suppressed_set(k4, 3, 0) == {3}

    def test_c6(self, c6):
        assert suppressed_set(c6, 0, 1) == {5, 0, 1}

    def test_covers_graph_at_eccentricity(self, p4):
        assert suppressed_set(p4, 1, 2) == {0, 1, 2, 3}


class TestBroadcastSet:
    def test_p4(self, p4):
        assert broadcast_set(p4, 1, 1) == {3}

    def test_complete_graph_empty(self, k4):
        assert broadcast_set(k4, 0, 1) == set()

    def test_c6(self, c6):
        assert broadcast_set(c6, 0, 1) == {2, 3, 4}

    def test_complement_of_suppressed(self, c6):
        for s in range(6):
            for h in range(4):
                assert broadcast_set(c6, s, h) == set(range(6)) - suppressed_set(c6, s, h)


class TestBoundarySet:
    def test_p4(self, p4):
        assert boundary_set(p4, 1, 1) == {3}

    def test_c6(self, c6):
        assert boundary_set(c6, 0, 1) == {2, 4}

    def test_empty_beyond_eccentricity(self, p4):
        assert boundary_set(p4, 1, 2) == set()
        assert boundary_set(p4, 1, 5) == set()


class TestExcludedEdges:
    def test_p4_radius_zero(self, p4):
        assert excluded_edges(p4, 1, 0) == {(0, 1), (1, 2)}

    def test_p4_radius_one_takes_all(self, p4):
        assert excluded_edges(p4, 1, 1) == {(0, 1), (1, 2), (2, 3)}

    def test_all_edges_beyond_eccentricity(self, c6):
        assert excluded_edges(c6, 0, 3) == set(c6.edges)

    def test_membership_formulation_agrees(self):
        # edges touching the ball == edges with an endpoint within h hops
        rng = random.Random(41)
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 30), 0.2, rng)
            for s in range(g.node_count):
                for h in range(diameter(g) + 1):
                    ball = suppressed_set(g, s, h)
                    by_membership = {e for e in g.edges if e[0] in ball or e[1] in ball}
                    assert excluded_edges(g, s, h) == by_membership


class TestCandidateSet:
    def test_p4(self, p4):
        assert candidate_set(p4, 1, 1) == {0, 1}

    def test_radius_zero_pins_the_node(self, p4, c6):
        assert candidate_set(p4, 1, 0) == {1}
        assert candidate_set(c6, 4, 0) == {4}

    def test_c6(self, c6):
        assert candidate_set(c6, 0, 1) == {0}

    def test_silent_policy_leaves_everything_plausible(self, k4):
        assert candidate_set(k4, 0, 1) == {0, 1, 2, 3}


class TestCandidateSetMatchesOracles:
    """`candidate_set` keeps v when max_{w in S} d(v, w) < min_{u not in S}
    d(v, u); the layer-matching rule it replaced and the brute-force
    posterior judge it."""

    def test_layer_rule_on_every_atlas_instance(self):
        instances = 0
        for g in connected_atlas_graphs():
            ecc = g.distance_matrix().max(axis=1)
            for s in range(g.node_count):
                for h in range(int(ecc[s]) + 2):
                    assert candidate_set(g, s, h) == candidate_set_by_layers(g, s, h), (
                        g.edges, s, h)
                    instances += 1
        assert instances == 29075

    def test_layer_rule_on_random_graphs(self):
        rng = random.Random(89)
        graphs = []
        for seed in range(6):
            n = rng.randint(60, 300)
            graphs.append(gen_rgg(n, rng.uniform(1.6, 2.4) / n**0.5, seed).graph)
            graphs.append(random_connected_graph(n, rng.uniform(0.5, 3.0) / n, rng))
        proper = 0
        for g in graphs:
            ecc = g.distance_matrix().max(axis=1)
            for s in rng.sample(range(g.node_count), 6):
                for h in range(int(ecc[s]) + 2):
                    cands = candidate_set(g, s, h)
                    assert cands == candidate_set_by_layers(g, s, h), (g.node_count, s, h)
                    proper += 1 < len(cands) < g.node_count
        assert proper >= 100  # not only the pinned and the all-silent cases

    def test_bruteforce_posterior_on_n300_rggs(self):
        rng = random.Random(97)
        for seed in (1, 2, 3):
            g = gen_rgg(300, 0.12, seed).graph
            ecc = g.distance_matrix().max(axis=1)
            for _ in range(20):
                s = rng.randrange(g.node_count)
                h = rng.randint(0, int(ecc[s]))
                posterior = posterior_bruteforce(g, broadcast_set(g, s, h))
                assert candidate_set(g, s, h) == posterior.support, (seed, s, h)


class TestPrivacyUniform:
    def test_values(self):
        assert privacy_uniform({4}) == 1.0
        assert privacy_uniform({1, 2}) == 0.5
        assert privacy_uniform(set(range(1000))) == 0.001

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            privacy_uniform(set())


class TestPrivacyDensity:
    def test_constant_density_reduces_to_uniform(self):
        cands = {0, 1, 2, 5}
        rho = DensityMap(rho=np.full(8, 1.0))
        assert privacy_density(cands, 2, rho) == privacy_uniform(cands)

    def test_weighted(self):
        rho = DensityMap(rho=np.array([1.0, 3.0]))
        assert privacy_density({0, 1}, 1, rho) == 0.75

    def test_zero_density_at_private_node(self):
        rho = DensityMap(rho=np.array([0.0, 2.0]))
        assert privacy_density({0, 1}, 0, rho) == 0.0

    def test_zero_total_rejected(self):
        rho = DensityMap(rho=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="zero total"):
            privacy_density({0, 1}, 0, rho)

    def test_private_node_must_be_candidate(self):
        rho = DensityMap(rho=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="candidates"):
            privacy_density({0, 1}, 2, rho)


class TestDensityMap:
    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="positive"):
            DensityMap(rho=np.zeros(3))

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DensityMap(rho=np.array([1.0, -0.5]))
        with pytest.raises(ValueError, match="finite"):
            DensityMap(rho=np.array([1.0, np.inf]))


class TestAsymmetricPrivacy:
    def test_singleton(self):
        assert asymmetric_privacy(AsymmetricPolicy(frozenset({3}), 3)) == 1.0

    def test_whole_graph(self, c6):
        policy = AsymmetricPolicy(frozenset(range(6)), 0)
        assert asymmetric_privacy(policy) == 1.0 / 6.0

    def test_ball_silence_set_bounds_symmetric_privacy(self, p4):
        ball = frozenset(suppressed_set(p4, 1, 1))
        assert asymmetric_privacy(AsymmetricPolicy(ball, 1)) == pytest.approx(1 / 3)
        assert asymmetric_privacy(AsymmetricPolicy(ball, 1)) <= privacy_uniform(
            candidate_set(p4, 1, 1)
        )

    def test_private_node_membership_enforced(self):
        with pytest.raises(ValueError, match="private node"):
            AsymmetricPolicy(frozenset({1, 2}), 0)


class TestAnalyze:
    def test_p4_full_fixture(self, p4):
        a = analyze(p4, 1, 1)
        assert a.suppressed_nodes == {0, 1, 2}
        assert a.broadcast_nodes == {3}
        assert a.boundary == {3}
        assert a.candidates == {0, 1}
        assert a.privacy == 0.5
        assert a.cost == 3

    def test_p4_radius_zero(self, p4):
        a = analyze(p4, 1, 0)
        assert a.privacy == 1.0
        assert a.cost == 2

    def test_k4_degenerate_branch(self, k4):
        a = analyze(k4, 0, 1)
        assert a.broadcast_nodes == set()
        assert a.candidates == {0, 1, 2, 3}
        assert a.privacy == 0.25
        assert a.cost == 6

    def test_density_changes_privacy_only_via_prior(self, p4):
        rho = DensityMap(rho=np.array([3.0, 1.0, 1.0, 1.0]))
        a = analyze(p4, 1, 1, rho)
        assert a.candidates == {0, 1}
        assert a.privacy == 0.25  # rho(1) / (rho(0) + rho(1))

    def test_disconnected_rejected(self):
        g = build_graph([(0, 1), (2, 3)])
        with pytest.raises(Exception, match="disconnected"):
            analyze(g, 0, 1)

    def test_density_size_mismatch(self, p4):
        with pytest.raises(ValueError, match="size"):
            analyze(p4, 1, 1, DensityMap(rho=np.ones(3)))

    def test_json_dict_sorted(self, p4):
        d = analyze(p4, 1, 1).to_json_dict()
        assert d["suppressed_nodes"] == [0, 1, 2]
        assert d["excluded_edges"] == [[0, 1], [1, 2], [2, 3]]
        assert d["privacy"] == 0.5


class TestPolicyInvariants:
    def test_partition_and_boundary_structure(self):
        rng = random.Random(53)
        for _ in range(15):
            g = random_connected_graph(rng.randint(2, 40), 0.15, rng)
            nodes = set(range(g.node_count))
            for s in range(g.node_count):
                for h in range(diameter(g) + 1):
                    ball = suppressed_set(g, s, h)
                    rest = broadcast_set(g, s, h)
                    assert ball | rest == nodes and not ball & rest
                    # the boundary is exactly the broadcast nodes with a
                    # silenced neighbor, both ways round
                    touching = {v for v in rest if any(w in ball for w in g.adjacency[v])}
                    assert boundary_set(g, s, h) == touching
                    cands = candidate_set(g, s, h)
                    assert s in cands
                    assert cands <= ball

    def test_monotone_in_radius(self):
        rng = random.Random(59)
        for _ in range(12):
            g = random_connected_graph(rng.randint(2, 50), 0.1, rng)
            for s in range(g.node_count):
                for h in range(diameter(g)):
                    assert suppressed_set(g, s, h) <= suppressed_set(g, s, h + 1)
                    assert broadcast_set(g, s, h) >= broadcast_set(g, s, h + 1)
                    assert len(excluded_edges(g, s, h)) <= len(excluded_edges(g, s, h + 1))

    def test_boundary_is_next_distance_layer(self):
        rng = random.Random(61)
        for _ in range(12):
            g = random_connected_graph(rng.randint(2, 40), 0.15, rng)
            for s in range(g.node_count):
                layers = bfs_layers(g, s)
                for h in range(diameter(g) + 1):
                    expected = (
                        set(layers.layers[h + 1]) if h + 1 <= layers.eccentricity else set()
                    )
                    assert boundary_set(g, s, h) == expected

    def test_limit_radii(self):
        rng = random.Random(67)
        for _ in range(12):
            g = random_connected_graph(rng.randint(2, 30), 0.2, rng)
            n = g.node_count
            for s in range(n):
                assert candidate_set(g, s, 0) == {s}
                assert analyze(g, s, 0).privacy == 1.0
                ecc = bfs_layers(g, s).eccentricity
                assert analyze(g, s, ecc).privacy == 1.0 / n

    def test_candidates_match_bruteforce_oracle_small_exhaustive(self):
        # every isomorphism class up to 5 nodes here; the full 7-node run is
        # part of the acceptance suite
        for g in connected_atlas_graphs():
            if g.node_count > 5:
                continue
            for s in range(g.node_count):
                for h in range(bfs_layers(g, s).eccentricity + 2):
                    observed = broadcast_set(g, s, h)
                    posterior = posterior_bruteforce(g, observed)
                    cands = candidate_set(g, s, h)
                    assert cands == posterior.support
                    assert privacy_uniform(cands) == float(posterior.mass[s])

    def test_candidates_match_bruteforce_oracle_random_rggs(self):
        rng = random.Random(71)
        checked = 0
        for seed in range(200):
            n = rng.randint(5, 40)
            geo = gen_rgg(n, rng.uniform(0.35, 0.8), seed)
            g = geo.graph
            s = rng.randrange(g.node_count)
            h = rng.randint(0, bfs_layers(g, s).eccentricity)
            posterior = posterior_bruteforce(g, broadcast_set(g, s, h))
            assert candidate_set(g, s, h) == posterior.support
            checked += 1
        assert checked == 200

    def test_density_privacy_matches_posterior_oracle(self):
        rng = random.Random(73)
        for _ in range(25):
            g = random_connected_graph(rng.randint(3, 25), 0.2, rng)
            rho = DensityMap(
                rho=np.array([rng.uniform(0.1, 5.0) for _ in range(g.node_count)])
            )
            s = rng.randrange(g.node_count)
            h = rng.randint(0, diameter(g))
            pi = analyze(g, s, h, rho).privacy
            posterior = posterior_bruteforce(g, broadcast_set(g, s, h), rho)
            assert pi == pytest.approx(float(posterior.mass[s]), abs=1e-12)

    def test_constant_density_equals_uniform_bit_identical_when_normalized(self):
        rng = random.Random(79)
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 25), 0.2, rng)
            s = rng.randrange(g.node_count)
            h = rng.randint(0, diameter(g))
            ones = DensityMap(rho=np.ones(g.node_count))
            assert analyze(g, s, h, ones).privacy == analyze(g, s, h).privacy
