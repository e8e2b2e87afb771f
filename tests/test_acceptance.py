"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The full-scale directional check is the long pole and runs last.
"""

import random
import time

import numpy as np

from privzone import (
    DensityMap,
    analyze,
    boundary_set,
    broadcast_set,
    build_graph,
    candidate_set,
    diameter,
    excluded_edges,
    gen_rgg,
    line_graph,
    observed_broadcast_set,
    posterior_bruteforce,
    privacy_uniform,
    simulate_walk,
    solve_asymmetric_exhaustive,
    solve_constrained,
    solve_tradeoff,
    suppressed_set,
    sweep,
)
from privzone.experiment import ExperimentConfig, run_experiment
from privzone.fileio import parse_sweep_csv

from oracles import bfs_layers_by_queue, connected_atlas_graphs, random_connected_graph


def _report(criterion: str, detail: str) -> None:
    print(f"criterion {criterion}: PASS - {detail}")


def test_criterion_1_oracle_equivalence_exhaustive():
    start = time.monotonic()
    instances = 0
    for g in connected_atlas_graphs():
        for s in range(g.node_count):
            ecc = bfs_layers_by_queue(g, s).eccentricity
            for h in range(ecc + 2):
                observed = broadcast_set(g, s, h)
                posterior = posterior_bruteforce(g, observed)
                cands = candidate_set(g, s, h)
                assert cands == posterior.support, (g.edges, s, h)
                assert privacy_uniform(cands) == float(posterior.mass[s]), (g.edges, s, h)
                instances += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"budget exceeded: {elapsed:.1f}s"
    _report(
        "1",
        f"candidate set == brute-force posterior support on every connected graph "
        f"with <= 7 nodes, every (s, h); {instances} instances in {elapsed:.1f}s",
    )


def test_criterion_2_density_reduction():
    rng = random.Random(211)
    for _ in range(200):
        g = random_connected_graph(rng.randint(2, 30), 0.2, rng)
        s = rng.randrange(g.node_count)
        h = rng.randint(0, diameter(g))
        c = rng.uniform(0.01, 100.0)
        flat = DensityMap(rho=np.full(g.node_count, c))
        weighted = analyze(g, s, h, flat).privacy
        uniform = analyze(g, s, h).privacy
        assert abs(weighted - uniform) <= 1e-12, (g.edges, s, h, c)
    _report("2", "constant-density privacy equals uniform privacy within 1e-12 "
            "on 200 random (graph, s, h) instances")


def test_criterion_3_boundary_identity():
    instances = 0
    for g in connected_atlas_graphs():
        for s in range(g.node_count):
            layers = bfs_layers_by_queue(g, s)
            for h in range(layers.eccentricity + 2):
                expected = (
                    set(layers.layers[h + 1]) if h + 1 <= layers.eccentricity else set()
                )
                assert boundary_set(g, s, h) == expected, (g.edges, s, h)
                instances += 1
    rng = random.Random(223)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 40), 0.15, rng)
        for s in range(g.node_count):
            layers = bfs_layers_by_queue(g, s)
            for h in range(layers.eccentricity + 1):
                expected = (
                    set(layers.layers[h + 1]) if h + 1 <= layers.eccentricity else set()
                )
                assert boundary_set(g, s, h) == expected
                instances += 1
    _report("3", f"boundary set equals the distance-(h+1) layer on {instances} instances")


def test_criterion_4_monotonicity_suite():
    rng = random.Random(227)
    findings = []
    instances = 0
    for _ in range(30):
        g = random_connected_graph(rng.randint(2, 50), 0.12, rng)
        d = diameter(g)
        for s in range(g.node_count):
            prev_candidates = 0
            for h in range(d + 1):
                if h < d:
                    assert suppressed_set(g, s, h) <= suppressed_set(g, s, h + 1)
                    assert broadcast_set(g, s, h) >= broadcast_set(g, s, h + 1)
                    assert len(excluded_edges(g, s, h)) <= len(excluded_edges(g, s, h + 1))
                count = len(candidate_set(g, s, h))
                if count < prev_candidates:
                    findings.append((tuple(g.edges), s, h, prev_candidates, count))
                prev_candidates = count
                instances += 1
    for finding in findings:
        print(f"criterion 4 FINDING: candidate count decreased in h at {finding}")
    _report(
        "4",
        f"suppressed set, broadcast set and cost monotone in h on {instances} instances; "
        f"candidate-count monotonicity findings: {len(findings)}",
    )


def test_criterion_5_limit_cases(p4):
    rng = random.Random(229)
    graphs = [p4] + [random_connected_graph(rng.randint(2, 25), 0.2, rng) for _ in range(20)]
    for g in graphs:
        n = g.node_count
        for s in range(n):
            assert analyze(g, s, 0).privacy == 1.0
            ecc = bfs_layers_by_queue(g, s).eccentricity
            assert analyze(g, s, ecc).privacy == 1.0 / n
            assert analyze(g, s, ecc + 1).privacy == 1.0 / n
        s = rng.randrange(n)
        assert solve_constrained(g, s, 1.0).h_star == 0
        below_floor = 0.9 / n
        solution = solve_constrained(g, s, below_floor)
        assert solution.feasible is False
        assert solution.h_star == diameter(g)
    _report("5", "h=0 gives privacy 1, h>=ecc gives the 1/|V| floor, xi=1 picks h=0, "
            "xi below the floor raises the infeasible flag (21 graphs)")


def test_criterion_6_asymmetric_bound():
    rng = random.Random(233)
    for _ in range(50):
        g = random_connected_graph(rng.randint(2, 12), 0.25, rng)
        s = rng.randrange(g.node_count)
        gamma = rng.uniform(1e-3, 2.0)
        _, asym_obj = solve_asymmetric_exhaustive(g, s, gamma)
        sym_obj = solve_tradeoff(g, s, gamma).objective
        assert asym_obj <= sym_obj, (g.edges, s, gamma, asym_obj, sym_obj)
    _report("6", "exhaustive silence-set optimum never exceeds the best radius-policy "
            "objective on 50 random graphs with <= 12 nodes")


def _directional_checks(
    n: int, radius: float, seeds: tuple[int, ...], tmp_path, oracle_check: bool = False
):
    """Compare the max- and min-betweenness sweeps seed by seed.

    h* is the first radius with privacy <= 0.1, which is also the cheapest
    radius meeting that cap (`solve_constrained` with xi = 0.1). Returns the
    number of seeds where the max-betweenness node pays at least the cost at
    every common radius, the number where its h* is no larger than the
    min-betweenness node's, and the per-seed (seed, h_max, h_min, ecc_max,
    ecc_min). With `oracle_check`, the swept candidate counts at h* - 1 and h*
    of both targets are checked against the brute-force observer.
    """
    result_max = run_experiment(
        ExperimentConfig(n=n, radius=radius, seeds=seeds, target="max-betweenness"),
        tmp_path / f"max_{n}",
    )
    result_min = run_experiment(
        ExperimentConfig(n=n, radius=radius, seeds=seeds, target="min-betweenness"),
        tmp_path / f"min_{n}",
    )
    cost_ok = 0
    threshold_ok = 0
    thresholds = []
    for seed in seeds:
        g = gen_rgg(n, radius, seed).graph
        sides = []
        for result in (result_max, result_min):
            node = result.target_nodes[seed]
            rows = parse_sweep_csv(result.seed_files[seed].read_text(encoding="utf-8"))
            h_star = next(r[0] for r in rows if r[3] <= 0.1)
            if oracle_check:
                for h in (h_star - 1, h_star):
                    assert rows[h][0] == h
                    posterior = posterior_bruteforce(g, broadcast_set(g, node, h))
                    assert node in posterior.support, (seed, node, h)
                    assert len(posterior.support) == rows[h][2], (seed, node, rows[h])
            sides.append((rows, h_star, bfs_layers_by_queue(g, node).eccentricity))
        (rows_max, h_max, ecc_max), (rows_min, h_min, ecc_min) = sides
        common = min(len(rows_max), len(rows_min))
        if all(rows_max[i][4] >= rows_min[i][4] for i in range(common)):
            cost_ok += 1
        thresholds.append((seed, h_max, h_min, ecc_max, ecc_min))
        if h_max <= h_min:
            threshold_ok += 1
    return cost_ok, threshold_ok, thresholds


def test_criterion_7_directional_reproduction_desk_scale(tmp_path):
    start = time.monotonic()
    seeds = tuple(range(1, 11))
    cost_ok, threshold_ok, thresholds = _directional_checks(
        300, 0.12, seeds, tmp_path, oracle_check=True
    )
    elapsed = time.monotonic() - start
    assert cost_ok >= 8, f"cost curve ordering held in only {cost_ok}/10 seeds"
    assert threshold_ok >= 8, (
        f"privacy-threshold ordering held in only {threshold_ok}/10 seeds; per-seed "
        f"(seed, first h with privacy<=0.1 for max-betweenness, same for min-betweenness, "
        f"eccentricity of the max-betweenness node, of the min-betweenness node) = "
        f"{thresholds}. Privacy reaches the 1/|V| floor exactly at the target's "
        f"eccentricity and only falls below 0.1 once the silence ball covers nearly the "
        f"whole graph, so the central node, with the smaller eccentricity, is expected to "
        f"reach the 0.1 bar at a radius no larger than the peripheral node's. "
        f"tests/criterion7_evidence.py prints the per-seed analysis."
    )
    assert elapsed < 120, f"budget exceeded: {elapsed:.1f}s"
    _report(
        "7 (desk scale)",
        f"max-betweenness node pays >= cost at every h in {cost_ok}/10 seeds and needs a "
        f"<= radius for privacy <= 0.1 in {threshold_ok}/10 seeds; brute-force posterior "
        f"support == CSV candidates at h*-1 and h* for both targets in every seed "
        f"(n=300, {elapsed:.0f}s)",
    )


def test_criterion_8_simulation_closure(p4, c6):
    for g, s, h in ((p4, 1, 1), (c6, 0, 1)):
        trace = simulate_walk(g, s, h, 100_000, 31)
        observed = observed_broadcast_set(trace)
        assert observed == broadcast_set(g, s, h)
        posterior = posterior_bruteforce(g, observed)
        assert float(posterior.mass[s]) == analyze(g, s, h).privacy
    _report("8", "100k-step walks on P4 and C6 reveal exactly the broadcast set, and the "
            "posterior mass at the private node equals the policy privacy exactly")


def test_criterion_9_sweep_performance():
    geo = gen_rgg(1000, 0.1, 424242)
    g = geo.graph
    assert g.node_count + geo.discarded == 1000
    start = time.monotonic()
    rows = sweep(g, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"
    assert len(rows) == diameter(g) + 1
    assert rows[-1].privacy == 1.0 / g.node_count
    _report("9", f"full sweep over {len(rows)} radii on an n={g.node_count} geometric "
            f"graph in {elapsed:.1f}s (< 60s)")


def test_criterion_10_line_graph_identities():
    triangle = build_graph([(0, 1), (1, 2), (0, 2)])
    dual, _ = line_graph(triangle)
    assert dual.node_count == 3 and set(dual.edges) == {(0, 1), (0, 2), (1, 2)}
    star = build_graph([(0, 1), (0, 2), (0, 3), (0, 4)])
    dual, _ = line_graph(star)
    assert dual.node_count == 4
    assert set(dual.edges) == {(i, j) for i in range(4) for j in range(i + 1, 4)}
    rng = random.Random(239)
    for _ in range(100):
        g = random_connected_graph(rng.randint(2, 30), 0.15, rng)
        dual, mapping = line_graph(g)
        assert dual.node_count == len(g.edges)
        assert len(dual.edges) == sum(
            g.degree(v) * (g.degree(v) - 1) // 2 for v in range(g.node_count)
        )
        assert mapping == g.edges
    _report("10", "node/edge count identities on 100 random graphs; triangle and star "
            "fixtures exact")


def test_criterion_7_directional_reproduction_full_scale(tmp_path):
    start = time.monotonic()
    seeds = tuple(range(1, 11))
    cost_ok, threshold_ok, thresholds = _directional_checks(1000, 0.1, seeds, tmp_path)
    elapsed = time.monotonic() - start
    assert elapsed < 900, f"budget exceeded: {elapsed:.1f}s"
    assert cost_ok >= 8, f"cost curve ordering held in only {cost_ok}/10 seeds"
    assert threshold_ok >= 8, (
        f"privacy-threshold ordering held in only {threshold_ok}/10 seeds; per-seed "
        f"(seed, h_max, h_min, ecc_max, ecc_min) = {thresholds}; see the desk-scale "
        f"variant for the analysis."
    )
    _report(
        "7 (full scale)",
        f"same directional checks at n=1000, radius 0.1: cost ordering {cost_ok}/10, "
        f"threshold ordering (h_max <= h_min) {threshold_ok}/10 ({elapsed:.0f}s)",
    )
