"""Per-seed evidence behind the criterion-7 directional checks.

Run from the repo root:

    PYTHONPATH=src python tests/criterion7_evidence.py            # both scales
    PYTHONPATH=src python tests/criterion7_evidence.py --scale desk

For every seed of the criterion-7 experiments (n=300, r=0.12 and n=1000,
r=0.1, seeds 1-10) it prints, for the max- and min-betweenness targets chosen
as `run_experiment` chooses them, the first radius whose privacy is at most
0.1 and at most 0.5, and each target's eccentricity. Privacy is recomputed
here from the definition for two readings of the observer: one that does not
know the radius (a node is a candidate when some ball around it equals the
silenced set, as in `posterior_bruteforce`) and one that does (the ball of
the same radius must equal it). The first reading is checked against the
candidate counts of `sweep` for both targets. It also compares the
max-betweenness target with every node tied at the minimum betweenness,
since `argmin` keeps only the lowest id among them. The min target that
`run_experiment` picks without computing betweenness (the smallest simplicial
node) is asserted equal to this script's own argmin on every seed.

Not collected by pytest; it takes about a minute, most of it at n=1000.
"""

from __future__ import annotations

import argparse

import numpy as np

from privzone import betweenness, gen_rgg, sweep
from privzone.experiment import _betweenness_target

SCALES = {"desk": (300, 0.12), "full": (1000, 0.1)}
SEEDS = tuple(range(1, 11))


def candidate_counts(dist: np.ndarray, s: int, known_radius: bool) -> list[int]:
    """Candidate count per radius 0..diameter for an observer of the (s, h) policy."""
    counts = []
    for h in range(int(dist.max()) + 1):
        silenced = dist[s] <= h
        if known_radius:
            count = int(((dist <= h) == silenced).all(axis=1).sum())
        else:
            # Some ball around v equals the silenced set iff the farthest
            # silenced node is closer to v than the nearest broadcasting one.
            rows = dist[silenced]
            far = rows[:, silenced].max(axis=1)
            near = rows[:, ~silenced].min(axis=1) if (~silenced).any() else far + 1
            count = int((far < near).sum())
        counts.append(count)
    return counts


def first_radius(counts: list[int], xi: float) -> int:
    return next(h for h, k in enumerate(counts) if 1.0 / k <= xi)


def run_scale(name: str) -> None:
    n, radius = SCALES[name]
    print(f"== {name} scale: n={n}, r={radius}")
    print("seed  t_max t_min  ecc_max ecc_min  h0.1(max,min)  h0.5(max,min)  known-h h0.1(max,min)")
    at_01 = at_05 = known_01 = ecc_order = 0
    failing_05 = []
    ties = ties_larger = 0
    tie_exceptions = []
    for seed in SEEDS:
        g = gen_rgg(n, radius, seed).graph
        dist = g.distance_matrix()
        scores = betweenness(g)
        t_max, t_min = int(np.argmax(scores)), int(np.argmin(scores))
        picked = _betweenness_target(g, "min-betweenness")
        assert picked == t_min, f"seed {seed}: the picker chose {picked}, argmin is {t_min}"
        unknown = {}
        for t in (t_max, t_min):
            unknown[t] = candidate_counts(dist, t, known_radius=False)
            swept = [row.candidate_count for row in sweep(g, t)]
            assert swept == unknown[t], f"seed {seed}, target {t}: sweep disagrees"
        known = {t: candidate_counts(dist, t, known_radius=True) for t in (t_max, t_min)}
        ecc = {t: int(dist[t].max()) for t in (t_max, t_min)}
        h01 = [first_radius(unknown[t], 0.1) for t in (t_max, t_min)]
        h05 = [first_radius(unknown[t], 0.5) for t in (t_max, t_min)]
        k01 = [first_radius(known[t], 0.1) for t in (t_max, t_min)]
        at_01 += h01[0] <= h01[1]
        known_01 += k01[0] <= k01[1]
        ecc_order += ecc[t_max] < ecc[t_min]
        if h05[0] >= h05[1]:
            at_05 += 1
        else:
            failing_05.append(seed)
        for t in np.flatnonzero(scores == scores[t_min]).tolist():
            h_tie = first_radius(candidate_counts(dist, t, known_radius=False), 0.1)
            ties += 1
            if h_tie > h01[0]:
                ties_larger += 1
            else:
                tie_exceptions.append((seed, t, h_tie, h01[0]))
        print(
            f"{seed:>4}  {t_max:>5} {t_min:>5}  {ecc[t_max]:>7} {ecc[t_min]:>7}  "
            f"{str(tuple(h01)):>13}  {str(tuple(h05)):>13}  {str(tuple(k01)):>21}"
        )
    total = len(SEEDS)
    print(f"h_max <= h_min at privacy 0.1: {at_01}/{total} seeds")
    print(f"h_max <= h_min at privacy 0.1, observer knows h: {known_01}/{total} seeds")
    print(f"ecc(max-betweenness) < ecc(min-betweenness): {ecc_order}/{total} seeds")
    print(f"h_max >= h_min at privacy 0.5: {at_05}/{total} seeds; fails on seeds {failing_05}")
    print(
        f"nodes tied at the minimum betweenness: {ties}; {ties_larger} need a larger "
        f"radius for privacy 0.1 than the max-betweenness node; others "
        f"(seed, node, h, h_max): {tie_exceptions}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("desk", "full", "both"), default="both")
    args = parser.parse_args()
    for name in ("desk", "full") if args.scale == "both" else (args.scale,):
        run_scale(name)


if __name__ == "__main__":
    main()
