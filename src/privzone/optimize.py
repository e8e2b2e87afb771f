"""Radius selection: full h-sweeps, trade-off and constrained solvers, and a
tiny-scale exhaustive solver over arbitrary silence sets."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import Graph, GraphValidityError, diameter
from .policy import DensityMap, privacy_density
from .policy import analyze  # noqa: F401  perfbench/tracing.py wraps optimize.analyze by name

__all__ = [
    "ASYMMETRIC_NODE_CAP",
    "SweepRow",
    "Solution",
    "sweep",
    "solve_tradeoff",
    "solve_constrained",
    "solve_asymmetric_exhaustive",
]

# Exhaustive search over silence sets doubles per node; keep instances tiny.
ASYMMETRIC_NODE_CAP = 20


@dataclass(frozen=True)
class SweepRow:
    """Policy metrics for one radius value."""

    h: int
    suppressed_count: int
    candidate_count: int
    privacy: float
    cost: int


@dataclass(frozen=True)
class Solution:
    """Chosen radius with its metrics.

    `objective` is set by the trade-off solver only; `feasible` by the
    constrained solver only.
    """

    h_star: int
    privacy: float
    cost: int
    objective: float | None = None
    feasible: bool | None = None

    def to_json_dict(self) -> dict:
        out = {"h_star": self.h_star, "privacy": self.privacy, "cost": self.cost}
        if self.objective is not None:
            out["objective"] = self.objective
        if self.feasible is not None:
            out["feasible"] = self.feasible
        return out


def sweep(g: Graph, s: int, density: DensityMap | None = None) -> list[SweepRow]:
    """Privacy and cost of every radius from 0 to the graph diameter inclusive.

    Row h describes the policy that silences the ball S_h of radius h around
    s; it matches `analyze(g, s, h, density)` field for field. Once S_h is
    the whole graph every node is a candidate. Before that, a silenced node v
    is a candidate exactly when the farthest silenced node is strictly closer
    to v than the nearest broadcasting one:
    max_{w in S_h} d(v, w) < min_{u not in S_h} d(v, u).

    Both sides come from the distance layers of s, each read once from the
    cached distance matrix: the first is a running max over the layers 0..h,
    the second a backward running min over the layers beyond h. The
    suppressed and cost counts are cumulative bincounts of dist[s] and of
    each edge's nearer endpoint. The whole sweep is O(n^2).
    """
    g.ensure_connected()
    top = diameter(g)
    g.check_node(s)
    if density is not None and len(density) != g.node_count:
        raise ValueError("density map size does not match the node count")
    dist = g.distance_matrix()
    n = g.node_count
    from_s = dist[s]
    ecc = int(from_s.max())

    suppressed = np.cumsum(np.bincount(from_s, minlength=top + 1))
    ends = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    nearer = np.minimum(from_s[ends[:, 0]], from_s[ends[:, 1]])
    cost = np.cumsum(np.bincount(nearer, minlength=top + 1))

    # farthest[d, v]: max of d(v, w) over the layers 0..d of s;
    # nearest[d, v]: min of d(v, w) over the layers d..ecc.
    layers = np.split(np.argsort(from_s), np.cumsum(np.bincount(from_s))[:-1])
    farthest = np.empty((ecc + 1, n), dtype=dist.dtype)
    nearest = np.empty((ecc + 1, n), dtype=dist.dtype)
    for d, layer in enumerate(layers):
        block = dist[layer]
        block.max(axis=0, out=farthest[d])
        block.min(axis=0, out=nearest[d])
        if d:
            np.maximum(farthest[d], farthest[d - 1], out=farthest[d])
    for d in range(ecc - 1, -1, -1):
        np.minimum(nearest[d], nearest[d + 1], out=nearest[d])

    rows = []
    for h in range(top + 1):
        if h < ecc:
            members = np.flatnonzero((from_s <= h) & (farthest[h] < nearest[h + 1]))
        else:
            members = np.arange(n)
        if density is None:
            privacy = 1.0 / len(members)
        else:
            # A set of the ascending ids, as candidate_set returns it, so the
            # density sum runs in the same order as in analyze.
            privacy = privacy_density(set(members.tolist()), s, density)
        rows.append(
            SweepRow(
                h=h,
                suppressed_count=int(suppressed[h]),
                candidate_count=len(members),
                privacy=privacy,
                cost=int(cost[h]),
            )
        )
    return rows


def solve_tradeoff(
    g: Graph, s: int, gamma: float, density: DensityMap | None = None
) -> Solution:
    """Radius minimizing privacy + gamma * cost; ties go to the smallest radius."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    rows = sweep(g, s, density)
    best = min(rows, key=lambda r: (r.privacy + gamma * r.cost, r.h))
    return Solution(
        h_star=best.h,
        privacy=best.privacy,
        cost=best.cost,
        objective=best.privacy + gamma * best.cost,
    )


def solve_constrained(
    g: Graph, s: int, xi: float, density: DensityMap | None = None
) -> Solution:
    """Cheapest radius whose privacy measure is at most xi.

    The cost-minimal feasible radius is selected by scanning the whole sweep
    (cost is nondecreasing in h, so this coincides with the first feasible
    radius). If no radius is feasible, falls back to never broadcasting
    (radius = diameter) with the feasible flag cleared.
    """
    if not (0.0 <= xi <= 1.0):
        raise ValueError("xi must lie in [0, 1]")
    rows = sweep(g, s, density)
    feasible = [r for r in rows if r.privacy <= xi]
    if not feasible:
        last = rows[-1]
        return Solution(h_star=last.h, privacy=last.privacy, cost=last.cost, feasible=False)
    best = min(feasible, key=lambda r: (r.cost, r.h))
    return Solution(h_star=best.h, privacy=best.privacy, cost=best.cost, feasible=True)


def solve_asymmetric_exhaustive(
    g: Graph, s: int, gamma: float
) -> tuple[set[int], float]:
    """Exact minimizer of privacy + gamma * cost over every silence set
    containing s.

    The search space doubles with each node, so graphs above
    ASYMMETRIC_NODE_CAP nodes are rejected; use solve_tradeoff for anything
    larger.

    Ties break toward the smaller set, then lexicographically.
    """
    g.ensure_connected()
    g.check_node(s)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = g.node_count
    if n > ASYMMETRIC_NODE_CAP:
        raise GraphValidityError(
            f"exhaustive silence-set search is limited to {ASYMMETRIC_NODE_CAP} nodes "
            f"(got {n}); use the symmetric solver solve_tradeoff instead"
        )
    edge_masks = [(1 << i) | (1 << j) for i, j in g.edges]
    others = [v for v in range(n) if v != s]
    best_key: tuple[float, int, tuple[int, ...]] | None = None
    best_set: set[int] = set()
    best_obj = 0.0
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            members = (s, *extra)
            mask = 0
            for v in members:
                mask |= 1 << v
            cost = sum(1 for em in edge_masks if em & mask)
            obj = 1.0 / len(members) + gamma * cost
            key = (obj, len(members), tuple(sorted(members)))
            if best_key is None or key < best_key:
                best_key = key
                best_set = set(members)
                best_obj = obj
    return best_set, best_obj
