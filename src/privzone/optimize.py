"""Radius selection: full h-sweeps, trade-off and constrained solvers, and a
tiny-scale exhaustive solver over arbitrary silence sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphValidityError
from .graph import diameter  # noqa: F401  perfbench/tracing.py wraps optimize.diameter by name
from .policy import DensityMap, _check_density, _layer_extrema, _privacy
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
    s; it matches `analyze(g, s, h, density)` field for field, and its
    candidates follow the rule of `policy.candidate_set`.
    `policy._layer_extrema` gives both sides of that rule, and the diameter,
    for every node and radius at once from the distance rows of all n nodes,
    which `Graph.distance_rows` slices from a cached matrix (as
    `betweenness` leaves one) or computes a block at a time, so the sweep
    keeps nothing n x n. The suppressed and cost counts are cumulative
    bincounts of dist[s] and of each edge's nearer endpoint. Past the rows,
    the sweep is O(n^2).
    """
    g.ensure_connected()
    g.check_node(s)
    _check_density(g, density)
    n = g.node_count
    from_s = g.distance_rows([s])[0]
    ecc = int(from_s.max())
    far, near = _layer_extrema(g, from_s, np.arange(n))
    top = int(far[:, -1].max())

    suppressed = np.cumsum(np.bincount(from_s, minlength=top + 1))
    cost = np.cumsum(np.bincount(from_s[g.edge_array].min(axis=1), minlength=top + 1))

    rows = []
    for h in range(top + 1):
        members = np.flatnonzero(far[:, h] < near[:, h + 1]) if h < ecc else np.arange(n)
        rows.append(
            SweepRow(
                h=h,
                suppressed_count=int(suppressed[h]),
                candidate_count=len(members),
                privacy=_privacy(members, s, density),
                cost=int(cost[h]),
            )
        )
    return rows


def solve_tradeoff(
    g: Graph, s: int, gamma: float, density: DensityMap | None = None
) -> Solution:
    """Radius minimizing privacy + gamma * cost; ties go to the smallest radius."""
    if not 0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
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

    Cost is nondecreasing in h, so the first feasible radius is the cheapest.
    If no radius is feasible, falls back to never broadcasting (radius =
    diameter) with the feasible flag cleared.
    """
    if not (0.0 <= xi <= 1.0):
        raise ValueError("xi must lie in [0, 1]")
    rows = sweep(g, s, density)
    best = next((r for r in rows if r.privacy <= xi), None)
    if best is None:
        last = rows[-1]
        return Solution(h_star=last.h, privacy=last.privacy, cost=last.cost, feasible=False)
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
    if not 0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
    n = g.node_count
    if n > ASYMMETRIC_NODE_CAP:
        raise GraphValidityError(
            f"exhaustive silence-set search is limited to {ASYMMETRIC_NODE_CAP} nodes "
            f"(got {n}); use the symmetric solver solve_tradeoff instead"
        )
    # Bit s inserted into every (n - 1)-bit number: each silence set that
    # holds s, as a mask.
    low = np.arange(1 << (n - 1), dtype=np.int64)
    sets = (low >> s << (s + 1)) | (1 << s) | (low & ((1 << s) - 1))
    size = np.zeros_like(sets)
    for v in range(n):
        size += (sets & (1 << v)) != 0
    cost = np.zeros_like(sets)
    for i, j in g.edges:
        cost += (sets & ((1 << i) | (1 << j))) != 0
    with np.errstate(over="ignore"):  # gamma * cost may round to inf, as it does in Python
        obj = 1.0 / size + gamma * cost
    best_obj = obj.min()
    tied = obj == best_obj
    tied &= size == size[tied].min()

    def members(mask: int) -> list[int]:
        return [v for v in range(n) if mask >> v & 1]

    best = min(sets[tied].tolist(), key=members)
    return set(members(best)), float(best_obj)
