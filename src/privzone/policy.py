"""Suppression-policy analysis: derived node sets and privacy measures.

A symmetric policy around a private node s with hop radius h silences the
agent on every node within distance h. This module derives the sets an
observer can reconstruct from the resulting broadcasts and the posterior
probability the observer assigns to the true private node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .graph import induced_diameter  # noqa: F401  perfbench/tracing.py wraps policy.induced_diameter by name

__all__ = [
    "DensityMap",
    "AsymmetricPolicy",
    "PolicyAnalysis",
    "suppressed_set",
    "broadcast_set",
    "boundary_set",
    "excluded_edges",
    "candidate_set",
    "privacy_uniform",
    "privacy_density",
    "asymmetric_privacy",
    "analyze",
]


@dataclass(frozen=True, eq=False)
class DensityMap:
    """Nonnegative population density per node."""

    rho: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.rho, dtype=np.float64)
        object.__setattr__(self, "rho", values)
        if values.ndim != 1:
            raise ValueError("density must be a flat per-node vector")
        if not np.isfinite(values).all():
            raise ValueError("density values must be finite")
        if (values < 0).any():
            raise ValueError("density values must be nonnegative")
        if not (values > 0).any():
            raise ValueError("density must have at least one positive entry")

    def __len__(self) -> int:
        return len(self.rho)


@dataclass(frozen=True)
class AsymmetricPolicy:
    """Arbitrary silence set; must contain the private node."""

    suppressed_nodes: frozenset[int]
    private_node: int

    def __post_init__(self):
        if self.private_node not in self.suppressed_nodes:
            raise ValueError("the private node must belong to the suppressed set")


@dataclass(frozen=True)
class PolicyAnalysis:
    """Everything derived from one (private node, radius) policy choice."""

    private_node: int
    radius: int
    suppressed_nodes: frozenset[int]
    broadcast_nodes: frozenset[int]
    boundary: frozenset[int]
    candidates: frozenset[int]
    excluded_edges: frozenset[tuple[int, int]]
    privacy: float
    cost: int

    def to_json_dict(self) -> dict:
        """Stable JSON form: node and edge lists sorted ascending."""
        return {
            "private_node": self.private_node,
            "radius": self.radius,
            "suppressed_nodes": sorted(self.suppressed_nodes),
            "broadcast_nodes": sorted(self.broadcast_nodes),
            "boundary": sorted(self.boundary),
            "candidates": sorted(self.candidates),
            "excluded_edges": sorted(list(e) for e in self.excluded_edges),
            "privacy": self.privacy,
            "cost": self.cost,
        }


def _check_policy_args(g: Graph, s: int, h: int) -> None:
    g.check_node(s)
    if h < 0:
        raise ValueError("suppression radius must be >= 0")


def _distances_from(g: Graph, s: int, h: int) -> np.ndarray:
    """Hop counts from s to every node, once the policy arguments check out."""
    _check_policy_args(g, s, h)
    return g.distance_rows([s])[0]


def suppressed_set(g: Graph, s: int, h: int) -> set[int]:
    """Nodes within h hops of s (the closed ball where the agent is silent)."""
    return set(np.flatnonzero(_distances_from(g, s, h) <= h).tolist())


def broadcast_set(g: Graph, s: int, h: int) -> set[int]:
    """Nodes at distance >= h+1 from s, where positions are still reported."""
    return set(np.flatnonzero(_distances_from(g, s, h) > h).tolist())


def boundary_set(g: Graph, s: int, h: int) -> set[int]:
    """Broadcast nodes with at least one silenced neighbor: in a connected
    graph, exactly the nodes at distance h+1 from s."""
    return set(np.flatnonzero(_distances_from(g, s, h) == h + 1).tolist())


def excluded_edges(g: Graph, s: int, h: int) -> set[tuple[int, int]]:
    """Edges with at least one endpoint within h hops of s (no reports there)."""
    ends = g.edge_array
    near = _distances_from(g, s, h)[ends].min(axis=1) <= h
    return set(map(tuple, ends[near].tolist()))


def candidate_set(g: Graph, s: int, h: int) -> set[int]:
    """Smallest node set the observer can certify contains s, given the
    broadcast set of the (s, h) policy.

    A node v is a candidate iff some ball around v is exactly the silenced
    set S, that is iff the farthest silenced node is strictly closer to v
    than the nearest broadcasting one:
    max_{w in S} d(v, w) < min_{u not in S} d(v, u). This is the rule
    `optimize.sweep` applies to every radius at once; here it reads the
    distance rows of S only, O(|S| n) memory. When the policy silences the
    whole graph there is no observation, and every node remains a candidate.
    """
    silenced = _distances_from(g, s, h) <= h
    if silenced.all():
        return set(range(g.node_count))
    sel = np.flatnonzero(silenced)
    rows = g.distance_rows(sel)
    ok = rows[:, silenced].max(axis=1) < rows[:, ~silenced].min(axis=1)
    return set(sel[ok].tolist())


def privacy_uniform(candidates) -> float:
    """Observer posterior on the true private node under a uniform prior."""
    k = len(candidates)
    if k == 0:
        raise ValueError("candidate set is empty; the private node is always a member")
    return 1.0 / k


def privacy_density(candidates, s: int, density: DensityMap) -> float:
    """Observer posterior on the true private node under a density prior."""
    if s not in set(candidates):
        raise ValueError("private node must be one of the candidates")
    total = float(sum(float(density.rho[v]) for v in candidates))
    if total <= 0.0:
        raise ValueError("candidate set has zero total density; posterior undefined")
    return float(density.rho[s]) / total


def asymmetric_privacy(policy: AsymmetricPolicy) -> float:
    """Observer posterior when the silence set is an arbitrary node set."""
    return 1.0 / len(policy.suppressed_nodes)


def analyze(g: Graph, s: int, h: int, density: DensityMap | None = None) -> PolicyAnalysis:
    """Full policy analysis for one (private node, radius) choice.

    Args:
        g: connected graph.
        s: private node.
        h: suppression radius in hops.
        density: optional per-node prior weights; uniform when omitted.

    Returns:
        PolicyAnalysis with every derived set, the privacy measure, and the
        count of report-free edges.
    """
    g.ensure_connected()
    _check_policy_args(g, s, h)
    if density is not None and len(density) != g.node_count:
        raise ValueError("density map size does not match the node count")
    silenced = suppressed_set(g, s, h)
    broadcasting = broadcast_set(g, s, h)
    candidates = candidate_set(g, s, h)
    edges_off = excluded_edges(g, s, h)
    if density is None:
        privacy = privacy_uniform(candidates)
    else:
        privacy = privacy_density(candidates, s, density)
    return PolicyAnalysis(
        private_node=s,
        radius=h,
        suppressed_nodes=frozenset(silenced),
        broadcast_nodes=frozenset(broadcasting),
        boundary=frozenset(boundary_set(g, s, h)),
        candidates=frozenset(candidates),
        excluded_edges=frozenset(edges_off),
        privacy=privacy,
        cost=len(edges_off),
    )
