"""Suppression-policy analysis: derived node sets and privacy measures.

A symmetric policy around a private node s with hop radius h silences the
agent on every node within distance h. This module derives the sets an
observer can reconstruct from the resulting broadcasts and the posterior
probability the observer assigns to the true private node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _ROW_BLOCK, Graph, _induced
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


def _distances_from(g: Graph, s: int, h: int) -> np.ndarray:
    """Hop counts from s to every node, once the policy arguments check out."""
    g.check_node(s)
    if h < 0:
        raise ValueError("suppression radius must be >= 0")
    return g.distance_rows([s])[0]


def _edge_hops(g: Graph, from_s: np.ndarray) -> np.ndarray:
    """Each edge's hop count from s, that of its nearer endpoint, in the
    order of `g.edge_array`; `from_s` is the distance row of s."""
    ends = g.edge_array
    return np.minimum(from_s[ends[:, 0]], from_s[ends[:, 1]])


def _check_density(g: Graph, density: DensityMap | None) -> None:
    if density is not None and len(density) != g.node_count:
        raise ValueError("density map size does not match the node count")


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
    """Edges with at least one endpoint within h hops of s (no reports
    there): those whose nearer endpoint, by `_edge_hops`, is within h."""
    return set(map(tuple, g.edge_array[_edge_hops(g, _distances_from(g, s, h)) <= h].tolist()))


def candidate_set(g: Graph, s: int, h: int) -> set[int]:
    """Smallest node set the observer can certify contains s, given the
    broadcast set of the (s, h) policy.

    A node v is a candidate iff some ball around v is exactly the silenced
    set S, that is iff the farthest silenced node is strictly closer to v
    than the nearest broadcasting one:
    max_{w in S} d(v, w) < min_{u not in S} d(v, u). Only a silenced node can
    qualify, and `_ball_centres` decides each from the distance rows of
    G[S], the subgraph induced on S: O(|S| m_S) time, where m_S counts
    G[S]'s edges, and one block of 128 rows of |S| hop counts at a time.
    When the policy silences the whole graph there is no observation, and
    every node remains a candidate.
    """
    return set(_ball_centres(g, np.flatnonzero(_distances_from(g, s, h) <= h)).tolist())


def _ball_centres(g: Graph, inside: np.ndarray) -> np.ndarray:
    """The nodes v of U, the ascending int64 ids `inside`, around which some
    ball is exactly U, ascending.

    Every node qualifies when U is the whole graph, and none when U is
    empty or G[U], the subgraph induced on U, is disconnected, since a ball
    is connected. Otherwise only one radius can work for v in U: the ball
    of radius r = d(v, V - U) - 1 is the largest that misses V - U, and r is
    also v's least distance inside G[U] to an exit, a node of U with fewer
    neighbours in G[U] than in G. That ball is U exactly when v's
    eccentricity inside G[U] is at most r, which in G's own distances is
    max_{w in U} d(v, w) < min_{u not in U} d(v, u). So only G[U]'s rows are
    read, through `Graph.distance_rows`, a block at a time.
    """
    if len(inside) in (0, g.node_count):
        return inside
    sub = _induced(g, inside)
    keep = np.zeros(len(inside), dtype=bool)
    if sub.is_connected():
        exits = np.flatnonzero(np.diff(sub.csr().indptr) < np.diff(g.csr().indptr)[inside])
        for lo in range(0, len(inside), _ROW_BLOCK):
            rows = sub.distance_rows(np.arange(lo, min(lo + _ROW_BLOCK, len(inside))))
            keep[lo:lo + len(rows)] = rows.max(axis=1) <= rows[:, exits].min(axis=1)
    return inside[keep]


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


def _privacy(candidates: np.ndarray, s: int, density: DensityMap | None) -> float:
    """Posterior on s from the ascending candidate ids, under the uniform
    prior when `density` is None."""
    if density is None:
        return 1.0 / len(candidates)
    # A set of the ascending ids, as candidate_set returns it, so the density
    # sum runs in one order wherever it is taken.
    return privacy_density(set(candidates.tolist()), s, density)


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
    from_s = _distances_from(g, s, h)
    _check_density(g, density)
    edges_off = g.edge_array[_edge_hops(g, from_s) <= h]
    ball = np.flatnonzero(from_s <= h)
    candidates = _ball_centres(g, ball)
    return PolicyAnalysis(
        private_node=s,
        radius=h,
        suppressed_nodes=frozenset(ball.tolist()),
        broadcast_nodes=frozenset(np.flatnonzero(from_s > h).tolist()),
        boundary=frozenset(np.flatnonzero(from_s == h + 1).tolist()),
        candidates=frozenset(candidates.tolist()),
        excluded_edges=frozenset(map(tuple, edges_off.tolist())),
        privacy=_privacy(candidates, s, density),
        cost=len(edges_off),
    )
