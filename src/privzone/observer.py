"""Random-walk simulation of a silenced agent and the observer's inference.

`simulate_walk` records the walk as a `WalkTrace` of two arrays, the node
visited at each time step and whether it broadcast there, about 9 bytes per
step. The walk itself is one list comprehension per chunk of draws; the
broadcast flags, the observed set and the coverage step are array
operations on that record.

`posterior_bruteforce` recovers the observer's posterior by direct
enumeration: a node is a plausible private node exactly when some radius
around it silences exactly the nodes the observer never heard from, the set
U. A heard node lies inside every ball around itself, so only nodes of U
qualify, and `policy._ball_centres` finds them from the distance rows of
G[U], the subgraph induced on U, alone. `policy.candidate_set` and
`policy.analyze` call the same helper on the silenced ball S of a known
policy, so every ball test in the library but the sweep's runs through it;
`optimize.sweep` keeps its own layer kernel over the rows of the whole
graph, and the tests hold the two equal. The tests also hold the posterior
equal, bit for bit, to `posterior_by_bfs` in `tests/oracles.py`, which tries
every radius of every node over one breadth-first search per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, _ensure_fits
from .graph import bfs_layers  # noqa: F401  perfbench/tracing.py wraps observer.bfs_layers by name
from .policy import DensityMap, _ball_centres, _check_density

__all__ = [
    "InfeasibleError",
    "WalkTrace",
    "Posterior",
    "simulate_walk",
    "observed_broadcast_set",
    "coverage_step",
    "posterior_bruteforce",
]


# Steps per chunk of random draws in `simulate_walk`.
_WALK_CHUNK = 16384
# A trace holds one int64 node and one bool flag per step.
_TRACE_BYTES_PER_STEP = 9


class InfeasibleError(RuntimeError):
    """Raised when an observation is inconsistent with every symmetric policy."""


@dataclass(frozen=True, eq=False)
class WalkTrace:
    """A walk as two equal-length arrays indexed by the time step t:
    `nodes[t]` is the node visited (int64) and `broadcast[t]` whether it
    broadcast there (bool). Traces compare equal when their contents do."""

    nodes: np.ndarray
    broadcast: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.int64)
        broadcast = np.asarray(self.broadcast, dtype=bool)
        if nodes.ndim != 1 or nodes.shape != broadcast.shape:
            raise ValueError("trace nodes and broadcast flags must be 1-D and of equal length")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "broadcast", broadcast)

    def __eq__(self, other):
        if not isinstance(other, WalkTrace):
            return NotImplemented
        return np.array_equal(self.nodes, other.nodes) and np.array_equal(
            self.broadcast, other.broadcast
        )

    @property
    def steps(self) -> tuple[tuple[int, int, bool], ...]:
        """The walk as `(t, node, broadcast)` tuples, built on each access.

        The library reads the arrays; this view remains only because the
        benchmark's tracer (`perfbench/tracing.py`, `on_walk`) counts
        `len(trace.steps)`, and it can go once that tracer reads the arrays.
        """
        return tuple(zip(range(len(self.nodes)), self.nodes.tolist(), self.broadcast.tolist()))


@dataclass(frozen=True, eq=False)
class Posterior:
    """Observer's probability mass per node; nonnegative, sums to one."""

    mass: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.mass, dtype=np.float64)
        object.__setattr__(self, "mass", values)
        if (values < 0).any():
            raise ValueError("posterior mass must be nonnegative")
        if abs(float(values.sum()) - 1.0) > 1e-12:
            raise ValueError("posterior mass must sum to 1")

    @property
    def support(self) -> set[int]:
        return set(np.flatnonzero(self.mass > 0).tolist())


def simulate_walk(g: Graph, s: int, h: int, steps: int, seed: int) -> WalkTrace:
    """Uniform random walk with broadcasts silenced within h hops of s.

    The start node is drawn uniformly; each move picks a uniform neighbor.
    Deterministic for a fixed seed. Raises ValueError, before allocating
    anything, when the trace would not fit in physical memory.
    """
    if h < 0:
        raise ValueError("suppression radius must be >= 0")
    if steps < 1:
        raise ValueError("walk needs at least one step")
    _ensure_fits(f"the trace of a walk of {steps} steps", steps * _TRACE_BYTES_PER_STEP)
    g.ensure_connected()
    silenced = g.distance_rows([s])[0] <= h

    adj = g.adjacency
    deg = [len(a) for a in adj]
    nodes = np.empty(steps, dtype=np.int64)
    rng = np.random.default_rng(seed)
    # One draw for the start, then chunked draws for the moves, give the
    # same stream as one rng.random(steps) call.
    node = nodes[0] = int(rng.random() * g.node_count)
    for lo in range(1, steps, _WALK_CHUNK):
        walk = [node := adj[node][int(x * deg[node])]
                for x in rng.random(min(_WALK_CHUNK, steps - lo)).tolist()]
        nodes[lo:lo + len(walk)] = walk
    return WalkTrace(nodes=nodes, broadcast=~silenced[nodes])


def observed_broadcast_set(trace: WalkTrace) -> set[int]:
    """Nodes the observer has seen a broadcast from."""
    return set(np.flatnonzero(np.bincount(trace.nodes[trace.broadcast])).tolist())


def coverage_step(trace: WalkTrace, node_count: int) -> int | None:
    """First time index at which the walk has visited every node, or None."""
    first = np.unique(trace.nodes, return_index=True)[1]
    if len(first) < node_count:
        return None
    return int(first.max())


def posterior_bruteforce(
    g: Graph, observed: set[int], density: DensityMap | None = None
) -> Posterior:
    """Observer posterior from a converged broadcast set, by enumeration.

    A node v gets prior weight (density, or 1) iff the broadcast set of some
    radius 0..ecc(v) around v equals `observed`; weights are then normalized.
    With U the unheard nodes, that holds iff v is in U, G[U] is connected,
    and v's eccentricity inside G[U] is at most its least distance inside
    G[U] to a node with a heard neighbour, the one radius whose ball can be
    U (`policy._ball_centres`). When nothing is heard, every node qualifies
    without a distance read.

    Raises InfeasibleError when no node qualifies, i.e. the observation cannot
    have come from a symmetric suppression policy on this graph.
    """
    g.ensure_connected()
    for v in observed:
        g.check_node(v)
    _check_density(g, density)

    heard = np.zeros(g.node_count, dtype=bool)
    heard[list(observed)] = True
    chosen = _ball_centres(g, np.flatnonzero(~heard))
    if not len(chosen):
        raise InfeasibleError(
            "observed broadcast set is inconsistent with every symmetric policy"
        )
    weights = np.zeros(g.node_count, dtype=np.float64)
    weights[chosen] = 1.0 if density is None else density.rho[chosen]
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("every plausible private node has zero density; posterior undefined")
    return Posterior(mass=weights / total)
