"""Undirected graph core: construction, BFS layers, centrality, generators."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

__all__ = [
    "GraphValidityError",
    "Graph",
    "DistanceLayers",
    "GeoGraph",
    "build_graph",
    "bfs_layers",
    "diameter",
    "induced_diameter",
    "betweenness",
    "gen_rgg",
    "line_graph",
]


class GraphValidityError(ValueError):
    """Raised when a graph (or a node/edge argument) violates a structural requirement."""


# Sources per block of distance rows (`Graph.distance_rows`): each block runs
# one dijkstra call, whose float64 result is block x n.
_ROW_BLOCK = 128


class Graph:
    """Immutable undirected graph with contiguous node ids 0..node_count-1.

    The graph is one canonical int64 (m, 2) edge array, `edge_array`: each
    row (i, j) has i < j, and the rows are sorted and distinct. `edges`
    (tuples), `adjacency` (sorted neighbour tuples), `csr()` and the distance
    data are derived from it on first use and cached. Connectivity reads only
    the ids that occur in edges, so a huge node count costs nothing until an
    n-sized structure is asked for. All public operations treat the graph as
    read-only, so instances are safe to share across threads.
    """

    __slots__ = ("node_count", "_ends", "_edges", "_adjacency", "_csr", "_dist", "_unreachable")

    def __init__(self, node_count: int, edges):
        """`edges` is a sequence of (i, j) pairs or an integer (m, 2) array;
        duplicates and both orientations of a pair collapse to one edge."""
        if node_count < 1:
            raise GraphValidityError("graph needs at least one node")
        ends = _edge_array(edges)
        bad = _first_bad_edge(ends, node_count)
        if bad is not None:
            row, self_loop, _ = bad
            i, j = ends[row].tolist()
            if self_loop:
                raise GraphValidityError(f"self-loop at node {i} is not allowed")
            raise GraphValidityError(f"edge ({i}, {j}) references a node outside 0..{node_count - 1}")
        self.node_count: int = node_count
        self._ends = _canonical(ends, node_count)
        self._ends.flags.writeable = False
        self._edges = None
        self._adjacency = None
        self._csr = None
        self._dist = None
        self._unreachable = -1  # lazily computed witness; -1 unknown, node_count means none

    def __repr__(self) -> str:
        return f"Graph(node_count={self.node_count}, edge_count={len(self._ends)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.node_count == other.node_count and np.array_equal(self._ends, other._ends)

    def __hash__(self) -> int:
        return hash((self.node_count, self._ends.tobytes()))

    @property
    def edge_array(self) -> np.ndarray:
        """The canonical edges as a read-only int64 (m, 2) array."""
        return self._ends

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The canonical edges as (i, j) tuples, i < j, sorted (built once)."""
        if self._edges is None:
            self._edges = tuple(map(tuple, self._ends.tolist()))
        return self._edges

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbours of every node (built once, from the CSR)."""
        if self._adjacency is None:
            csr = self.csr()
            nbrs = csr.indices.tolist()
            bounds = csr.indptr.tolist()
            self._adjacency = tuple(tuple(nbrs[a:b]) for a, b in zip(bounds, bounds[1:]))
        return self._adjacency

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def check_node(self, v: int) -> None:
        if not (0 <= v < self.node_count):
            raise GraphValidityError(f"node {v} outside 0..{self.node_count - 1}")

    def csr(self) -> csr_matrix:
        """Sparse adjacency matrix (cached), in float64, the dtype scipy's
        graph routines and `betweenness`'s products work in."""
        if self._csr is None:
            ends, n = self._ends, self.node_count
            rows = np.concatenate((ends[:, 0], ends[:, 1]))
            cols = np.concatenate((ends[:, 1], ends[:, 0]))
            ones = np.ones(len(rows), dtype=np.float64)
            self._csr = csr_matrix((ones, (rows, cols)), shape=(n, n))
        return self._csr

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path hop counts, shape (n, n), dtype int32.

        Requires a connected graph. Built once by `distance_rows`, unless
        `betweenness` has already left it as a by-product, and cached.
        Raises ValueError first when n x n int32 would not fit in physical
        memory.
        """
        if self._dist is None:
            self.ensure_connected()  # before anything n-sized is allocated
            n = self.node_count
            _ensure_fits(f"the {n} x {n} distance matrix", n * n * 4)
            self._dist = self.distance_rows(np.arange(n))
        return self._dist

    def distance_rows(self, sources) -> np.ndarray:
        """Hop counts from each of `sources` to every node, shape
        (len(sources), n), dtype int32.

        Requires a connected graph. Reads the cached distance matrix when it
        exists and caches nothing otherwise: rows are computed for blocks of
        128 sources at a time, so the float64 scratch never exceeds 128 x n.
        """
        sources = np.asarray(sources)
        for v in (sources.min(), sources.max()) if sources.size else ():
            self.check_node(int(v))  # before int64, which would overflow on a huge id
        sources = sources.astype(np.int64, copy=False)
        dist = self._dist
        if dist is not None:
            return dist[sources]
        self.ensure_connected()
        out = np.empty((len(sources), self.node_count), dtype=np.int32)
        csr = self.csr()
        for lo in range(0, len(sources), _ROW_BLOCK):
            block = sources[lo:lo + _ROW_BLOCK]
            # The adjacency is symmetric, so directed distances are the
            # undirected ones, without scipy symmetrizing the matrix first.
            out[lo:lo + len(block)] = dijkstra(csr, directed=True, unweighted=True, indices=block)
        return out

    def unreachable_from_zero(self) -> int | None:
        """Smallest node unreachable from node 0, or None if connected."""
        if self._unreachable == -1:
            self._unreachable = self._first_unreachable()
        return None if self._unreachable == self.node_count else self._unreachable

    def _first_unreachable(self) -> int:
        """Smallest node outside node 0's component, or node_count if none.

        Works on the ids that occur in edges, O(m log m) whatever the node
        count: a node with no edge is isolated, and the components of the
        others come from the subgraph induced on those ids.
        """
        n = self.node_count
        ids = _distinct(np.sort(self._ends, axis=None))
        if ids.size == n:  # every node has an edge: the subgraph is the graph
            adj = self.csr()
        elif ids.size == 0 or ids[0] != 0:  # node 0 is isolated
            return 1
        else:
            adj = _induced(self, ids).csr()
        _, labels = connected_components(adj, directed=False)
        apart = ids[labels != labels[0]]
        gaps = np.flatnonzero(ids != np.arange(ids.size))
        isolated = int(gaps[0]) if gaps.size else ids.size  # n when no node is isolated
        return min(isolated, int(apart[0])) if apart.size else isolated

    def is_connected(self) -> bool:
        return self.unreachable_from_zero() is None

    def ensure_connected(self) -> None:
        witness = self.unreachable_from_zero()
        if witness is not None:
            raise GraphValidityError(f"graph is disconnected: node {witness} is unreachable from node 0")


@dataclass(frozen=True)
class DistanceLayers:
    """Nodes of a connected graph grouped by hop distance from one source.

    layers[d] is the set of nodes at distance exactly d; layers[0] == {source};
    the last layer index equals the source's eccentricity.
    """

    source: int
    layers: tuple[frozenset[int], ...]

    @property
    def eccentricity(self) -> int:
        return len(self.layers) - 1


@dataclass(frozen=True, eq=False)
class GeoGraph:
    """Graph embedded in the unit square.

    positions[v] = (x, y) for each kept node. When the raw point set was
    disconnected, only the largest component is kept (relabelled to contiguous
    ids, original coordinates preserved) and `discarded` records how many
    points were dropped.
    """

    graph: Graph
    positions: np.ndarray
    discarded: int = 0

    def __post_init__(self):
        if self.positions.shape != (self.graph.node_count, 2):
            raise GraphValidityError("positions must have one (x, y) row per node")


_INT64_MAX = 2**63 - 1
# Largest node count whose pair keys lo * n + hi fit in int64.
_KEY_LIMIT = 3_037_000_499


def _edge_array(edges) -> np.ndarray:
    """`edges`, an integer array or any iterable of (i, j) pairs, as an
    int64 (m, 2) array."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        ends = np.asarray(edges)
    except ValueError:  # pairs of unequal length
        raise GraphValidityError("edges must be (i, j) pairs") from None
    if ends.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise GraphValidityError("edges must be (i, j) pairs")
    if ends.dtype.kind in "fO":
        # Floats, or Python ints beyond int64 (NumPy holds those as objects,
        # or as float64 when they fit in uint64): look at each id itself.
        ends = np.asarray(edges, dtype=object)
        if not all(isinstance(v, (int, np.integer)) for v in ends.flat):
            raise GraphValidityError("node ids must be integers")
    elif ends.dtype.kind not in "biu":
        raise GraphValidityError("node ids must be integers")
    try:
        if ends.dtype.kind == "u" and ends.max() > _INT64_MAX:
            raise OverflowError
        return ends.astype(np.int64, copy=False)
    except OverflowError:
        raise GraphValidityError("node ids must fit in int64") from None


def _first_bad_edge(ends: np.ndarray, node_count: int | None = None):
    """The first row of `ends`, in input order, that is a self-loop or names
    a node outside 0..node_count-1 (a negative node when node_count is None).

    Returns (row, self_loop, outside) for that row, or None when every row
    is valid. Each caller words its own error, and picks which of the two
    reasons it reports when a row has both.
    """
    lo = np.minimum(ends[:, 0], ends[:, 1])
    hi = np.maximum(ends[:, 0], ends[:, 1])
    self_loop = lo == hi
    outside = lo < 0
    if node_count is not None:
        outside |= hi >= node_count
    bad = np.flatnonzero(self_loop | outside)
    if not bad.size:
        return None
    row = int(bad[0])
    return row, bool(self_loop[row]), bool(outside[row])


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted 1-D array.

    A sort and a mask: on NumPy 2.4, `np.unique` takes about 20 times as
    long on an edge list's 14k keys.
    """
    first = np.ones(ascending.size, dtype=bool)
    first[1:] = ascending[1:] != ascending[:-1]
    return ascending[first]


def _canonical(ends: np.ndarray, node_count: int) -> np.ndarray:
    """Distinct (min, max) rows of a valid edge array, sorted.

    One sort of the keys lo * n + hi while they fit in int64, else of the
    rows. A row sort alone (`np.lexsort`) would serve every node count, but
    took 2.0 ms against 0.23 ms for the keys on a 14k-edge list.
    """
    lo = np.minimum(ends[:, 0], ends[:, 1])
    hi = np.maximum(ends[:, 0], ends[:, 1])
    if node_count > _KEY_LIMIT:
        return np.unique(np.stack((lo, hi), axis=1), axis=0)
    key = _distinct(np.sort(lo * node_count + hi))
    return np.stack((key // node_count, key % node_count), axis=1)


def _induced(g: Graph, nodes: np.ndarray) -> Graph:
    """The subgraph of `g` induced on the ascending int64 ids `nodes`, with
    nodes[k] relabelled k.

    One `searchsorted` of the edge ends into `nodes` gives each end its new
    label, and an edge is kept when both of its ends are found there:
    O(m log |nodes|), with nothing allocated per node id of `g`. The ends
    are searched column by column, lower ends first: those are ascending,
    and NumPy searches ascending keys about twice as fast.
    """
    ends = g.edge_array.T
    at = np.searchsorted(nodes, ends)
    inside = (nodes[np.minimum(at, len(nodes) - 1)] == ends).all(axis=0)
    return Graph(len(nodes), at[:, inside].T)


def build_graph(edge_list) -> Graph:
    """Build an undirected graph from (i, j) pairs or an integer (m, 2) array.

    Duplicate edges (in either orientation) collapse to one. Node count is
    max id + 1. Self-loops and an empty edge list are rejected.
    """
    ends = _edge_array(edge_list)
    if not len(ends):
        raise GraphValidityError("edge list is empty")
    bad = _first_bad_edge(ends)
    if bad is not None:
        row, _, negative = bad
        i, j = ends[row].tolist()
        if negative:
            raise GraphValidityError(f"edge ({i}, {j}) has a negative node id")
        raise GraphValidityError(f"self-loop at node {i} is not allowed")
    return Graph(int(ends.max()) + 1, ends)


def bfs_layers(g: Graph, source: int) -> DistanceLayers:
    """Group all nodes by hop distance from `source`: the row of `source` in
    `Graph.distance_rows`, sorted stably and split where the distance grows.

    Raises GraphValidityError if the graph is disconnected, naming the
    smallest node unreachable from node 0 (`Graph.ensure_connected`),
    whatever the source.
    """
    row = g.distance_rows([source])[0]
    order = np.argsort(row, kind="stable")
    layers = np.split(order, np.flatnonzero(np.diff(row[order])) + 1)
    return DistanceLayers(source=source, layers=tuple(frozenset(layer.tolist()) for layer in layers))


def diameter(g: Graph) -> int:
    """Longest shortest path in a connected graph."""
    return int(g.distance_matrix().max())


def induced_diameter(g: Graph, nodes) -> int:
    """Diameter of the subgraph induced by `nodes`, using distances inside the subgraph.

    The induced subgraph must be nonempty and connected. It is built by
    `_induced` on the sorted nodes, so nothing is allocated per node id of
    `g`, and its `diameter` reads its own distance matrix.
    """
    node_set = set(nodes)
    if not node_set:
        raise GraphValidityError("induced node set is empty")
    for v in node_set:
        g.check_node(v)
    sel = np.fromiter(sorted(node_set), dtype=np.int64)
    sub = _induced(g, sel)
    witness = sub.unreachable_from_zero()
    if witness is not None:
        raise GraphValidityError(
            f"induced subgraph is disconnected: node {int(sel[witness])} is unreachable from node {int(sel[0])}"
        )
    return diameter(sub)


# Sources per block in `betweenness`. A block's state is three node-major
# (n, block) arrays: int32 levels, float64 sigma and float64 psi.
_BETWEENNESS_BLOCK = 128
# A level of a block takes the dense tile product when its (node, source)
# pairs fill at least this share of the tile of its nodes x the block's
# sources, and the sparse product of the pairs otherwise. Calibrated on
# the graph shapes now in tests/stage_bench.py: 1/12 was the fastest or
# within noise of it on each, and below 1/16 the grid's levels get too
# thin for the tile.
_TILE_FILL = 1 / 12
# Bytes per (node, source) pair that a block may hold at its peak: the state
# (20), the level history (at most 16) and one level's tiles and products.
# tracemalloc measured 35 to 68 on the graph shapes of tests/stage_bench.py.
_BETWEENNESS_PAIR_BYTES = 72
# Largest n x n int32 level cache `betweenness` keeps (n up to 8192).
_DIST_CACHE_BYTES = 256 * 2**20


def betweenness(g: Graph) -> np.ndarray:
    """Shortest-path betweenness of every node, as a fraction in [0, 1].

    For node v the value is the number of shortest paths through v (over
    ordered source-target pairs with both endpoints distinct from v, counting
    path multiplicity) divided by the total number of shortest paths over the
    same pairs. The nodes scoring exactly 0 are the simplicial ones, whose
    neighbours are pairwise adjacent, since only they lie on no shortest
    path between two other nodes; `_first_simplicial` finds the smallest
    without computing any path counts.

    Brandes' accumulation runs level by level over blocks of 128 sources.
    For source s, sigma[v] counts the shortest s-v paths and psi[v] the
    shortest paths from v on to nodes farther from s, so sigma[v] * psi[v]
    counts the shortest paths from s through v. The forward pass is a
    breadth-first search of the whole block at once: summing sigma over the
    adjacency of the block's level-(d-1) (node, source) pairs reaches level
    d, and gives sigma there, on the pairs no earlier level reached. The
    backward pass gets psi at level d the same way from 1 + psi at level
    d+1, summed onto the nodes that hold level-d pairs and masked to those
    pairs.

    The blocks are compact: the nodes are split recursively at the median
    of their hop counts from node 0, then from the node farthest from it
    (two `Graph.distance_rows` calls, skipped when one block holds every
    node), so each level's pairs crowd onto few nodes. A block's level,
    sigma and psi are node-major (n, 128) arrays, and each level takes one
    of two products. When its pairs fill at least 1/12 of the tile (its
    nodes x the block's sources), the dense tile is multiplied by the
    adjacency between those nodes and their neighbours, with no symbolic
    pass; otherwise the pairs are multiplied as a sparse matrix, which wins
    on thin levels such as a path's. The choice reads only how full the
    level is.

    The levels are the hop counts, so the search finds the distance matrix
    as it goes: when the graph has none cached and n x n int32 fits in
    256 MB, the rows of every block are kept and cached on `g` once the last
    block is done (`sweep` and `diameter` then read them). Other readers of
    distances get them from `Graph.distance_rows`, which is faster when no
    path counts are wanted. Raises ValueError before the first block when a
    block's working set, taken as 72 bytes per (node, source) pair, would
    not fit in physical memory.

    Every sigma, psi, product and sum is an integer held in float64. While
    they stay below 2**53 (all shortest paths together number about 7e10 on
    gen_rgg(1000, 0.1, 424242)) each is exact, so the result does not
    depend on the blocks, on which product a level takes or on the order of
    summation. Above 2**53 the last bits do depend on that order: on a
    32 x 32 grid the corner-to-corner count alone is C(62, 31), about 4.7e17.
    """
    g.ensure_connected()  # before anything n-sized is allocated
    n = g.node_count
    b = min(_BETWEENNESS_BLOCK, n)
    _ensure_fits(f"a betweenness block of {b} sources over {n} nodes", n * b * _BETWEENNESS_PAIR_BYTES)
    adj = g.csr()
    keep = g._dist is None and n * n * 4 <= _DIST_CACHE_BYTES
    dist = np.empty((n, n), dtype=np.int32) if keep else None
    through = np.zeros(n, dtype=np.float64)  # sum over sources of sigma[v] * psi[v]
    paths_from = np.zeros(n, dtype=np.float64)  # S_v = total shortest paths with source v
    for sources in _compact_blocks(g):
        contrib, level = _block_path_counts(sources, adj)
        if dist is not None:
            dist[sources] = level.T
        own = (sources, np.arange(len(sources)))
        paths_from[sources] = contrib[own]  # psi at the source counts every shortest path from s
        contrib[own] = 0.0
        through += contrib.sum(axis=1)
        del contrib, level  # before the next block is allocated
    if dist is not None and g._dist is None:
        g._dist = dist  # one assignment: other threads see None or every row

    total = paths_from.sum()
    denom = total - 2.0 * paths_from  # drop ordered pairs having v as an endpoint
    out = np.zeros(n, dtype=np.float64)
    nonzero = denom > 0
    out[nonzero] = through[nonzero] / denom[nonzero]
    return out


def _first_simplicial(g: Graph) -> int | None:
    """The smallest node whose neighbours are pairwise adjacent, or None
    when no node is simplicial.

    Each neighbour u of a simplicial v is adjacent to v and to v's other
    neighbours, so deg(u) >= deg(v): one `reduceat` over the neighbours'
    degrees leaves only the nodes that pass this. They are then tried in
    ascending order: N[v] (v and its neighbours) is marked in an n-sized
    scratch, and v is simplicial exactly when every neighbour's adjacency
    holds deg(v) marked nodes, deg(v)**2 in all. A tried node costs the sum
    of its neighbours' degrees; nothing is formed over the whole graph.
    """
    adj = g.csr()
    indptr, indices = adj.indptr, adj.indices
    deg = np.diff(indptr)
    has = deg > 0
    passes = ~has  # an isolated node is simplicial
    passes[has] = deg[has] <= np.minimum.reduceat(deg[indices], indptr[:-1][has])
    mark = np.zeros(g.node_count, dtype=bool)
    for v in np.flatnonzero(passes):
        v, d = int(v), int(deg[v])
        nbrs = indices[indptr[v]:indptr[v + 1]]
        mark[nbrs] = mark[v] = True
        gathered, _ = _neighbours(adj, nbrs)
        if np.count_nonzero(mark[gathered]) == d * d:
            return v
        mark[nbrs] = mark[v] = False
    return None


def _compact_blocks(g: Graph) -> list[np.ndarray]:
    """Every node of g, in blocks of at most `_BETWEENNESS_BLOCK` nodes that
    lie close together in hops.

    The nodes are sorted stably by their hop count from one landmark and cut
    at the block boundary nearest the median, and each half is split the
    same way by the other landmark. The landmarks are node 0 and the node
    farthest from it.
    """
    n, size = g.node_count, _BETWEENNESS_BLOCK
    if n <= size:
        return [np.arange(n)]
    near = g.distance_rows([0])[0]
    far = g.distance_rows([int(near.argmax())])[0]
    blocks = []

    def split(nodes: np.ndarray, key: np.ndarray, other: np.ndarray) -> None:
        if len(nodes) <= size:
            blocks.append(nodes)
            return
        nodes = nodes[np.argsort(key[nodes], kind="stable")]
        half = size * -(-len(nodes) // (2 * size))  # the first ceil(blocks / 2) blocks
        split(nodes[:half], other, key)
        split(nodes[half:], other, key)

    split(np.arange(n), near, far)
    return blocks


def _block_path_counts(sources: np.ndarray, adj: csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """sigma * psi for each (node, source) pair of one block, and the hop
    count of each pair, both node-major, shape (n, block). The graph must be
    connected.

    Each level d is kept as its nodes, the ascending nodes holding a
    level-d pair. When those pairs fill less than `_TILE_FILL` of the tile
    of its nodes x the block's sources, the pairs are kept too, as flat
    indices node * block + source grouped by source, and are spread by the
    sparse product. A fuller level is spread as the dense tile, which the
    step that made it hands on.
    """
    n, b = adj.shape[0], len(sources)
    level = np.full((n, b), -1, dtype=np.int32)
    sigma = np.zeros((n, b), dtype=np.float64)
    psi = np.zeros((n, b), dtype=np.float64)
    level_at, sigma_at, psi_at = level.reshape(-1), sigma.reshape(-1), psi.reshape(-1)
    pos = np.full(n, -1, dtype=np.int64)  # scratch: a node's place in a node array, else -1
    at = sources * b + np.arange(b)
    level_at[at] = 0
    sigma_at[at] = 1.0
    rows, tile, count, found = np.sort(sources), None, b, 0
    levels = []  # (nodes, pairs or None) per level
    while True:
        d = len(levels)
        tiled = count >= _TILE_FILL * rows.size * b
        if tiled and tile is None:  # a level the sparse product reached
            tile = np.where(level[rows] == d, sigma[rows], 0.0)
        elif not tiled and at is None:  # a level the tile reached
            j, t = np.nonzero(fresh.T)
            at = rows[t] * b + j
        levels.append((rows, None if tiled else at))
        found += count
        if found == n * b:
            break
        if tiled:
            nbrs, indptr = _neighbours(adj, rows)
            cand = _distinct(np.sort(nbrs))  # every neighbour of the level's nodes
            pos[cand] = np.arange(cand.size)
            # adj[cand][:, rows], the transpose of adj[rows][:, cand]
            spread = csc_matrix((np.ones(nbrs.size), pos[nbrs], indptr), shape=(cand.size, rows.size))
            pos[cand] = -1
            sums = spread @ tile
            old = level[cand]
            fresh = (old < 0) & (sums > 0)
            hit = fresh.any(axis=1)
            rows, fresh = cand[hit], fresh[hit]
            level[rows] = np.where(fresh, d + 1, old[hit])
            tile = sums[hit]
            tile *= fresh
            sigma[rows] += tile
            count, at = np.count_nonzero(fresh), None
        else:
            flat, sums = _spread_pairs(adj, at, sigma_at[at], b)
            fresh = level_at[flat] < 0
            at = flat[fresh]
            level_at[at] = d + 1
            sigma_at[at] = sums[fresh]
            holds = np.zeros(n, dtype=bool)  # O(n), less than sorting the pairs' nodes
            holds[at // b] = True
            rows, tile, count = np.flatnonzero(holds), None, at.size
    tile = None
    for d in range(len(levels) - 1, 0, -1):  # psi at level d - 1 from 1 + psi at level d
        (rows, at), (targets, _) = levels[d], levels[d - 1]
        if at is None:
            if tile is None:  # a level the sparse product reached
                tile = np.where(level[rows] == d, 1.0 + psi[rows], 0.0)
            sums = _sub_adjacency(adj, targets, rows, pos) @ tile
            here = level[targets] == d - 1
            sums *= here
            psi[targets] += sums  # psi is still 0 on level d - 1, however it is kept
            tile = sums + here  # a sparse level d - 1 drops it below
        else:
            flat, sums = _spread_pairs(adj, at, 1.0 + psi_at[at], b)
            here = level_at[flat] == d - 1
            psi_at[flat[here]] = sums[here]
            tile = None
    sigma *= psi
    return sigma, level


def _spread_pairs(adj: csr_matrix, at: np.ndarray, values: np.ndarray, b: int):
    """Sum `values`, held at the flat pairs `at` (grouped by source), over
    the adjacency: the sparse product of the pairs with it. Returns the
    reached pairs, grouped by source, and their sums."""
    n = adj.shape[0]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(at % b, minlength=b))))
    reached = csr_matrix((values, at // b, indptr), shape=(b, n)) @ adj
    return reached.indices * b + np.repeat(np.arange(b), np.diff(reached.indptr)), reached.data


def _sub_adjacency(adj: csr_matrix, rows: np.ndarray, cols: np.ndarray, pos: np.ndarray) -> csr_matrix:
    """adj[rows][:, cols] for ascending node arrays. `pos` is n-sized
    scratch, all -1, and is left so."""
    pos[cols] = np.arange(cols.size)
    nbrs, indptr = _neighbours(adj, rows)
    at = pos[nbrs]
    pos[cols] = -1
    inside = at >= 0
    kept = np.concatenate(([0], np.cumsum(inside)))
    return csr_matrix((np.ones(kept[-1]), at[inside], kept[indptr]), shape=(rows.size, cols.size))


def _neighbours(adj: csr_matrix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The neighbours of each of `rows`, concatenated, and the offsets where
    each row starts: adj[rows]'s indices and indptr, gathered without
    scipy's fancy indexing, whose checks cost more than the gather on small
    graphs."""
    starts = adj.indptr[rows]
    counts = adj.indptr[rows + 1] - starts
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return adj.indices[np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])], indptr


# Peak bytes per point while `gen_rgg` finds its candidate pairs: the
# float64 points (16) and six n-sized 8-byte arrays (the sort order, the
# sorted x and its shifted copy, the window ends, a range and the counts).
_RGG_POINT_BYTES = 64
# Peak bytes per candidate pair, while the differences are taken: the two
# int64 node ids, the two gathered float64 points and their difference.
_RGG_PAIR_BYTES = 64
# Peak bytes per dual edge in `line_graph`, `Graph()` included (74 measured).
_LINE_PAIR_BYTES = 80


def gen_rgg(n: int, radius: float, seed: int) -> GeoGraph:
    """Random geometric graph: n uniform points in the unit square, edge iff
    Euclidean distance <= radius.

    Deterministic for a fixed seed. If the raw graph is disconnected, the
    largest component is returned (relabelled, original coordinates kept) and
    the number of dropped points is recorded on the result.

    The pairs are found by a sweep over the points sorted by x: the
    candidates of a point are the later points whose x lies within the
    radius (plus a rounding margin), and a candidate pair is an edge when its
    squared length, computed as `einsum` of the difference with itself, is
    at most radius**2. Memory grows with n plus the number of candidate
    pairs, never with n x n. Raises ValueError, before allocating them, when
    the points or the candidate pairs would not fit in physical memory.

    Args:
        n: number of points, at least 2.
        radius: connection radius, in (0, sqrt(2)].
        seed: PRNG seed.
    """
    if n < 2:
        raise GraphValidityError("gen_rgg needs n >= 2")
    if not (0.0 < radius <= float(np.sqrt(2.0))):
        raise GraphValidityError("gen_rgg needs 0 < radius <= sqrt(2)")
    _ensure_fits(f"drawing {n} points", n * _RGG_POINT_BYTES)
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    order = np.argsort(pts[:, 0], kind="stable")
    xs = pts[order, 0]
    # The margin covers the rounding of the squared length and of the sum:
    # every pair the exact rule below keeps lies inside its window.
    end = np.searchsorted(xs, xs + (radius * (1 + 1e-9) + 1e-12), side="right")
    ii, jj = _window_pairs(end, order, "testing {} candidate pairs", _RGG_PAIR_BYTES)
    diff = pts[ii] - pts[jj]
    close = np.einsum("ij,ij->i", diff, diff) <= radius * radius
    g = Graph(n, np.stack((ii[close], jj[close]), axis=1))
    del ii, jj, diff, close  # free the pair arrays before the graph is used
    if g.is_connected():
        return GeoGraph(graph=g, positions=pts, discarded=0)

    keep = _largest_component(g)
    if len(keep) < 2:
        raise GraphValidityError("largest connected component has fewer than 2 nodes")
    sub = _induced(g, np.array(keep, dtype=np.int64))
    return GeoGraph(graph=sub, positions=pts[keep], discarded=n - len(keep))


def _window_pairs(end: np.ndarray, ids: np.ndarray, what: str, pair_bytes: int) -> np.ndarray:
    """(ids[i], ids[k]) for every pair of positions i < k < end[i], i-major,
    as a (2, pairs) array. Raises ValueError first when the pairs would not
    fit in physical memory at `pair_bytes` each; `what` names them, `{}`
    standing for their count."""
    count = end - np.arange(1, len(end) + 1)  # positions after i in its window
    pairs = int(count.sum())
    _ensure_fits(what.format(pairs), pairs * pair_bytes)
    first = np.repeat(np.arange(len(end)), count)
    offset = np.arange(pairs) - np.repeat(np.cumsum(count) - count, count)
    return ids[np.stack((first, first + 1 + offset))]


def _ensure_fits(what: str, need: int) -> None:
    """Raise ValueError when `need` bytes, for `what`, exceed physical
    memory; pass where the platform cannot say how much there is."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return
    if need > memory:
        raise ValueError(f"{what} needs {need} bytes, more than the {memory} bytes of physical memory")


def _largest_component(g: Graph) -> list[int]:
    """Sorted nodes of the largest component; among equal largest
    components, the one holding the smallest node id."""
    _, labels = connected_components(g.csr(), directed=False)
    sizes = np.bincount(labels)
    first = int(np.flatnonzero(sizes[labels] == sizes.max())[0])
    return np.flatnonzero(labels == labels[first]).tolist()


def line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Edge-to-vertex dual: one node per edge of g, adjacent iff the edges share
    an endpoint.

    Returns the dual graph and the mapping from dual node id to the original
    edge it represents.

    The 2m edge ends, sorted stably by node, form one group per node holding
    its edge ids in ascending order; each pair in a group is one dual edge,
    expanded as `gen_rgg` expands its windows. Nothing is allocated per node
    id. Raises ValueError first when the dual edges would not fit in memory.
    """
    ends = g.edge_array
    m = len(ends)
    if not m:
        raise GraphValidityError("line graph of an edgeless graph is undefined")
    edge_of = np.argsort(ends, axis=None, kind="stable")  # edge ends grouped by node
    node = ends.ravel()[edge_of]
    end = np.searchsorted(node, node, side="right")
    pairs = _window_pairs(end, edge_of // 2, "building {} line-graph edges", _LINE_PAIR_BYTES)
    return Graph(m, pairs.T), g.edges
