"""Independent reference implementations used only by the tests.

Most of it is deliberately naive (explicit enumeration, dict-based BFS) so it
shares no code path with the library implementations it checks. The rest are
slower formulations of library functions, kept as references for the faster
ones: `brandes_per_source` (one BFS per source), `sweep_by_analyze` (one
`analyze` per radius), `sweep_by_matrix` (the layer extrema read from the
whole distance matrix), `candidate_set_by_layers` (the layer-matching
candidate rule with its induced-diameter cap), `bfs_layers_by_queue` (the
queue breadth-first search that `privzone.bfs_layers` replaced with a
grouping of one `Graph.distance_rows` row), `posterior_by_bfs` (one
`bfs_layers_by_queue` per node, made once per graph) and the walk-trace
loops (`walk_steps_by_loop`, `trace_csv_by_loop`, `observed_by_loop`,
`coverage_by_loop`), which hold a walk as a tuple of `(t, node, broadcast)`
tuples, and the graph construction through Python tuples (`TupleGraph`,
`build_graph_by_tuples`, `parse_edge_list_by_lines`, `line_graph_by_sets`)
that the array-native `Graph` replaced, and `gen_rgg_dense`, the generator through n x n arrays
that the sweep over x-sorted points replaced. `simplicial_by_sets` reads the
zero set of betweenness from neighbour sets alone, and
`parse_positions_by_lines` and `parse_density_by_lines` read their files
into dicts, line by line, with no array until the end.
`solve_asymmetric_by_loop` tries the silence sets one Python tuple at a
time, smallest first, where `privzone.solve_asymmetric_exhaustive` makes
one array pass over all of them.
"""

from __future__ import annotations

import math
import random
from collections import deque
from functools import lru_cache
from itertools import combinations

import numpy as np

from privzone import (
    ASYMMETRIC_NODE_CAP,
    DistanceLayers,
    GeoGraph,
    Graph,
    GraphValidityError,
    InfeasibleError,
    Posterior,
    SweepRow,
    analyze,
    build_graph,
    diameter,
    induced_diameter,
    privacy_density,
)
from privzone.fileio import ParseError, _data_lines
from privzone.graph import _largest_component


def shortest_path_distances(g: Graph, s: int) -> dict[int, int]:
    dist = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def bfs_layers_by_queue(g: Graph, source: int) -> DistanceLayers:
    """Group all nodes by hop distance from `source` via breadth-first search.

    Raises GraphValidityError naming an unreachable node if the graph is
    disconnected.
    """
    g.check_node(source)
    dist = [-1] * g.node_count
    dist[source] = 0
    queue = deque([source])
    layers: list[list[int]] = [[source]]
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.adjacency[u]:
            if dist[w] == -1:
                dist[w] = du + 1
                if len(layers) == du + 1:
                    layers.append([])
                layers[du + 1].append(w)
                queue.append(w)
    if -1 in dist:
        raise GraphValidityError(
            f"graph is disconnected: node {dist.index(-1)} is unreachable from node {source}"
        )
    return DistanceLayers(source=source, layers=tuple(frozenset(layer) for layer in layers))


def enumerate_shortest_paths(g: Graph, s: int, t: int) -> list[tuple[int, ...]]:
    """Every shortest s-t path, listed explicitly."""
    dist = shortest_path_distances(g, s)
    paths: list[tuple[int, ...]] = []

    def extend(prefix: list[int]) -> None:
        u = prefix[-1]
        if u == t:
            paths.append(tuple(prefix))
            return
        for w in g.adjacency[u]:
            if dist.get(w) == dist[u] + 1 and dist[w] <= dist[t]:
                extend(prefix + [w])

    if t in dist:
        extend([s])
    return paths


def naive_betweenness(g: Graph) -> list[float]:
    """Betweenness by enumerating every shortest path of every ordered pair."""
    n = g.node_count
    through = [0] * n
    totals = [0] * n
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths = enumerate_shortest_paths(g, s, t)
            for v in range(n):
                if v == s or v == t:
                    continue
                totals[v] += len(paths)
                through[v] += sum(1 for p in paths if v in p)
    return [through[v] / totals[v] if totals[v] else 0.0 for v in range(n)]


def brandes_per_source(g: Graph) -> np.ndarray:
    """Betweenness as `privzone.betweenness` defines it, by one vectorized BFS
    per source and reverse accumulation of path counts (Brandes).

    It shares no code with the library's blocked, level-synchronous pass; the
    sums are exact integers, so both must agree bit for bit.
    """
    g.ensure_connected()
    n = g.node_count
    indptr = np.concatenate(([0], np.cumsum([len(a) for a in g.adjacency]))).astype(np.int64)
    indices = np.array([w for a in g.adjacency for w in a], dtype=np.int64)
    through = np.zeros(n, dtype=np.float64)  # sum over sources of sigma[v] * psi[v]
    paths_from = np.zeros(n, dtype=np.float64)  # S_v = total shortest paths with source v

    for s in range(n):
        dist = np.full(n, -1, dtype=np.int32)
        dist[s] = 0
        sigma = np.zeros(n, dtype=np.float64)
        sigma[s] = 1.0
        frontier = np.array([s], dtype=np.int64)
        level_edges: list[tuple[np.ndarray, np.ndarray]] = []
        level = 0
        while frontier.size:
            srcs, nbrs = _frontier_edges(frontier, indptr, indices)
            fresh = dist[nbrs] == -1
            dist[nbrs[fresh]] = level + 1
            down = dist[nbrs] == level + 1  # DAG edges level -> level+1
            u_e, w_e = srcs[down], nbrs[down]
            np.add.at(sigma, w_e, sigma[u_e])
            level_edges.append((u_e, w_e))
            frontier = np.unique(nbrs[fresh])
            level += 1

        # psi[v] = number of shortest paths from v to all strict DAG descendants
        psi = np.zeros(n, dtype=np.float64)
        for u_e, w_e in reversed(level_edges):
            np.add.at(psi, u_e, 1.0 + psi[w_e])
        contrib = sigma * psi
        paths_from[s] = contrib[s]  # psi at the source counts every shortest path from s
        contrib[s] = 0.0
        through += contrib

    total = paths_from.sum()
    denom = total - 2.0 * paths_from  # drop ordered pairs having v as an endpoint
    out = np.zeros(n, dtype=np.float64)
    nonzero = denom > 0
    out[nonzero] = through[nonzero] / denom[nonzero]
    return out


def _frontier_edges(frontier: np.ndarray, indptr: np.ndarray, indices: np.ndarray):
    """All (u, neighbor-of-u) pairs for u in frontier, fully vectorized."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    flat = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)
    return np.repeat(frontier, counts), indices[flat]


def sweep_by_analyze(g: Graph, s: int, density=None) -> list[SweepRow]:
    """`privzone.sweep` as one full `analyze` per radius, 0..diameter."""
    g.ensure_connected()
    rows = []
    for h in range(diameter(g) + 1):
        a = analyze(g, s, h, density)
        rows.append(
            SweepRow(
                h=h,
                suppressed_count=len(a.suppressed_nodes),
                candidate_count=len(a.candidates),
                privacy=a.privacy,
                cost=a.cost,
            )
        )
    return rows


def sweep_by_matrix(g: Graph, s: int, density=None) -> list[SweepRow]:
    """`privzone.sweep` from the whole cached distance matrix: one max and
    one min over the rows of each distance layer of s, then running extrema
    across the layers, all held as (ecc + 1) x n arrays."""
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
    ends = g.edge_array
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


def candidate_set_by_layers(g: Graph, s: int, h: int) -> set[int]:
    """`privzone.candidate_set` by the layer-matching rule it used before the
    max/min rule: a silenced node v qualifies iff some distance layer of v
    reproduces the observed boundary while the layers below it reproduce the
    silenced ball exactly, with the layer index capped at the silenced
    ball's induced diameter plus one."""
    g.check_node(s)
    if h < 0:
        raise ValueError("suppression radius must be >= 0")
    dist = g.distance_matrix()
    suppressed = dist[s] <= h
    if suppressed.all():
        return set(range(g.node_count))

    boundary = dist[s] == h + 1
    sel = np.flatnonzero(suppressed)
    cap = induced_diameter(g, sel.tolist()) + 1

    rows = dist[sel]
    # For each v, the only layer index that can match is one past the farthest
    # silenced node: below it the ball is too small, above it the ball already
    # leaked into broadcast territory.
    reach = rows[:, suppressed].max(axis=1)
    delta = reach + 1
    ball_matches = ((rows <= reach[:, None]) == suppressed).all(axis=1)
    layer_matches = ((rows == delta[:, None]) == boundary).all(axis=1)
    ok = (delta <= cap) & ball_matches & layer_matches
    return set(sel[ok].tolist())


@lru_cache(maxsize=8)
def _layers_of_every_node(g: Graph) -> tuple[DistanceLayers, ...]:
    """`bfs_layers_by_queue` from every node of `g`. `Graph` hashes and
    compares by content, so the observations checked on one graph, or on
    copies of it, share one search per node."""
    return tuple(bfs_layers_by_queue(g, v) for v in range(g.node_count))


def posterior_by_bfs(g: Graph, observed: set[int], density=None) -> Posterior:
    """`privzone.posterior_bruteforce` as one `bfs_layers_by_queue` per node of the
    graph, heard or not, peeling each ball outward radius by radius. The
    searches are made once per graph (`_layers_of_every_node`)."""
    g.ensure_connected()
    for v in observed:
        g.check_node(v)
    if density is not None and len(density) != g.node_count:
        raise ValueError("density map size does not match the node count")

    want = len(observed)
    weights = np.zeros(g.node_count, dtype=np.float64)
    matched = False
    for v, layers in enumerate(_layers_of_every_node(g)):
        # Broadcast set for radius r is the union of layers beyond r; peel the
        # ball outward and compare only when the sizes agree.
        outside = g.node_count
        remaining = set(range(g.node_count))
        for r in range(layers.eccentricity + 1):
            layer = layers.layers[r]
            outside -= len(layer)
            remaining -= layer
            if outside == want and remaining == observed:
                matched = True
                weights[v] = 1.0 if density is None else float(density.rho[v])
                break
    if not matched:
        raise InfeasibleError(
            "observed broadcast set is inconsistent with every symmetric policy"
        )
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("every plausible private node has zero density; posterior undefined")
    return Posterior(mass=weights / total)


def walk_steps_by_loop(
    g: Graph, s: int, h: int, steps: int, seed: int
) -> tuple[tuple[int, int, bool], ...]:
    """`privzone.simulate_walk` as one loop that appends a `(t, node,
    broadcast)` tuple per step, over a single `rng.random(steps)` draw."""
    if steps < 1:
        raise ValueError("walk needs at least one step")
    g.ensure_connected()
    layers = bfs_layers_by_queue(g, s)
    silenced = np.zeros(g.node_count, dtype=bool)
    for d in range(min(h, layers.eccentricity) + 1):
        for v in layers.layers[d]:
            silenced[v] = True

    rng = np.random.default_rng(seed)
    draws = rng.random(steps)  # draw 0 picks the start, the rest pick neighbors
    node = int(draws[0] * g.node_count)
    trace = [(0, node, not silenced[node])]
    for t in range(1, steps):
        nbrs = g.adjacency[node]
        node = nbrs[int(draws[t] * len(nbrs))]
        trace.append((t, node, not silenced[node]))
    return tuple(trace)


def trace_csv_by_loop(steps) -> str:
    """`privzone.fileio.format_trace_csv` as one f-string per step."""
    out = ["t,node,broadcast\n"]
    for lo in range(0, len(steps), 16384):
        out.append("".join([f"{t},{node},{int(broadcast)}\n"
                            for t, node, broadcast in steps[lo:lo + 16384]]))
    return "".join(out)


def observed_by_loop(steps) -> set[int]:
    """`privzone.observed_broadcast_set` over step tuples."""
    return {node for _, node, broadcast in steps if broadcast}


def coverage_by_loop(steps, node_count: int) -> int | None:
    """`privzone.coverage_step` over step tuples, growing a visited set."""
    visited: set[int] = set()
    for t, node, _ in steps:
        visited.add(node)
        if len(visited) == node_count:
            return t
    return None


class TupleGraph:
    """`privzone.Graph` as it was built through Python tuples: a sorted set of
    (min, max) pairs and one neighbour list per node, built eagerly."""

    def __init__(self, node_count: int, edges: tuple[tuple[int, int], ...]):
        if node_count < 1:
            raise GraphValidityError("graph needs at least one node")
        for i, j in edges:
            if i == j:
                raise GraphValidityError(f"self-loop at node {i} is not allowed")
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise GraphValidityError(f"edge ({i}, {j}) references a node outside 0..{node_count - 1}")
        canonical = sorted({(min(i, j), max(i, j)) for i, j in edges})
        adj: list[list[int]] = [[] for _ in range(node_count)]
        for i, j in canonical:
            adj[i].append(j)
            adj[j].append(i)
        self.node_count: int = node_count
        self.edges: tuple[tuple[int, int], ...] = tuple(canonical)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self._csr = None
        self._dist = None
        self._unreachable = -1  # lazily computed witness; -1 unknown, node_count means none


def build_graph_by_tuples(edge_list) -> TupleGraph:
    """Build an undirected graph from (i, j) pairs.

    Duplicate edges (in either orientation) collapse to one. Node count is
    max id + 1. Self-loops and an empty edge list are rejected.
    """
    edges = [(int(i), int(j)) for i, j in edge_list]
    if not edges:
        raise GraphValidityError("edge list is empty")
    for i, j in edges:
        if i < 0 or j < 0:
            raise GraphValidityError(f"edge ({i}, {j}) has a negative node id")
        if i == j:
            raise GraphValidityError(f"self-loop at node {i} is not allowed")
    node_count = max(max(i, j) for i, j in edges) + 1
    return TupleGraph(node_count, tuple(edges))


def parse_edge_list_by_lines(text: str) -> TupleGraph:
    """Parse `i j` lines into a graph."""
    edges = []
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two node ids, got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: node ids must be integers, got {line!r}") from exc
        if i < 0 or j < 0:
            raise ParseError(f"line {lineno}: node ids must be nonnegative, got {line!r}")
        edges.append((i, j))
    if not edges:
        raise ParseError("edge list contains no edges")
    return build_graph_by_tuples(edges)


def parse_positions_by_lines(text: str, node_count: int) -> np.ndarray:
    """Parse `node x y` lines into an (n, 2) coordinate array; a later line
    for a node replaces an earlier one."""
    coords: dict[int, tuple[float, float]] = {}
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected three fields, got {line!r}")
        try:
            v, x, y = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad entry {line!r}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"line {lineno}: non-finite coordinate in {line!r}")
        if not 0 <= v < node_count:
            raise ParseError(f"line {lineno}: node {v} out of range")
        coords[v] = (x, y)
    missing = [v for v in range(node_count) if v not in coords]
    if missing:
        raise ParseError(f"no position for node {missing[0]}")
    return np.array([coords[v] for v in range(node_count)], dtype=np.float64)


def parse_density_by_lines(text: str, node_count: int) -> np.ndarray:
    """Parse `node rho` and `default rho` lines into the per-node densities;
    later lines replace earlier ones, and the default fills every node no
    line names."""
    rho: dict[int, float] = {}
    default = None
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two fields, got {line!r}")
        try:
            value = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad density in {line!r}") from exc
        if not (math.isfinite(value) and value >= 0):
            raise ParseError(f"line {lineno}: density must be finite and nonnegative")
        if parts[0] == "default":
            default = value
            continue
        try:
            v = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad node id in {line!r}") from exc
        if not 0 <= v < node_count:
            raise ParseError(f"line {lineno}: node {v} out of range")
        rho[v] = value
    values = [rho.get(v, default) for v in range(node_count)]
    if None in values:
        raise ParseError(f"no density for node {values.index(None)} and no default")
    if not any(value > 0 for value in values):
        raise ParseError("density has no positive entry")
    return np.array(values, dtype=np.float64)


def line_graph_by_sets(g: Graph) -> tuple[TupleGraph, tuple[tuple[int, int], ...]]:
    """Edge-to-vertex dual: one node per edge of g, adjacent iff the edges share
    an endpoint.

    Returns the dual graph and the mapping from dual node id to the original
    edge it represents.
    """
    if not g.edges:
        raise GraphValidityError("line graph of an edgeless graph is undefined")
    edge_id = {e: k for k, e in enumerate(g.edges)}
    incident: list[list[int]] = [[] for _ in range(g.node_count)]
    for e, k in edge_id.items():
        incident[e[0]].append(k)
        incident[e[1]].append(k)
    dual_edges: set[tuple[int, int]] = set()
    for ids in incident:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                x, y = ids[a], ids[b]
                dual_edges.add((min(x, y), max(x, y)))
    dual = TupleGraph(len(g.edges), tuple(dual_edges))
    return dual, g.edges


def simplicial_by_sets(g: Graph) -> list[bool]:
    """Per node, whether its neighbours are pairwise adjacent: every
    neighbour u sees all the other neighbours. In a connected graph these
    are exactly the nodes no shortest path runs through."""
    nbrs = [set(a) for a in g.adjacency]
    return [all(nbrs[v] - {u} <= nbrs[u] for u in nbrs[v]) for v in range(g.node_count)]


def solve_asymmetric_by_loop(
    g: Graph, s: int, gamma: float
) -> tuple[set[int], float]:
    """`privzone.solve_asymmetric_exhaustive` as one loop over the silence
    sets that hold s, drawn from `itertools.combinations` by size; each set
    is tested against every edge mask."""
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


def random_connected_graph(n: int, extra_prob: float, rng: random.Random) -> Graph:
    """Random spanning tree plus independent extra edges; always connected."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_prob:
                edges.add((i, j))
    return build_graph(sorted(edges))


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """Same graph under a random permutation of node ids."""
    perm = list(range(g.node_count))
    rng.shuffle(perm)
    return Graph(g.node_count, tuple((perm[i], perm[j]) for i, j in g.edges))


@lru_cache(maxsize=1)
def connected_atlas_graphs() -> tuple[Graph, ...]:
    """All connected graphs with 2..7 nodes, one per isomorphism class."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for atlas_graph in graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if 2 <= n <= 7 and nx.is_connected(atlas_graph):
            out.append(build_graph([(int(u), int(v)) for u, v in atlas_graph.edges()]))
    return tuple(out)


def gen_rgg_dense(n: int, radius: float, seed: int) -> GeoGraph:
    """`gen_rgg` through the n x n x 2 difference array and the n x n
    squared lengths: every pair is tested with the same `d2 <= radius**2`
    rule, so the results must be equal."""
    if n < 2:
        raise GraphValidityError("gen_rgg needs n >= 2")
    if not (0.0 < radius <= float(np.sqrt(2.0))):
        raise GraphValidityError("gen_rgg needs 0 < radius <= sqrt(2)")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    ii, jj = np.nonzero(np.triu(dist2 <= radius * radius, k=1))
    g = Graph(n, np.stack((ii, jj), axis=1))
    if g.is_connected():
        return GeoGraph(graph=g, positions=pts, discarded=0)
    keep = _largest_component(g)
    if len(keep) < 2:
        raise GraphValidityError("largest connected component has fewer than 2 nodes")
    relabel = np.full(n, -1, dtype=np.int64)
    relabel[keep] = np.arange(len(keep))
    ends = relabel[g.edge_array]
    sub = Graph(len(keep), ends[(ends >= 0).all(axis=1)])
    return GeoGraph(graph=sub, positions=pts[keep], discarded=n - len(keep))
