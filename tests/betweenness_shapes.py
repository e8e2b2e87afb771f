"""Time and peak memory of `betweenness` on graphs of different shapes.

Run from the repo root:

    PYTHONPATH=src python tests/betweenness_shapes.py               # every shape
    PYTHONPATH=src python tests/betweenness_shapes.py --repeats 5 --only grid path

For each shape it prints n, m, the median wall time of `betweenness` over
`--repeats` calls and the tracemalloc peak of one more call. Every call gets
a fresh `Graph` over the same edges, so no call reads the distance matrix or
the CSR that an earlier one cached. The shapes are the random geometric
graphs of the benchmark and the experiments (dense levels, long-ish paths)
and networkx graphs whose levels are either very full (Barabási-Albert,
Watts-Strogatz) or very thin (grid, path, lollipop), so both sides of the
per-level choice in `betweenness` are timed.

Not collected by pytest; it takes a minute or two.
"""

from __future__ import annotations

import argparse
import statistics
import time
import tracemalloc

import networkx as nx
import numpy as np

from privzone import Graph, betweenness, gen_rgg


def _from_nx(h: nx.Graph) -> Graph:
    h = nx.convert_node_labels_to_integers(h)
    return Graph(h.number_of_nodes(), np.array(list(h.edges()), dtype=np.int64))


SHAPES = {
    "rgg-1000-424242": lambda: gen_rgg(1000, 0.1, 424242).graph,
    "rgg-1000-306533120": lambda: gen_rgg(1000, 0.1, 306533120).graph,
    "rgg-1000-48549481": lambda: gen_rgg(1000, 0.1, 48549481).graph,
    "rgg-3000": lambda: gen_rgg(3000, 0.1, 424242).graph,
    "rgg-2000-r0.05": lambda: gen_rgg(2000, 0.05, 424242).graph,
    "ba-1000-5": lambda: _from_nx(nx.barabasi_albert_graph(1000, 5, seed=1)),
    "ws-1000-10": lambda: _from_nx(nx.connected_watts_strogatz_graph(1000, 10, 0.1, seed=1)),
    "grid-32x32": lambda: _from_nx(nx.grid_2d_graph(32, 32)),
    "path-1000": lambda: _from_nx(nx.path_graph(1000)),
    "lollipop-200-800": lambda: _from_nx(nx.lollipop_graph(200, 800)),
}


def measure(g: Graph, repeats: int) -> tuple[float, int]:
    """Median seconds of `betweenness` over `repeats` fresh copies of g, and
    the tracemalloc peak in bytes of one more call."""
    times = []
    for _ in range(repeats):
        fresh = Graph(g.node_count, g.edge_array)
        start = time.perf_counter()
        betweenness(fresh)
        times.append(time.perf_counter() - start)
    fresh = Graph(g.node_count, g.edge_array)
    tracemalloc.start()
    try:
        betweenness(fresh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(times), peak


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--only", nargs="*", choices=sorted(SHAPES), help="shapes to run (default: all)")
    args = parser.parse_args()
    print(f"{'shape':<20} {'n':>6} {'m':>7} {'median s':>9} {'peak MB':>8}")
    for name in args.only or SHAPES:
        g = SHAPES[name]()
        seconds, peak = measure(g, args.repeats)
        print(f"{name:<20} {g.node_count:>6} {len(g.edge_array):>7} {seconds:>9.3f} {peak / 2**20:>8.1f}", flush=True)


if __name__ == "__main__":
    main()
