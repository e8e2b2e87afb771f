"""Median time and tracemalloc peak of each stage of privzone, on fixed
shapes and seeds, written to `BENCH_stages.json`.

Run from the repo root:

    python tests/stage_bench.py                       # every cell, a few minutes
    python tests/stage_bench.py --smoke               # each stage once, on small inputs
    python tests/stage_bench.py --against ../old --stage betweenness --input grid-32x32

A cell is one stage on one input. The `analyze` stages (s = 0 at h = 1, 2
and 5) run on every graph and on `rgg-20000`, which nothing else runs on.
Each call gets a fresh `Graph` over the same edges, with its CSR built
before the clock starts, so no call reads a distance matrix, adjacency
tuples or a level cache an earlier one left; only `sweep-cached` reuses one
graph, whose distance matrix is cached on purpose.
A cell records the median, smallest and largest of `--repeats` timed calls
and the tracemalloc peak of one more call, made before them.

With `--against DIR`, the source tree at DIR (a checkout or `git archive`
holding `src/privzone`) is loaded in the same process next to this one, the
two are called in turn (ABBA order, so drift falls on both), and each cell
also records DIR's median and peak, the median over the calls of this
tree's time divided by DIR's (below 1 means this tree is faster) and the
number of calls in which this tree was faster.

The file header holds the commit, CPU count, MemTotal and the numpy and
scipy versions. Not collected by pytest.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx
import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]


def load_tree(root: Path, name: str):
    """The privzone package under `root/src`, imported as `name`."""
    pkg = Path(root) / "src" / "privzone"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Input:
    """One input: a graph as (n, edges) and what some stages need besides."""

    name: str
    n: int
    edges: np.ndarray
    kind: str  # "graph", "large" (the analyze stages only), "walk" or "solver"
    rgg: tuple | None = None  # (n, radius, seed) of a `gen_rgg` graph
    extra: dict = field(default_factory=dict)


def fresh(pz, inp: Input):
    g = pz.Graph(inp.n, inp.edges)
    g.csr()
    return g


def _from_nx(name: str, h: nx.Graph, kind: str = "graph", **extra) -> Input:
    h = nx.convert_node_labels_to_integers(h)
    edges = np.array(list(h.edges()), dtype=np.int64).reshape(-1, 2)
    return Input(name, h.number_of_nodes(), edges, kind, extra=extra)


def _rgg(pz, name: str, n: int, radius: float, seed: int, kind: str = "graph") -> Input:
    g = pz.gen_rgg(n, radius, seed).graph
    return Input(name, g.node_count, g.edge_array, kind, rgg=(n, radius, seed))


def _walk_problems(pz, n: int, radius: float, steps: int) -> list[Input]:
    """The `walk-inference` benchmark problems for its default seed: the RGG
    of seed 424242 and, for h = 1, 2, 3, a source and a walk seed drawn as
    `perfbench/workloads.py` draws them."""
    g = pz.gen_rgg(n, radius, 424242).graph
    nodes, walks = random.Random("walk-inference:nodes"), random.Random("walk-inference:424242")
    problems = []
    for h in (1, 2, 3):
        source = nodes.randrange(g.node_count)
        problems.append(Input(f"walk-h{h}", g.node_count, g.edge_array, "walk",
                              extra=dict(source=source, h=h, seed=walks.randrange(2**31), steps=steps)))
    return problems


def inputs(pz, smoke: bool) -> list[Input]:
    if smoke:
        return [
            _rgg(pz, "rgg-200", 200, 0.15, 424242),
            _from_nx("grid-8x8", nx.grid_2d_graph(8, 8)),
            _from_nx("path-50", nx.path_graph(50)),
            _from_nx("lollipop-10-20", nx.lollipop_graph(10, 20)),
            _from_nx("ba-100-3", nx.barabasi_albert_graph(100, 3, seed=1)),
            _from_nx("ws-100-6", nx.connected_watts_strogatz_graph(100, 6, 0.1, seed=1)),
            _from_nx("small-7", nx.lollipop_graph(3, 4)),
            *_walk_problems(pz, 80, 0.25, 2_000),
            _from_nx("ws-10", nx.connected_watts_strogatz_graph(10, 4, 0.3, seed=10), "solver", s=0, gamma=0.05),
            _from_nx("k10-1e308", nx.complete_graph(10), "solver", s=0, gamma=1e308),
        ]
    return [
        _rgg(pz, "rgg-1000-424242", 1000, 0.1, 424242),
        _rgg(pz, "rgg-1000-306533120", 1000, 0.1, 306533120),
        _rgg(pz, "rgg-1000-48549481", 1000, 0.1, 48549481),
        _rgg(pz, "rgg-3000", 3000, 0.1, 424242),
        # Its betweenness and all of its distance rows would take minutes.
        _rgg(pz, "rgg-20000", 20000, 0.02, 424242, "large"),
        _from_nx("grid-32x32", nx.grid_2d_graph(32, 32)),
        _from_nx("path-1000", nx.path_graph(1000)),
        _from_nx("lollipop-200-800", nx.lollipop_graph(200, 800)),
        _from_nx("ba-1000-5", nx.barabasi_albert_graph(1000, 5, seed=1)),
        _from_nx("ws-1000-10", nx.connected_watts_strogatz_graph(1000, 10, 0.1, seed=1)),
        _from_nx("small-7", nx.lollipop_graph(3, 4)),
        *_walk_problems(pz, 1000, 0.1, 250_000),
        _from_nx("ws-18", nx.connected_watts_strogatz_graph(18, 4, 0.3, seed=18), "solver", s=0, gamma=0.05),
        _from_nx("k20-1e308", nx.complete_graph(20), "solver", s=0, gamma=1e308),
    ]


# Each stage takes (package, input), does its untimed one-time work and
# returns a maker: a call of the maker builds one call's state, untimed, and
# returns the call to time.

def _parse(pz, inp):
    text = pz.fileio.format_edge_list(fresh(pz, inp))
    return lambda: lambda: pz.fileio.parse_edge_list(text)


def _gen_rgg(pz, inp):
    return lambda: lambda: pz.gen_rgg(*inp.rgg)


def _on_fresh(call):
    """A stage that calls `call(pz, g, inp)` on a fresh graph each time."""
    def stage(pz, inp):
        def make():
            g = fresh(pz, inp)
            return lambda: call(pz, g, inp)
        return make
    return stage


def _sweep_cached(pz, inp):
    g = fresh(pz, inp)
    g.distance_matrix()  # the cache `betweenness` leaves, read by every call
    return lambda: lambda: pz.sweep(g, 0)


def _analyze(h):
    return _on_fresh(lambda pz, g, inp: pz.analyze(g, 0, h))


def _walk(pz, g, inp):
    x = inp.extra
    return pz.simulate_walk(g, x["source"], x["h"], x["steps"], x["seed"])


def _posterior(pz, inp):
    heard = pz.observed_broadcast_set(_walk(pz, fresh(pz, inp), inp))
    return _on_fresh(lambda pz, g, inp: pz.posterior_bruteforce(g, heard))(pz, inp)


# stage name -> (the stage, which inputs it runs on)
STAGES = {
    "parse": (_parse, lambda i: i.kind == "graph"),
    "gen_rgg": (_gen_rgg, lambda i: i.kind == "graph" and i.rgg is not None),
    "connectivity": (_on_fresh(lambda pz, g, inp: g.is_connected()), lambda i: i.kind == "graph"),
    "rows-128": (_on_fresh(lambda pz, g, inp: g.distance_rows(np.arange(min(128, inp.n)))),
                 lambda i: i.kind == "graph"),
    "rows-all": (_on_fresh(lambda pz, g, inp: g.distance_rows(np.arange(inp.n))),
                 lambda i: i.kind == "graph"),
    "betweenness": (_on_fresh(lambda pz, g, inp: pz.betweenness(g)), lambda i: i.kind == "graph"),
    "sweep-cached": (_sweep_cached, lambda i: i.kind == "graph"),
    "sweep-fresh": (_on_fresh(lambda pz, g, inp: pz.sweep(g, 0)), lambda i: i.kind == "graph"),
    **{f"analyze-h{h}": (_analyze(h), lambda i: i.kind in ("graph", "large")) for h in (1, 2, 5)},
    "min-pick": (_on_fresh(lambda pz, g, inp: pz.experiment._betweenness_target(g, "min-betweenness")),
                 lambda i: i.kind == "graph"),
    # The dual of the n=3000 RGG has about 13 million edges, near 1 GB.
    "line_graph": (_on_fresh(lambda pz, g, inp: pz.line_graph(g)),
                   lambda i: i.kind == "graph" and i.n <= 1000),
    "walk": (_on_fresh(_walk), lambda i: i.kind == "walk"),
    "posterior": (_posterior, lambda i: i.kind == "walk"),
    "solve_asymmetric": (_on_fresh(lambda pz, g, inp: pz.solve_asymmetric_exhaustive(
        g, inp.extra["s"], inp.extra["gamma"])), lambda i: i.kind == "solver"),
}


def peak_of(make) -> int:
    call = make()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def timed(make) -> float:
    call = make()
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def run_cell(trees, stage, inp, repeats):
    """Times per tree (alternating ABBA) and the peak of one more call each,
    made first, so it also warms each tree up before the clock runs."""
    makers = [stage(pz, inp) for pz in trees]
    peaks = [peak_of(make) for make in makers]
    times = [[] for _ in trees]
    for r in range(repeats):
        order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
        for k in order:
            times[k].append(timed(makers[k]))
    return times, peaks


def _commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                           capture_output=True, text=True).stdout.strip()
    return out + ("+dirty" if dirty else "")


def _mem_total() -> str:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("MemTotal")), "unknown")
    except OSError:
        return "unknown"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="each stage once, on small inputs")
    parser.add_argument("--repeats", type=int, default=None, help="timed calls per cell (default 5, 1 with --smoke)")
    parser.add_argument("--stage", nargs="*", choices=sorted(STAGES), help="stages to run (default: all)")
    parser.add_argument("--input", nargs="*", help="inputs to run, by name (default: all)")
    parser.add_argument("--against", type=Path, help="a second source tree, timed in turn with this one")
    parser.add_argument("--output", type=Path, default=Path("BENCH_stages.json"), help="JSON destination")
    args = parser.parse_args(argv)
    repeats = args.repeats or (1 if args.smoke else 5)

    trees = [load_tree(ROOT, "privzone")]
    if args.against is not None:
        trees.append(load_tree(args.against, "privzone_against"))
    header = {
        "commit": _commit(ROOT),
        "against": None if args.against is None else {"path": str(args.against), "commit": _commit(args.against)},
        "nproc": os.cpu_count(),
        "mem_total": _mem_total(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "smoke": args.smoke,
        "repeats": repeats,
    }
    cells = []
    started = time.perf_counter()
    print(f"{'stage':<17} {'input':<19} {'n':>5} {'median s':>9} {'peak MB':>8}"
          + (f" {'ratio':>6} {'faster':>6}" if args.against else ""))
    for inp in inputs(trees[0], args.smoke):
        if args.input and inp.name not in args.input:
            continue
        for name, (stage, runs_on) in STAGES.items():
            if (args.stage and name not in args.stage) or not runs_on(inp):
                continue
            times, peaks = run_cell(trees, stage, inp, repeats)
            cell = {"stage": name, "input": inp.name, "n": inp.n, "m": len(inp.edges),
                    "median_s": statistics.median(times[0]), "min_s": min(times[0]),
                    "max_s": max(times[0]), "peak_bytes": peaks[0]}
            line = f"{name:<17} {inp.name:<19} {inp.n:>5} {cell['median_s']:>9.4f} {peaks[0] / 2**20:>8.1f}"
            if args.against:
                ratios = [a / b for a, b in zip(*times)]
                cell["against"] = {"median_s": statistics.median(times[1]), "min_s": min(times[1]),
                                   "max_s": max(times[1]), "peak_bytes": peaks[1],
                                   "ratio": statistics.median(ratios),
                                   "faster_in": sum(r < 1 for r in ratios), "calls": len(ratios)}
                line += f" {cell['against']['ratio']:>6.3f} {cell['against']['faster_in']:>3}/{len(ratios)}"
            cells.append(cell)
            print(line, flush=True)
    header["wall_s"] = round(time.perf_counter() - started, 1)
    args.output.write_text(json.dumps({"header": header, "cells": cells}, indent=1) + "\n", encoding="utf-8")
    print(f"{len(cells)} cells in {header['wall_s']} s -> {args.output}")


if __name__ == "__main__":
    main()
