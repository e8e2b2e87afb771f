"""Batch experiment driver: sweeps over random geometric graphs.

For every seed a graph is generated, the target node is located (by
betweenness rank or given explicitly), and a full radius sweep is written to
`seed_<seed>.csv`. After all seeds finish, `averaged.csv` holds per-radius
means across seeds, truncated at the shortest sweep. Averages are computed
from the per-seed CSV text, the values as written to the files, so the CSVs
are the single source of truth.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .graph import Graph, _first_simplicial, betweenness, gen_rgg
from .optimize import sweep

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment", "worker_cap"]

THREAD_CAP_ENV = "PRIVZONE_THREADS"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: n, connection radius, seeds, and the target node rule.

    target is "max-betweenness", "min-betweenness", or an explicit node id.
    Betweenness ties go to the lowest node id. The min-betweenness node is
    the smallest simplicial node (one whose neighbours are pairwise
    adjacent) when there is one: in a connected graph exactly those nodes
    lie on no shortest path between two others, so they score 0.
    `betweenness` runs for max-betweenness, and for min-betweenness only
    when no node is simplicial.
    """

    n: int
    radius: float
    seeds: tuple[int, ...]
    target: str | int
    density_path: str | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("experiment needs n >= 2")
        if self.radius <= 0:
            raise ValueError("experiment needs radius > 0")
        if not self.seeds:
            raise ValueError("experiment needs at least one seed")
        if isinstance(self.target, str) and self.target not in (
            "max-betweenness",
            "min-betweenness",
        ):
            raise ValueError(
                "target must be max-betweenness, min-betweenness, or a node id"
            )


@dataclass(frozen=True)
class ExperimentResult:
    seed_files: dict[int, Path]
    averaged_file: Path
    target_nodes: dict[int, int]
    discarded: dict[int, int]


def worker_cap(n_tasks: int) -> int:
    env = os.environ.get(THREAD_CAP_ENV)
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ValueError(f"{THREAD_CAP_ENV} must be an integer, got {env!r}") from exc
        if cap < 1:
            raise ValueError(f"{THREAD_CAP_ENV} must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def _betweenness_target(g: Graph, rule: str) -> int:
    """The node of the connected graph `g` with the largest
    (`max-betweenness`) or smallest (`min-betweenness`) betweenness, ties to
    the lowest id.

    The smallest is found without computing betweenness where it can be. In
    a connected graph B(v) = 0 exactly when v is simplicial: two
    non-adjacent neighbours u, w of v are at distance 2 with u-v-w a
    shortest path through v, while a path through a v whose neighbours form
    a clique is shortened by the edge that skips v. `betweenness` scores
    such a node exactly 0.0 and every other node above 0, so its argmin is
    the smallest simplicial node, and `betweenness` runs only when there is
    none.
    """
    if rule == "min-betweenness":
        simplicial = _first_simplicial(g)
        if simplicial is not None:
            return simplicial
        return int(np.argmin(betweenness(g)))
    return int(np.argmax(betweenness(g)))


def _run_seed(config: ExperimentConfig, seed: int) -> tuple[str, int, int]:
    """One seed's sweep CSV text, target node and discarded point count."""
    geo = gen_rgg(config.n, config.radius, seed)
    g = geo.graph
    if isinstance(config.target, int):
        g.check_node(config.target)
        target = config.target
    else:
        target = _betweenness_target(g, config.target)
    density = None
    if config.density_path is not None:
        density = fileio.parse_density(fileio.read_text(config.density_path), g.node_count)
    rows = sweep(g, target, density)
    return fileio.format_sweep_csv(rows), target, geo.discarded


def run_experiment(config: ExperimentConfig, outdir) -> ExperimentResult:
    """Run every seed (in parallel up to the worker cap) and write the CSVs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    workers = worker_cap(len(config.seeds))
    tasks = ([config] * len(config.seeds), config.seeds)
    if workers == 1:
        results = list(map(_run_seed, *tasks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_seed, *tasks))

    seed_files: dict[int, Path] = {}
    target_nodes: dict[int, int] = {}
    discarded: dict[int, int] = {}
    per_seed_rows = []
    for seed, (csv_text, target, dropped) in zip(config.seeds, results):
        path = outdir / f"seed_{seed}.csv"
        path.write_text(csv_text, encoding="utf-8")
        seed_files[seed] = path
        target_nodes[seed] = target
        discarded[seed] = dropped
        per_seed_rows.append(fileio.parse_sweep_csv(csv_text))

    common = min(len(rows) for rows in per_seed_rows)
    means = np.array([rows[:common] for rows in per_seed_rows]).mean(axis=0)
    mean_rows = [(h, *row[1:]) for (h, *_), row in zip(per_seed_rows[0], means.tolist())]
    averaged_file = outdir / "averaged.csv"
    averaged_file.write_text(fileio.format_averaged_sweep_csv(mean_rows), encoding="utf-8")
    return ExperimentResult(
        seed_files=seed_files,
        averaged_file=averaged_file,
        target_nodes=target_nodes,
        discarded=discarded,
    )
