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
from .graph import betweenness, gen_rgg
from .optimize import sweep

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment", "worker_cap"]

THREAD_CAP_ENV = "PRIVZONE_THREADS"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: n, connection radius, seeds, and the target node rule.

    target is "max-betweenness", "min-betweenness", or an explicit node id.
    Betweenness ties go to the lowest node id.
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


def _run_seed(config: ExperimentConfig, seed: int) -> tuple[str, int, int]:
    """One seed's sweep CSV text, target node and discarded point count."""
    geo = gen_rgg(config.n, config.radius, seed)
    g = geo.graph
    if isinstance(config.target, int):
        g.check_node(config.target)
        target = config.target
    else:
        scores = betweenness(g)
        if config.target == "max-betweenness":
            target = int(np.argmax(scores))
        else:
            target = int(np.argmin(scores))
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
