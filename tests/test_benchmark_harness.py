"""The benchmark's tracer, `perfbench/tracing.py`, wraps library functions
by name, among them `policy.induced_diameter`, `observer.bfs_layers`,
`optimize.analyze`, `optimize.diameter`, `Graph.distance_matrix`,
`cli.analyze` and `WalkTrace.steps`. A traced run of either tiny workload
installs every wrapper, so it fails as soon as one of those names is gone."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_tiny_run_is_correct(workload: str) -> bool:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--tiny",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_traced_tiny_walk_inference_is_correct():
    assert _traced_tiny_run_is_correct("walk-inference")


def test_traced_tiny_rgg_experiment_is_correct():
    assert _traced_tiny_run_is_correct("rgg-experiment")
