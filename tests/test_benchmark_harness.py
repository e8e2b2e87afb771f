"""The benchmark's tracer, `perfbench/tracing.py`, wraps library functions
by name, among them `policy.induced_diameter`, `observer.bfs_layers`,
`optimize.analyze`, `cli.analyze` and `WalkTrace.steps`. A traced run of
the tiny `walk-inference` workload installs every wrapper, so it fails as
soon as one of those names is gone."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_tiny_walk_inference_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk-inference", "--tiny",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
