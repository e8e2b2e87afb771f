"""Self-test of the benchmark, at tiny input size (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload:
* the untraced run prints every end-to-end metric with its unit, and the
  traced run every per-layer metric, both with correct output;
* two traced runs of one seed give identical counts;
* a deliberately corrupted output (last line dropped) makes the op fail,
  so failed_ratio rises above zero;
and that BENCHMARK.json lists exactly the metrics run.py reports, and that
the benchmark refuses to run without the privzone sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res, spec, name):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (name, res)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(spec), name
    for k, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)), (name, k)


def test_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    keep = {k: u for k, u, kept in run.PER_LAYER if kept}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == keep
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


def test_runs(name):
    untraced = bench("--workload", name, "--tiny", "--seconds", "1", "--trace", "0")
    check_metrics(result(untraced), run.END_TO_END, name)
    counts = []
    for _ in range(2):
        traced = bench("--workload", name, "--tiny", "--seconds", "1", "--trace", "1")
        res = result(traced)
        check_metrics(res, [(k, u) for k, u, kept in run.PER_LAYER if kept], name)
        for key, _, _ in run.PER_LAYER:
            assert f"  {key} " in traced.stdout, (name, key)
        counts.append({k: v["value"] for k, v in res["metrics"].items()
                       if v["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1], (name, counts)


def test_corruption_fails(name):
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        w = WORKLOADS[name](7, TINY, Path(tmp))
        w.setup()
        if w.threads is not None:
            os.environ["PRIVZONE_THREADS"] = w.threads
        r = worker.measure(w, seconds=0.0, corrupt=True)
    assert r["failed"] / len(r["latencies"]) > 0, name


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "walk-inference", "--seconds", "1", cwd=tmp)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout


def main():
    test_benchmark_json()
    test_refuses_without_sources()
    for name in WORKLOADS:
        test_corruption_fails(name)
        test_runs(name)
        print(f"ok {name}", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
