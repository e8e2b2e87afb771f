"""privzone benchmark: end-to-end metrics (untraced) or per-layer metrics
(traced) for one workload, or for all of them.

    python3 perfbench/run.py                                  # every workload, untraced
    python3 perfbench/run.py --workload rgg-experiment --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload walk-inference --trace 1

Run it from the repository root: it imports privzone from ./src. Every
workload runs in fresh processes (see worker.py); the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-up runs per measured run; setup_s is their median
WORKER_TIMEOUT_S = 150

# End-to-end metrics reported by the untraced run. A run repeats its
# workload's short op cycle; ops_per_s and cpu_s_per_op take, for each op of
# the cycle, the median over its repeats, so that one op slowed by the
# shared host does not move the run. op_p50_ms, op_tail_ms and failed_ratio
# are printed but not in BENCHMARK.json: the median over a run's mixed ops
# jumps between op kinds, the tail needs more ops than a run completes, and
# failed_ratio is 0 on correct code.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics, per traced block. Times are inclusive span times unless
# the name says self; counts and ratios repeat exactly for a seed. JSON
# marks the ones in BENCHMARK.json: counters, and the times that no workload
# leaves at zero (a layer a workload never enters would report 0 s).
PER_LAYER = [
    # name, unit, in BENCHMARK.json
    ("cli.main_s", "s", True),
    ("cli.self_s", "s", True),
    ("cli.commands", "count", True),
    ("cli.exit_nonzero", "count", True),
    ("fileio.parse_s", "s", True),
    ("fileio.bytes_read", "bytes", True),
    ("fileio.format_s", "s", True),
    ("fileio.bytes_written", "bytes", True),
    ("graph.self_s", "s", True),
    ("graph.gen_rgg_s", "s", False),
    ("graph.gen_rgg_pair_bytes", "bytes", True),
    ("graph.connectivity_s", "s", False),
    ("graph.distance_matrix_s", "s", False),
    ("graph.distance_matrix_calls", "count", True),
    ("graph.distance_matrix_bytes", "bytes", True),
    ("graph.betweenness_s", "s", False),
    ("graph.betweenness_calls", "count", True),
    ("graph.betweenness_repeat_ratio", "ratio", True),
    ("graph.induced_diameter_s", "s", False),
    ("graph.induced_diameter_calls", "count", True),
    ("graph.bfs_layers_s", "s", False),
    ("graph.bfs_layers_calls", "count", True),
    ("policy.self_s", "s", False),
    ("policy.analyze_s", "s", False),
    ("policy.analyze_calls", "count", True),
    ("policy.candidate_set_s", "s", False),
    ("policy.excluded_edges_s", "s", False),
    ("policy.candidates_total", "count", True),
    ("optimize.self_s", "s", False),
    ("optimize.sweep_s", "s", False),
    ("optimize.sweep_calls", "count", True),
    ("optimize.radii_swept", "count", True),
    ("optimize.distinct_rows_ratio", "ratio", True),
    ("observer.self_s", "s", False),
    ("observer.simulate_walk_s", "s", False),
    ("observer.walk_steps", "count", True),
    ("observer.observed_set_s", "s", False),
    ("observer.posterior_bruteforce_s", "s", False),
    ("experiment.run_s", "s", False),
    ("experiment.self_s", "s", False),
    ("experiment.seeds_run", "count", True),
    ("experiment.workers", "count", True),
    ("experiment.parallel_efficiency", "ratio", True),
    ("trace.overhead_s", "s", True),
]

SPAN_TIMES = {  # metric -> span name (inclusive time)
    "cli.main_s": "cli.main",
    "fileio.parse_s": "fileio.parse",
    "fileio.format_s": "fileio.format",
    "graph.gen_rgg_s": "graph.gen_rgg",
    "graph.connectivity_s": "graph.connectivity",
    "graph.distance_matrix_s": "graph.distance_matrix",
    "graph.betweenness_s": "graph.betweenness",
    "graph.induced_diameter_s": "graph.induced_diameter",
    "graph.bfs_layers_s": "graph.bfs_layers",
    "policy.analyze_s": "policy.analyze",
    "policy.candidate_set_s": "policy.candidate_set",
    "policy.excluded_edges_s": "policy.excluded_edges",
    "optimize.sweep_s": "optimize.sweep",
    "observer.simulate_walk_s": "observer.simulate_walk",
    "observer.observed_set_s": "observer.observed_set",
    "observer.posterior_bruteforce_s": "observer.posterior_bruteforce",
    "experiment.run_s": "experiment.run",
}


class BenchError(RuntimeError):
    pass


def _worker(mode, name, seed, workdir, tiny, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", name,
           "--seed", str(seed), "--workdir", str(workdir), *extra]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(latencies):
    """Highest percentile with at least 10 samples beyond it, or None."""
    ordered = sorted(latencies)
    k = len(ordered) - 11
    if k < 0:
        return None
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _cycle_median_sum(values, period):
    """Sum over the ops of the cycle of each op's median over its repeats."""
    return sum(statistics.median(values[k::period]) for k in range(period))


def run_untraced(name, seed, seconds, tiny, workdir):
    setups = [_worker("setup", name, seed, workdir / f"setup{i}", tiny)["setup_s"]
              for i in range(SETUP_SAMPLES - 1)]
    r = _worker("measure", name, seed, workdir / "measure", tiny, "--seconds", str(seconds))
    setups.append(r["setup_s"])
    lat, period = r["latencies"], r["period"]
    n = len(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": period / _cycle_median_sum(lat, period),
        "cpu_s_per_op": _cycle_median_sum(r["cpus"], period) / period,
        "peak_rss_mb": r["peak_rss_mb"],
    }
    tail = _tail(lat)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"cycle of {period} ops, each at its median over {n // period} or more "
        f"repeats; {n} ops in {sum(lat):.2f} s of op time",
        "cpu_s_per_op": "same medians, own + child processes' CPU",
    }
    print(f"== {name}: untraced, seed {seed}, {seconds} s, closed loop, 1 client")
    for key, unit in END_TO_END:
        print(f"  {key:<16} {metrics[key]:>14.6g} {unit:<6} {notes.get(key, '')}")
    print(f"  {'op_p50_ms':<16} {1000 * statistics.median(lat):>14.6g} {'ms':<6} "
          f"median of {n} ops")
    if tail is None:
        print(f"  {'op_tail_ms':<16} {'n/a':>14} {'ms':<6} needs >= 11 ops, got {n}")
    else:
        print(f"  {'op_tail_ms':<16} {1000 * tail[0]:>14.6g} {'ms':<6} "
              f"p{tail[1]:.1f}, 10 of {n} ops beyond it")
    print(f"  {'failed_ratio':<16} {r['failed'] / n:>14.6g} {'':<6} {r['failed']} of {n} ops")
    return n, r["failed"], {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}


def _ratio(num, base):
    return num / base if base else 0.0


def run_traced(name, seed, seconds, tiny, workdir):
    import tracing

    t = _worker("block", name, seed, workdir / "traced", tiny, "--trace",
                "--seconds", str(seconds / 2))
    blocks = len(t["block_walls"])
    u = _worker("block", name, seed, workdir / "untraced", tiny, "--blocks", str(blocks))
    attempted = t["attempted"] + u["attempted"]
    failed = t["failed"] + u["failed"]
    counts = t["counts"][0]
    if any(c != counts for c in t["counts"]):
        print(f"[{name}] per-layer counts differ between identical blocks", file=sys.stderr)
        failed += 1
    spans = tracing.summarize(t["spans"], blocks)
    traced_wall = statistics.mean(t["block_walls"])
    untraced_wall = statistics.mean(u["block_walls"])

    m = {metric: spans["inclusive"].get(span, 0.0) for metric, span in SPAN_TIMES.items()}
    for layer, value in spans["layer_self"].items():
        m[f"{layer}.self_s"] = value

    def c(key):
        return counts.get(key, 0)

    for key, unit, _ in PER_LAYER:
        if unit in ("count", "bytes") and key not in m:
            m[key] = c(key)
    m["graph.betweenness_repeat_ratio"] = _ratio(
        c("graph.betweenness_distinct"), c("graph.betweenness_calls"))
    m["optimize.distinct_rows_ratio"] = _ratio(
        c("optimize.distinct_rows"), c("optimize.radii_swept"))
    par = u.get("parallel")
    m["experiment.workers"] = par["workers"] if par else 0
    m["experiment.parallel_efficiency"] = (
        _ratio(par["children_cpu_s"], par["workers"] * par["wall_s"]) if par else 0.0)
    m["trace.overhead_s"] = traced_wall - untraced_wall

    bases = {
        "graph.betweenness_repeat_ratio": "distinct graphs / betweenness calls = "
        f"{c('graph.betweenness_distinct')}/{c('graph.betweenness_calls')}",
        "optimize.distinct_rows_ratio": "rows differing from the previous h / radii swept = "
        f"{c('optimize.distinct_rows')}/{c('optimize.radii_swept')}",
        "experiment.parallel_efficiency": (
            f"children CPU {par['children_cpu_s']:.3f} s / ({par['workers']} workers x "
            f"{par['wall_s']:.3f} s wall), untraced" if par else "no process pool"),
        "graph.distance_matrix_bytes": "computed n*n*(8+4) per build, "
        f"{c('graph.distance_matrix_builds')} builds",
        "graph.gen_rgg_pair_bytes": "computed n*n*2*8 per call",
        "fileio.bytes_written": "characters formatted (ASCII)",
    }
    self_sum = sum(spans["layer_self"].values())
    print(f"== {name}: traced, seed {seed}, {blocks} block(s) of {t['attempted'] // blocks} ops; "
          "times are per block")
    for key, unit, _ in PER_LAYER:
        value = f"{m[key]:>14d}" if unit in ("count", "bytes") else f"{m[key]:>14.6g}"
        print(f"  {key:<32} {value} {unit:<6} {bases.get(key, '')}")
    overhead = m["trace.overhead_s"]
    print(f"  traced op wall {traced_wall:.4f} s, untraced {untraced_wall:.4f} s, "
          f"overhead {overhead:+.4f} s ({_ratio(overhead, untraced_wall):+.2%}), "
          f"{spans['spans']} spans")
    print(f"  sum of layer self times {self_sum:.4f} s = traced op wall "
          f"{traced_wall - self_sum:+.4f} s unattributed")
    print(f"  failed_ratio {_ratio(failed, attempted):.6g} ({failed} of {attempted} ops)")
    metrics = {k: {"value": m[k], "unit": u} for k, u, keep in PER_LAYER if keep}
    return attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50.0,
                   help="op time measured per workload (default 50)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "privzone" / "__init__.py").is_file():
        print(f"error: no privzone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = run_traced if args.trace else run_untraced
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            workdir = WORK / f"{name}-{args.seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                a, f, m = run(name, args.seed, args.seconds, args.tiny, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            attempted += a
            failed += f
            metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
