"""One benchmark process for one workload. `run.py` starts it; it is not
meant to be run by hand.

    worker.py setup   --workload W --seed S --workdir D [--tiny]
    worker.py measure --workload W --seed S --workdir D --seconds T [--tiny]
    worker.py block   --workload W --seed S --workdir D (--seconds T | --blocks N)
                      [--trace] [--tiny]

Each mode prints one JSON object on stdout. `setup_s` runs from the first
line of this file, so it includes `import privzone`.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def _setup(name, seed, tiny, workdir):
    import privzone  # noqa: F401  (timed as part of set-up)
    from workloads import FULL, TINY, WORKLOADS

    w = WORKLOADS[name](seed, TINY if tiny else FULL, workdir)
    w.setup()
    return w, time.perf_counter() - _START


def _corrupt(outputs):
    """Drop the last line of every output (used by the self-test)."""
    return {k: v[: v.rstrip(b"\n").rfind(b"\n") + 1] for k, v in outputs.items()}


def run_op(w, i, rec=None, corrupt=False):
    """Run operation i; return (seconds, self CPU seconds, problems)."""
    from privzone import cli

    op = w.op(i)
    for path in op.files.values():
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    problems = []
    # Each op starts on a collected heap, as a fresh CLI process would, so
    # that collecting the previous op's garbage does not land in its time.
    gc.collect()
    if rec is not None:
        rec.begin_op(i)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception:
        rc = None
        problems.append(traceback.format_exc())
    t1 = time.perf_counter()
    cpu = time.process_time() - cpu0
    if rec is not None:
        rec.end_op()
    if rc != 0:
        problems.append(f"exit code {rc}: {err.getvalue().strip()}")
    else:
        try:
            outputs = {"stdout": out.getvalue().encode()}
            outputs.update((k, p.read_bytes()) for k, p in op.files.items())
            if corrupt:
                outputs = _corrupt(outputs)
            problems += w.check_digest(op, outputs) + w.check(op, outputs)
        except Exception:
            problems.append("output check raised:\n" + traceback.format_exc())
    for p in problems:
        print(f"[{w.name}] op {i} ({' '.join(op.argv[:1])}): {p}", file=sys.stderr)
    return t1 - t0, cpu, problems


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure(w, seconds, corrupt=False):
    """Closed loop, one client: run ops until their summed time reaches
    `seconds` and every op of the cycle has run. Checks run between ops,
    off the clock. Returns each op's latency and CPU seconds (its own and
    its child processes')."""
    latencies, cpus, failed = [], [], 0
    while len(latencies) < w.period or sum(latencies) < seconds:
        kids0 = _children_cpu()
        dt, op_cpu, problems = run_op(w, len(latencies), corrupt=corrupt)
        latencies.append(dt)
        cpus.append(op_cpu + _children_cpu() - kids0)
        failed += bool(problems)
    return {
        "latencies": latencies,
        "cpus": cpus,
        "period": w.period,
        "failed": failed,
        "peak_rss_mb": _peak_rss_mb(),
    }


def run_blocks(w, blocks=None, seconds=None, rec=None):
    """Run whole blocks of the first `w.block` ops: `blocks` of them, or as
    many as fit in `seconds` of op time (at least one)."""
    walls, counts, failed, done = [], [], 0, 0
    while (done < blocks) if blocks is not None else (not walls or sum(walls) < seconds):
        wall = 0.0
        for i in range(w.block):
            dt, _, problems = run_op(w, i, rec)
            wall += dt
            failed += bool(problems)
        walls.append(wall)
        if rec is not None:
            counts.append(rec.take_counts())
        done += 1
    return {"block_walls": walls, "counts": counts, "failed": failed,
            "attempted": done * w.block}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure", "block"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--blocks", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
    w, setup_s = _setup(args.workload, args.seed, args.tiny, args.workdir)
    result = {"setup_s": setup_s}
    if args.mode == "measure":
        if w.threads is not None:
            os.environ["PRIVZONE_THREADS"] = w.threads
        result.update(measure(w, args.seconds))
    elif args.mode == "block":
        # Tracing needs every span in this process, so blocks run on one worker.
        os.environ["PRIVZONE_THREADS"] = "1"
        if rec is not None:
            tracing.install(rec)
        result.update(run_blocks(w, args.blocks, args.seconds, rec))
        if rec is not None:
            result["spans"] = str(args.workdir / "spans.jsonl")
            rec.write_spans(result["spans"])
        elif w.threads is not None:
            # One more untraced block with the workload's own worker count,
            # for the pool's efficiency.
            from privzone.experiment import worker_cap

            os.environ["PRIVZONE_THREADS"] = w.threads
            kids0 = _children_cpu()
            par = run_blocks(w, blocks=1)
            result["parallel"] = {
                "wall_s": par["block_walls"][0],
                "children_cpu_s": _children_cpu() - kids0,
                "workers": worker_cap(len(w.op(0).meta["seeds"])),
            }
            result["failed"] += par["failed"]
            result["attempted"] += par["attempted"]
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
