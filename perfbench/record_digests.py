"""Record reference_digests.json: the SHA-256 of every output of every
operation in each workload's cycle, for the default seed at full size.

    python3 perfbench/record_digests.py

Run it on the commit whose outputs are the reference (the digests in the
repository were recorded on the seed commit). It refuses to write if any
operation fails its invariant checks.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from workloads import DEFAULT_SEED, DIGESTS_FILE, FULL, WORKLOADS, digest  # noqa: E402


def record(name, workdir):
    w = WORKLOADS[name](DEFAULT_SEED, FULL, workdir)
    w.reference = None
    w.setup()
    if w.threads is not None:
        os.environ["PRIVZONE_THREADS"] = w.threads
    seen = {}

    def keep(op, outputs):
        seen[op.index] = digest(w.normalize(outputs))
        return []

    w.check_digest = keep
    from worker import run_op

    for i in range(w.period):
        _, _, problems = run_op(w, i)
        if problems:
            raise SystemExit(f"{name} op {i} failed; digests not written")
        print(f"{name} op {i}: {seen[i][:16]}", flush=True)
    return [seen[i] for i in range(w.period)]


def main():
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        out = {name: record(name, Path(tmp) / name) for name in WORKLOADS}
    DIGESTS_FILE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
