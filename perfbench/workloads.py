"""The two benchmark workloads: seeded inputs, the operation sequence, and
the output checks.

Every operation is one in-process `privzone.cli.main(argv)` call, as a CLI
user would run it. Operation i of a run is operation `i % period` of the
workload's cycle, so the reference digests recorded for the default seed
cover every operation a run can reach, however fast the program gets. The
cycles are short, so that a run repeats each of its operations and the
reported latency of each can be a median over the run.

Checks run outside the timed call. Each returns a list of problems; an empty
list means the output is correct. Two kinds of check apply:

* invariants that hold for every seed (see each `check_*` function);
* for the default seed at full size, the SHA-256 of every output, compared
  with `reference_digests.json`, recorded from the seed commit.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path


DEFAULT_SEED = 424242
DIGESTS_FILE = Path(__file__).resolve().with_name("reference_digests.json")


@dataclass(frozen=True)
class Size:
    """Input size of every workload. FULL is the benchmark; TINY the self-test."""

    n: int
    radius: float
    walk_steps: int


FULL = Size(n=1000, radius=0.1, walk_steps=250_000)
TINY = Size(n=80, radius=0.25, walk_steps=20_000)


@dataclass
class Op:
    """One CLI call: its argv, the files it writes and what the check needs."""

    index: int
    argv: list[str]
    files: dict[str, Path] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _rows(text: str) -> list[list[str]]:
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    return [line.split(",") for line in lines[:-1]]


def _g12(x: float) -> str:
    return format(x, ".12g")


def digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name] + b"\0")
    return h.hexdigest()


def parse_sweep(text: str) -> list[tuple[int, int, int, str, int]]:
    """Rows (h, suppressed, candidates, privacy text, cost) of a sweep CSV."""
    rows = _rows(text)
    if rows[0] != ["h", "suppressed", "candidates", "privacy", "cost"]:
        raise ValueError("bad sweep header")
    return [(int(h), int(s), int(c), p, int(k)) for h, s, c, p, k in rows[1:]]


def check_sweep_rows(rows) -> list[str]:
    """Invariants of every sweep with a uniform prior: h runs 0..D,
    suppressed and cost never decrease in h, the last radius silences every
    node (so every node is a candidate), and privacy is exactly
    1/candidates (as written, 12 digits)."""
    problems = []
    if [r[0] for r in rows] != list(range(len(rows))):
        problems.append("radii are not 0..D")
    for prev, row in zip(rows, rows[1:]):
        if row[1] < prev[1] or row[4] < prev[4]:
            problems.append(f"suppressed or cost decreases at h={row[0]}")
    last = rows[-1]
    if last[2] != last[1]:
        problems.append("the full-graph radius leaves some node out of the candidates")
    for h, _, cand, privacy, _ in rows:
        if privacy != _g12(1.0 / cand):
            problems.append(f"privacy {privacy} wrong for {cand} candidates at h={h}")
    return problems


class Workload:
    """Base class: subclasses define setup, op and check."""

    name = ""
    why = ""
    period = 1  # length of the operation cycle
    block = 1  # operations per traced block
    threads: str | None = None  # PRIVZONE_THREADS for the timed run

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.rng = random.Random(f"{self.name}:{seed}")
        self.reference = None
        if seed == DEFAULT_SEED and size == FULL and DIGESTS_FILE.exists():
            self.reference = json.loads(DIGESTS_FILE.read_text())[self.name]

    def setup(self) -> None:
        """Generate the seeded inputs; counted in setup_s."""

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op, outputs: dict[str, bytes]) -> list[str]:
        raise NotImplementedError

    def normalize(self, outputs: dict[str, bytes]) -> dict[str, bytes]:
        """The outputs as digested: anything that depends on the checkout
        location is removed."""
        return outputs

    def check_digest(self, op: Op, outputs: dict[str, bytes]) -> list[str]:
        if self.reference is None:
            return []
        want = self.reference[op.index]
        got = digest(self.normalize(outputs))
        return [] if got == want else [f"digest {got[:12]} != reference {want[:12]}"]


class RggExperiment(Workload):
    """`experiment` over a block of two seeded RGG seeds; op 0 targets the
    max-betweenness node, op 1 the min-betweenness node of the same two
    graphs."""

    name = "rgg-experiment"
    why = ("the experiment driver: gen_rgg, betweenness and a sweep per seed, "
           "two seeds in a 2-worker process pool; the only betweenness workload")
    period = 2
    block = 2
    threads = "2"

    def setup(self):
        self.seeds = (self.rng.randrange(1, 2**31), self.rng.randrange(1, 2**31))
        self.outdir = self.workdir / "experiment"

    def op(self, i):
        index = i % self.period
        seeds = self.seeds
        target = "max-betweenness" if index == 0 else "min-betweenness"
        files = {f"seed_{s}.csv": self.outdir / f"seed_{s}.csv" for s in seeds}
        files["averaged.csv"] = self.outdir / "averaged.csv"
        argv = ["experiment", "--nodes", str(self.size.n), "--radius", repr(self.size.radius),
                "--seeds", *map(str, seeds), "--target", target, "--outdir", str(self.outdir)]
        return Op(index, argv, files, {"seeds": seeds})

    def normalize(self, outputs):
        out = dict(outputs)
        out["stdout"] = out["stdout"].replace(str(self.outdir).encode(), b"<outdir>")
        return out

    def check(self, op, outputs):
        problems = []
        per_seed = []
        for s in op.meta["seeds"]:
            rows = parse_sweep(outputs[f"seed_{s}.csv"].decode())
            per_seed.append(rows)
            problems += [f"seed {s}: {p}" for p in check_sweep_rows(rows)]
            if rows[0][1:3] != (1, 1):
                problems.append(f"seed {s}: radius 0 does not silence the target alone")
        averaged = _rows(outputs["averaged.csv"].decode())
        common = min(len(rows) for rows in per_seed)
        want = [["h", "suppressed", "candidates", "privacy", "cost"]]
        for idx in range(common):
            cols = [[float(r[idx][1]), float(r[idx][2]), float(r[idx][3]), float(r[idx][4])]
                    for r in per_seed]
            want.append([str(idx)] + [_g12(sum(c) / len(c)) for c in zip(*cols)])
        if averaged != want:
            problems.append("averaged.csv != per-radius mean of the seed CSVs")
        lines = outputs["stdout"].decode().splitlines()
        if len(lines) != len(op.meta["seeds"]) + 1:
            problems.append("unexpected experiment stdout")
        return problems


class WalkInference(Workload):
    """`simulate` with a trace and a brute-force posterior, on the
    criterion-9 RGG, for radius 1, 2 and 3 in turn, each with its own
    source and a seeded walk."""

    name = "walk-inference"
    why = ("the observer: a 250k-step walk, its trace CSV and the brute-force "
           "posterior (n BFSes); write-heavy, never builds the distance matrix")
    period = 3
    block = 3

    def setup(self):
        """The criterion-9 RGG (generator seed 424242) with its node ids
        permuted by the seed (unpermuted for the default seed), and each
        op's source the image under that permutation of one fixed draw. So
        every seed poses the same problems up to relabelling, and does the
        same amount of work."""
        from privzone import build_graph, fileio, gen_rgg

        g = gen_rgg(self.size.n, self.size.radius, DEFAULT_SEED).graph
        perm = list(range(g.node_count))
        if self.seed != DEFAULT_SEED:
            self.rng.shuffle(perm)
            g = build_graph((perm[i], perm[j]) for i, j in g.edges)
        self.graph = g
        self.graph_path = self.workdir / "graph.txt"
        self.graph_path.write_text(fileio.format_edge_list(g), encoding="utf-8")
        draw = random.Random(f"{self.name}:nodes")
        self.params = [dict(node=perm[draw.randrange(g.node_count)], h=1 + j,
                            walk=self.rng.randrange(2**31))
                       for j in range(self.period)]

    def op(self, i):
        index = i % self.period
        p = self.params[index]
        files = {"trace.csv": self.workdir / "trace.csv",
                 "posterior.csv": self.workdir / "posterior.csv"}
        argv = ["simulate", "--graph", str(self.graph_path), "--source", str(p["node"]),
                "--radius", str(p["h"]), "--steps", str(self.size.walk_steps),
                "--seed", str(p["walk"]), "--trace", str(files["trace.csv"]),
                "--posterior", str(files["posterior.csv"])]
        return Op(index, argv, files, p)

    def check(self, op, outputs):
        from privzone import candidate_set

        problems = []
        trace = outputs["trace.csv"]
        lines = trace.count(b"\n")
        if not trace.startswith(b"t,node,broadcast\n") or lines != self.size.walk_steps + 1:
            problems.append("trace CSV does not hold one line per step")
        rows = _rows(outputs["posterior.csv"].decode())
        n = self.graph.node_count
        if rows[0] != ["node", "mass"] or [int(r[0]) for r in rows[1:]] != list(range(n)):
            return problems + ["posterior CSV does not list every node once"]
        support = {int(v) for v, m in rows[1:] if float(m) > 0}
        want = candidate_set(self.graph, op.meta["node"], op.meta["h"])
        if support != want:
            problems.append("posterior support != candidate_set(g, s, h)")
        elif any(float(m) != 1.0 / len(want) for v, m in rows[1:] if int(v) in want):
            problems.append("posterior mass is not uniform over the support")
        return problems


WORKLOADS = {w.name: w for w in (RggExperiment, WalkInference)}
