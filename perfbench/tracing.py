"""Span and counter recorder for the traced benchmark run (stdlib only).

`install(recorder)` replaces each public privzone function the benchmark
follows with a wrapper, in the namespace its caller looks it up from. A
wrapper records a span (name, start, end, parent span, op id) and updates
counters, but only while an operation is open: calls the benchmark's own
checks make between operations pass straight through.

Only the traced worker imports this module; the timed run never does.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(int)
        self.op: int | None = None
        self._built: dict[int, object] = {}  # graphs whose distance matrix this op built
        self._betweenness_graphs: set[int] = set()  # content hashes, per block

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def end_op(self) -> None:
        self.op = None
        self._built.clear()

    def take_counts(self) -> dict:
        """Counters of the block just run; resets them for the next block."""
        out = dict(self.counts)
        out["graph.betweenness_distinct"] = len(self._betweenness_graphs)
        self.counts.clear()
        self._betweenness_graphs.clear()
        return out

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else None, rec.op]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            if count is not None:
                count(args, result)
            return result

        setattr(owner, attr, traced)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def install(rec: Recorder) -> None:
    """Wrap every followed privzone function. Counters:

    * cli.commands, cli.exit_nonzero: CLI calls and non-zero exit codes;
    * fileio.bytes_read: bytes of every text file read;
    * fileio.bytes_written: characters formatted for output, which equal
      bytes since every privzone format is ASCII;
    * graph.gen_rgg_pair_bytes: the n x n x 2 float64 difference array,
      computed as n*n*2*8 per call;
    * graph.distance_matrix_bytes: the float64 and int32 n x n matrices,
      computed as n*n*(8+4) for each graph whose matrix an op builds;
    * graph.betweenness_distinct: distinct graphs (by content) per block;
    * optimize.distinct_rows: sweep rows that differ from the previous
      radius (h=0 counts as differing).
    """
    from privzone import cli, experiment, fileio, observer, optimize, policy
    from privzone.graph import Graph

    c = rec.counts

    def add(key, value=1):
        c[key] += value

    def on_main(args, rc):
        add("cli.commands")
        add("cli.exit_nonzero", int(rc != 0))

    def on_read(args, text):
        add("fileio.bytes_read", len(text.encode("utf-8")))

    def on_format(args, text):
        add("fileio.bytes_written", len(text))

    def on_gen_rgg(args, geo):
        add("graph.gen_rgg_pair_bytes", args[0] * args[0] * 2 * 8)

    def on_distance_matrix(args, dist):
        g = args[0]
        add("graph.distance_matrix_calls")
        if id(g) not in rec._built:
            rec._built[id(g)] = g  # held until the op ends, so the id stays unique
            add("graph.distance_matrix_builds")
            add("graph.distance_matrix_bytes", g.node_count * g.node_count * (8 + 4))

    def on_betweenness(args, scores):
        add("graph.betweenness_calls")
        rec._betweenness_graphs.add(hash(args[0]))

    def on_candidates(args, cands):
        add("policy.candidates_total", len(cands))

    def on_sweep(args, rows):
        add("optimize.sweep_calls")
        add("optimize.radii_swept", len(rows))
        prev = None
        for r in rows:
            key = (r.suppressed_count, r.candidate_count, r.privacy, r.cost)
            add("optimize.distinct_rows", int(key != prev))
            prev = key

    def on_walk(args, trace):
        add("observer.walk_steps", len(trace.steps))

    def on_experiment(args, result):
        add("experiment.seeds_run", len(args[0].seeds))

    def calls(key):
        return lambda args, result: add(key)

    rec.wrap(cli, "main", "cli.main", on_main)

    rec.wrap(fileio, "read_text", "fileio.parse", on_read)
    for attr in ("parse_edge_list", "parse_density", "parse_sweep_csv", "parse_positions"):
        rec.wrap(fileio, attr, "fileio.parse")
    for attr in fileio.__all__:
        if attr.startswith("format_"):
            rec.wrap(fileio, attr, "fileio.format", on_format)

    rec.wrap(fileio, "build_graph", "graph.build")
    for mod in (cli, experiment):
        rec.wrap(mod, "gen_rgg", "graph.gen_rgg", on_gen_rgg)
        rec.wrap(mod, "betweenness", "graph.betweenness", on_betweenness)
    rec.wrap(Graph, "unreachable_from_zero", "graph.connectivity")
    rec.wrap(Graph, "distance_matrix", "graph.distance_matrix", on_distance_matrix)
    rec.wrap(optimize, "diameter", "graph.diameter")
    rec.wrap(policy, "induced_diameter", "graph.induced_diameter",
             calls("graph.induced_diameter_calls"))
    rec.wrap(observer, "bfs_layers", "graph.bfs_layers", calls("graph.bfs_layers_calls"))

    for mod in (cli, optimize):
        rec.wrap(mod, "analyze", "policy.analyze", calls("policy.analyze_calls"))
    rec.wrap(policy, "candidate_set", "policy.candidate_set", on_candidates)
    rec.wrap(policy, "excluded_edges", "policy.excluded_edges")

    for mod in (cli, optimize, experiment):
        rec.wrap(mod, "sweep", "optimize.sweep", on_sweep)

    rec.wrap(cli, "simulate_walk", "observer.simulate_walk", on_walk)
    rec.wrap(cli, "observed_broadcast_set", "observer.observed_set")
    rec.wrap(cli, "posterior_bruteforce", "observer.posterior_bruteforce")

    rec.wrap(cli, "run_experiment", "experiment.run", on_experiment)


LAYERS = ("cli", "fileio", "graph", "policy", "optimize", "observer", "experiment")


def summarize(spans_path: os.PathLike, blocks: int) -> dict:
    """Per-block span times from a spans JSON-lines file.

    Returns {"inclusive": {span name: s}, "self": {span name: s},
    "layer_self": {layer: s}, "spans": spans per block}. A span's self
    time is its duration minus its children's; a name's inclusive time
    counts only its outermost spans, so nested calls of one name are not
    counted twice.
    """
    spans = []
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            spans.append(json.loads(line))
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    inclusive: defaultdict[str, float] = defaultdict(float)
    self_time: defaultdict[str, float] = defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        own = dur - child_time[i]
        self_time[s["name"]] += own
        layer_self[s["name"].split(".")[0]] += own
        parent = s["parent"]
        while parent is not None and spans[parent]["name"] != s["name"]:
            parent = spans[parent]["parent"]
        if parent is None:
            inclusive[s["name"]] += dur
    def per_block(d):
        return {k: v / blocks for k, v in d.items()}

    return {"inclusive": per_block(inclusive), "self": per_block(self_time),
            "layer_self": per_block(layer_self), "spans": len(spans) // blocks}
