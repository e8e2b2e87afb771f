"""Text formats: edge lists, positions, densities, CSV and JSON emission.

Edge list: one `i j` pair per line, whitespace separated; `#` starts a
comment line; blank lines are skipped. Positions: `node_id x y`. Density:
`node_id rho`, plus an optional `default rho` line applied to nodes the file
does not mention.
"""

from __future__ import annotations

import json

import numpy as np

from .graph import GeoGraph, Graph, build_graph
from .policy import DensityMap, PolicyAnalysis
from .optimize import Solution, SweepRow
from .observer import Posterior, WalkTrace

__all__ = [
    "ParseError",
    "parse_edge_list",
    "format_edge_list",
    "parse_positions",
    "format_positions",
    "parse_density",
    "format_sweep_csv",
    "format_averaged_sweep_csv",
    "parse_sweep_csv",
    "format_betweenness_csv",
    "format_trace_csv",
    "format_posterior_csv",
    "format_line_graph_mapping",
    "format_json",
    "read_text",
]


class ParseError(ValueError):
    """Raised when an input file cannot be interpreted."""


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def parse_edge_list(text: str) -> Graph:
    """Parse `i j` lines into a graph."""
    edges = []
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two node ids, got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: node ids must be integers, got {line!r}") from exc
        if i < 0 or j < 0:
            raise ParseError(f"line {lineno}: node ids must be nonnegative, got {line!r}")
        edges.append((i, j))
    if not edges:
        raise ParseError("edge list contains no edges")
    return build_graph(edges)


def format_edge_list(g: Graph) -> str:
    return "".join(f"{i} {j}\n" for i, j in g.edges)


def parse_positions(text: str, node_count: int) -> np.ndarray:
    """Parse `node_id x y` lines into an (n, 2) coordinate array."""
    pos = np.full((node_count, 2), np.nan)
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected `node x y`, got {line!r}")
        try:
            v = int(parts[0])
            x, y = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad position entry {line!r}") from exc
        if not (0 <= v < node_count):
            raise ParseError(f"line {lineno}: node {v} outside 0..{node_count - 1}")
        pos[v] = (x, y)
    if np.isnan(pos).any():
        missing = int(np.flatnonzero(np.isnan(pos[:, 0]))[0])
        raise ParseError(f"no position given for node {missing}")
    return pos


def format_positions(geo: GeoGraph) -> str:
    return "".join(
        f"{v} {x!r} {y!r}\n" for v, (x, y) in enumerate(geo.positions.tolist())
    )


def parse_density(text: str, node_count: int) -> DensityMap:
    """Parse `node_id rho` lines; a `default rho` line fills unmentioned nodes."""
    values = np.full(node_count, np.nan)
    default = None
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected `node rho` or `default rho`, got {line!r}")
        try:
            rho = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: density must be a number, got {line!r}") from exc
        if rho < 0 or not np.isfinite(rho):
            raise ParseError(f"line {lineno}: density must be finite and nonnegative")
        if parts[0] == "default":
            default = rho
            continue
        try:
            v = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad node id in {line!r}") from exc
        if not (0 <= v < node_count):
            raise ParseError(f"line {lineno}: node {v} outside 0..{node_count - 1}")
        values[v] = rho
    unset = np.isnan(values)
    if unset.any():
        if default is None:
            missing = int(np.flatnonzero(unset)[0])
            raise ParseError(f"no density for node {missing} and no default declared")
        values[unset] = default
    try:
        return DensityMap(rho=values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _real(x: float) -> str:
    return format(x, ".12g")


def format_sweep_csv(rows: list[SweepRow]) -> str:
    out = ["h,suppressed,candidates,privacy,cost\n"]
    for r in rows:
        out.append(f"{r.h},{r.suppressed_count},{r.candidate_count},{_real(r.privacy)},{r.cost}\n")
    return "".join(out)


def format_averaged_sweep_csv(mean_rows: list[tuple[int, float, float, float, float]]) -> str:
    out = ["h,suppressed,candidates,privacy,cost\n"]
    for h, sup, cand, privacy, cost in mean_rows:
        out.append(f"{h},{_real(sup)},{_real(cand)},{_real(privacy)},{_real(cost)}\n")
    return "".join(out)


def parse_sweep_csv(text: str) -> list[tuple[int, float, float, float, float]]:
    lines = text.splitlines()
    if not lines or lines[0] != "h,suppressed,candidates,privacy,cost":
        raise ParseError("not a sweep CSV: bad or missing header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ParseError(f"line {lineno}: expected 5 fields, got {line!r}")
        try:
            rows.append(
                (int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]), float(parts[4]))
            )
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad sweep row {line!r}") from exc
    return rows


def format_betweenness_csv(values) -> str:
    out = ["node,betweenness\n"]
    for v, b in enumerate(values):
        out.append(f"{v},{_real(float(b))}\n")
    return "".join(out)


# Steps per joined chunk in `format_trace_csv`: only one chunk's line
# strings are alive at a time, not one per step of the whole trace.
_TRACE_CHUNK = 16384


def format_trace_csv(trace: WalkTrace) -> str:
    steps = trace.steps
    out = ["t,node,broadcast\n"]
    for lo in range(0, len(steps), _TRACE_CHUNK):
        out.append("".join([f"{t},{node},{int(broadcast)}\n"
                            for t, node, broadcast in steps[lo:lo + _TRACE_CHUNK]]))
    return "".join(out)


def format_posterior_csv(posterior: Posterior) -> str:
    out = ["node,mass\n"]
    for v, m in enumerate(posterior.mass.tolist()):
        out.append(f"{v},{m!r}\n")
    return "".join(out)


def format_line_graph_mapping(mapping: tuple[tuple[int, int], ...]) -> str:
    return "".join(f"{k} {i} {j}\n" for k, (i, j) in enumerate(mapping))


def format_json(payload: dict | PolicyAnalysis | Solution) -> str:
    if isinstance(payload, PolicyAnalysis):
        payload = payload.to_json_dict()
    elif isinstance(payload, Solution):
        payload = payload.to_json_dict()
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
