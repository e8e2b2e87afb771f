"""Text formats: edge lists, positions, densities, CSV and JSON emission.

Edge list: one `i j` pair per line, whitespace separated; `#` starts a
comment line; blank lines are skipped. Positions: `node_id x y`. Density:
`node_id rho`, plus an optional `default rho` line applied to nodes the file
does not mention.
"""

from __future__ import annotations

import json
import re

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


# The texts `_edge_tokens` hands to np.loadtxt: ASCII digits, signs and
# whitespace. Any other text goes to `_edge_lines`: loadtxt reads some
# non-ASCII digits as digits, and some NumPy versions read "2.0" as an int.
_PLAIN_TEXT = re.compile(r"[0-9+\-\s]*", re.ASCII)
_INT64_MAX = 2**63 - 1


def parse_edge_list(text: str) -> Graph:
    """Parse `i j` lines into a graph.

    Valid text is read as one int64 array; the line-by-line scan runs only
    for text that array path cannot vouch for, and words the error of a
    bad line with its number.
    """
    ends = _edge_tokens(text)
    if ends is None:
        ends = _edge_lines(text)
    if not len(ends):
        raise ParseError("edge list contains no edges")
    return build_graph(ends)


def _edge_tokens(text: str) -> np.ndarray | None:
    """The (m, 2) node ids of an edge list, read by one np.loadtxt over its
    lines, or None when the text is not plainly valid and `_edge_lines`
    must judge it.

    Vouches only for nonblank text of ASCII digits, signs and whitespace in
    which every line is blank or two nonnegative integers that fit in int64.
    Both paths split lines with `str.splitlines`, which leaves no whitespace
    inside a line but spaces and tabs, where `str.split` and loadtxt agree;
    loadtxt reads such a token as `int` does.
    """
    if not text.strip() or not _PLAIN_TEXT.fullmatch(text):
        return None  # blank text would make loadtxt warn of no data
    try:
        ends = np.loadtxt(text.splitlines(), dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        return None
    if ends.shape[1] != 2 or ends.min() < 0:
        return None
    return ends


def _edge_lines(text: str) -> np.ndarray:
    """The (m, 2) node ids of an edge list, read line by line; raises
    ParseError naming the first bad line."""
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
        if i > _INT64_MAX or j > _INT64_MAX:
            raise ParseError(f"line {lineno}: node ids must fit in int64, got {line!r}")
        edges.append((i, j))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def format_edge_list(g: Graph) -> str:
    ends = g.edge_array
    return "".join(
        _format_rows((ends[lo:lo + _ROW_CHUNK, 0], ends[lo:lo + _ROW_CHUNK, 1]), " ")
        for lo in range(0, len(ends), _ROW_CHUNK)
    )


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
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ParseError(f"line {lineno}: coordinates must be finite, got {line!r}")
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


# Rows per chunk of the trace CSV and of `format_edge_list`: only one
# chunk's byte buffer is alive at a time, not one line string per row.
_ROW_CHUNK = 16384


def _write_digits(values: np.ndarray, digits: np.ndarray, keep: np.ndarray) -> None:
    """Write the decimal digits of nonnegative integers, right-aligned, as
    ASCII codes into the (len, width) view `digits`, wide enough for the
    largest, and clear `keep` over their leading zeros."""
    for j in range(digits.shape[1] - 1, 0, -1):
        rest = values // 10
        digits[:, j] = values - rest * 10 + ord("0")
        keep[:, j - 1] = rest > 0
        values = rest
    digits[:, 0] = values + ord("0")


def _format_rows(columns, sep: str) -> str:
    """Equal-length columns of nonnegative integers as text, one line per
    row: the row's values in decimal, separated by `sep`.

    The values go as ASCII digits into one uint8 buffer, each column padded
    to its widest value; a mask drops the leading zeros.
    """
    widths = [len(str(int(c.max()))) for c in columns]
    buf = np.empty((len(columns[0]), sum(widths) + len(widths)), dtype=np.uint8)
    keep = np.ones(buf.shape, dtype=bool)
    at = 0
    for values, width in zip(columns, widths):
        _write_digits(values, buf[:, at:at + width], keep[:, at:at + width])
        buf[:, at + width] = ord(sep)
        at += width + 1
    buf[:, -1] = ord("\n")
    return buf[keep].tobytes().decode("ascii")


def _trace_csv_chunks(trace: WalkTrace):
    """The trace CSV as its header, then one text per `_ROW_CHUNK` steps,
    each formatted only when asked for, so a writer holds one at a time."""
    yield "t,node,broadcast\n"
    for lo in range(0, len(trace.nodes), _ROW_CHUNK):
        nodes = trace.nodes[lo:lo + _ROW_CHUNK]
        steps = np.arange(lo, lo + len(nodes))
        yield _format_rows((steps, nodes, trace.broadcast[lo:lo + _ROW_CHUNK]), ",")


def format_trace_csv(trace: WalkTrace) -> str:
    return "".join(_trace_csv_chunks(trace))


def format_posterior_csv(posterior: Posterior) -> str:
    out = ["node,mass\n"]
    for v, m in enumerate(posterior.mass.tolist()):
        out.append(f"{v},{m!r}\n")
    return "".join(out)


def format_line_graph_mapping(mapping: tuple[tuple[int, int], ...]) -> str:
    return "".join(f"{k} {i} {j}\n" for k, (i, j) in enumerate(mapping))


def format_json(payload: dict | PolicyAnalysis | Solution) -> str:
    if isinstance(payload, (PolicyAnalysis, Solution)):
        payload = payload.to_json_dict()
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
