"""Command-line interface.

Subcommands: analyze, sweep, optimize, gen-rgg, betweenness, line-graph,
simulate, experiment. Exit codes: 0 success, 2 I/O or parse problem,
3 invalid graph, 4 infeasible with no fallback.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio
from .experiment import ExperimentConfig, run_experiment
from .graph import Graph, GraphValidityError, betweenness, gen_rgg, line_graph
from .observer import InfeasibleError, observed_broadcast_set, posterior_bruteforce, simulate_walk
from .optimize import solve_constrained, solve_tradeoff, sweep
from .policy import analyze

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GRAPH = 3
EXIT_INFEASIBLE = 4


def _load_graph(path: str):
    return fileio.parse_edge_list(fileio.read_text(path))


def _load_density(path: str | None, g: Graph):
    """The density file for `g`, read only once `g` is known to be connected:
    parsing it allocates one value per node."""
    if path is None:
        return None
    g.ensure_connected()
    return fileio.parse_density(fileio.read_text(path), g.node_count)


def _emit(text, path: str | None) -> None:
    """Write `text`, one string or an iterable of strings written in turn,
    to `path`, or to stdout when `path` is None."""
    chunks = (text,) if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    density = _load_density(args.density, g)
    result = analyze(g, args.source, args.radius, density)
    sys.stdout.write(fileio.format_json(result))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    g = _load_graph(args.graph)
    density = _load_density(args.density, g)
    rows = sweep(g, args.source, density)
    _emit(fileio.format_sweep_csv(rows), args.output)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    if args.problem == 1:
        if args.gamma is None or args.xi is not None:
            raise fileio.ParseError("problem 1 takes --gamma (and not --xi)")
    else:
        if args.xi is None or args.gamma is not None:
            raise fileio.ParseError("problem 2 takes --xi (and not --gamma)")
    g = _load_graph(args.graph)
    density = _load_density(args.density, g)
    if args.problem == 1:
        solution = solve_tradeoff(g, args.source, args.gamma, density)
    else:
        solution = solve_constrained(g, args.source, args.xi, density)
    sys.stdout.write(fileio.format_json(solution))
    return EXIT_OK


def _cmd_gen_rgg(args) -> int:
    geo = gen_rgg(args.nodes, args.radius, args.seed)
    _emit(fileio.format_edge_list(geo.graph), args.output)
    if args.positions is not None:
        _emit(fileio.format_positions(geo), args.positions)
    if geo.discarded:
        print(
            f"kept largest component: {geo.graph.node_count} nodes, "
            f"discarded {geo.discarded}",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_betweenness(args) -> int:
    g = _load_graph(args.graph)
    _emit(fileio.format_betweenness_csv(betweenness(g)), args.output)
    return EXIT_OK


def _cmd_line_graph(args) -> int:
    g = _load_graph(args.graph)
    dual, mapping = line_graph(g)
    _emit(fileio.format_edge_list(dual), args.output)
    if args.mapping is not None:
        _emit(fileio.format_line_graph_mapping(mapping), args.mapping)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    g = _load_graph(args.graph)
    trace = simulate_walk(g, args.source, args.radius, args.steps, args.seed)
    # Streamed: only one chunk of the trace CSV is held as text at a time.
    _emit(fileio._trace_csv_chunks(trace), args.trace)
    if args.posterior is not None:
        density = _load_density(args.density, g)
        posterior = posterior_bruteforce(g, observed_broadcast_set(trace), density)
        _emit(fileio.format_posterior_csv(posterior), args.posterior)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.target in ("max-betweenness", "min-betweenness"):
        target: str | int = args.target
    else:
        try:
            target = int(args.target)
        except ValueError:
            raise fileio.ParseError(
                "target must be max-betweenness, min-betweenness, or a node id"
            ) from None
    config = ExperimentConfig(
        n=args.nodes,
        radius=args.radius,
        seeds=tuple(args.seeds),
        target=target,
        density_path=args.density,
    )
    result = run_experiment(config, args.outdir)
    for seed in config.seeds:
        print(f"seed {seed}: target node {result.target_nodes[seed]} -> {result.seed_files[seed]}")
    print(f"averaged -> {result.averaged_file}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privzone",
        description="Broadcast-suppression zones on transportation graphs: "
        "privacy vs. estimation-cost analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_arg(p):
        p.add_argument("--graph", required=True, help="edge list file (one `i j` per line)")

    p = sub.add_parser("analyze", help="derived sets and privacy for one (source, radius)")
    graph_arg(p)
    p.add_argument("--source", type=int, required=True, help="private node id")
    p.add_argument("--radius", type=int, required=True, help="suppression radius in hops")
    p.add_argument("--density", help="density file (`node rho`, optional `default rho`)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="privacy/cost for every radius, as CSV")
    graph_arg(p)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--density")
    p.add_argument("--output", help="CSV destination (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="pick the radius: problem 1 trades privacy "
                       "against cost with weight gamma; problem 2 minimizes cost "
                       "subject to privacy <= xi")
    graph_arg(p)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--problem", type=int, choices=(1, 2), required=True)
    p.add_argument("--gamma", type=float, help="cost weight (problem 1)")
    p.add_argument("--xi", type=float, help="privacy cap (problem 2)")
    p.add_argument("--density")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("gen-rgg", help="random geometric graph in the unit square")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", help="edge list destination (default stdout)")
    p.add_argument("--positions", help="also write `node x y` coordinates here")
    p.set_defaults(func=_cmd_gen_rgg)

    p = sub.add_parser("betweenness", help="betweenness per node, as CSV")
    graph_arg(p)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_betweenness)

    p = sub.add_parser("line-graph", help="edge-to-vertex dual graph")
    graph_arg(p)
    p.add_argument("--output", help="dual edge list destination (default stdout)")
    p.add_argument("--mapping", help="write `dual_node i j` mapping here")
    p.set_defaults(func=_cmd_line_graph)

    p = sub.add_parser("simulate", help="random walk with suppressed broadcasts")
    graph_arg(p)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", help="trace CSV destination (default stdout)")
    p.add_argument("--posterior", help="also infer the observer posterior into this CSV")
    p.add_argument("--density")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="per-seed and averaged sweeps on random "
                       "geometric graphs")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--target", required=True,
                   help="max-betweenness, min-betweenness, or a node id")
    p.add_argument("--outdir", required=True)
    p.add_argument("--density")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphValidityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRAPH
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
