import json

import numpy as np
import pytest

from privzone import analyze, build_graph, gen_rgg, simulate_walk, solve_constrained, sweep
from privzone.fileio import (
    ParseError,
    format_averaged_sweep_csv,
    format_betweenness_csv,
    format_edge_list,
    format_json,
    format_line_graph_mapping,
    format_positions,
    format_posterior_csv,
    format_sweep_csv,
    format_trace_csv,
    parse_density,
    parse_edge_list,
    parse_positions,
    parse_sweep_csv,
    read_text,
)
from privzone.observer import WalkTrace, posterior_bruteforce


class TestEdgeList:
    def test_parse_basic(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_comments_and_blanks_ignored(self):
        g = parse_edge_list("# a path\n\n0 1\n   \n1 2\n# end\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_round_trip(self):
        g = build_graph([(0, 3), (3, 1), (1, 2), (2, 0)])
        assert parse_edge_list(format_edge_list(g)) == g

    def test_rgg_round_trip(self):
        g = gen_rgg(60, 0.25, 19).graph
        assert parse_edge_list(format_edge_list(g)) == g

    def test_bad_token_count(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\n2 3 4\n")

    def test_non_integer(self):
        with pytest.raises(ParseError, match="integers"):
            parse_edge_list("0 x\n")

    def test_negative_id(self):
        with pytest.raises(ParseError, match="nonnegative"):
            parse_edge_list("0 -2\n")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="no edges"):
            parse_edge_list("# nothing here\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="no/such/file"):
            read_text("no/such/file")


class TestPositions:
    def test_round_trip(self):
        geo = gen_rgg(25, 0.4, 5)
        text = format_positions(geo)
        back = parse_positions(text, geo.graph.node_count)
        assert np.array_equal(back, geo.positions)

    def test_missing_node_rejected(self):
        with pytest.raises(ParseError, match="node 1"):
            parse_positions("0 0.5 0.5\n", 2)

    def test_bad_entry(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_positions("0 0.5\n", 1)


class TestDensity:
    def test_explicit_values(self):
        d = parse_density("0 1.0\n1 2.5\n2 0.0\n", 3)
        assert d.rho.tolist() == [1.0, 2.5, 0.0]

    def test_default_fills_missing(self):
        d = parse_density("default 0.5\n2 4.0\n", 4)
        assert d.rho.tolist() == [0.5, 0.5, 4.0, 0.5]

    def test_missing_without_default_rejected(self):
        with pytest.raises(ParseError, match="node 1"):
            parse_density("0 1.0\n", 2)

    def test_negative_rejected(self):
        with pytest.raises(ParseError, match="nonnegative"):
            parse_density("0 -1.0\n", 1)

    def test_all_zero_rejected(self):
        with pytest.raises(ParseError, match="positive"):
            parse_density("default 0.0\n", 3)

    def test_out_of_range_node(self):
        with pytest.raises(ParseError, match="outside"):
            parse_density("7 1.0\n", 3)


class TestSweepCsv:
    def test_format(self, p4):
        text = format_sweep_csv(sweep(p4, 1))
        lines = text.splitlines()
        assert lines[0] == "h,suppressed,candidates,privacy,cost"
        assert lines[1] == "0,1,1,1,2"
        assert lines[2] == "1,3,2,0.5,3"
        assert lines[3] == "2,4,4,0.25,3"

    def test_round_trip(self, c6):
        rows = sweep(c6, 0)
        parsed = parse_sweep_csv(format_sweep_csv(rows))
        assert [r[0] for r in parsed] == [r.h for r in rows]
        assert [r[4] for r in parsed] == [float(r.cost) for r in rows]
        # privacy carries 12 significant digits through the text form
        assert [r[3] for r in parsed] == pytest.approx(
            [r.privacy for r in rows], rel=1e-11
        )

    def test_twelve_significant_digits(self):
        text = format_averaged_sweep_csv([(0, 1.0, 1.0, 1.0 / 3.0, 2.0)])
        assert "0.333333333333," in text

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_sweep_csv("x,y\n1,2\n")


class TestOtherFormats:
    def test_betweenness_csv(self, s4):
        from privzone import betweenness

        text = format_betweenness_csv(betweenness(s4))
        assert text.splitlines()[0] == "node,betweenness"
        assert text.splitlines()[1] == "0,1"

    def test_trace_csv(self, p4):
        trace = simulate_walk(p4, 1, 1, 4, 2)
        lines = format_trace_csv(trace).splitlines()
        assert lines[0] == "t,node,broadcast"
        assert len(lines) == 5
        for t, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert fields[0] == str(t)
            assert fields[2] in ("0", "1")

    def test_trace_csv_across_chunks(self):
        # the formatter writes 16384 steps at a time; cross two boundaries
        steps = tuple((t, t % 7, t % 3 == 0) for t in range(2 * 16384 + 5))
        want = "t,node,broadcast\n" + "".join(f"{t},{v},{int(b)}\n" for t, v, b in steps)
        trace = WalkTrace(nodes=[v for _, v, _ in steps], broadcast=[b for _, _, b in steps])
        assert format_trace_csv(trace) == want
        assert format_trace_csv(WalkTrace(nodes=[], broadcast=[])) == "t,node,broadcast\n"

    def test_posterior_csv_round_trips_mass(self, p4):
        posterior = posterior_bruteforce(p4, {3})
        lines = format_posterior_csv(posterior).splitlines()
        assert lines[0] == "node,mass"
        masses = [float(line.split(",")[1]) for line in lines[1:]]
        assert masses == posterior.mass.tolist()

    def test_line_graph_mapping(self, p3):
        from privzone import line_graph

        _, mapping = line_graph(p3)
        assert format_line_graph_mapping(mapping) == "0 0 1\n1 1 2\n"

    def test_json_analysis(self, p4):
        payload = json.loads(format_json(analyze(p4, 1, 1)))
        assert payload["privacy"] == 0.5
        assert payload["cost"] == 3
        assert payload["candidates"] == [0, 1]

    def test_json_solution_omits_unused_fields(self, p4):
        payload = json.loads(format_json(solve_constrained(p4, 1, 0.5)))
        assert payload == {"h_star": 1, "privacy": 0.5, "cost": 3, "feasible": True}


class TestByteStability:
    def test_identical_bytes_across_runs(self, c6):
        first = format_sweep_csv(sweep(c6, 0))
        second = format_sweep_csv(sweep(build_graph(list(c6.edges)), 0))
        assert first == second
        geo1, geo2 = gen_rgg(40, 0.3, 11), gen_rgg(40, 0.3, 11)
        assert format_edge_list(geo1.graph) == format_edge_list(geo2.graph)
        assert format_positions(geo1) == format_positions(geo2)
        a1 = format_json(analyze(c6, 0, 1))
        a2 = format_json(analyze(c6, 0, 1))
        assert a1 == a2
