import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from privzone import Graph, analyze, build_graph, gen_rgg, simulate_walk, solve_constrained, sweep
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
from privzone.fileio import _data_lines, _edge_lines, _edge_tokens
from privzone.graph import GraphValidityError
from privzone.observer import WalkTrace, posterior_bruteforce

from oracles import parse_density_by_lines, parse_edge_list_by_lines, parse_positions_by_lines


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


INT64_MAX = 2**63 - 1

# Node-id tokens: small ids (so the tuple oracle's graphs stay small), ids
# `int` reads with a sign, underscores, leading zeros or unicode digits,
# non-integers (one, 1\u01fe2, that np.loadtxt reads as 4722), negative ids
# and ids beyond int64.
_TOKENS = st.sampled_from(
    [str(v) for v in range(13)]
    + ["+4", "1_0", "007", "-0", "\u0663", "\uff15", "1\u01fe2", "-3", "-10", "x", "0x1", "2.0",
       "1e1", "#", "1#", "9223372036854775808", "99999999999999999999", "-99999999999999999999"]
)
_SPACES = st.sampled_from([" ", "  ", "\t", " \t ", "\x1f", "\u2003", "\xa0"])
_ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x1e", "\x85", "\u2028"])


@st.composite
def _edge_list_texts(draw):
    """Edge-list-like texts: mostly `i j` lines, with comment and blank
    lines, 1- and 3-token lines, odd whitespace and line endings, and
    sometimes no final newline."""
    plain = draw(st.booleans())  # plain texts reach the array path more often
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["pair"] * 6 + ["comment", "blank", "one", "three"]))
        if kind == "comment":
            body = "#" + draw(st.sampled_from(["", " note", " 0 1 2", "x y"]))
        elif kind == "blank":
            body = ""
        else:
            count = {"pair": 2, "one": 1, "three": 3}[kind]
            tokens = draw(st.lists(_TOKENS if not plain else st.sampled_from([str(v) for v in range(13)]),
                                   min_size=count, max_size=count))
            gap = " " if plain else draw(_SPACES)
            body = gap.join(tokens)
        pad = "" if plain else draw(st.sampled_from(["", " ", "\t", "  "]))
        lines.append(pad + body + pad)
    ending = "\n" if plain else draw(_ENDINGS)
    text = ending.join(lines)
    if lines and draw(st.booleans()):
        text += ending
    return text


def _outcome(parse, text):
    try:
        g = parse(text)
    except (ParseError, GraphValidityError) as exc:
        return type(exc), str(exc)
    return g.node_count, g.edges, g.adjacency


def _expected(text):
    """What `parse_edge_list` must do: what the line-by-line oracle does,
    except that an id beyond int64 is an error of its line, where the
    oracle would go on to allocate that many nodes."""
    for lineno, line in _data_lines(text):
        parts = line.split()
        try:
            ids = [int(p) for p in parts]
        except ValueError:
            continue
        if len(ids) == 2 and min(ids) >= 0 and max(ids) > INT64_MAX:
            before = _outcome(parse_edge_list_by_lines, "\n".join(text.splitlines()[:lineno - 1]))
            if before[0] is ParseError and before[1].startswith("line "):
                return before
            return ParseError, f"line {lineno}: node ids must fit in int64, got {line!r}"
    return _outcome(parse_edge_list_by_lines, text)


class TestEdgeListMatchesLines:
    """`parse_edge_list` against the line-by-line parser and tuple graph it
    replaced (`tests/oracles.py`): an equal graph, or the same exception
    type and message."""

    @settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_edge_list_texts())
    def test_generated_texts(self, text):
        assert _outcome(parse_edge_list, text) == _expected(text)
        ends = _edge_tokens(text)
        if ends is not None:  # the array path vouched: the scan must agree
            assert np.array_equal(ends, _edge_lines(text))

    CASES = [
        "0 1\n1 2\n",
        "# a path\n\n0 1\n   \n1 2\n# end\n",
        "0 1\r\n1 2\r\n",
        "0\t1\n\t1   2  \n",
        "0 1\n1 2",
        "+0 1_0\n007 3\n",
        "2 1\n1 2\n0 2\n2 0\n",
        "0 1\n  # 0 1 2\n#\n1 2\n",
        "1 1\n",
        "0 1\n2 2\n",
        "0 1\n0 -1\n2 2\n",
        "0 1\n2 3 4\n",
        "0 1\n2\n",
        "0 x\n",
        "0 -0\n1 2\n",
        "0 1 # note\n",
        "",
        "# nothing\n\n",
        "0 99999999999999999999\n",
        "0 99999999999999999999\n1 2 3\n",
        "1 2 3\n0 99999999999999999999\n",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_cases(self, text):
        assert _outcome(parse_edge_list, text) == _expected(text)

    @pytest.mark.parametrize("text", [
        CASES[0], *CASES[2:5], CASES[6],
        "0 1\r1 2\n",  # both paths end a line at a bare \r or \x0c
        "0 1\x0c1 2\n",
    ])
    def test_array_path_reads_plain_text(self, text):
        ends = _edge_tokens(text)
        assert ends is not None and np.array_equal(ends, _edge_lines(text))

    @pytest.mark.parametrize("text", [
        CASES[1],  # comment lines: "#" is not a digit, sign or space
        CASES[7],
        CASES[5],  # "_" is left to `int`
        "0 1\n2.0 3\n",
        "0 1\n1e1 3\n",
        "0 1\n1\u01fe2 3\n",  # np.loadtxt in NumPy 2.4 reads 1\u01fe2 as 4722
        "0 1\n\u0663 2\n",
        "0 1\u20032\n",
        "0 99999999999999999999\n",
        "0 1\n2 3 4\n",
    ])
    def test_line_scan_judges_unusual_text(self, text):
        assert _edge_tokens(text) is None
        assert _outcome(parse_edge_list, text) == _expected(text)

    @pytest.mark.parametrize("text", ["", "\n\n", " \t\n"])
    def test_blank_text_has_no_edges_and_no_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="^edge list contains no edges$"):
                parse_edge_list(text)

    def test_largest_int64_id(self):
        g = parse_edge_list("0 9223372036854775807\n1 2\n")
        assert g.node_count == 2**63
        assert g.edges == ((0, 9223372036854775807), (1, 2))
        assert g.unreachable_from_zero() == 1

    def test_criterion_9_graph_round_trip(self):
        g = gen_rgg(1000, 0.1, 424242).graph
        text = format_edge_list(g)
        assert _edge_tokens(text) is not None
        back = parse_edge_list(text)
        assert back == g
        ref = parse_edge_list_by_lines(text)
        assert back.edges == ref.edges and back.adjacency == ref.adjacency


class TestPositions:
    def test_round_trip(self):
        geo = gen_rgg(25, 0.4, 5)
        text = format_positions(geo)
        back = parse_positions(text, geo.graph.node_count)
        assert np.array_equal(back, geo.positions)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_round_trip_is_bit_exact(self, seed):
        geo = gen_rgg(200, 0.15, seed)
        back = parse_positions(format_positions(geo), geo.graph.node_count)
        assert back.dtype == geo.positions.dtype and back.tobytes() == geo.positions.tobytes()

    @pytest.mark.parametrize("line", ["0 inf 0.5", "0 0.5 -inf", "0 nan 0.5", "0 0.5 1e400"])
    def test_non_finite_coordinate_rejected(self, line):
        with pytest.raises(ParseError, match="^line 2: coordinates must be finite"):
            parse_positions(f"1 0.5 0.5\n{line}\n", 2)

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


# Field tokens for position and density texts: node ids, decimals,
# non-finite spellings, floats beyond float64, the `default` keyword, a
# comment mark and a word.
_FIELD_TOKENS = ["0", "1", "2", "-1", "0.5", "1e-3", "nan", "-nan", "inf", "-inf", "Infinity",
                 "1e400", "-1e400", "default", "#", "x"]


@st.composite
def _field_texts(draw, fields):
    """A node count of 1 to 3 and a text of mostly `node value...` lines,
    `fields` values a line, with blank and comment lines and lines with a
    value too many or too few."""
    n = draw(st.integers(1, 3))
    nodes = st.sampled_from([str(v) for v in range(n)] * 6 + ["default"] * 2 + _FIELD_TOKENS)
    values = st.sampled_from(["0.25", "1.5", "3"] * 6 + _FIELD_TOKENS)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["entry"] * 8 + ["blank", "comment", "extra", "missing"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  "])))
        elif kind == "comment":
            lines.append("# " + draw(st.sampled_from(_FIELD_TOKENS)))
        else:
            count = fields + {"entry": 0, "extra": 1, "missing": -1}[kind]
            lines.append(" ".join([draw(nodes)] + draw(st.lists(values, min_size=count, max_size=count))))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), n


def _read_or_refused(parse, text, n):
    """`parse(text, n)`, or None when it raised ParseError."""
    try:
        return parse(text, n)
    except ParseError:
        return None


class TestFieldParsersFuzzed:
    """`parse_positions` and `parse_density` on generated texts: each text
    is refused with a ParseError or read as finite values, and no other
    exception escapes. Each also agrees with its line-by-line oracle: equal
    arrays, or a ParseError from both."""

    @settings(max_examples=200, deadline=None)
    @given(_field_texts(2))
    @example(("0 inf 0.5\n", 1))
    @example(("0 0.5 nan\n", 1))
    def test_positions_finite_or_parse_error(self, case):
        text, n = case
        try:
            pos = parse_positions(text, n)
        except ParseError:
            return
        assert pos.shape == (n, 2) and np.isfinite(pos).all(), text

    @settings(max_examples=200, deadline=None)
    @given(_field_texts(1))
    def test_density_finite_or_parse_error(self, case):
        text, n = case
        try:
            density = parse_density(text, n)
        except ParseError:
            return
        assert density.rho.shape == (n,) and np.isfinite(density.rho).all(), text

    @settings(max_examples=200, deadline=None)
    @given(_field_texts(2))
    @example(("0 0.5 0.5\n0 1 2\n", 1))
    @example(("0 0.5 0.5\n1 inf 0\n", 1))
    def test_positions_match_line_oracle(self, case):
        text, n = case
        got = _read_or_refused(parse_positions, text, n)
        want = _read_or_refused(parse_positions_by_lines, text, n)
        assert (got is None) == (want is None), text
        if got is not None:
            assert got.dtype == want.dtype and np.array_equal(got, want), text

    @settings(max_examples=200, deadline=None)
    @given(_field_texts(1))
    @example(("default 0.25\n0 3\ndefault 1.5\n", 3))
    @example(("default 0\n0 0\n", 1))
    def test_density_matches_line_oracle(self, case):
        text, n = case
        got = _read_or_refused(lambda t, k: parse_density(t, k).rho, text, n)
        want = _read_or_refused(parse_density_by_lines, text, n)
        assert (got is None) == (want is None), text
        if got is not None:
            assert got.dtype == want.dtype and np.array_equal(got, want), text


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

    def test_edge_list_across_chunks(self):
        # the formatter writes 16384 edges at a time; cross two boundaries
        n = 2 * 16384 + 6
        g = build_graph([(i, i + 1) for i in range(n - 1)] + [(0, n - 1), (7, 900)])
        assert format_edge_list(g) == "".join(f"{i} {j}\n" for i, j in g.edges)
        assert format_edge_list(Graph(3, ())) == ""

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
