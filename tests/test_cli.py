import json

import pytest

from privzone import build_graph
from privzone.cli import main
from privzone.fileio import format_edge_list, parse_edge_list


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("0 1\n1 2\n2 3\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def disconnected_file(tmp_path):
    path = tmp_path / "two_parts.txt"
    path.write_text("0 1\n2 3\n", encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_json_on_stdout(self, p4_file, capsys):
        code = main(["analyze", "--graph", p4_file, "--source", "1", "--radius", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["privacy"] == 0.5
        assert payload["cost"] == 3
        assert payload["suppressed_nodes"] == [0, 1, 2]

    def test_density_file(self, p4_file, tmp_path, capsys):
        density = tmp_path / "rho.txt"
        density.write_text("default 1.0\n0 3.0\n", encoding="utf-8")
        code = main(
            ["analyze", "--graph", p4_file, "--source", "1", "--radius", "1",
             "--density", str(density)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["privacy"] == 0.25

    def test_bad_path_exit_2(self, capsys):
        code = main(["analyze", "--graph", "does/not/exist", "--source", "0", "--radius", "1"])
        assert code == 2
        assert "does/not/exist" in capsys.readouterr().err

    def test_disconnected_exit_3(self, disconnected_file, capsys):
        code = main(["analyze", "--graph", disconnected_file, "--source", "0", "--radius", "1"])
        assert code == 3
        assert "node 2" in capsys.readouterr().err


class TestSweep:
    def test_csv_rows(self, p4_file, capsys):
        code = main(["sweep", "--graph", p4_file, "--source", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "h,suppressed,candidates,privacy,cost"
        assert len(lines) == 5

    def test_output_file(self, p4_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--graph", p4_file, "--source", "1", "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("h,suppressed")


class TestOptimize:
    def test_problem_2(self, p4_file, capsys):
        code = main(
            ["optimize", "--graph", p4_file, "--source", "1", "--problem", "2", "--xi", "0.5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["h_star"] == 1
        assert payload["feasible"] is True

    def test_problem_1_dominant_cost(self, p4_file, capsys):
        code = main(
            ["optimize", "--graph", p4_file, "--source", "1", "--problem", "1", "--gamma", "10"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["h_star"] == 0

    def test_problem_2_infeasible_flag(self, p4_file, capsys):
        code = main(
            ["optimize", "--graph", p4_file, "--source", "1", "--problem", "2", "--xi", "0.2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert payload["h_star"] == 3

    def test_mixed_flags_rejected(self, p4_file, capsys):
        code = main(
            ["optimize", "--graph", p4_file, "--source", "1", "--problem", "2",
             "--gamma", "1", "--xi", "0.5"]
        )
        assert code == 2
        code = main(["optimize", "--graph", p4_file, "--source", "1", "--problem", "1"])
        assert code == 2


class TestGenRgg:
    def test_deterministic_output(self, tmp_path, capsys):
        args = ["gen-rgg", "--nodes", "40", "--radius", "0.3", "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        g = parse_edge_list(first)
        assert g.is_connected()

    def test_positions_file(self, tmp_path):
        edges = tmp_path / "g.txt"
        pos = tmp_path / "pos.txt"
        code = main(
            ["gen-rgg", "--nodes", "30", "--radius", "0.4", "--seed", "2",
             "--output", str(edges), "--positions", str(pos)]
        )
        assert code == 0
        assert len(pos.read_text(encoding="utf-8").splitlines()) == 30

    def test_bad_radius_exit_3(self, capsys):
        assert main(["gen-rgg", "--nodes", "10", "--radius", "0", "--seed", "1"]) == 3


class TestBetweenness:
    def test_csv(self, p4_file, capsys):
        assert main(["betweenness", "--graph", p4_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "node,betweenness"
        assert len(lines) == 5


class TestLineGraph:
    def test_triangle_to_triangle(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n0 2\n", encoding="utf-8")
        assert main(["line-graph", "--graph", str(path)]) == 0
        dual = parse_edge_list(capsys.readouterr().out)
        assert dual.node_count == 3 and len(dual.edges) == 3

    def test_p3_with_mapping(self, tmp_path, capsys):
        path = tmp_path / "p3.txt"
        path.write_text("0 1\n1 2\n", encoding="utf-8")
        mapping = tmp_path / "map.txt"
        assert main(["line-graph", "--graph", str(path), "--mapping", str(mapping)]) == 0
        assert capsys.readouterr().out == "0 1\n"
        assert mapping.read_text(encoding="utf-8") == "0 0 1\n1 1 2\n"

    def test_star_to_clique(self, tmp_path, capsys):
        path = tmp_path / "s4.txt"
        path.write_text("0 1\n0 2\n0 3\n0 4\n", encoding="utf-8")
        assert main(["line-graph", "--graph", str(path)]) == 0
        dual = parse_edge_list(capsys.readouterr().out)
        assert dual.node_count == 4 and len(dual.edges) == 6


class TestSimulate:
    def test_trace_and_posterior(self, p4_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        posterior = tmp_path / "posterior.csv"
        code = main(
            ["simulate", "--graph", p4_file, "--source", "1", "--radius", "1",
             "--steps", "20000", "--seed", "3",
             "--trace", str(trace), "--posterior", str(posterior)]
        )
        assert code == 0
        assert trace.read_text(encoding="utf-8").splitlines()[0] == "t,node,broadcast"
        lines = posterior.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "node,mass"
        masses = [float(l.split(",")[1]) for l in lines[1:]]
        assert masses == [0.5, 0.5, 0.0, 0.0]

    def test_trace_too_large_for_memory_exits_2(self, p4_file, tmp_path, capsys):
        # refused before any allocation: 10**12 steps need 9 TB of trace
        trace = tmp_path / "trace.csv"
        code = main(
            ["simulate", "--graph", p4_file, "--source", "1", "--radius", "1",
             "--steps", str(10**12), "--seed", "3", "--trace", str(trace)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "1000000000000 steps needs 9000000000000 bytes" in err
        assert not trace.exists()


class TestSimulateInfeasible:
    def test_partial_observation_with_no_matching_policy_exits_4(self, tmp_path, capsys):
        graph = tmp_path / "c6.txt"
        graph.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n", encoding="utf-8")
        # this walk broadcasts from nodes 2 and 4 only; no ball of the 6-cycle
        # has 4 nodes, so the observation fits no suppression policy
        code = main(
            ["simulate", "--graph", str(graph), "--source", "0", "--radius", "1",
             "--steps", "6", "--seed", "13",
             "--trace", str(tmp_path / "t.csv"), "--posterior", str(tmp_path / "p.csv")]
        )
        assert code == 4
        assert "inconsistent" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_disconnected_graph_exits_3(self, disconnected_file, tmp_path, capsys):
        code = main(
            ["simulate", "--graph", disconnected_file, "--source", "0", "--radius", "1",
             "--steps", "100", "--seed", "1",
             "--trace", str(tmp_path / "t.csv"), "--posterior", str(tmp_path / "p.csv")]
        )
        assert code == 3
        assert "node 2 is unreachable from node 0" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()


class TestExperiment:
    def test_single_seed_explicit_node(self, tmp_path, capsys):
        outdir = tmp_path / "exp"
        code = main(
            ["experiment", "--nodes", "30", "--radius", "0.4", "--seeds", "5",
             "--target", "0", "--outdir", str(outdir)]
        )
        assert code == 0
        assert (outdir / "seed_5.csv").exists()
        assert (outdir / "averaged.csv").exists()

    def test_tiny_graph(self, tmp_path):
        outdir = tmp_path / "exp2"
        code = main(
            ["experiment", "--nodes", "2", "--radius", "1.4", "--seeds", "1", "2",
             "--target", "max-betweenness", "--outdir", str(outdir)]
        )
        assert code == 0
        rows = (outdir / "averaged.csv").read_text(encoding="utf-8").splitlines()
        assert 2 <= len(rows) <= 3  # header plus a sweep of length <= 2

    def test_bad_target_exit_2(self, tmp_path):
        code = main(
            ["experiment", "--nodes", "10", "--radius", "0.5", "--seeds", "1",
             "--target", "median", "--outdir", str(tmp_path / "x")]
        )
        assert code == 2


class TestRoundTrip:
    def test_edge_list_round_trip(self, tmp_path):
        g = build_graph([(0, 2), (2, 1), (1, 4), (4, 3)])
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(g), encoding="utf-8")
        assert parse_edge_list(path.read_text(encoding="utf-8")) == g
