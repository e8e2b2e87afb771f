import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import privzone
from privzone import build_graph, gen_rgg
from privzone.cli import main
from privzone.fileio import format_edge_list, parse_edge_list

from oracles import trace_csv_by_loop, walk_steps_by_loop


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

    def test_disconnected_graph_wins_over_bad_density(self, disconnected_file, capsys):
        code = main(["analyze", "--graph", disconnected_file, "--source", "0", "--radius", "1",
                     "--density", "does/not/exist"])
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

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_exit_2(self, p4_file, capsys, gamma):
        code = main(
            ["optimize", "--graph", p4_file, "--source", "1", "--problem", "1", "--gamma", gamma]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: gamma must be positive and finite\n"

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

    def test_block_beyond_physical_memory_exit_2(self, p4_file, tmp_path, capsys, monkeypatch):
        # 4 KB pages: a block of 4 sources over 4 nodes at 72 bytes per pair
        # is 1152 bytes, more than no page at all
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 0}.__getitem__)
        out = tmp_path / "centrality.csv"
        assert main(["betweenness", "--graph", p4_file, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: a betweenness block of 4 sources over 4 nodes needs 1152 bytes, "
                       "more than the 0 bytes of physical memory\n")
        assert not out.exists()


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

    # the streamed trace CSV across its chunk boundaries, to a file and to stdout
    @pytest.mark.parametrize("steps", [1, 16384, 16385, 2 * 16384 + 5])
    def test_streamed_trace_equals_loop(self, tmp_path, capsys, steps):
        g = gen_rgg(200, 0.15, 1).graph
        graph = tmp_path / "g.txt"
        graph.write_text(format_edge_list(g), encoding="utf-8")
        want = trace_csv_by_loop(walk_steps_by_loop(g, 5, 2, steps, steps))
        argv = ["simulate", "--graph", str(graph), "--source", "5", "--radius", "2",
                "--steps", str(steps), "--seed", str(steps)]
        trace = tmp_path / "trace.csv"
        assert main([*argv, "--trace", str(trace)]) == 0
        assert trace.read_bytes() == want.encode("ascii")
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert capsys.readouterr().out == want

    def test_trace_is_written_chunk_by_chunk(self, p4_file, monkeypatch):
        class Writes(io.StringIO):
            """stdout that records the length of each write."""

            def __init__(self):
                super().__init__()
                self.sizes = []

            def write(self, text):
                self.sizes.append(len(text))
                return super().write(text)

        out = Writes()
        monkeypatch.setattr(sys, "stdout", out)
        steps = 2 * 16384 + 5
        assert main(["simulate", "--graph", p4_file, "--source", "1", "--radius", "1",
                     "--steps", str(steps), "--seed", "3"]) == 0
        # the header, then one write per 16384-step chunk
        assert len(out.sizes) == 4 and out.sizes[0] == len("t,node,broadcast\n")
        assert out.getvalue().count("\n") == steps + 1

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

    def test_source_beyond_int64_exits_3(self, p4_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(
            ["simulate", "--graph", p4_file, "--source", "99999999999999999999", "--radius", "1",
             "--steps", "100", "--seed", "3", "--trace", str(trace)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: node 99999999999999999999 outside 0..3\n"
        assert "Traceback" not in err
        assert not trace.exists()

    def test_negative_radius_exits_2_before_writing(self, p4_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(
            ["simulate", "--graph", p4_file, "--source", "1", "--radius", "-1",
             "--steps", "100", "--seed", "3", "--trace", str(trace)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: suppression radius must be >= 0\n"
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


# Runs each argv (a JSON list) through `main` and prints [exit code, stderr]
# for each, as JSON.
_MAIN_SCRIPT = """
import contextlib, io, json, sys
from privzone.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def _run_capped(argvs, limit=3 << 30):
    """`main` on each argv in a child process whose address space is capped
    at `limit` bytes, so that a node-sized allocation (8 GB for 10**9 int64
    ids) fails there with a MemoryError instead of growing."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(privzone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _MAIN_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestHugeNodeIds:
    """An edge list naming node 10**9 makes a graph of 10**9 + 1 nodes.
    Every command that needs a connected graph refuses it from the ids its
    edges name, before any node-sized allocation."""

    def test_disconnected_exit_3_naming_node_1(self, tmp_path):
        graph = tmp_path / "huge.txt"
        graph.write_text("0 1000000000\n", encoding="utf-8")
        g = ["--graph", str(graph)]
        argvs = [
            ["sweep", *g, "--source", "0"],
            ["analyze", *g, "--source", "0", "--radius", "1"],
            ["optimize", *g, "--source", "0", "--problem", "1", "--gamma", "0.1"],
            ["betweenness", *g],
            ["simulate", *g, "--source", "0", "--radius", "1", "--steps", "10", "--seed", "1",
             "--trace", str(tmp_path / "t.csv")],
            ["line-graph", *g, "--output", str(tmp_path / "dual.txt"),
             "--mapping", str(tmp_path / "map.txt")],
        ]
        results = _run_capped(argvs)
        for argv, (code, err) in zip(argvs[:-1], results):
            assert code == 3, argv
            assert err == "error: graph is disconnected: node 1 is unreachable from node 0\n"
        assert results[-1] == [0, ""]
        assert (tmp_path / "dual.txt").read_text(encoding="utf-8") == ""
        assert (tmp_path / "map.txt").read_text(encoding="utf-8") == "0 0 1000000000\n"
        assert not (tmp_path / "t.csv").exists()

    def test_density_read_after_connectivity(self, tmp_path):
        # parsing a density file allocates one float per node
        graph = tmp_path / "huge.txt"
        graph.write_text("0 1000000000\n", encoding="utf-8")
        density = tmp_path / "rho.txt"
        density.write_text("default 1.0\n", encoding="utf-8")
        g = ["--graph", str(graph), "--density", str(density), "--source", "0"]
        argvs = [
            ["analyze", *g, "--radius", "1"],
            ["sweep", *g],
            ["optimize", *g, "--problem", "2", "--xi", "0.5"],
            ["simulate", *g, "--radius", "1", "--steps", "10", "--seed", "1",
             "--trace", str(tmp_path / "t.csv"), "--posterior", str(tmp_path / "p.csv")],
        ]
        for argv, (code, err) in zip(argvs, _run_capped(argvs)):
            assert code == 3, argv
            assert err == "error: graph is disconnected: node 1 is unreachable from node 0\n"

    def test_id_beyond_int64_exits_2(self, tmp_path):
        graph = tmp_path / "beyond.txt"
        graph.write_text("0 1\n0 99999999999999999999\n", encoding="utf-8")
        argvs = [[cmd, "--graph", str(graph), "--source", "0"] for cmd in ("sweep", "analyze")]
        argvs[1] += ["--radius", "1"]
        argvs.append(["line-graph", "--graph", str(graph)])
        for code, err in _run_capped(argvs):
            assert code == 2
            assert err == ("error: line 2: node ids must fit in int64, "
                           "got '0 99999999999999999999'\n")


class TestHugeNodeCount:
    """`--nodes` beyond physical memory is refused before the points are
    drawn."""

    def test_exit_2(self, tmp_path):
        huge = ["--nodes", "1000000000000", "--radius", "0.1"]
        argvs = [
            ["gen-rgg", *huge, "--seed", "1", "--output", str(tmp_path / "g.txt")],
            ["experiment", *huge, "--seeds", "1", "--target", "max-betweenness",
             "--outdir", str(tmp_path / "exp")],
        ]
        for argv, (code, err) in zip(argvs, _run_capped(argvs)):
            assert code == 2, argv
            assert err.startswith("error: drawing 1000000000000 points needs "), err
            assert "physical memory" in err and "Traceback" not in err
        assert not (tmp_path / "g.txt").exists()


class TestHugeLineGraph:
    """A dual with more edges than physical memory holds is refused before
    they are expanded."""

    def test_star_exit_2(self, tmp_path):
        star = tmp_path / "star.txt"
        star.write_text("".join(f"0 {leaf}\n" for leaf in range(1, 10**6 + 1)), encoding="utf-8")
        dual = tmp_path / "dual.txt"
        [(code, err)] = _run_capped([["line-graph", "--graph", str(star), "--output", str(dual)]])
        assert code == 2
        assert err.startswith("error: building 499999500000 line-graph edges needs "), err
        assert "physical memory" in err and "Traceback" not in err
        assert not dual.exists()


def test_import_loads_neither_scipy_spatial_nor_networkx():
    # importing scipy.spatial alone costs a few tenths of a second
    script = ("import sys, privzone, privzone.cli; print(sorted(m for m in sys.modules"
              " if m.startswith(('scipy.spatial', 'networkx'))))")
    src = str(Path(privzone.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


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

    def test_bad_target_exit_2(self, tmp_path, capsys):
        for target in ("median", "abc"):
            code = main(
                ["experiment", "--nodes", "10", "--radius", "0.5", "--seeds", "1",
                 "--target", target, "--outdir", str(tmp_path / "x")]
            )
            assert code == 2
            assert capsys.readouterr().err == (
                "error: target must be max-betweenness, min-betweenness, or a node id\n"
            )
        assert not (tmp_path / "x").exists()


class TestWriteFailures:
    """A destination that cannot be written ends with exit 2 and one error
    line, not a traceback."""

    def test_sweep_output_in_missing_directory(self, p4_file, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = main(["sweep", "--graph", p4_file, "--source", "1", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and "Traceback" not in err

    def test_experiment_outdir_is_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        code = main(
            ["experiment", "--nodes", "10", "--radius", "0.5", "--seeds", "1",
             "--target", "0", "--outdir", str(taken)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err and "Traceback" not in err


class TestRoundTrip:
    def test_edge_list_round_trip(self, tmp_path):
        g = build_graph([(0, 2), (2, 1), (1, 4), (4, 3)])
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(g), encoding="utf-8")
        assert parse_edge_list(path.read_text(encoding="utf-8")) == g


# Texts for the CLI fuzz: usable graphs (a triangle, a path, a square with a
# chord) and the edge lists a command must refuse: empty, disconnected, a
# byte-order mark, CRLF and NUL, huge, negative and float ids, a self-loop,
# an id beyond int64 and bytes that are not UTF-8 (or, half the times that
# text is drawn, a missing file). Every huge id is 10**12 or more, so a
# node-sized allocation could not succeed by accident.
_FUZZ_GRAPHS = (
    b"0 1\n1 2\n2 0\n", b"0 1\n1 2\n2 3\n3 4\n", b"# c\n0 1\n1 2\n2 3\n3 0\n0 2\n",
    b"", b"\n# only a comment\n", b"0 1\n2 3\n", "\ufeff0 1\n1 2\n".encode(), b"0 1\r\n1 2\r\n",
    b"0 1\x00\n1 2\n", b"0 1000000000000\n1 2\n", b"0 9223372036854775807\n", b"-1 2\n",
    b"0 1.5\n", b"0 0\n", b"0 99999999999999999999\n", b"\xff\xfe0 1\n",
)
_FUZZ_DENSITIES = (
    b"default 1\n", b"0 1\n1 2\n2 0.5\n3 1\n4 1\n", b"", b"default 0\n", b"default -1\n",
    b"0 nan\ndefault 1\n", "\ufeffdefault 1\n".encode(), b"5000000000000 1\n", b"0 1e400\n",
)
# Extreme values appear only where they are refused before anything is
# allocated or started: node counts and walk lengths beyond memory. Each
# argument is drawn from the extremes one time in four.
_FUZZ_INTS = (st.integers(0, 4), st.sampled_from([-1, 2**31, 2**63 - 1, 2**63, -(2**63) - 1, 10**30]))
_FUZZ_FLOATS = (st.sampled_from([0.3, 0.5, 0.7, 1.0]),
                st.one_of(st.sampled_from([0.0, -0.5, 1.5]), st.floats()))
_FUZZ_NODES = (st.integers(2, 30), st.sampled_from([-1, 0, 1, 2**40, 2**63 - 1, 10**30]))
_FUZZ_STEPS = (st.integers(1, 40), st.sampled_from([-1, 0, 2**40, 2**63 - 1, 10**30]))


class TestCliFuzzed:
    """Random argv for all eight commands over small files and extreme
    arguments: `main` returns 0, 2, 3 or 4, and no exception escapes."""

    @staticmethod
    def file(tmp_path, name, content):
        path = tmp_path / name
        if not path.exists():
            path.write_bytes(content)
        return str(path)

    def argv(self, draw, tmp_path):
        def rarely() -> bool:
            return draw(st.integers(0, 3)) == 0

        def graph():
            k = draw(st.integers(3, len(_FUZZ_GRAPHS) - 1) if rarely() else st.integers(0, 2))
            if k == len(_FUZZ_GRAPHS) - 1 and draw(st.booleans()):
                return ["--graph", str(tmp_path / "missing.txt")]
            return ["--graph", self.file(tmp_path, f"g{k}.txt", _FUZZ_GRAPHS[k])]

        def optional(flag, value):
            return [f"{flag}={value}"] if draw(st.booleans()) else []

        def density():
            k = draw(st.integers(2, len(_FUZZ_DENSITIES) - 1) if rarely() else st.integers(0, 1))
            return optional("--density", self.file(tmp_path, f"d{k}.txt", _FUZZ_DENSITIES[k]))

        def out(name):
            return optional(f"--{name}", tmp_path / "missing" / name if rarely() else tmp_path / name)

        def value(values):
            common, extreme = values
            return draw(extreme if rarely() else common)

        def num(flag, values):
            return [f"{flag}={value(values)}"]

        command = draw(st.sampled_from(["analyze", "sweep", "optimize", "gen-rgg", "betweenness",
                                        "line-graph", "simulate", "experiment"]))
        source = num("--source", _FUZZ_INTS)
        if command == "analyze":
            args = graph() + source + num("--radius", _FUZZ_INTS) + density()
        elif command == "sweep":
            args = graph() + source + density() + out("output")
        elif command == "optimize":
            problem = draw(st.sampled_from([1, 2]))
            weight = ["--gamma", "--xi"][problem - 1]
            if rarely():  # a stray or missing weight
                weights = (optional("--gamma", value(_FUZZ_FLOATS))
                           + optional("--xi", value(_FUZZ_FLOATS)))
            else:
                weights = num(weight, _FUZZ_FLOATS)
            args = graph() + source + [f"--problem={problem}"] + weights + density()
        elif command == "gen-rgg":
            args = (num("--nodes", _FUZZ_NODES) + num("--radius", _FUZZ_FLOATS)
                    + num("--seed", _FUZZ_INTS) + out("output") + out("positions"))
        elif command in ("betweenness", "line-graph"):
            args = graph() + out("output") + (out("mapping") if command == "line-graph" else [])
        elif command == "simulate":
            args = (graph() + source + num("--radius", _FUZZ_INTS) + num("--steps", _FUZZ_STEPS)
                    + num("--seed", _FUZZ_INTS) + out("trace") + out("posterior") + density())
        else:
            rules = st.sampled_from(["max-betweenness", "min-betweenness"])
            ids = st.one_of(st.just("median"), *(ints.map(str) for ints in _FUZZ_INTS))
            target = draw(ids if rarely() else rules)
            seeds = [value(_FUZZ_INTS) for _ in range(draw(st.integers(1, 3)))]
            args = (num("--nodes", _FUZZ_NODES) + num("--radius", _FUZZ_FLOATS)
                    + ["--seeds", *map(str, seeds), f"--target={target}", f"--outdir={tmp_path / 'exp'}"]
                    + density())
        return [command, *args]

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_exit_code_in_contract(self, tmp_path, monkeypatch, capsys, data):
        monkeypatch.setenv("PRIVZONE_THREADS", "1")  # experiment runs its seeds in this process
        argv = self.argv(data.draw, tmp_path)
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 2, 3, 4), argv
