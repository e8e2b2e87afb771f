from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import privzone.experiment as experiment_module
from privzone import analyze, betweenness, build_graph, gen_rgg, diameter
from privzone.experiment import ExperimentConfig, _betweenness_target, run_experiment, worker_cap
from privzone.fileio import parse_sweep_csv


class TestConfig:
    def test_valid(self):
        config = ExperimentConfig(n=10, radius=0.3, seeds=(1, 2), target="max-betweenness")
        assert config.seeds == (1, 2)

    def test_invariants(self):
        with pytest.raises(ValueError, match="n >= 2"):
            ExperimentConfig(n=1, radius=0.3, seeds=(1,), target=0)
        with pytest.raises(ValueError, match="radius"):
            ExperimentConfig(n=5, radius=0.0, seeds=(1,), target=0)
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(n=5, radius=0.3, seeds=(), target=0)
        with pytest.raises(ValueError, match="target"):
            ExperimentConfig(n=5, radius=0.3, seeds=(1,), target="median")


class TestWorkerCap:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PRIVZONE_THREADS", "1")
        assert worker_cap(8) == 1
        monkeypatch.setenv("PRIVZONE_THREADS", "64")
        assert worker_cap(3) == 3  # never more workers than tasks

    def test_env_validated(self, monkeypatch):
        monkeypatch.setenv("PRIVZONE_THREADS", "zero")
        with pytest.raises(ValueError, match="PRIVZONE_THREADS"):
            worker_cap(2)
        monkeypatch.setenv("PRIVZONE_THREADS", "0")
        with pytest.raises(ValueError, match="PRIVZONE_THREADS"):
            worker_cap(2)


class TestRunExperiment:
    def test_averaged_is_the_mean_of_per_seed_files(self, tmp_path):
        config = ExperimentConfig(
            n=40, radius=0.35, seeds=(1, 2, 3, 4), target="max-betweenness"
        )
        result = run_experiment(config, tmp_path)
        per_seed = [
            parse_sweep_csv(result.seed_files[seed].read_text(encoding="utf-8"))
            for seed in config.seeds
        ]
        averaged = parse_sweep_csv(result.averaged_file.read_text(encoding="utf-8"))
        assert len(averaged) == min(len(rows) for rows in per_seed)
        for idx, row in enumerate(averaged):
            assert row[0] == idx
            for col in range(1, 5):
                mean = sum(rows[idx][col] for rows in per_seed) / len(per_seed)
                assert abs(row[col] - mean) <= 1e-12
        assert result.discarded.keys() == set(config.seeds)

    def test_truncates_at_shortest_sweep(self, tmp_path):
        config = ExperimentConfig(n=25, radius=0.3, seeds=(3, 5, 8), target=0)
        result = run_experiment(config, tmp_path)
        lengths = [
            len(parse_sweep_csv(result.seed_files[seed].read_text(encoding="utf-8")))
            for seed in config.seeds
        ]
        averaged = parse_sweep_csv(result.averaged_file.read_text(encoding="utf-8"))
        assert len(averaged) == min(lengths)

    def test_serial_and_parallel_outputs_identical(self, tmp_path, monkeypatch):
        config = ExperimentConfig(n=30, radius=0.35, seeds=(1, 2), target="min-betweenness")
        monkeypatch.setenv("PRIVZONE_THREADS", "1")
        serial = run_experiment(config, tmp_path / "serial")
        monkeypatch.setenv("PRIVZONE_THREADS", "2")
        parallel = run_experiment(config, tmp_path / "parallel")
        for seed in config.seeds:
            assert (
                serial.seed_files[seed].read_bytes() == parallel.seed_files[seed].read_bytes()
            )
        assert serial.averaged_file.read_bytes() == parallel.averaged_file.read_bytes()
        assert serial.target_nodes == parallel.target_nodes

    def test_duplicate_seeds_weigh_twice(self, tmp_path, monkeypatch):
        config = ExperimentConfig(n=30, radius=0.35, seeds=(2, 5, 2), target="max-betweenness")
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PRIVZONE_THREADS", threads)
            runs.append(run_experiment(config, tmp_path / threads))
        serial, parallel = runs
        assert serial.averaged_file.read_bytes() == parallel.averaged_file.read_bytes()
        assert sorted(serial.seed_files) == [2, 5]
        per_seed = [
            parse_sweep_csv(serial.seed_files[seed].read_text(encoding="utf-8"))
            for seed in config.seeds
        ]
        averaged = parse_sweep_csv(serial.averaged_file.read_text(encoding="utf-8"))
        for idx, row in enumerate(averaged):
            for col in range(1, 5):
                mean = sum(rows[idx][col] for rows in per_seed) / 3
                assert row[col] == pytest.approx(mean, rel=1e-11)  # 12 digits written

    def test_explicit_target_validated_against_graph(self, tmp_path):
        config = ExperimentConfig(n=10, radius=0.6, seeds=(1,), target=99)
        with pytest.raises(Exception, match="node 99"):
            run_experiment(config, tmp_path)


class TestBetweennessTarget:
    """The target rules against `betweenness` computed on a separate copy
    of each graph."""

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_min_is_argmin_of_betweenness(self, seed, monkeypatch):
        scores = betweenness(gen_rgg(1000, 0.1, seed).graph)
        calls = []

        def counted(g):
            calls.append(g)
            return betweenness(g)

        monkeypatch.setattr(experiment_module, "betweenness", counted)
        target = _betweenness_target(gen_rgg(1000, 0.1, seed).graph, "min-betweenness")
        assert target == int(np.argmin(scores))
        # Seed 2 has no node of betweenness 0, so only there does the
        # picker fall back to computing betweenness.
        assert (scores.min() > 0) == (seed == 2)
        assert len(calls) == (seed == 2)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_max_is_argmax_of_betweenness(self, seed):
        scores = betweenness(gen_rgg(300, 0.12, seed).graph)
        target = _betweenness_target(gen_rgg(300, 0.12, seed).graph, "max-betweenness")
        assert target == int(np.argmax(scores))


class TestThreadSafety:
    def test_concurrent_analyze_on_shared_graph(self):
        g = gen_rgg(120, 0.2, 9).graph
        jobs = [(s, h) for s in range(0, 120, 17) for h in range(diameter(g) + 1)]
        expected = [analyze(g, s, h) for s, h in jobs]
        fresh = gen_rgg(120, 0.2, 9).graph  # cold caches, hit from many threads
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda job: analyze(fresh, *job), jobs))
        assert got == expected
