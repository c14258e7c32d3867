from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cellflow import cli, harness
from cellflow.baselines import SphConfig
from cellflow.fileio import (
    CONFIG_SECTIONS,
    InvariantViolation,
    ParseError,
    parse_config,
    read_cells,
    read_edge_list,
    read_flows,
)
from cellflow.harness import (
    DatasetPaths,
    DegenerateReference,
    ExperimentConfig,
    TraceRecord,
    load_dataset,
    read_trace,
    relative_performance,
    run_bench,
    run_experiment,
    write_trace,
)
from cellflow.mfci import InferenceConfig
from cellflow.synth import SynthConfig, random_complex, sample_flows, save_dataset


@pytest.fixture
def dataset_dir(tmp_path):
    cpx = random_complex(SynthConfig(8, 0.8, 3, 1, seed=11))
    flows = sample_flows(cpx, 5, 1.0, 0.2, np.random.default_rng(4))
    save_dataset(tmp_path / "data", cpx, flows, SynthConfig(8, 0.8, 3, 5, 1.0, 0.2, 11))
    return tmp_path / "data", cpx, flows


class TestFileFormats:
    def test_dataset_round_trip(self, dataset_dir):
        directory, cpx, flows = dataset_dir
        graph = read_edge_list(directory / "edges.txt")
        assert graph.node_count == cpx.graph.node_count
        assert graph.edges == cpx.graph.edges
        cells = read_cells(directory / "cells.txt", graph)
        assert [c.canonical() for c in cells] == [c.canonical() for c in cpx.cells]
        loaded = read_flows(directory / "flows.csv", graph.edge_count)
        assert np.array_equal(loaded, flows)  # 17 significant digits: exact

    def test_edge_list_errors(self, tmp_path):
        bad = tmp_path / "edges.txt"
        bad.write_text("vertices 3\n0 1\n")
        with pytest.raises(ParseError, match="edges.txt:1"):
            read_edge_list(bad)
        bad.write_text("nodes 3\n0 1 2\n")
        with pytest.raises(ParseError, match="edges.txt:2"):
            read_edge_list(bad)
        bad.write_text("nodes 3\n0 0\n")
        with pytest.raises(InvariantViolation, match="self-loop"):
            read_edge_list(bad)
        bad.write_text("\nnodes 3\n0 1 2\n")
        with pytest.raises(ParseError, match="edges.txt:3"):
            read_edge_list(bad)

    def test_blank_lines_before_the_edge_list_header_are_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("\n  \nnodes 3\n0 1\n\n1 2\n")
        graph = read_edge_list(path)
        assert graph.node_count == 3 and graph.edges == ((0, 1), (1, 2))

    def test_cell_file_edge_out_of_range(self, tmp_path, dataset_dir):
        directory, cpx, _ = dataset_dir
        graph = read_edge_list(directory / "edges.txt")
        bad = tmp_path / "cells.txt"
        bad.write_text(f"{graph.edge_count} 0 1\n")
        with pytest.raises(InvariantViolation, match="edge id"):
            read_cells(bad, graph)

    def test_cell_file_bad_sign(self, tmp_path, dataset_dir):
        directory, _, _ = dataset_dir
        graph = read_edge_list(directory / "edges.txt")
        bad = tmp_path / "cells.txt"
        bad.write_text("0 0 2\n")
        with pytest.raises(ParseError, match="sign"):
            read_cells(bad, graph)

    def test_flow_file_wrong_row_count(self, tmp_path):
        bad = tmp_path / "flows.csv"
        bad.write_text("edge_id,f0\n0,1.5\n1,2.5\n")
        with pytest.raises(ParseError, match="expected 3 edge rows"):
            read_flows(bad, edge_count=3)

    def test_flow_file_header_without_rows(self, tmp_path):
        bad = tmp_path / "flows.csv"
        bad.write_text("edge_id,f0,f1\n\n")
        with pytest.raises(ParseError, match="flows.csv:1: flow file has no edge rows"):
            read_flows(bad)

    def test_flow_file_bad_header(self, tmp_path):
        bad = tmp_path / "flows.csv"
        bad.write_text("edge,f0\n0,1.5\n")
        with pytest.raises(ParseError, match="header"):
            read_flows(bad)

    def test_flow_file_error_after_blank_lines_names_its_line(self, tmp_path):
        bad = tmp_path / "flows.csv"
        bad.write_text("edge_id,f0\n\n0,1.0\n\n1,abc\n")
        with pytest.raises(ParseError, match="flows.csv:5:"):
            read_flows(bad)

    def test_config_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nmfci.l = 8\n\nname = two words here\n")
        parsed = parse_config(cfg)
        assert parsed == {"mfci.l": "8", "name": "two words here"}
        cfg.write_text("no equals sign\n")
        with pytest.raises(ParseError, match="run.cfg:1"):
            parse_config(cfg)

    def test_meta_file_binds_the_generating_config(self, tmp_path, dataset_dir):
        _, cpx, flows = dataset_dir
        for cfg in (SynthConfig(8, 0.8, 3, 5, 1.0, 0.2, 11), SynthConfig(8, 0.8, 3, 5, 0.5)):
            save_dataset(tmp_path / "meta", cpx, flows, cfg)
            raw = harness.read_config(tmp_path / "meta" / "meta.txt")
            assert harness.section_from_raw(raw, "synth") == cfg

    def test_config_repeated_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 1\n# comment\nb = 2\na = 2\n")
        with pytest.raises(ParseError, match=r"run.cfg:4: key 'a' repeats line 1"):
            parse_config(cfg)


class TestLoadDataset:
    def test_round_trip_with_truth(self, dataset_dir):
        directory, cpx, flows = dataset_dir
        paths = DatasetPaths(directory / "edges.txt", directory / "flows.csv",
                             directory / "cells.txt")
        graph, loaded, truth = load_dataset(paths)
        assert graph.edges == cpx.graph.edges
        assert np.array_equal(loaded, flows)
        assert truth is not None and truth.cell_count == cpx.cell_count

    def test_truth_optional(self, dataset_dir):
        directory, _, _ = dataset_dir
        paths = DatasetPaths(directory / "edges.txt", directory / "flows.csv")
        _, _, truth = load_dataset(paths)
        assert truth is None

    def test_invalid_cell_rejected(self, tmp_path, dataset_dir):
        directory, _, _ = dataset_dir
        graph = read_edge_list(directory / "edges.txt")
        bad = tmp_path / "cells.txt"
        bad.write_text("0 0 1\n1 0 1\n")  # two edges cannot close a cycle
        paths = DatasetPaths(directory / "edges.txt", directory / "flows.csv", bad)
        with pytest.raises(InvariantViolation):
            load_dataset(paths)


class TestWriteTrace:
    def records(self):
        return [TraceRecord(0, 0, 2.5, 0.0, 1, 10),
                TraceRecord(1, 1, 0.0, 0.125, 2, 20)]

    def test_line_count(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(self.records(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("iteration,cells_total,loss,")

    def test_zero_loss_serialized_plain(self, tmp_path):
        # documented float rule: 9 significant digits via %.9g, so 0 -> "0"
        path = tmp_path / "trace.csv"
        write_trace(self.records(), path)
        assert path.read_text().splitlines()[2] == "1,1,0,0.125,2,20"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(self.records(), path)
        loaded = read_trace(path)
        assert loaded == self.records()
        # re-serialization is byte-stable
        again = tmp_path / "again.csv"
        write_trace(loaded, again)
        assert again.read_bytes() == path.read_bytes()


    def test_error_after_blank_lines_names_its_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(self.records(), path)
        header, first, _ = path.read_text().splitlines()
        path.write_text(f"{header}\n\n{first}\n\n1,1,0\n")
        with pytest.raises(ParseError, match="trace.csv:5:"):
            read_trace(path)

    def test_non_numeric_field_names_its_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(self.records(), path)
        header, first, _ = path.read_text().splitlines()
        path.write_text(f"{header}\n{first}\n0,0,abc,0,1,2\n")
        with pytest.raises(ParseError, match="trace.csv:3: non-numeric field"):
            read_trace(path)


class TestRelativePerformance:
    def test_direct_arithmetic(self):
        assert relative_performance(10.0, 4.0, 6.0) == pytest.approx(1.5)

    def test_zero_when_no_better_than_random(self):
        assert relative_performance(10.0, 10.0, 6.0) == pytest.approx(0.0)

    def test_one_when_matching_reference(self):
        assert relative_performance(10.0, 6.0, 6.0) == pytest.approx(1.0)

    def test_degenerate_reference(self):
        with pytest.raises(DegenerateReference):
            relative_performance(5.0, 4.0, 6.0)


class TestRunExperiment:
    def test_triangle_mfci(self, tmp_path):
        cfg = ExperimentConfig(
            algo="mfci", seeds=(0,), out_dir=tmp_path / "out",
            synth=SynthConfig(3, 1.0, 1, 4, 1.0, 0.0, seed=5),
            mfci=InferenceConfig(total_cells=1),
        )
        traces = run_experiment(cfg, echo=lambda *_: None)
        assert len(traces) == 1 and len(traces[0].records) == 2
        assert traces[0].final.loss <= 1e-8
        assert (tmp_path / "out" / "trace_mfci_seed0.csv").exists()

    def test_three_seeds_three_files(self, tmp_path):
        cfg = ExperimentConfig(
            algo="random", seeds=(1, 2, 3), out_dir=tmp_path / "out",
            synth=SynthConfig(8, 0.8, 2, 3), random_cells=2,
        )
        run_experiment(cfg, echo=lambda *_: None)
        for seed in (1, 2, 3):
            assert (tmp_path / "out" / f"trace_random_seed{seed}.csv").exists()

    def test_distinct_seeds_required(self, tmp_path):
        with pytest.raises(ValueError, match="distinct"):
            ExperimentConfig(algo="random", seeds=(1, 1), out_dir=tmp_path,
                             synth=SynthConfig(8, 0.8, 2, 3), random_cells=2)

    @pytest.mark.parametrize("algo", ["random", "mfci"])
    @pytest.mark.parametrize("cells", [0, -2])
    def test_random_cells_below_one_rejected(self, tmp_path, algo, cells):
        with pytest.raises(ValueError, match="random.total_cells"):
            ExperimentConfig(algo=algo, seeds=(1,), out_dir=tmp_path,
                             synth=SynthConfig(8, 0.8, 2, 3), random_cells=cells,
                             mfci=InferenceConfig(total_cells=1))

    def test_byte_identical_reruns_with_timing_off(self, tmp_path):
        def run(where):
            cfg = ExperimentConfig(
                algo="mfci", seeds=(7, 8), out_dir=where,
                synth=SynthConfig(10, 0.7, 3, 6, 1.0, 0.3),
                mfci=InferenceConfig(total_cells=3, candidates_per_iteration=2,
                                     added_per_iteration=1, discretization="random_walk"),
                timing=False,
            )
            run_experiment(cfg, echo=lambda *_: None)

        run(tmp_path / "a")
        run(tmp_path / "b")
        for seed in (7, 8):
            name = f"trace_mfci_seed{seed}.csv"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bench_rows_match_experiment_traces(self, tmp_path):
        cfg = ExperimentConfig(
            algo="mfci", seeds=(5, 6), out_dir=tmp_path / "bench",
            synth=SynthConfig(10, 0.7, 3, 6, 1.0, 0.3),
            mfci=InferenceConfig(total_cells=3, candidates_per_iteration=2,
                                 added_per_iteration=2, projection="approximate"),
            sph=SphConfig(total_cells=3, candidates_per_iteration=2),
            random_cells=3,
            timing=False,
        )
        algos = ("mfci", "sph", "random")
        bench = run_bench(cfg, algos, echo=lambda *_: None).read_text().splitlines()
        expected = [bench[0]]
        for algo in algos:
            out = tmp_path / algo
            run_experiment(replace(cfg, algo=algo, out_dir=out), echo=lambda *_: None)
            for seed in cfg.seeds:
                trace = (out / f"trace_{algo}_seed{seed}.csv").read_text().splitlines()
                assert bench[0] == "algo,seed," + trace[0]
                expected += [f"{algo},{seed}," + row for row in trace[1:]]
        assert bench == expected

    def test_fast_mfci_reports_single_solver_call(self, tmp_path):
        cfg = ExperimentConfig(
            algo="mfci", seeds=(0,), out_dir=tmp_path / "out",
            synth=SynthConfig(12, 0.8, 6, 8, 1.0, 0.2),
            mfci=InferenceConfig(total_cells=6, candidates_per_iteration=3,
                                 added_per_iteration=3, projection="approximate"),
        )
        (trace,) = run_experiment(cfg, echo=lambda *_: None)
        assert trace.final.cumulative_solver_calls == 1


class TestCli:
    def write_configs(self, tmp_path):
        synth_cfg = tmp_path / "synth.cfg"
        synth_cfg.write_text(
            "synth.nodes = 8\nsynth.edge_probability = 0.8\nsynth.cells = 3\n"
            "synth.flows = 5\nsynth.noise_std = 0.1\nsynth.seed = 11\n")
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(
            f"data.edges = {tmp_path}/data/edges.txt\n"
            f"data.flows = {tmp_path}/data/flows.csv\n"
            f"data.cells = {tmp_path}/data/cells.txt\n"
            "algo = mfci\n"
            "mfci.total_cells = 3\nmfci.candidates = 2\nmfci.added = 1\n"
            "sph.total_cells = 3\nsph.candidates = 2\n"
            "random.total_cells = 3\n"
            "run.seeds = 1 2\n"
            f"run.out = {tmp_path}/out\n"
            "run.timing = off\n"
            "bench.algos = mfci sph random\n")
        return synth_cfg, run_cfg

    def test_full_pipeline(self, tmp_path, capsys):
        synth_cfg, run_cfg = self.write_configs(tmp_path)
        assert cli.main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "data")]) == 0
        assert cli.main(["infer", "--config", str(run_cfg)]) == 0
        assert (tmp_path / "out" / "trace_mfci_seed1.csv").exists()
        assert (tmp_path / "out" / "trace_mfci_seed2.csv").exists()

        assert cli.main(["eval", "--config", str(run_cfg)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        float(printed)  # a bare loss value

        assert cli.main(["bench", "--config", str(run_cfg), "--out", str(tmp_path / "bench")]) == 0
        header = (tmp_path / "bench" / "bench.csv").read_text().splitlines()[0]
        assert header.startswith("algo,seed,iteration,")

    def test_algo_and_seed_overrides(self, tmp_path):
        synth_cfg, run_cfg = self.write_configs(tmp_path)
        cli.main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "data")])
        assert cli.main(["infer", "--config", str(run_cfg), "--algo", "sph",
                         "--seed", "9", "--out", str(tmp_path / "sphout")]) == 0
        assert (tmp_path / "sphout" / "trace_sph_seed9.csv").exists()

    def test_missing_flow_file_names_path(self, tmp_path, capsys):
        synth_cfg, run_cfg = self.write_configs(tmp_path)
        cli.main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "data")])
        (tmp_path / "data" / "flows.csv").unlink()
        code = cli.main(["infer", "--config", str(run_cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "flows.csv" in err

    @pytest.mark.parametrize("line", ["solver.tolerance = 1e-6", "solver.max_iterations = 5",
                                      "mfci.candiates = 8", "mfci.evaluate = on"])
    @pytest.mark.parametrize("command", ["infer", "eval", "bench"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, line, command):
        synth_cfg, run_cfg = self.write_configs(tmp_path)
        cli.main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "data")])
        run_cfg.write_text(run_cfg.read_text() + line + "\n")
        assert cli.main([command, "--config", str(run_cfg)]) == 1
        err = capsys.readouterr().err
        assert repr(line.split(" = ")[0]) in err and str(run_cfg) in err
        assert not (tmp_path / "out").exists()

    def test_unknown_synth_key_rejected(self, tmp_path, capsys):
        synth_cfg, _ = self.write_configs(tmp_path)
        synth_cfg.write_text(synth_cfg.read_text() + "synth.node = 9\n")
        assert cli.main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "data")]) == 1
        assert "'synth.node'" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["infer", "bench"])
    def test_random_total_cells_below_one_rejected(self, tmp_path, capsys, command):
        synth_cfg, run_cfg = self.write_configs(tmp_path)
        cli.main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "data")])
        run_cfg.write_text(run_cfg.read_text()
                           .replace("random.total_cells = 3", "random.total_cells = -2")
                           .replace("algo = mfci", "algo = random"))
        capsys.readouterr()
        assert cli.main([command, "--config", str(run_cfg)]) == 1
        captured = capsys.readouterr()
        assert "random.total_cells" in captured.err
        assert "algo=" not in captured.out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, flags", [
        (("run.seeds = 1 2", "run.seeds = 0 -1"), []),
        ((), ["--seed", "-1"]),
    ], ids=["config", "flag"])
    def test_negative_run_seed_rejected(self, tmp_path, capsys, edit, flags):
        # seed 0 would run first and write its trace before -1 failed
        synth_cfg, run_cfg = self.write_configs(tmp_path)
        cli.main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "data")])
        run_cfg.write_text(run_cfg.read_text().replace("algo = mfci", "algo = random")
                           .replace(*edit or ("", "")))
        capsys.readouterr()
        assert cli.main(["infer", "--config", str(run_cfg), *flags]) == 1
        captured = capsys.readouterr()
        assert "run.seeds must be non-negative" in captured.err
        assert "algo=" not in captured.out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, flags", [
        (("synth.seed = 11", "synth.seed = -1"), []),
        ((), ["--seed", "-1"]),
    ], ids=["config", "flag"])
    def test_negative_synth_seed_rejected(self, tmp_path, capsys, edit, flags):
        synth_cfg, _ = self.write_configs(tmp_path)
        synth_cfg.write_text(synth_cfg.read_text().replace(*edit or ("", "")))
        assert cli.main(["synth", "--config", str(synth_cfg),
                         "--out", str(tmp_path / "data"), *flags]) == 1
        assert "synth.seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_synth_seed_flag_wins_over_the_key(self, tmp_path):
        synth_cfg, _ = self.write_configs(tmp_path)
        synth_cfg.write_text(synth_cfg.read_text().replace("synth.seed = 11", "synth.seed = x"))
        assert cli.main(["synth", "--config", str(synth_cfg),
                         "--out", str(tmp_path / "data"), "--seed", "3"]) == 0
        meta = parse_config(tmp_path / "data" / "meta.txt")
        assert meta["synth.seed"] == "3"

    @pytest.mark.parametrize("edits, command, error", [
        ([("algo = mfci", "algo = sph"), ("sph.total_cells = 3\n", "")], "infer",
         "error: missing config key 'sph.total_cells'"),
        ([("algo = mfci", "algo =")], "infer", "error: missing config key 'algo'"),
        ([("mfci.total_cells = 3\n", "")], "bench",
         "error: missing config key 'mfci.total_cells'"),
    ], ids=["partial-sph", "empty-algo", "partial-mfci-bench"])
    def test_config_error_is_one_line(self, tmp_path, capsys, edits, command, error):
        synth_cfg, run_cfg = self.write_configs(tmp_path)
        cli.main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "data")])
        text = run_cfg.read_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        run_cfg.write_text(text)
        capsys.readouterr()
        assert cli.main([command, "--config", str(run_cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [error]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "infer", "bench"])
    def test_undrawable_dataset_is_an_error(self, tmp_path, capsys, command):
        # 5 nodes span at most 6 independent cycles, short of 20 cells
        config = tmp_path / "undrawable.cfg"
        config.write_text("synth.nodes = 5\nsynth.edge_probability = 0.5\nsynth.cells = 20\n"
                          "synth.flows = 4\nalgo = random\nrandom.total_cells = 2\n"
                          "bench.algos = random\n")
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: no Erdos-Renyi draw")

    @pytest.mark.parametrize("edit", [
        ("bench.algos = mfci sph random", "bench.algos = mfci spH random"),
        ("sph.total_cells = 3\n", ""),
    ], ids=["unknown-algo", "missing-total-cells"])
    def test_bench_checks_every_algo_before_running(self, tmp_path, capsys, edit):
        synth_cfg, run_cfg = self.write_configs(tmp_path)
        cli.main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "data")])
        run_cfg.write_text(run_cfg.read_text().replace(*edit))
        capsys.readouterr()
        assert cli.main(["bench", "--config", str(run_cfg), "--out", str(tmp_path / "bench")]) == 1
        captured = capsys.readouterr()
        assert "bench: algo=" not in captured.out
        assert "sph" in captured.err
        assert not (tmp_path / "bench" / "bench.csv").exists()

    def test_bench_rejects_a_repeated_algo(self, tmp_path, capsys):
        synth_cfg, run_cfg = self.write_configs(tmp_path)
        cli.main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "data")])
        run_cfg.write_text(run_cfg.read_text().replace("bench.algos = mfci sph random",
                                                       "bench.algos = random sph random"))
        capsys.readouterr()
        assert cli.main(["bench", "--config", str(run_cfg), "--out", str(tmp_path / "bench")]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: bench algorithms must be distinct, got random more than once"]
        assert "bench: algo=" not in captured.out
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("edits, algos", [
        ([("algo = mfci\n", "")], ("mfci", "sph", "random")),
        ([("mfci.total_cells = 3\nmfci.candidates = 2\nmfci.added = 1\n", ""),
          ("bench.algos = mfci sph random", "bench.algos = random")], ("random",)),
        ([("bench.algos = mfci sph random", "bench.algos =")], ("mfci", "sph", "random")),
    ], ids=["no-algo-key", "algo-outside-bench-algos", "empty-bench-algos"])
    def test_bench_runs_the_bench_algos(self, tmp_path, edits, algos):
        synth_cfg, run_cfg = self.write_configs(tmp_path)
        cli.main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "data")])
        text = run_cfg.read_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        run_cfg.write_text(text)
        assert cli.main(["bench", "--config", str(run_cfg), "--out", str(tmp_path / "bench")]) == 0
        rows = (tmp_path / "bench" / "bench.csv").read_text().splitlines()[1:]
        assert list(dict.fromkeys(row.split(",")[0] for row in rows)) == list(algos)


def test_unset_config_keys_take_the_dataclass_defaults():
    raw = {"mfci.total_cells": "4", "sph.total_cells": "5", "synth.nodes": "8",
           "synth.edge_probability": "0.5", "synth.cells": "2", "synth.flows": "3",
           "synth.seed": ""}
    assert harness.section_from_raw(raw, "mfci") == InferenceConfig(total_cells=4)
    assert harness.section_from_raw(raw, "sph") == SphConfig(total_cells=5)
    assert harness.section_from_raw(raw, "synth") == SynthConfig(8, 0.5, 2, 3)
    raw.update({"mfci.rank": "3", "mfci.candidates": "2", "sph.candidates": "4",
                "synth.noise_std": "0.5"})
    assert harness.section_from_raw(raw, "mfci") == InferenceConfig(4, 2, factorization_rank=3)
    assert harness.section_from_raw(raw, "sph") == SphConfig(5, 4)
    assert harness.section_from_raw(raw, "synth") == SynthConfig(8, 0.5, 2, 3, noise_std=0.5)


def test_config_keys_are_the_documented_ones():
    assert harness.CONFIG_KEYS == {
        "algo", "run.seeds", "run.out", "run.timing", "bench.algos",
        "synth.nodes", "synth.edge_probability", "synth.cells", "synth.flows",
        "synth.cell_std", "synth.noise_std", "synth.seed",
        "data.edges", "data.flows", "data.cells",
        "mfci.total_cells", "mfci.candidates", "mfci.added", "mfci.rank", "mfci.method",
        "mfci.discretization", "mfci.projection",
        "sph.total_cells", "sph.candidates", "random.total_cells",
    }


# A value for every key of CONFIG_SECTIONS, none its field's default, and
# the config object that each section's values bind, built by position.
SECTION_VALUES = {
    "synth.nodes": "9", "synth.edge_probability": "0.25", "synth.cells": "2",
    "synth.flows": "3", "synth.cell_std": "0.5", "synth.noise_std": "0.125",
    "synth.seed": "13",
    "data.edges": "e.txt", "data.flows": "f.csv", "data.cells": "c.txt",
    "mfci.total_cells": "6", "mfci.candidates": "4", "mfci.added": "2", "mfci.rank": "5",
    "mfci.method": "ica", "mfci.discretization": "random_walk",
    "mfci.projection": "approximate",
    "sph.total_cells": "5", "sph.candidates": "3",
}
SECTION_OBJECTS = {
    "synth": SynthConfig(9, 0.25, 2, 3, 0.5, 0.125, 13),
    "data": DatasetPaths(Path("e.txt"), Path("f.csv"), Path("c.txt")),
    "mfci": InferenceConfig(6, 4, 2, 5, "ica", "random_walk", "approximate"),
    "sph": SphConfig(5, 3),
}


@pytest.mark.parametrize("section, key", [(section, key) for section, keys in
                                          CONFIG_SECTIONS.items() for key in keys])
def test_each_config_key_binds_its_field(section, key):
    field, cast = CONFIG_SECTIONS[section][key]
    bound = harness.section_from_raw({k: SECTION_VALUES[k] for k in CONFIG_SECTIONS[section]},
                                     section)
    assert bound == SECTION_OBJECTS[section]
    defaults = {f.name: f.default for f in fields(harness.CONFIG_CLASSES[section])}
    assert getattr(bound, field) == cast(SECTION_VALUES[key]) != defaults[field]


def test_empty_required_config_key_is_missing():
    raw = {"mfci.total_cells": "", "sph.candidates": "3"}
    with pytest.raises(ValueError, match="missing config key 'mfci.total_cells'"):
        harness.section_from_raw(raw, "mfci")
    with pytest.raises(ValueError, match="missing config key 'sph.total_cells'"):
        harness.section_from_raw(raw, "sph")


@pytest.mark.parametrize("section", list(CONFIG_SECTIONS))
def test_partial_section_names_its_missing_key(section):
    # bound by its last key alone, the section misses its first, required key
    first, *_, last = CONFIG_SECTIONS[section]
    with pytest.raises(ValueError, match=f"missing config key '{first}'"):
        harness.section_from_raw({last: SECTION_VALUES[last]}, section)


def test_flags_replace_their_config_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("algo = mfci\nrun.seeds = 1 2\nrun.out = out\nsynth.seed = 11\n")
    raw = harness.read_config(path, {"algo": "sph", "run.seeds": 9, "run.out": tmp_path / "o",
                                     "synth.seed": None})
    assert raw == {"algo": "sph", "run.seeds": "9", "run.out": str(tmp_path / "o"),
                   "synth.seed": "11"}
