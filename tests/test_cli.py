"""Command-line interface: subcommands, exit codes, and artifacts."""

import dataclasses
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from specsearch import cli, dsl, graphs, training

from conftest import fake_blas, full_replay_records, make_replay_file


@pytest.fixture
def dataset(tmp_path):
    g = graphs.gen_synthetic(80, 3, 0.85, 6.0, 8, 1.0, seed=11)
    path = tmp_path / "data.json"
    graphs.save_dataset(g, path)
    return path


@pytest.fixture
def no_val_dataset(tmp_path):
    """A dataset whose stored split has no validation nodes."""
    g = graphs.gen_synthetic(40, 2, 0.85, 6.0, 8, 1.0, seed=11)
    g.splits = graphs.Split(range(20), (), range(20, 40))
    path = tmp_path / "noval.json"
    graphs.save_dataset(g, path)
    return path


@pytest.fixture
def no_train_dataset(tmp_path):
    """A dataset whose stored split has no training nodes."""
    g = graphs.gen_synthetic(40, 2, 0.85, 6.0, 8, 1.0, seed=11)
    g.splits = graphs.Split((), range(20), range(20, 40))
    path = tmp_path / "notrain.json"
    graphs.save_dataset(g, path)
    return path


def split_argv(command, dataset):
    """A scoring command on one dataset and gcn, before any --split."""
    return {"eval": ["eval", "--dataset", dataset, "--mechanism", "gcn"],
            "xeval": ["xeval", "--datasets", dataset, "--mechanisms", "gcn"],
            "bench": ["bench", "--dataset", dataset]}[command]


def blas_pin():
    blas = training.blas_threads()
    return blas.set_num_threads.__name__ if blas is not None else None


def keep_freed_heap():
    return training.libc_mallopt() is not None


def run(argv):
    return cli.main([str(a) for a in argv])


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run(["eval", "--dataset", "x.json"]) == 1

    def test_bad_split_spec(self, dataset, capsys):
        assert run(["eval", "--dataset", dataset, "--mechanism", "gcn",
                    "--split", "1,2"]) == 1

    @pytest.mark.parametrize("split, message", [
        ("a,b,c", "--split needs three comma-separated numbers"),
        ("0.5,-0.2,0.3", "fractions must be non-negative"),
        ("0,0.5,0.5", "train fraction 0.0 yields 0 samples"),   # stratified
        ("0.6,0.3,0.2", "fractions must sum to at most 1"),     # not 0.6 %, 0.3 %, 0.2 %
        ("1,1,1", "fractions must sum to at most 1"),
        ("0.2,0.2,nan", "fractions must be non-negative numbers, got [0.2, 0.2, nan]"),
        ("nan,0.2,0.2", "fractions must be non-negative numbers, got [nan, 0.2, 0.2]"),
        ("20,nan,20", "fractions must be non-negative numbers, got [0.2, nan, 0.2]"),
    ])
    def test_bad_split_values(self, dataset, capsys, split, message):
        assert run(["eval", "--dataset", dataset, "--mechanism", "gcn",
                    "--split", split]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err

    @pytest.mark.parametrize("split, ratios", [
        ("30,20,50", (0.3, 0.2, 0.5)), ("2.5,2.5,95", (0.025, 0.025, 0.95)),
        ("10,10,10", (0.1, 0.1, 0.1)), ("0.3,0.2,0.5", (0.3, 0.2, 0.5)),
        ("1,0,0", (1.0, 0.0, 0.0)),
    ])
    def test_split_flag_is_percents_when_a_number_exceeds_1(self, split, ratios):
        assert cli.SplitSpec().with_flag(split).ratios == ratios

    @pytest.mark.parametrize("split", ["0.5,0,0.5", "from-file"])
    def test_split_without_validation_is_usage_error(self, no_val_dataset, capsys, split):
        assert run(["eval", "--dataset", no_val_dataset, "--mechanism", "gcn",
                    "--split", split]) == 1
        assert capsys.readouterr().err.startswith("usage error: split: no validation nodes")

    @pytest.mark.parametrize("command", ["eval", "xeval", "bench"])
    def test_split_without_training_is_usage_error(self, no_train_dataset, capsys,
                                                   monkeypatch, command):
        def no_fork(*args):
            raise AssertionError("forked")
        monkeypatch.setattr(training.mp, "get_context", no_fork)
        assert run([*split_argv(command, no_train_dataset), "--split", "from-file"]) == 1
        assert capsys.readouterr().err.startswith("usage error: split: no training nodes")

    @pytest.mark.parametrize("command", ["eval", "xeval", "bench"])
    def test_split_from_file_is_the_stored_split(self, tmp_path, capsys, monkeypatch,
                                                 command):
        g = graphs.gen_synthetic(40, 2, 0.85, 6.0, 8, 1.0, seed=11)
        g.splits = graphs.Split(range(10), range(10, 20), range(20, 40))
        path = tmp_path / "stored.json"
        graphs.save_dataset(g, path)
        splits = []

        def spy(texts, graph, split, *args, **kwargs):
            splits.append(split)
            return [training.FitResult("crash")] * len(texts)
        monkeypatch.setattr(training, "evaluate_batch", spy)
        run([*split_argv(command, path), "--split", "from-file"])
        assert splits == [g.splits]

    @pytest.mark.parametrize("command", ["eval", "xeval", "bench"])
    def test_missing_stored_split_is_usage_error(self, dataset, capsys, command):
        assert run([*split_argv(command, dataset), "--split", "from-file"]) == 1
        assert capsys.readouterr().err == "usage error: split: dataset file carries no splits\n"

    @pytest.mark.parametrize("flags, message", [
        (["--timeout-secs", "nan"], "timeout must be in [1, inf) seconds, got nan"),
        (["--timeout-secs", "inf"], "timeout must be in [1, inf) seconds, got inf"),
        (["--seed", "-1"], "seed must be at least 0, got -1"),
        (["--timeout-secs", "2147484"], "timeout must be at most 2147483 seconds, got 2147484.0"),
    ])
    def test_unusable_eval_flag_is_usage_error(self, dataset, capsys, flags, message):
        assert run([*split_argv("eval", dataset), *flags]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("flags", [["--out-dir", "outx"], ["--force"]])
    def test_eval_takes_no_out_dir(self, dataset, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        assert run([*split_argv("eval", dataset), *flags]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "outx").exists()

    def test_missing_dataset_file(self, capsys):
        assert run(["eval", "--dataset", "/nonexistent.json",
                    "--mechanism", "gcn"]) == 2


class TestGenData:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        out = tmp_path / "synth.json"
        code = run(["gen-data", "--out", out, "--n", "50", "--classes", "2",
                    "--homophily", "0.8", "--seed", "4"])
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["num_nodes"] == 50
        g = graphs.load_dataset(out)
        assert g.num_nodes == 50 and g.num_classes == 2


    def test_fewer_nodes_than_classes_is_usage_error(self, tmp_path, capsys):
        assert run(["gen-data", "--out", tmp_path / "x.json", "--n", "1",
                    "--classes", "3"]) == 1
        assert capsys.readouterr().err.startswith("usage error: need n >= classes")
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("degree", ["inf", "nan", "10", "0"])
    def test_degree_no_graph_can_have_is_usage_error(self, tmp_path, capsys, degree):
        assert run(["gen-data", "--out", tmp_path / "x.json", "--n", "10",
                    "--avg-degree", degree]) == 1
        assert capsys.readouterr().err == (f"usage error: avg_degree must lie in "
                                           f"(0, n - 1] = (0, 9], got {float(degree)}\n")
        assert not (tmp_path / "x.json").exists()

    def test_complete_graph_degree_is_accepted(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["gen-data", "--out", out, "--n", "10", "--classes", "1",
                    "--avg-degree", "9"]) == 0
        assert len(graphs.load_dataset(out).edges) == 45

    @pytest.mark.parametrize("classes", ["0", "-1"])
    def test_no_classes_is_usage_error(self, tmp_path, capsys, classes):
        assert run(["gen-data", "--out", tmp_path / "x.json", "--n", "50",
                    "--classes", classes]) == 1
        assert capsys.readouterr().err == "usage error: classes must be at least 1\n"
        assert not (tmp_path / "x.json").exists()


class TestEval:
    def test_json_line_output(self, dataset, capsys):
        code = run(["eval", "--dataset", dataset, "--mechanism", "gcn",
                    "--split", "30,20,50", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        payload = json.loads(out[0])
        assert 0.0 <= payload["fitness"] <= 1.0
        assert 0.0 <= payload["test_accuracy"] <= 1.0

    def test_percent_split_spec(self, dataset, capsys):
        assert run(["eval", "--dataset", dataset, "--mechanism", "appnp",
                    "--split", "0.3,0.2,0.5"]) == 0

    def test_mechanism_from_file(self, dataset, tmp_path, capsys):
        mech = tmp_path / "my.mech"
        mech.write_text(dsl.builtin("gpr"))
        assert run(["eval", "--dataset", dataset, "--mechanism", mech,
                    "--split", "30,20,50"]) == 0


class TestInspect:
    @pytest.mark.parametrize("name", dsl.builtin_names())
    def test_builtin_exits_zero(self, name, capsys):
        assert run(["inspect", "--mechanism", name]) == 0
        assert capsys.readouterr().out.startswith("mechanism")

    def test_bad_program_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.mech"
        bad.write_text("mechanism broken {")
        assert run(["inspect", "--mechanism", bad]) == 2


    def test_step_division_warned_once(self, tmp_path, capsys):
        mech = tmp_path / "div.mech"
        mech.write_text("mechanism m { consts { K = 4; } graph { A = sym_norm(c=1); }"
                        " init { Z = X; } step { Z = spmm(A, Z) / (1 + k); }"
                        " out { Y = Z; } }")
        assert run(["inspect", "--mechanism", mech]) == 0
        warnings = capsys.readouterr().err.strip().splitlines()
        assert len(warnings) == 1 and "division" in warnings[0]


class TestXeval:
    def test_matrix_csv(self, dataset, tmp_path, capsys):
        g2 = graphs.gen_synthetic(70, 3, 0.2, 6.0, 8, 1.0, seed=12)
        d2 = tmp_path / "hetero.json"
        graphs.save_dataset(g2, d2)
        out = tmp_path / "xeval"
        code = run(["xeval", "--datasets", f"{dataset},{d2}", "--mechanisms",
                    "gcn,fagcn-lite", "--split", "30,20,50", "--out-dir", out])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mechanism,data,hetero"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 3
            for cell in cells[1:]:
                assert 0.0 <= float(cell) <= 1.0
        assert (out / "xeval.csv").read_text().splitlines() == lines
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["scoring"] == {"pool_size": training.USABLE_CORES,
                                       "blas_pin": blas_pin(),
                                       "keep_freed_heap": keep_freed_heap()}


    def test_one_batch_per_dataset(self, dataset, tmp_path, capsys, monkeypatch):
        g2 = graphs.gen_synthetic(70, 3, 0.2, 6.0, 8, 1.0, seed=12)
        d2 = tmp_path / "hetero.json"
        graphs.save_dataset(g2, d2)
        bad = tmp_path / "bad.mech"
        bad.write_text("not a program")
        real, calls = training.evaluate_batch, []

        def spy(texts, *args, **kwargs):
            calls.append(list(texts))
            return real(texts, *args, **kwargs)
        monkeypatch.setattr(training, "evaluate_batch", spy)
        code = run(["xeval", "--datasets", f"{dataset},{d2}",
                    "--mechanisms", f"gcn,{bad},appnp", "--split", "30,20,50"])
        assert code == 0
        texts = [dsl.builtin("gcn"), "not a program", dsl.builtin("appnp")]
        assert calls == [texts, texts]
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mechanism,data,hetero"
        cfg = training.TrainConfig()
        for col, path in enumerate([dataset, d2], start=1):
            g = graphs.load_dataset(path)
            split = graphs.make_split(g.num_nodes, (0.3, 0.2, 0.5), labels=g.labels, seed=0,
                                      stratified=True)
            for line, text in zip(lines[1:], texts):
                (res,) = real([text], g, split, cfg, pool_size=1)
                cell = f"{res.test_accuracy:.4f}" if res.ok else res.status
                assert line.split(",")[col] == cell
        assert [line.split(",")[0] for line in lines[1:]] == ["gcn", "bad", "appnp"]

    def test_blas_pin_held_across_datasets(self, dataset, tmp_path, monkeypatch):
        d2 = tmp_path / "second.json"
        graphs.save_dataset(graphs.gen_synthetic(70, 3, 0.2, 6.0, 8, 1.0, seed=12), d2)
        calls = fake_blas(monkeypatch, 2)
        monkeypatch.setattr(training, "_score_impl",
                            lambda *args: training.FitResult("ok", fitness=0.5))
        code = run(["xeval", "--datasets", f"{dataset},{d2}", "--mechanisms", "gcn",
                    "--split", "30,20,50"])
        assert code == 0 and calls == [1, 2]

    def test_empty_test_split_gives_empty_cells(self, dataset, capsys):
        code = run(["xeval", "--datasets", dataset, "--mechanisms", "gcn,appnp",
                    "--split", "0.5,0.5,0"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["mechanism,data", "gcn,", "appnp,"]


class TestSearch:
    def write_config(self, tmp_path, dataset, replay):
        cfg = {
            "dataset": str(dataset),
            "split": {"ratios": [0.3, 0.2, 0.5], "stratified": True},
            "train": {"max_epochs": 10, "patience": 10, "hidden": 16},
            "search": {"generations": 2, "pool_size": 4},
            "backend": {"replay": str(replay)},
            "seed": 0,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_full_replay_run(self, dataset, tmp_path, capsys):
        replay = make_replay_file(tmp_path, full_replay_records(2))
        cfg = self.write_config(tmp_path, dataset, replay)
        out = tmp_path / "run"
        assert run(["search", "--config", cfg, "--out-dir", out]) == 0
        for name in ("run_manifest.json", "convergence.csv",
                     "generations.jsonl", "best_program.txt"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["search"]["generations"] == 2
        assert manifest["train"]["max_epochs"] == 10
        assert manifest["scoring"] == {"pool_size": 4, "blas_pin": blas_pin(),
                                       "keep_freed_heap": keep_freed_heap()}
        records = [c for line in (out / "generations.jsonl").read_text().splitlines()
                   for c in json.loads(line)["candidates"]]
        assert records and all("cpu_seconds" in r and "peak_rss_mb" in r for r in records)
        assert all(0 < r["best_epoch"] <= r["epochs_run"] for r in records if r["status"] == "ok")
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 <= summary["best_fitness"] <= 1.0

    def test_nonempty_out_dir_requires_force(self, dataset, tmp_path, capsys):
        replay = make_replay_file(tmp_path, full_replay_records(1))
        cfg = self.write_config(tmp_path, dataset, replay)
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "keep.txt").write_text("precious")
        code = run(["search", "--config", cfg, "--out-dir", out,
                    "--generations", "1"])
        assert code == 2
        assert "force" in capsys.readouterr().err

    @pytest.mark.parametrize("search_cfg, message", [
        ({"pool_size": 0}, "pool_size must be at least 1"),
        ({"pool": 2}, "config key 'search.pool' is not one of generations"),
        ({"prompt_ops": ["E9"]}, "unknown prompt operator 'E9'"),
        ({"generations": -1}, "generations must be at least 0"),
        ({"archive_capacity": 0}, "archive_capacity must be at least 1"),
        ({"parallel_responses": 0}, "parallel_responses must be at least 1"),
        ({"pool_size": 1.5}, "'search.pool_size' must be an integer, got 1.5"),
        ({"pool_size": True}, "'search.pool_size' must be an integer, got True"),
        ({"seed_programs": "gcn"}, "'search.seed_programs' must be a list of strings"),
        ({"prompt_ops": ["E1", 2]}, "'search.prompt_ops' must be a list of strings"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
        ({"seed_programs": ["nope"]}, "seed_programs must name one or more builtin "
                                      "programs, got ['nope']"),
        ({"seed_programs": []}, "seed_programs must name one or more builtin programs"),
        ({"prompt_ops": []}, "prompt_ops must name one or more distinct prompt operators, "
                             "got []"),
        ({"prompt_ops": ["E1", "C1", "E1"]}, "prompt_ops must name one or more distinct "
                                             "prompt operators, got ['E1', 'C1', 'E1']"),
    ])
    def test_bad_search_config_is_usage_error(self, dataset, tmp_path, capsys,
                                              search_cfg, message):
        replay = make_replay_file(tmp_path, full_replay_records(1))
        path = self.write_config(tmp_path, dataset, replay)
        cfg = json.loads(path.read_text())
        cfg["search"].update(search_cfg)
        path.write_text(json.dumps(cfg))
        assert run(["search", "--config", path, "--out-dir", tmp_path / "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text, message", [
        ("{bad", "malformed JSON"),
        ("[1, 2]", "expected a JSON object"),
    ])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run(["search", "--config", path, "--out-dir", tmp_path / "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err

    @pytest.mark.parametrize("split, flags", [({"ratios": [0.5, 0.0, 0.5]}, []),
                                              ({"from_file": True}, []),
                                              ({"ratios": [0.3, 0.2, 0.5]},
                                               ["--split", "0.5,0,0.5"])])
    def test_split_without_validation_is_usage_error(self, no_val_dataset, tmp_path, capsys,
                                                     split, flags):
        replay = make_replay_file(tmp_path, full_replay_records(1))
        path = self.write_config(tmp_path, no_val_dataset, replay)
        cfg = json.loads(path.read_text())
        cfg["split"] = split
        path.write_text(json.dumps(cfg))
        assert run(["search", "--config", path, "--out-dir", tmp_path / "run", *flags]) == 1
        assert capsys.readouterr().err.startswith("usage error: split: no validation nodes")
        assert not (tmp_path / "run").exists()

    def test_split_from_file_is_the_stored_split(self, tmp_path, capsys, monkeypatch):
        g = graphs.gen_synthetic(40, 2, 0.85, 6.0, 8, 1.0, seed=11)
        g.splits = graphs.Split(range(10), range(10, 20), range(20, 40))
        path = tmp_path / "stored.json"
        graphs.save_dataset(g, path)
        splits = []

        def spy(graph, split, *args, **kwargs):
            splits.append(split)
            best = SimpleNamespace(fitness=0.5, id=0)
            return SimpleNamespace(best=best, archive=[best])
        monkeypatch.setattr(cli.search, "run_search", spy)
        replay = make_replay_file(tmp_path, full_replay_records(1))
        cfg = self.write_config(tmp_path, path, replay)
        out = tmp_path / "run"
        assert run(["search", "--config", cfg, "--out-dir", out, "--split", "from-file"]) == 0
        assert splits == [g.splits]
        assert json.loads((out / "run_manifest.json").read_text())["split"] == {
            "from_file": True}

    def test_split_flag_keeps_config_split_seed(self, dataset, tmp_path, capsys,
                                                monkeypatch):
        splits = []

        def spy(graph, split, *args, **kwargs):
            splits.append(split)
            best = SimpleNamespace(fitness=0.5, id=0)
            return SimpleNamespace(best=best, archive=[best])
        monkeypatch.setattr(cli.search, "run_search", spy)
        replay = make_replay_file(tmp_path, full_replay_records(1))
        path = self.write_config(tmp_path, dataset, replay)
        cfg = json.loads(path.read_text())
        cfg["split"] = {"ratios": [0.3, 0.3, 0.4], "seed": 7}
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run(["search", "--config", path, "--out-dir", out, "--split", "30,30,40"]) == 0
        g = graphs.load_dataset(dataset)
        seeded = [graphs.make_split(g.num_nodes, (0.3, 0.3, 0.4), labels=g.labels, seed=s,
                                    stratified=True) for s in (7, 0)]
        assert splits == seeded[:1] and seeded[0] != seeded[1]
        assert json.loads((out / "run_manifest.json").read_text())["split"] == {
            "ratios": [0.3, 0.3, 0.4], "stratified": True, "seed": 7, "from_file": False}

    @pytest.mark.parametrize("flags, seed", [(["--seed", "3"], 3), ([], 5)])
    def test_seed_flag_sets_every_seed(self, dataset, tmp_path, capsys, monkeypatch,
                                       flags, seed):
        def spy(graph, split, *args, **kwargs):
            best = SimpleNamespace(fitness=0.5, id=0)
            return SimpleNamespace(best=best, archive=[best])
        monkeypatch.setattr(cli.search, "run_search", spy)
        replay = make_replay_file(tmp_path, full_replay_records(1))
        path = self.write_config(tmp_path, dataset, replay)
        cfg = json.loads(path.read_text())
        cfg["seed"] = 5
        for section in ("split", "train", "search"):
            cfg[section]["seed"] = 5
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run(["search", "--config", path, "--out-dir", out, *flags]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert [manifest["seed"], manifest["split"]["seed"], manifest["train"]["seed"],
                manifest["search"]["seed"]] == [seed] * 4

    def test_readme_config_runs(self, tmp_path, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        cfg = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        data = tmp_path / "data.json"
        graphs.save_dataset(graphs.gen_synthetic(200, 2, 0.85, 6.0, 8, 1.0, seed=11), data)
        cfg["dataset"] = str(data)
        cfg["backend"]["replay"] = str(make_replay_file(tmp_path, full_replay_records(1)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["search", "--config", path, "--out-dir", tmp_path / "run",
                    "--generations", "0"]) == 0

    def test_bad_train_config_is_usage_error(self, dataset, tmp_path, capsys):
        replay = make_replay_file(tmp_path, full_replay_records(1))
        cfg = self.write_config(tmp_path, dataset, replay)
        assert run(["search", "--config", cfg, "--out-dir", tmp_path / "run",
                    "--timeout-secs", "0"]) == 1
        assert capsys.readouterr().err.startswith("usage error: timeout")

    @pytest.mark.parametrize("train_cfg, message", [
        ({"dropout": 1.0}, "dropout must be in [0, 1)"),
        ({"dropout": -0.5}, "dropout must be in [0, 1)"),
        ({"lr": 0}, "lr must be positive"),
        ({"float64": "no"}, "'train.float64' must be true or false, got 'no'"),
        ({"float64": 0}, "'train.float64' must be true or false, got 0"),
        ({"max_epochs": 2.5}, "'train.max_epochs' must be an integer, got 2.5"),
        ({"lr": "0.01"}, "'train.lr' must be a number, got '0.01'"),
        ({"lr": True}, "'train.lr' must be a number, got True"),
        ({"lr": float("nan")}, "'train.lr' must be a number, got nan"),
        ({"timeout_seconds": float("inf")}, "'train.timeout_seconds' must be a number, got inf"),
        ({"weight_decay": -0.1}, "weight_decay must be in [0, inf), got -0.1"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
        ({"timeout_seconds": 2147484}, "timeout must be at most 2147483 seconds, got 2147484"),
    ])
    def test_unusable_train_value_is_usage_error(self, dataset, tmp_path, capsys,
                                                 train_cfg, message):
        replay = make_replay_file(tmp_path, full_replay_records(1))
        path = self.write_config(tmp_path, dataset, replay)
        cfg = json.loads(path.read_text())
        cfg["train"].update(train_cfg)
        path.write_text(json.dumps(cfg))
        assert run(["search", "--config", path, "--out-dir", tmp_path / "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("backend", {"live": {"model": "m"}}, "'backend.live' needs base_url"),
        ("backend", {"live": "http://localhost"}, "'backend.live' must be a JSON object"),
        ("backend", "replay", "'backend' must be a JSON object"),
        ("backend", {"replay": 5}, "'backend.replay' must be a string, got 5"),
        ("train", [1], "'train' must be a JSON object"),
        ("search", None, "'search' must be a JSON object"),
        ("split", [0.3, 0.2, 0.5], "'split' must be a JSON object"),
        ("split", {"ratios": 5}, "'split.ratios' must be a list of numbers, got 5"),
        ("split", {"ratios": [0.3, 0.2, 0.5], "seed": "x"},
         "'split.seed' must be an integer, got 'x'"),
        ("seed", "x", "'seed' must be an integer"),
        ("seed", True, "'seed' must be an integer, got True"),
        ("dataset", 5, "'dataset' must be a string, got 5"),
        ("split", {"ratios": [0.3, 0.2, 0.5], "stratified": "no"},
         "'split.stratified' must be true or false, got 'no'"),
        ("split", {"from_file": "no"}, "'split.from_file' must be true or false, got 'no'"),
        ("backend", {"live": {"base_url": 5, "model": "m"}},
         "'backend.live.base_url' must be a string, got 5"),
        ("backend", {"live": {"base_url": "http://localhost", "model": "m",
                              "temperature": "hot"}},
         "'backend.live.temperature' must be a number, got 'hot'"),
        ("backend", {"live": {"base_url": "http://localhost", "model": "m",
                              "max_concurrent": "4"}},
         "'backend.live.max_concurrent' must be an integer, got '4'"),
        ("backend", {"live": {"base_url": "http://localhost", "model": "m",
                              "max_concurrent": 0}},
         "max_concurrent must be at least 1, got 0"),
        ("generatons", 3, "config key 'generatons' is not one of dataset, seed"),
        ("split", {"ratios": [0.3, 0.3, 0.4], "stratifed": False},
         "config key 'split.stratifed' is not one of ratios"),
        ("backend", {"replay": "r.jsonl", "retries": 3},
         "config key 'backend.retries' is not one of replay, live"),
        ("backend", {"live": {"base_url": "http://localhost", "model": "m",
                              "temprature": 0.5}},
         "config key 'backend.live.temprature' is not one of base_url"),
        ("backend", {"replay": "r.jsonl", "live": {"base_url": "http://localhost",
                                                   "model": "m"}},
         "config key 'backend' must name exactly one of replay and live"),
        ("split", {"ratios": [0.3, 0.2, 0.5], "seed": True},
         "'split.seed' must be an integer, got True"),
        ("backend", {"live": {"base_url": "http://localhost", "model": "m",
                              "temperature": float("nan")}},
         "'backend.live.temperature' must be a number, got nan"),
        ("split", {"ratios": [0.3, 0.3]},
         "split.ratios needs three fractions (train, val, test), got 2"),
        ("split", {"ratios": [0.2, 0.2, 0.3, 0.3]},
         "split.ratios needs three fractions (train, val, test), got 4"),
        ("backend", {"live": {"base_url": "http://localhost", "model": "m",
                              "temperature": -1}},
         "temperature must be at least 0, got -1"),
        ("backend", {"live": {"base_url": "localhost:8000/v1", "model": "m"}},
         "base_url must be an http or https URL with a host, got 'localhost:8000/v1'"),
    ])
    def test_malformed_config_section_is_usage_error(self, dataset, tmp_path, capsys,
                                                     key, value, message):
        replay = make_replay_file(tmp_path, full_replay_records(1))
        path = self.write_config(tmp_path, dataset, replay)
        cfg = json.loads(path.read_text())
        cfg[key] = value
        path.write_text(json.dumps(cfg))
        assert run(["search", "--config", path, "--out-dir", tmp_path / "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line", ["not json", '{"gen": 1, "op": "E1", "slot": 9}'])
    def test_malformed_replay_file_is_one_error_line(self, dataset, tmp_path, capsys, line):
        replay = make_replay_file(tmp_path, full_replay_records(1))
        with open(replay, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        cfg = self.write_config(tmp_path, dataset, replay)
        assert run(["search", "--config", cfg, "--out-dir", tmp_path / "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: replay file {replay}, line 13:")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_generations_flag_overrides_config(self, dataset, tmp_path, capsys):
        replay = make_replay_file(tmp_path, full_replay_records(1))
        cfg = self.write_config(tmp_path, dataset, replay)
        out = tmp_path / "one"
        assert run(["search", "--config", cfg, "--out-dir", out,
                    "--generations", "1"]) == 0
        lines = (out / "generations.jsonl").read_text().splitlines()
        assert len(lines) == 1


class TestBench:
    def test_full_corpus_csv(self, dataset, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run(["bench", "--dataset", dataset, "--split", "30,20,50",
                    "--out-dir", out, "--pool-size", "4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mechanism,status,fitness,test_accuracy"
        assert len(lines) == 14
        assert (out / "bench.csv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["scoring"] == {"pool_size": 4, "blas_pin": blas_pin(),
                                       "keep_freed_heap": keep_freed_heap()}

    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_pool_size_below_one_is_usage_error(self, dataset, capsys, size):
        assert run(["bench", "--dataset", dataset, "--split", "30,20,50",
                    "--pool-size", size]) == 1
        assert "usage error: argument --pool-size" in capsys.readouterr().err

    def test_pool_size_defaults_to_usable_cores(self, dataset):
        args = cli.build_parser().parse_args(["bench", "--dataset", str(dataset)])
        assert args.pool_size == len(os.sched_getaffinity(0))


def crash_all(texts, *args, **kwargs):
    return [training.FitResult("crash")] * len(texts)


class TestScoringCommands:
    @pytest.mark.parametrize("command", ["xeval", "bench"])
    def test_manifest_records_applied_settings(self, dataset, tmp_path, capsys,
                                               monkeypatch, command):
        monkeypatch.setattr(training, "evaluate_batch", crash_all)
        out = tmp_path / "run"
        assert run([*split_argv(command, dataset), "--seed", "3", "--timeout-secs", "30",
                    "--split", "30,20,50", "--out-dir", out]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        inputs = {"xeval": {"datasets": [str(dataset)], "mechanisms": ["gcn"]},
                  "bench": {"dataset": str(dataset)}}[command]
        assert manifest == {
            "command": command, "version": cli.__version__,
            "split": {"ratios": [0.3, 0.2, 0.5], "stratified": True, "seed": 3,
                      "from_file": False},
            "train": dataclasses.asdict(training.TrainConfig(seed=3, timeout_seconds=30)),
            "scoring": {"pool_size": training.USABLE_CORES, "blas_pin": blas_pin(),
                        "keep_freed_heap": keep_freed_heap()},
            **inputs}

    @pytest.mark.parametrize("command", ["xeval", "bench"])
    def test_occupied_out_dir_is_refused_before_scoring(self, dataset, tmp_path, capsys,
                                                        monkeypatch, command):
        def never(*args, **kwargs):
            raise AssertionError("evaluate_batch called")
        monkeypatch.setattr(training, "evaluate_batch", never)
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "keep.txt").write_text("precious")
        assert run([*split_argv(command, dataset), "--split", "30,20,50",
                    "--out-dir", out]) == 2
        assert "force" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_commands_score_on_one_split(self, dataset, capsys, monkeypatch):
        seen = []

        def spy(texts, graph, split, cfg, **kwargs):
            seen.append((split, cfg))
            return crash_all(texts)
        monkeypatch.setattr(training, "evaluate_batch", spy)
        for command in ("eval", "xeval", "bench"):
            run([*split_argv(command, dataset), "--seed", "4", "--split", "30,20,50"])
        g = graphs.load_dataset(dataset)
        split = graphs.make_split(g.num_nodes, (0.3, 0.2, 0.5), labels=g.labels, seed=4,
                                  stratified=True)
        assert seen == [(split, training.TrainConfig(seed=4))] * 3
