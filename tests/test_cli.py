"""Command-line interface: subcommands, exit codes, and artifacts."""

import json
import os

import pytest

from specsearch import cli, dsl, graphs, training

from conftest import full_replay_records, make_replay_file


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
    g.splits = graphs.Split.unchecked(range(20), (), range(20, 40))
    path = tmp_path / "noval.json"
    graphs.save_dataset(g, path)
    return path


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
    ])
    def test_bad_split_values(self, dataset, capsys, split, message):
        assert run(["eval", "--dataset", dataset, "--mechanism", "gcn",
                    "--split", split]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err

    @pytest.mark.parametrize("split", ["0.5,0,0.5", "from-file"])
    def test_split_without_validation_is_usage_error(self, no_val_dataset, capsys, split):
        assert run(["eval", "--dataset", no_val_dataset, "--mechanism", "gcn",
                    "--split", split]) == 1
        assert capsys.readouterr().err.startswith("usage error: split: no validation nodes")

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


class TestXeval:
    def test_matrix_csv(self, dataset, tmp_path, capsys):
        g2 = graphs.gen_synthetic(70, 3, 0.2, 6.0, 8, 1.0, seed=12)
        d2 = tmp_path / "hetero.json"
        graphs.save_dataset(g2, d2)
        code = run(["xeval", "--datasets", f"{dataset},{d2}",
                    "--mechanisms", "gcn,fagcn-lite", "--split", "30,20,50"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mechanism,data,hetero"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 3
            for cell in cells[1:]:
                assert 0.0 <= float(cell) <= 1.0


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
        ({"pool": 2}, "unexpected keyword argument 'pool'"),
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

    def test_bad_train_config_is_usage_error(self, dataset, tmp_path, capsys):
        replay = make_replay_file(tmp_path, full_replay_records(1))
        cfg = self.write_config(tmp_path, dataset, replay)
        assert run(["search", "--config", cfg, "--out-dir", tmp_path / "run",
                    "--timeout-secs", "0"]) == 1
        assert capsys.readouterr().err.startswith("usage error: timeout")

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
