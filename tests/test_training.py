"""Model assembly, the training loop, and fitness scoring with timeouts."""

import ctypes
import os
from pathlib import Path

import numpy as np
import pytest

from specsearch import autodiff as ad
from specsearch import dsl, graphs, training
from specsearch.dsl.parser import MAX_DEPTH

from conftest import NESTING_KINDS, OVERSIZED_PROGRAM, nested_program


LABEL_PROGRAM = """
mechanism m {
  consts { K = 2; }
  params { W: matrix(h, h)[K] = glorot; }
  graph { A = sym_norm(c=1); }
  init { Z = X; }
  step { Z = spmm(A, Z) @ W[k]; }
  out { Y = Z; }
}
"""


def one_hot_graph(n=60, c=3, seed=0):
    """Linearly separable toy: features are the one-hot of the label."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % c
    rng.shuffle(labels)
    feats = np.eye(c)[labels] + 0.01 * rng.standard_normal((n, c))
    by_class = [np.flatnonzero(labels == k) for k in range(c)]
    edges = []
    for idx in by_class:
        edges.extend(zip(idx[:-1], idx[1:]))
    return graphs.Graph(n, c, edges, feats, labels, name="onehot")


@pytest.fixture
def sep_graph():
    return one_hot_graph()


@pytest.fixture
def sep_split(sep_graph):
    return graphs.make_split(sep_graph.num_nodes, (0.4, 0.2, 0.4),
                             labels=sep_graph.labels, seed=0, stratified=True)


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self, sep_graph, sep_split):
        cfg = training.TrainConfig(max_epochs=200, hidden=16, seed=0)
        asm = training.build_assembly(dsl.builtin("gcn"), sep_graph, cfg)
        training.train(asm, sep_graph, sep_split, cfg)
        assert training.evaluate(asm, sep_graph, sep_split.train) == 1.0
        assert training.evaluate(asm, sep_graph, sep_split.test) == 1.0

    def test_same_seed_same_losses(self, sep_graph, sep_split):
        def run():
            cfg = training.TrainConfig(max_epochs=15, hidden=8, seed=3)
            asm = training.build_assembly(dsl.builtin("appnp"), sep_graph, cfg)
            return training.train(asm, sep_graph, sep_split, cfg).train_losses
        assert run() == run()

    def test_epoch_cap(self, sep_graph, sep_split):
        cfg = training.TrainConfig(max_epochs=200, patience=200, hidden=8, seed=0)
        asm = training.build_assembly(dsl.builtin("gcn"), sep_graph, cfg)
        metrics = training.train(asm, sep_graph, sep_split, cfg)
        assert metrics.epochs_run <= 200

    def test_patience_stops_early(self, sep_graph, sep_split):
        cfg = training.TrainConfig(max_epochs=200, patience=5, hidden=8, seed=0)
        asm = training.build_assembly(dsl.builtin("gcn"), sep_graph, cfg)
        metrics = training.train(asm, sep_graph, sep_split, cfg)
        assert metrics.epochs_run < 200

    def test_restores_best_checkpoint(self, sep_graph, sep_split):
        cfg = training.TrainConfig(max_epochs=40, patience=40, hidden=8, seed=1)
        asm = training.build_assembly(dsl.builtin("gcn"), sep_graph, cfg)
        metrics = training.train(asm, sep_graph, sep_split, cfg)
        restored_acc = training.evaluate(asm, sep_graph, sep_split.val)
        assert restored_acc == max(metrics.val_accuracies)
        assert restored_acc == metrics.best_val_acc


class TestDtype:
    @pytest.mark.parametrize("float64", [False, True])
    @pytest.mark.parametrize("name", dsl.builtin_names())
    def test_one_train_step_computes_in_config_dtype(self, name, float64, sep_graph,
                                                     sep_split, monkeypatch):
        dtypes = set()
        init = ad.Tensor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            dtypes.add(self.data.dtype)
        monkeypatch.setattr(ad.Tensor, "__init__", recording_init)
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8, float64=float64)
        asm = training.build_assembly(dsl.builtin(name), sep_graph, cfg)
        assert asm.forward().data.dtype == cfg.dtype
        training.train(asm, sep_graph, sep_split, cfg)
        assert dtypes == {np.dtype(cfg.dtype)}
        assert {t.data.dtype for t in asm.params.values()} == {np.dtype(cfg.dtype)}


class TestEvaluate:
    def test_untrained_on_random_labels_near_chance(self):
        g = graphs.gen_synthetic(1000, 5, 0.5, 4.0, 8, 0.0, seed=0)
        cfg = training.TrainConfig(hidden=16, seed=0)
        accs = []
        for seed in range(8):
            cfg = training.TrainConfig(hidden=16, seed=seed)
            asm = training.build_assembly(dsl.builtin("gcn"), g, cfg)
            accs.append(training.evaluate(asm, g, range(1000)))
        assert abs(np.mean(accs) - 0.2) < 0.05

    def test_perfect_predictions(self, sep_graph, sep_split):
        cfg = training.TrainConfig(max_epochs=200, hidden=16, seed=0)
        asm = training.build_assembly(dsl.builtin("gcn"), sep_graph, cfg)
        training.train(asm, sep_graph, sep_split, cfg)
        assert training.evaluate(asm, sep_graph, range(sep_graph.num_nodes)) == 1.0

    def test_single_node_set(self, sep_graph):
        cfg = training.TrainConfig(hidden=8, seed=0)
        asm = training.build_assembly(dsl.builtin("gcn"), sep_graph, cfg)
        assert training.evaluate(asm, sep_graph, [0]) in (0.0, 1.0)

    def test_empty_set_rejected(self, sep_graph):
        cfg = training.TrainConfig(hidden=8, seed=0)
        asm = training.build_assembly(dsl.builtin("gcn"), sep_graph, cfg)
        with pytest.raises(ValueError):
            training.evaluate(asm, sep_graph, [])


class TestScoring:
    @pytest.fixture
    def scored_setup(self, sep_graph, sep_split):
        cfg = training.TrainConfig(max_epochs=20, patience=20, hidden=8, seed=0)
        return sep_graph, sep_split, cfg

    def test_valid_program_ok(self, scored_setup):
        g, split, cfg = scored_setup
        res = training.score_individual(dsl.builtin("gcn"), g, split, cfg)
        assert res.ok
        assert 0.0 <= res.fitness <= 1.0
        assert res.epochs_run <= cfg.max_epochs

    def test_unparseable_text(self, scored_setup):
        g, split, cfg = scored_setup
        res = training.score_individual("not a program", g, split, cfg)
        assert res.status == "discarded" and res.reason == "parse"

    def test_shape_failure(self, scored_setup):
        g, split, cfg = scored_setup
        bad = "mechanism m { init { Z = X @ X; } out { Y = Z; } }"
        res = training.score_individual(bad, g, split, cfg)
        assert res.reason == "shape"

    def test_unexpected_exception_is_internal(self, scored_setup, monkeypatch):
        def broken_train(*args, **kwargs):
            raise RuntimeError("engine bug")
        monkeypatch.setattr(training, "train", broken_train)
        g, split, cfg = scored_setup
        res = training.score_individual(dsl.builtin("gcn"), g, split, cfg)
        assert res.status == "discarded" and res.reason == "internal"

    def test_worker_exit_without_result_is_crash(self, scored_setup, monkeypatch):
        monkeypatch.setattr(training, "_score_impl", lambda *args: os._exit(3))
        g, split, cfg = scored_setup
        res = training.score_individual(dsl.builtin("gcn"), g, split, cfg)
        assert res.status == "discarded" and res.reason == "crash"

    @pytest.mark.parametrize("old, new, reason", [
        ("W[k]", "W[k + 1]", "compile"),          # W[3] of a 2-long array
        ("W[k]", "W[k / 2 + 0.5]", "compile"),    # W[1.5] at k = 2
        ("Y = Z;", "Y = Z * (2 @ 3);", "shape"),
        ("Y = Z;", "Y = Z * pow(0 - 2, 0.5);", "numeric"),
        ("Y = Z;", "Y = Z * pow(10, 400);", "numeric"),
        ("Y = Z;", "Y = Z * 1e400;", "parse"),
        ("c=1", "c=-1", "parse"),
        ("K = 2", "K = 1e400", "parse"),
        ("matrix(h, h)", "matrix(h, 1e3)", "parse"),
        ("W[k]", "W[relu(k)]", "shape"),          # relu of a scalar is a 1x1 tensor
        ("W[k]", "W[3]", "compile"),              # literal indices resolve in the compiler too
        ("W[k]", "W[0]", "compile"),
        ("W[k]", "W[1.5]", "compile"),
    ])
    def test_malformed_program_label(self, scored_setup, old, new, reason):
        text = LABEL_PROGRAM.replace(old, new)
        assert text != LABEL_PROGRAM
        g, split, cfg = scored_setup
        res = training.score_individual(text, g, split, cfg)
        assert res.status == "discarded" and res.reason == reason

    def test_deep_nesting_is_parse(self, scored_setup):
        g, split, cfg = scored_setup
        text = nested_program("brackets", 1000)
        res = training.score_individual(text, g, split, cfg)
        assert res.status == "discarded" and res.reason == "parse"

    @pytest.mark.parametrize("kind", NESTING_KINDS)
    def test_nesting_at_cap_scores(self, scored_setup, kind):
        g, split, cfg = scored_setup
        res = training.score_individual(nested_program(kind, MAX_DEPTH), g, split, cfg)
        assert res.ok

    def test_timeout_discard(self):
        g = graphs.gen_synthetic(200, 3, 0.8, 8.0, 10, 1.0, seed=1)
        split = graphs.make_split(200, (0.2, 0.2, 0.6), labels=g.labels, seed=0)
        cfg = training.TrainConfig(max_epochs=200, hidden=16, seed=0,
                                   timeout_seconds=1)
        res = training.score_individual(OVERSIZED_PROGRAM, g, split, cfg)
        assert res.reason == "timeout"
        assert res.wall_seconds < 6.0   # terminated within the grace window

    def test_batch_preserves_order_and_isolation(self):
        g = graphs.gen_synthetic(120, 3, 0.8, 6.0, 8, 1.0, seed=2)
        split = graphs.make_split(120, (0.2, 0.2, 0.6), labels=g.labels, seed=0)
        cfg = training.TrainConfig(max_epochs=10, patience=10, hidden=8, seed=0,
                                   timeout_seconds=30)
        texts = ["garbage", dsl.builtin("gcn"), dsl.builtin("appnp")]
        results = training.evaluate_batch(texts, g, split, cfg, pool_size=3)
        assert results[0].reason == "parse"
        assert results[1].ok and results[2].ok

    def test_batch_deterministic_fitness(self):
        g = graphs.gen_synthetic(120, 3, 0.8, 6.0, 8, 1.0, seed=2)
        split = graphs.make_split(120, (0.2, 0.2, 0.6), labels=g.labels, seed=0)
        cfg = training.TrainConfig(max_epochs=10, patience=10, hidden=8, seed=0)
        text = dsl.builtin("gpr")
        a = training.evaluate_batch([text, text], g, split, cfg, pool_size=2)
        b = training.score_individual(text, g, split, cfg)
        assert a[0].fitness == a[1].fitness == b.fitness


def _blas_getter(setter):
    """The `get_num_threads` partner of the resolved setter, from numpy's wheel."""
    name = setter.__name__.replace("set_num_threads", "get_num_threads")
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        return getattr(ctypes.CDLL(str(path)), name)
    pytest.skip("numpy's OpenBLAS is not bundled in numpy.libs")


class TestBlasPin:
    def test_worker_runs_one_blas_thread(self, sep_graph, sep_split, monkeypatch):
        setter = training.blas_set_num_threads()
        if setter is None:
            pytest.skip("numpy's BLAS has no set_num_threads entry point")
        getter = _blas_getter(setter)
        before = getter()
        monkeypatch.setattr(training, "_score_impl",
                            lambda *args: training.FitResult("ok", fitness=getter()))
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8)
        res = training.evaluate_batch(["unused"], sep_graph, sep_split, cfg, pool_size=1)
        assert res[0].fitness == 1
        assert getter() == before      # only the worker is pinned

    def test_scores_when_nothing_resolves(self, sep_graph, sep_split, monkeypatch):
        monkeypatch.setattr(training, "blas_set_num_threads", lambda: None)
        cfg = training.TrainConfig(max_epochs=5, patience=5, hidden=8)
        res = training.score_individual(dsl.builtin("gcn"), sep_graph, sep_split, cfg)
        assert res.ok

    @pytest.mark.parametrize("config", [
        {"Build Dependencies": {"blas": {"name": "mkl-sdl"}}},
        {"Build Dependencies": {"blas": {"name": "accelerate"}}},
        {"Build Dependencies": {}},
        {"Build Dependencies": {"blas": {"name": "openblas", "openblas configuration": "",
                                         "lib directory": None}}},
        None,
    ])
    def test_resolver_finds_nothing_without_openblas(self, monkeypatch, config):
        monkeypatch.setattr(np, "show_config", lambda mode: config)
        assert training.blas_set_num_threads.__wrapped__() is None

    def test_resolver_finds_nothing_on_old_numpy(self, monkeypatch):
        monkeypatch.setattr(np, "show_config", lambda: None)   # no `mode` argument
        assert training.blas_set_num_threads.__wrapped__() is None

    def test_default_pool_size_is_usable_cores(self):
        assert training.USABLE_CORES == len(os.sched_getaffinity(0))
