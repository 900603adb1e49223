"""Model assembly, the training loop, and fitness scoring with timeouts."""

import ctypes
import multiprocessing as mp
import os
import platform
import time
from types import SimpleNamespace

import numpy as np
import pytest

from specsearch import autodiff as ad
from specsearch import dsl, graphs, search, training
from specsearch.dsl.parser import MAX_DEPTH, MAX_TEXT_CHARS
from specsearch.errors import (CompileError, DslSyntaxError, NumericalError, ShapeMismatch,
                               SpecSearchError, UndeclaredIdentifier)

from conftest import NESTING_KINDS, OVERSIZED_PROGRAM, fake_blas, nested_program


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


def score(text, graph, split, cfg):
    """One program through `evaluate_batch`, in one worker."""
    (res,) = training.evaluate_batch([text], graph, split, cfg, pool_size=1)
    return res


def record(res):
    """The log line of a candidate whose scoring gave `res`."""
    return search.Individual(id=0, ideas="", program_text="", origin="seed",
                             generation_born=0, result=res).record()


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

    def test_no_parameter_keeps_a_gradient(self, sep_graph, sep_split):
        cfg = training.TrainConfig(max_epochs=5, patience=5, hidden=8, seed=0)
        asm = training.build_assembly(dsl.builtin("gpr"), sep_graph, cfg)
        training.train(asm, sep_graph, sep_split, cfg)
        assert any(name.startswith("mech.") for name in asm.params)
        assert all(t.grad is None for t in asm.params.values())


class TestTrainConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("dropout", 1.0, "dropout must be in"),
        ("dropout", -0.5, "dropout must be in"),
        ("lr", 0.0, "lr must be positive"),
        ("lr", -0.01, "lr must be positive"),
        ("hidden", 0, "must be positive"),
        ("timeout_seconds", 2147484, "timeout must be at most 2147483 seconds"),
        ("timeout_seconds", 2147483.5, "timeout must be at most 2147483 seconds"),
    ])
    def test_value_no_run_can_use_is_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            training.TrainConfig(**{field: value})

    def test_longest_timeout_is_honoured(self, sep_graph, sep_split):
        # the scoring wait polls in whole milliseconds, which a C int must hold
        cfg = training.TrainConfig(max_epochs=2, patience=2, hidden=8,
                                   timeout_seconds=training.TIMEOUT_MAX)
        [result] = training.evaluate_batch([dsl.builtin("gcn")], sep_graph, sep_split, cfg)
        assert result.ok

    def test_no_dropout_is_accepted(self, sep_graph, sep_split):
        cfg = training.TrainConfig(max_epochs=2, patience=2, hidden=8, dropout=0.0)
        asm = training.build_assembly(dsl.builtin("gcn"), sep_graph, cfg)
        assert training.train(asm, sep_graph, sep_split, cfg).epochs_run == 2


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

    @pytest.mark.parametrize("float64", [False, True])
    @pytest.mark.parametrize("name", dsl.builtin_names())
    def test_param_grads_match_params(self, name, float64, sep_graph, sep_split):
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8, float64=float64)
        asm = training.build_assembly(dsl.builtin(name), sep_graph, cfg)
        logits = asm.forward(training=True, epoch=1)
        ad.backward(ad.cross_entropy_with_logits(logits, sep_graph.labels, sep_split.train))
        for key, t in asm.params.items():
            assert t.grad is not None, key
            assert (t.grad.shape, t.grad.dtype) == (t.shape, t.data.dtype), key


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
        res = score(dsl.builtin("gcn"), g, split, cfg)
        assert res.ok
        assert 0.0 <= res.fitness <= 1.0
        assert res.epochs_run <= cfg.max_epochs
        assert res.cpu_seconds > 0 and res.peak_rss_mb > 1     # the worker's own usage
        rec = record(res)
        assert rec["cpu_seconds"] == round(res.cpu_seconds, 3)
        assert rec["peak_rss_mb"] == round(res.peak_rss_mb, 1)

    def test_record_carries_best_epoch(self, scored_setup):
        g, split, cfg = scored_setup
        res = score(dsl.builtin("gcn"), g, split, cfg)
        asm = training.build_assembly(dsl.builtin("gcn"), g, cfg)
        metrics = training.train(asm, g, split, cfg)
        assert 1 <= res.best_epoch <= res.epochs_run
        assert (res.best_epoch, res.epochs_run) == (metrics.best_epoch, metrics.epochs_run)
        assert record(res)["best_epoch"] == res.best_epoch

    def test_unparseable_text(self, scored_setup):
        g, split, cfg = scored_setup
        res = score("not a program", g, split, cfg)
        assert res.status == "parse"
        assert record(res)["best_epoch"] == record(res)["epochs_run"] == 0
        assert 0 < res.wall_seconds < 1     # the front end's time, in this process
        assert res.cpu_seconds is None and res.peak_rss_mb is None

    def test_shape_failure(self, scored_setup):
        g, split, cfg = scored_setup
        bad = "mechanism m { init { Z = X @ X; } out { Y = Z; } }"
        res = score(bad, g, split, cfg)
        assert res.status == "shape"

    def test_unexpected_exception_is_internal(self, scored_setup, monkeypatch):
        def broken_train(*args, **kwargs):
            raise RuntimeError("engine bug")
        monkeypatch.setattr(training, "train", broken_train)
        g, split, cfg = scored_setup
        res = score(dsl.builtin("gcn"), g, split, cfg)
        assert res.status == "internal"

    def test_allocation_failure_is_memory(self, scored_setup, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError
        monkeypatch.setattr(training, "_score_impl", out_of_memory)
        g, split, cfg = scored_setup
        res = score(dsl.builtin("gcn"), g, split, cfg)
        assert res.status == "memory"

    def test_worker_exit_without_result_is_crash(self, scored_setup, monkeypatch):
        monkeypatch.setattr(training, "_score_impl", lambda *args: os._exit(3))
        g, split, cfg = scored_setup
        res = score(dsl.builtin("gcn"), g, split, cfg)
        assert res.status == "crash"
        assert res.cpu_seconds is None and res.peak_rss_mb is None


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
        # a hostile dimension fails in the front end, so nothing of its size is allocated
        ("matrix(h, h)", "matrix(99999999999999999999, h)", "parse"),
        ("matrix(h, h)", "matrix(h, 65537)", "parse"),
        # a zero dimension too: glorot divides by zero, and a max over a zero-size axis raises
        ("[K] = glorot;", "[K] = glorot; V: matrix(0, 0) = glorot;", "parse"),
        ("glorot; }\n  graph { A = sym_norm(c=1); }\n  init { Z = X; }",
         "glorot; V: matrix(h, 0) = glorot; }\n  graph { A = sym_norm(c=1); }\n"
         "  init { Z = X + sum_rows(softmax_rows(X @ V)); }", "parse"),
    ])
    def test_malformed_program_label(self, scored_setup, old, new, reason):
        text = LABEL_PROGRAM.replace(old, new)
        assert text != LABEL_PROGRAM
        g, split, cfg = scored_setup
        res = score(text, g, split, cfg)
        assert res.status == reason

    def test_deep_nesting_is_parse(self, scored_setup):
        g, split, cfg = scored_setup
        text = nested_program("brackets", 1000)
        res = score(text, g, split, cfg)
        assert res.status == "parse"

    @pytest.mark.parametrize("kind", NESTING_KINDS)
    def test_nesting_at_cap_scores(self, scored_setup, kind):
        g, split, cfg = scored_setup
        res = score(nested_program(kind, MAX_DEPTH), g, split, cfg)
        assert res.ok

    def test_timeout_discard(self):
        g = graphs.gen_synthetic(200, 3, 0.8, 8.0, 10, 1.0, seed=1)
        split = graphs.make_split(200, (0.2, 0.2, 0.6), labels=g.labels, seed=0)
        cfg = training.TrainConfig(max_epochs=200, hidden=16, seed=0,
                                   timeout_seconds=1)
        res = score(OVERSIZED_PROGRAM, g, split, cfg)
        assert res.status == "timeout"
        assert res.wall_seconds < 6.0   # killed at the timeout
        assert record(res)["cpu_seconds"] is None and record(res)["peak_rss_mb"] is None

    def test_batch_preserves_order_and_isolation(self):
        g = graphs.gen_synthetic(120, 3, 0.8, 6.0, 8, 1.0, seed=2)
        split = graphs.make_split(120, (0.2, 0.2, 0.6), labels=g.labels, seed=0)
        cfg = training.TrainConfig(max_epochs=10, patience=10, hidden=8, seed=0,
                                   timeout_seconds=30)
        texts = ["garbage", dsl.builtin("gcn"), dsl.builtin("appnp")]
        results = training.evaluate_batch(texts, g, split, cfg, pool_size=3)
        assert results[0].status == "parse"
        assert results[1].ok and results[2].ok

    def test_batch_deterministic_fitness(self):
        g = graphs.gen_synthetic(120, 3, 0.8, 6.0, 8, 1.0, seed=2)
        split = graphs.make_split(120, (0.2, 0.2, 0.6), labels=g.labels, seed=0)
        cfg = training.TrainConfig(max_epochs=10, patience=10, hidden=8, seed=0)
        text = dsl.builtin("gpr")
        a = training.evaluate_batch([text, text], g, split, cfg, pool_size=2)
        b = score(text, g, split, cfg)
        assert a[0].fitness == a[1].fitness == b.fitness


class TestFrontEnd:
    @pytest.mark.parametrize("text, reason", [
        ("not a program", "parse"),
        (LABEL_PROGRAM.replace("[K]", "[1000000000]"), "parse"),
        ("mechanism m { init { Z = X @ X; } out { Y = Z; } }", "shape"),
        ("mechanism m { init { Z = Q; } out { Y = Z; } }", "shape"),
        (LABEL_PROGRAM.replace("W[k]", "W[3]"), "compile"),
        (LABEL_PROGRAM.replace("Y = Z;", "Y = Z * pow(10, 400);"), "numeric"),
        pytest.param((LABEL_PROGRAM + "#").ljust(MAX_TEXT_CHARS + 1, "x"), "parse",
                     id="past-text-cap-parse"),
        pytest.param(nested_program("brackets", MAX_DEPTH + 1), "parse",
                     id="past-depth-cap-parse"),
    ])
    def test_discard_starts_no_process(self, sep_graph, sep_split, monkeypatch, text,
                                       reason):
        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")
        monkeypatch.setattr(mp.get_context("fork"), "Process", no_process)
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8)
        results = training.evaluate_batch([text, text], sep_graph, sep_split, cfg,
                                          pool_size=2)
        for res in results:
            assert res.status == reason
            assert 0 < res.wall_seconds < 1
            assert res.cpu_seconds is None and res.peak_rss_mb is None

    @pytest.mark.parametrize("float64", [False, True])
    def test_memory_bound_counts_parameters_and_op_outputs(self, sep_graph, float64,
                                                           monkeypatch):
        cfg = training.TrainConfig(hidden=8, float64=float64)
        typed = training.lower(LABEL_PROGRAM, sep_graph, cfg)
        n = sep_graph.num_nodes
        # W[1], W[2] (8 x 8); spmm and @ per step, each n x 8
        need = (2 * 8 * 8 + 4 * n * 8) * (8 if float64 else 4)
        monkeypatch.setattr(training, "PHYSICAL_MEMORY", need)
        assert training.lower(LABEL_PROGRAM, sep_graph, cfg).ops == typed.ops
        monkeypatch.setattr(training, "PHYSICAL_MEMORY", need - 1)
        with pytest.raises(MemoryError, match="physical memory"):
            training.lower(LABEL_PROGRAM, sep_graph, cfg)

    @pytest.mark.parametrize("text", [
        dsl.builtin("gcn"),
        "mechanism m { params { V: matrix(65536, 65536) = glorot; } "
        "init { Z = X; } out { Y = Z; } }",
    ])
    def test_program_past_physical_memory_starts_no_process(self, sep_graph, sep_split,
                                                            monkeypatch, text):
        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")
        monkeypatch.setattr(mp.get_context("fork"), "Process", no_process)
        monkeypatch.setattr(training, "PHYSICAL_MEMORY", 2**10)
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8)
        results = training.evaluate_batch([text, text], sep_graph, sep_split, cfg,
                                          pool_size=2)
        assert [r.status for r in results] == ["memory", "memory"]

    def test_only_lowered_programs_reach_the_worker(self, sep_graph, sep_split, monkeypatch):
        monkeypatch.setattr(training, "_score_impl",
                            lambda typed, *args: training.FitResult("ok", fitness=len(typed.ops)))
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8)
        texts = ["garbage", dsl.builtin("gcn"), "garbage", dsl.builtin("appnp")]
        res = training.evaluate_batch(texts, sep_graph, sep_split, cfg, pool_size=2)
        assert [r.status for r in res] == ["parse", "ok", "parse", "ok"]
        assert [r.fitness for r in res[1::2]] == [
            len(training.lower(t, sep_graph, cfg).ops) for t in texts[1::2]]

    def test_workers_inherit_the_graph_pattern(self, sep_graph, sep_split, monkeypatch):
        monkeypatch.setattr(training, "_score_impl", lambda typed, graph, *args:
                            training.FitResult("ok", fitness="pattern" in vars(graph)))
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8)
        graph = graphs.Graph(sep_graph.num_nodes, sep_graph.num_classes, sep_graph.edges,
                             sep_graph.features, sep_graph.labels)
        res = training.evaluate_batch([dsl.builtin("gcn")] * 2, graph, sep_split, cfg,
                                      pool_size=2)
        assert [r.fitness for r in res] == [True, True]

    @pytest.mark.parametrize("exc, reason", [
        (DslSyntaxError("x"), "parse"), (ShapeMismatch("x"), "shape"),
        (UndeclaredIdentifier("x"), "shape"), (CompileError("x"), "compile"),
        (NumericalError("x"), "numeric"), (SpecSearchError("x"), "internal"),
        (RuntimeError("x"), "internal"), (MemoryError(), "memory"),
    ])
    def test_reason_comes_from_the_exception_class(self, exc, reason):
        assert training.discard_reason(exc) == reason


class TestInterrupt:
    def test_no_worker_outlives_an_interrupted_batch(self, sep_graph, sep_split,
                                                     monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(training, "_score_impl", _sleep_past_timeout)
        monkeypatch.setattr(training, "connection", SimpleNamespace(wait=interrupted))
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8, timeout_seconds=1)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            training.evaluate_batch([dsl.builtin("gcn")] * 2, sep_graph, sep_split, cfg,
                                    pool_size=2)
        assert mp.active_children() == []
        assert time.monotonic() - start < 10


class TestEmptyValidation:
    """A split with no validation or no training nodes is rejected before any fork."""

    @pytest.mark.parametrize("ratios, stratified", [((0.5, 0.0, 0.5), False),
                                                    ((0.5, 0.0, 0.5), True),
                                                    ((0.5, 0.04, 0.46), True),
                                                    ((0.0, 0.5, 0.5), False)])
    def test_batch_rejected_before_any_fork(self, monkeypatch, ratios, stratified):
        g = graphs.gen_synthetic(60, 3, 0.8, 6.0, 8, 1.0, seed=7)     # 20 nodes per class
        split = graphs.make_split(60, ratios, labels=g.labels, seed=0, stratified=stratified)
        assert not (split.train and split.val)
        message = "no validation nodes" if split.train else "no training nodes"

        def no_fork(*args):
            raise AssertionError("forked")
        monkeypatch.setattr(training.mp, "get_context", no_fork)
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8)
        with pytest.raises(ValueError, match=message):
            training.evaluate_batch([dsl.builtin("gcn")], g, split, cfg)


class TestKeepFreedHeap:
    def test_worker_sets_allocator_before_scoring(self, sep_graph, sep_split, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "libc_mallopt", lambda: lambda *args: calls.append(args))
        monkeypatch.setattr(training, "_score_impl",
                            lambda *args: training.FitResult("ok", fitness=list(calls)))
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8)
        res = training.evaluate_batch([dsl.builtin("gcn")], sep_graph, sep_split, cfg, pool_size=1)
        assert res[0].fitness == [(training.M_MMAP_THRESHOLD, 32 * 2**20),
                                  (training.M_TRIM_THRESHOLD, 2**30)]
        assert calls == []             # only the worker's allocator is changed

    def test_scores_when_nothing_resolves(self, sep_graph, sep_split, monkeypatch):
        monkeypatch.setattr(training, "libc_mallopt", lambda: None)
        cfg = training.TrainConfig(max_epochs=5, patience=5, hidden=8)
        res = score(dsl.builtin("gcn"), sep_graph, sep_split, cfg)
        assert res.ok and res.cpu_seconds > 0

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
    def test_resolver_finds_glibc_mallopt(self):
        assert training.libc_mallopt.__wrapped__() is not None

    def test_resolver_finds_nothing_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert training.libc_mallopt.__wrapped__() is None


def _thread_count():
    return len(os.listdir("/proc/self/task"))


def _sleep_past_timeout(*args):
    time.sleep(30)


def _raise(*args):
    raise RuntimeError("engine bug")


class TestBlasPin:
    @pytest.fixture
    def blas(self):
        """numpy's OpenBLAS entry points, with the parent at 2 threads while the test runs."""
        blas = training.blas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS has no get/set_num_threads entry points")
        before = blas.get_num_threads()
        blas.set_num_threads(2)     # a count the batch must lower and then restore
        yield blas
        blas.set_num_threads(before)

    def test_worker_runs_one_blas_thread(self, blas, sep_graph, sep_split, monkeypatch):
        monkeypatch.setattr(training, "_score_impl",
                            lambda *args: training.FitResult("ok", fitness=blas.get_num_threads()))
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8)
        res = training.evaluate_batch([dsl.builtin("gcn")], sep_graph, sep_split, cfg, pool_size=1)
        assert res[0].fitness == 1
        assert blas.get_num_threads() == 2      # the parent's count is restored

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    @pytest.mark.skipif(training.USABLE_CORES == 1, reason="OpenBLAS starts no helper")
    def test_worker_starts_with_no_blas_helper(self, blas, sep_graph, sep_split,
                                               monkeypatch):
        monkeypatch.setattr(training, "_score_impl",
                            lambda *args: training.FitResult("ok", fitness=_thread_count()))
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8)
        res = training.evaluate_batch([dsl.builtin("gcn")] * 2, sep_graph, sep_split, cfg, pool_size=2)
        assert [r.fitness for r in res] == [1, 1]

    @pytest.mark.parametrize("score, reason", [(_sleep_past_timeout, "timeout"),
                                               (_raise, "internal"),
                                               (lambda *args: os._exit(3), "crash")])
    def test_parent_count_restored_after_failed_worker(self, blas, sep_graph, sep_split,
                                                       monkeypatch, score, reason):
        monkeypatch.setattr(training, "_score_impl", score)
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8, timeout_seconds=1)
        res = training.evaluate_batch([dsl.builtin("gcn")], sep_graph, sep_split, cfg, pool_size=1)
        assert res[0].status == reason
        assert blas.get_num_threads() == 2

    def test_parent_count_restored_when_batch_raises(self, blas, sep_graph, sep_split,
                                                     monkeypatch):
        seen = []

        def wait(*args, **kwargs):
            seen.append(blas.get_num_threads())
            raise RuntimeError("interrupted")
        monkeypatch.setattr(training.connection, "wait", wait)
        monkeypatch.setattr(training, "_score_impl", lambda *args: training.FitResult("ok"))
        cfg = training.TrainConfig(max_epochs=1, patience=1, hidden=8)
        with pytest.raises(RuntimeError, match="interrupted"):
            training.evaluate_batch([dsl.builtin("gcn")], sep_graph, sep_split, cfg, pool_size=1)
        assert seen == [1] and blas.get_num_threads() == 2

    def test_nested_hold_changes_nothing(self, monkeypatch):
        calls = fake_blas(monkeypatch, 2)
        with training.one_blas_thread():
            with training.one_blas_thread():
                assert calls == [1]
            assert calls == [1]
        assert calls == [1, 2]

    def test_hold_at_one_thread_sets_nothing(self, monkeypatch):
        calls = fake_blas(monkeypatch, 1)
        with training.one_blas_thread():
            pass
        assert calls == []

    def test_scores_when_nothing_resolves(self, sep_graph, sep_split, monkeypatch):
        monkeypatch.setattr(training, "blas_threads", lambda: None)
        cfg = training.TrainConfig(max_epochs=5, patience=5, hidden=8)
        res = score(dsl.builtin("gcn"), sep_graph, sep_split, cfg)
        assert res.ok

    @pytest.mark.parametrize("missing", ["get_num_threads", "set_num_threads"])
    def test_resolver_needs_both_entry_points(self, blas, monkeypatch, missing):
        present = {fn.__name__: fn for name, fn in blas._asdict().items() if name != missing}
        monkeypatch.setattr(ctypes, "CDLL", lambda path: SimpleNamespace(**present))
        assert training.blas_threads.__wrapped__() is None

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
        assert training.blas_threads.__wrapped__() is None

    def test_resolver_finds_numpys_openblas(self):
        try:
            name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except (TypeError, KeyError):
            pytest.skip("numpy's build config names no BLAS")
        if name not in ("openblas", "scipy-openblas"):
            pytest.skip(f"numpy's BLAS is {name}")
        assert training.blas_threads.__wrapped__() is not None

    def test_resolver_finds_nothing_on_old_numpy(self, monkeypatch):
        monkeypatch.setattr(np, "show_config", lambda: None)   # no `mode` argument
        assert training.blas_threads.__wrapped__() is None

    def test_default_pool_size_is_usable_cores(self):
        assert training.USABLE_CORES == len(os.sched_getaffinity(0))
