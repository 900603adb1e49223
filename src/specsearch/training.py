"""Model assembly around a compiled mechanism, training, and fitness scoring."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import multiprocessing as mp
import os
import resource
import sys
import time
from collections import namedtuple
from multiprocessing import connection
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import dsl
from .errors import (CompileError, DslSyntaxError, NumericalError, ShapeMismatch,
                     UndeclaredIdentifier)

# CPUs this process may run on when the module is imported: the default
# number of scoring workers.
USABLE_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)

# glibc's `mallopt` parameters (malloc.h) and the values a scoring worker sets:
# the largest mmap threshold glibc accepts on 64-bit, and a trim threshold past
# any heap a worker reaches.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
WORKER_MMAP_THRESHOLD = 32 * 2**20
WORKER_TRIM_THRESHOLD = 2**30

# Bytes of physical memory: no program whose live arrays exceed it is trained.
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

# The longest timeout, in seconds, that `connection.wait` can poll: 2**31 - 1 ms.
TIMEOUT_MAX = 2147483

# `ru_maxrss` is in KiB on Linux and in bytes on macOS.
_MAXRSS_PER_MIB = 2**20 if sys.platform == "darwin" else 2**10


@dataclass
class TrainConfig:
    max_epochs: int = 200
    patience: int = 50
    lr: float = 0.01
    weight_decay: float = 5e-4
    dropout: float = 0.5
    hidden: int = 64
    seed: int = 0
    timeout_seconds: float = 600.0
    float64: bool = False

    def __post_init__(self):
        if self.max_epochs < 1 or self.patience < 1 or self.hidden < 1:
            raise ValueError("epochs, patience, and hidden must be positive")
        if not 1 <= self.timeout_seconds < math.inf:
            raise ValueError(f"timeout must be in [1, inf) seconds, got {self.timeout_seconds}")
        if self.timeout_seconds > TIMEOUT_MAX:
            raise ValueError(f"timeout must be at most {TIMEOUT_MAX} seconds, "
                             f"got {self.timeout_seconds}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be in [0, inf), got {self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")

    @property
    def dtype(self):
        return np.float64 if self.float64 else np.float32


class ModelAssembly:
    """2-layer MLP feature transform -> mechanism -> linear head (when needed).

    The mechanism is the lowered program `typed`, compiled for `graph`. X_raw is
    the first linear layer's pre-activation output, X_in the MLP output.
    """

    def __init__(self, typed, graph, cfg):
        f, h, c = graph.num_features, cfg.hidden, graph.num_classes
        self.cfg = cfg
        self.mechanism = dsl.compile_program(typed, graph, seed=cfg.seed + 1, dtype=cfg.dtype)
        self.has_head = self.mechanism.out_shape[1] != c
        table = [("mlp.W1", (f, h), "glorot"), ("mlp.b1", (1, h), ("const", 0)),
                 ("mlp.W2", (h, h), "glorot"), ("mlp.b2", (1, h), ("const", 0))]
        if self.has_head:
            table += [("head.W", (h, c), "glorot"), ("head.b", (1, c), ("const", 0))]
        rng = np.random.default_rng((cfg.seed, 0))
        self.params = {name: ad.Tensor(ad.init_array(init, shape, rng, cfg.dtype),
                                       requires_grad=True)
                       for name, shape, init in table}
        self.params.update((f"mech.{k}", t) for k, t in self.mechanism.params.items())
        self._x = ad.Tensor(graph.features.astype(cfg.dtype))

    def forward(self, training=False, epoch=0):
        cfg = self.cfg
        x = self._x
        if training:
            x = ad.dropout(x, cfg.dropout, np.random.default_rng((cfg.seed, 0, epoch)))
        x_raw = ad.add(ad.matmul(x, self.params["mlp.W1"]), self.params["mlp.b1"])
        a = ad.relu(x_raw)
        if training:
            a = ad.dropout(a, cfg.dropout, np.random.default_rng((cfg.seed, 1, epoch)))
        x_in = ad.add(ad.matmul(a, self.params["mlp.W2"]), self.params["mlp.b2"])
        z = self.mechanism(x_in, x_raw)
        if self.has_head:
            z = ad.add(ad.matmul(z, self.params["head.W"]), self.params["head.b"])
        return z

    def snapshot(self):
        return {k: t.data.copy() for k, t in self.params.items()}

    def restore(self, snap):
        # No second copy: `step_adam` replaces `t.data`, never writes into it.
        for k, t in self.params.items():
            t.data = snap[k]


def lower(program_text, graph, cfg):
    """The front end: parse a program and lower it for this graph and config.

    A program that cannot fit in physical memory raises MemoryError, so it
    starts no worker. The measure is a lower bound on what a forward pass keeps
    live: every parameter and every op's output, in the config's dtype
    (`CompiledMechanism.forward` holds each slot until it returns).
    """
    dims = {"n": graph.num_nodes, "f": graph.num_features,
            "h": cfg.hidden, "c": graph.num_classes}
    typed = dsl.check_shapes(dsl.parse(program_text), dims)
    elements = (sum(math.prod(shape) for _, _, shape, _ in typed.params)
                + sum(math.prod(op.shape) for op in typed.ops))
    need = elements * np.dtype(cfg.dtype).itemsize
    if need > PHYSICAL_MEMORY:
        raise MemoryError(f"the program keeps at least {need / 2**30:.1f} GiB live, "
                          f"past the {PHYSICAL_MEMORY / 2**30:.1f} GiB of physical memory")
    return typed


def build_assembly(program_text, graph, cfg):
    """parse -> lower -> materialise, wrapped in the standard assembly."""
    return ModelAssembly(lower(program_text, graph, cfg), graph, cfg)


def evaluate(assembly, graph, index_set):
    """Plain accuracy of argmax predictions over the given node indices."""
    idx = np.asarray(list(index_set), dtype=np.int64)
    if idx.size == 0:
        raise ValueError("index set must be non-empty")
    pred = np.argmax(assembly.forward().data, axis=1)
    return float(np.mean(pred[idx] == graph.labels[idx]))


@dataclass
class TrainMetrics:
    epochs_run: int = 0
    train_losses: list = field(default_factory=list)
    val_accuracies: list = field(default_factory=list)
    best_val_acc: float = 0.0
    best_epoch: int = 0


def train(assembly, graph, split, cfg):
    """Adam training with a hard epoch cap and patience on validation accuracy.

    Restores the best-validation checkpoint before returning.
    """
    state = ad.AdamState()
    metrics = TrainMetrics()
    best_snap = None            # epoch 1 always takes the first snapshot
    train_idx = np.asarray(split.train, dtype=np.int64)
    for epoch in range(1, cfg.max_epochs + 1):
        logits = assembly.forward(training=True, epoch=epoch)
        loss = ad.cross_entropy_with_logits(logits, graph.labels, train_idx)
        ad.backward(loss)
        ad.step_adam(assembly.params, state, lr=cfg.lr, weight_decay=cfg.weight_decay)
        metrics.train_losses.append(float(loss.data[0, 0]))
        del logits, loss            # free the logits before the validation forward
        val_acc = evaluate(assembly, graph, split.val)
        metrics.epochs_run = epoch
        metrics.val_accuracies.append(val_acc)
        if val_acc > metrics.best_val_acc or epoch == 1:
            metrics.best_val_acc = val_acc
            metrics.best_epoch = epoch
            best_snap = assembly.snapshot()
        elif epoch - metrics.best_epoch >= cfg.patience:
            break
    assembly.restore(best_snap)
    return metrics


@dataclass
class FitResult:
    status: str                 # "ok", or the discard reason: `discard_reason`, timeout or crash
    fitness: float = None       # validation accuracy, only when ok
    test_accuracy: float = None
    epochs_run: int = 0
    best_epoch: int = 0         # the epoch whose checkpoint was restored
    wall_seconds: float = 0.0
    cpu_seconds: float = None   # the worker's user + system time; None without a report
    peak_rss_mb: float = None   # the worker's peak resident set, MiB

    @property
    def ok(self):
        return self.status == "ok"


# A discarded candidate's reason, by the class of the exception that ended it;
# an exception of any other class is "internal".
_DISCARD_REASONS = ((DslSyntaxError, "parse"),
                    ((ShapeMismatch, UndeclaredIdentifier), "shape"),
                    (CompileError, "compile"),
                    (NumericalError, "numeric"),
                    (MemoryError, "memory"))


def discard_reason(exc):
    return next((reason for cls, reason in _DISCARD_REASONS if isinstance(exc, cls)),
                "internal")


def _score_impl(typed, graph, split, cfg):
    """The back end of scoring: materialise, train and evaluate a lowered program."""
    assembly = ModelAssembly(typed, graph, cfg)
    metrics = train(assembly, graph, split, cfg)
    fitness = evaluate(assembly, graph, split.val)
    test_acc = evaluate(assembly, graph, split.test) if split.test else None
    return FitResult("ok", fitness=fitness, test_accuracy=test_acc,
                     epochs_run=metrics.epochs_run, best_epoch=metrics.best_epoch)


BlasThreads = namedtuple("BlasThreads", "get_num_threads set_num_threads")


@functools.cache
def blas_threads():
    """numpy's OpenBLAS `get_num_threads` and `set_num_threads`, or None.

    The symbol names follow numpy's build config: `scipy-openblas` built with
    USE64BITINT exports `scipy_openblas_{get,set}_num_threads64_`, plain
    OpenBLAS `openblas_{get,set}_num_threads`. They are looked up through
    numpy's linalg extension: `dlsym` on its handle also searches the
    libraries it links, so it finds the OpenBLAS numpy loaded. MKL,
    Accelerate, a numpy without `show_config(mode=...)` and any symbol not
    found give None: both entry points or neither.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        prefix = {"scipy-openblas": "scipy_openblas_", "openblas": "openblas_"}[blas["name"]]
        suffix = "64_" if "USE64BITINT" in blas["openblas configuration"] else ""
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get_num_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
        set_num_threads = getattr(lib, f"{prefix}set_num_threads{suffix}")
    except (TypeError, KeyError, OSError, AttributeError):
        return None
    get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
    set_num_threads.argtypes, set_num_threads.restype = [ctypes.c_int], None
    return BlasThreads(get_num_threads, set_num_threads)


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's BLAS at one thread, then restore the count; a hold inside
    another changes nothing.

    A set right after a fork rebuilds OpenBLAS's thread pool, and its helpers
    spin for OpenBLAS's thread timeout; so a caller that scores batch after
    batch holds the pin across all of them, and pays the rebuild once.
    """
    blas = blas_threads()
    before = 1 if blas is None else blas.get_num_threads()
    if before == 1:
        yield
        return
    blas.set_num_threads(1)
    try:
        yield
    finally:
        blas.set_num_threads(before)


@functools.cache
def libc_mallopt():
    """The C library's `mallopt`, or None where it has none (macOS, for one)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def _score_worker(conn, typed, graph, split, cfg):
    # The worker inherits a BLAS count of 1 from `one_blas_thread` and must not
    # call `set_num_threads` itself: OpenBLAS shuts its pool down at fork, and a
    # set in the child rebuilds it with nproc - 1 helpers that spin idle for
    # about 0.1 s, on the cores the other workers train on.
    #
    # Keep freed memory in the heap. Each epoch frees a tape of n x h arrays and
    # builds one of the same sizes; left to itself glibc serves them by mmap or
    # trims the heap top, so every epoch faults its pages in again. The worker
    # exits after one candidate, so the heap it keeps dies with it.
    mallopt = libc_mallopt()
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, WORKER_MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, WORKER_TRIM_THRESHOLD)
    start = time.monotonic()
    try:
        result = _score_impl(typed, graph, split, cfg)
    except Exception as exc:
        result = FitResult(discard_reason(exc))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = replace(result, wall_seconds=time.monotonic() - start,
                     cpu_seconds=usage.ru_utime + usage.ru_stime,
                     peak_rss_mb=usage.ru_maxrss / _MAXRSS_PER_MIB)
    try:
        conn.send(result)
    finally:
        conn.close()


def check_split(split):
    """Raise ValueError for a split no candidate can be scored on: one without
    training nodes, or without validation nodes (fitness is validation accuracy)."""
    if not split.train:
        raise ValueError("no training nodes")
    if not split.val:
        raise ValueError("no validation nodes (a candidate's fitness is its "
                         "validation accuracy)")


def evaluate_batch(texts, graph, split, cfg, pool_size=USABLE_CORES):
    """Score many programs; results come back in submission order.

    The front end (`lower`) runs here: a text it rejects is discarded with its
    `discard_reason` and starts no process. Each lowered program trains in its
    own forked process, `pool_size` at a time; one past cfg.timeout_seconds is
    killed as discarded(timeout), one that exits without a result is
    discarded(crash). A split that `check_split` rejects raises first. While
    workers run, the parent holds `one_blas_thread`, so each worker forks with
    one BLAS thread (the pool runs a worker per core). A lone batch restores the
    parent's count when it ends, however it ends; inside a caller's hold (a
    search, or a command scoring several datasets) it changes nothing.
    """
    check_split(split)
    results = [None] * len(texts)
    jobs = {}                       # index -> lowered program
    for i, text in enumerate(texts):
        start = time.monotonic()
        try:
            jobs[i] = lower(text, graph, cfg)
        except Exception as exc:
            results[i] = FitResult(discard_reason(exc),
                                   wall_seconds=time.monotonic() - start)
    if not jobs:
        return results
    graph.pattern               # built once here, so every forked worker inherits it
    with one_blas_thread():
        _run_batch(jobs, results, graph, split, cfg, pool_size)
    return results


def _stop(proc):
    proc.kill()
    proc.join()


def _run_batch(jobs, results, graph, split, cfg, pool_size):
    """Score `jobs` (index -> lowered program) in forked workers into `results`."""
    ctx = mp.get_context("fork")
    todo = list(jobs.items())
    pending = {}  # idx -> (process, conn, start_time)

    def launch(i, typed):
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_score_worker,
                           args=(child, typed, graph, split, cfg),
                           daemon=True)
        proc.start()
        child.close()
        pending[i] = (proc, parent, time.monotonic())

    try:
        while todo or pending:
            while todo and len(pending) < pool_size:
                launch(*todo.pop(0))
            deadline = min(started for _, _, started in pending.values()) + cfg.timeout_seconds
            connection.wait([w for proc, conn, _ in pending.values()
                             for w in (conn, proc.sentinel)],
                            timeout=max(0.0, deadline - time.monotonic()))
            for i in list(pending):
                proc, conn, started = pending[i]
                elapsed = time.monotonic() - started
                if conn.poll() or not proc.is_alive():
                    try:
                        results[i] = conn.recv()
                    except EOFError:    # the worker exited without sending a result
                        results[i] = FitResult("crash",
                                               wall_seconds=elapsed)
                    proc.join()
                    conn.close()
                    del pending[i]
                elif elapsed >= cfg.timeout_seconds:
                    _stop(proc)
                    conn.close()
                    results[i] = FitResult("timeout",
                                           wall_seconds=elapsed)
                    del pending[i]
    finally:
        # Workers are pending here only if the loop raised: none outlives the batch.
        for proc, conn, _ in pending.values():
            _stop(proc)
            conn.close()
