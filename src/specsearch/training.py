"""Model assembly around a compiled mechanism, training, and fitness scoring."""

from __future__ import annotations

import ctypes
import functools
import multiprocessing as mp
import os
import resource
import sys
import time
from collections import namedtuple
from multiprocessing import connection
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dsl
from .errors import NumericalError, SpecSearchError

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
        if self.timeout_seconds < 1:
            raise ValueError("timeout must be at least 1 second")

    @property
    def dtype(self):
        return np.float64 if self.float64 else np.float32

    def to_dict(self):
        return {"max_epochs": self.max_epochs, "patience": self.patience,
                "lr": self.lr, "weight_decay": self.weight_decay,
                "dropout": self.dropout, "hidden": self.hidden, "seed": self.seed,
                "timeout_seconds": self.timeout_seconds, "float64": self.float64}


class ModelAssembly:
    """2-layer MLP feature transform -> mechanism -> linear head (when needed).

    X_raw is the first linear layer's pre-activation output, X_in the MLP output.
    """

    def __init__(self, mechanism, graph, cfg):
        f, h, c = graph.num_features, cfg.hidden, graph.num_classes
        dtype = cfg.dtype
        self.cfg = cfg
        self.graph = graph
        self.mechanism = mechanism
        rng = np.random.default_rng((cfg.seed, 0))
        self.params = {
            "mlp.W1": ad.Tensor(ad.glorot_uniform((f, h), rng, dtype), requires_grad=True),
            "mlp.b1": ad.Tensor(np.zeros((1, h), dtype=dtype), requires_grad=True),
            "mlp.W2": ad.Tensor(ad.glorot_uniform((h, h), rng, dtype), requires_grad=True),
            "mlp.b2": ad.Tensor(np.zeros((1, h), dtype=dtype), requires_grad=True),
        }
        self.has_head = mechanism.out_shape[1] != c
        if self.has_head:
            self.params["head.W"] = ad.Tensor(ad.glorot_uniform((h, c), rng, dtype),
                                              requires_grad=True)
            self.params["head.b"] = ad.Tensor(np.zeros((1, c), dtype=dtype),
                                              requires_grad=True)
        for name, t in mechanism.params.items():
            self.params[f"mech.{name}"] = t
        self._x = ad.Tensor(graph.features.astype(dtype))

    def forward(self, training=False, epoch=0):
        cfg = self.cfg
        x = self._x
        if training and cfg.dropout > 0:
            x = ad.dropout(x, cfg.dropout, np.random.default_rng((cfg.seed, 0, epoch)))
        x_raw = ad.add(ad.matmul(x, self.params["mlp.W1"]), self.params["mlp.b1"])
        a = ad.relu(x_raw)
        if training and cfg.dropout > 0:
            a = ad.dropout(a, cfg.dropout, np.random.default_rng((cfg.seed, 1, epoch)))
        x_in = ad.add(ad.matmul(a, self.params["mlp.W2"]), self.params["mlp.b2"])
        z = self.mechanism(x_in, x_raw)
        if self.has_head:
            z = ad.add(ad.matmul(z, self.params["head.W"]), self.params["head.b"])
        return z

    def predict(self):
        return np.argmax(self.forward(training=False).data, axis=1)

    def snapshot(self):
        return {k: t.data.copy() for k, t in self.params.items()}

    def restore(self, snap):
        for k, t in self.params.items():
            t.data = snap[k].copy()


def build_assembly(program_text, graph, cfg):
    """parse -> shape-check -> compile -> wrap in the standard assembly."""
    prog = dsl.parse(program_text)
    dims = {"n": graph.num_nodes, "f": graph.num_features,
            "h": cfg.hidden, "c": graph.num_classes}
    typed = dsl.check_shapes(prog, dims)
    mech = dsl.compile_program(typed, graph, seed=cfg.seed + 1, dtype=cfg.dtype)
    return ModelAssembly(mech, graph, cfg)


def evaluate(assembly, graph, index_set):
    """Plain accuracy of argmax predictions over the given node indices."""
    idx = np.asarray(list(index_set), dtype=np.int64)
    if idx.size == 0:
        raise ValueError("index set must be non-empty")
    pred = assembly.predict()
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
    params = assembly.params
    state = ad.AdamState()
    metrics = TrainMetrics()
    best_snap = assembly.snapshot()
    since_best = 0
    train_idx = np.asarray(split.train, dtype=np.int64)
    for epoch in range(1, cfg.max_epochs + 1):
        logits = assembly.forward(training=True, epoch=epoch)
        loss = ad.cross_entropy_with_logits(logits, graph.labels, train_idx)
        ad.backward(loss)
        grads = {}
        for name, t in params.items():
            if t.grad is not None:
                grads[name] = t.grad
                t.grad = None
        ad.step_adam(params, grads, state, lr=cfg.lr, weight_decay=cfg.weight_decay)
        metrics.train_losses.append(float(loss.data[0, 0]))
        del logits, loss, grads      # free the training tape before validation builds one
        val_acc = evaluate(assembly, graph, split.val)
        metrics.epochs_run = epoch
        metrics.val_accuracies.append(val_acc)
        if val_acc > metrics.best_val_acc or epoch == 1:
            metrics.best_val_acc = val_acc
            metrics.best_epoch = epoch
            best_snap = assembly.snapshot()
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    assembly.restore(best_snap)
    return metrics


@dataclass
class FitResult:
    status: str                 # "ok" or "discarded"
    reason: str = None          # parse | shape | compile | numeric | timeout | crash | internal
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

    def to_dict(self):
        return {"status": self.status if self.ok else self.reason,
                "fitness": self.fitness, "epochs_run": self.epochs_run,
                "best_epoch": self.best_epoch,
                "wall_seconds": round(self.wall_seconds, 3),
                "cpu_seconds": _round(self.cpu_seconds, 3),
                "peak_rss_mb": _round(self.peak_rss_mb, 1)}


def _round(value, digits):
    return None if value is None else round(value, digits)


def _score_impl(program_text, graph, split, cfg):
    """parse -> shape-check -> compile -> train -> evaluate, as one FitResult.

    A SpecSearchError discards the program with its stage as the reason, a
    NumericalError as "numeric"; during training anything else is raised.
    """
    start = time.monotonic()
    stage = "parse"
    try:
        prog = dsl.parse(program_text)
        stage = "shape"
        dims = {"n": graph.num_nodes, "f": graph.num_features,
                "h": cfg.hidden, "c": graph.num_classes}
        typed = dsl.check_shapes(prog, dims)
        stage = "compile"
        mech = dsl.compile_program(typed, graph, seed=cfg.seed + 1, dtype=cfg.dtype)
        assembly = ModelAssembly(mech, graph, cfg)
        stage = "train"
        metrics = train(assembly, graph, split, cfg)
        fitness = evaluate(assembly, graph, split.val)
        test_acc = evaluate(assembly, graph, split.test) if split.test else None
    except NumericalError:
        reason = "numeric"
    except SpecSearchError:
        if stage == "train":
            raise
        reason = stage
    else:
        return FitResult("ok", fitness=fitness, test_accuracy=test_acc,
                         epochs_run=metrics.epochs_run, best_epoch=metrics.best_epoch,
                         wall_seconds=time.monotonic() - start)
    return FitResult("discarded", reason=reason, wall_seconds=time.monotonic() - start)


BlasThreads = namedtuple("BlasThreads", "get_num_threads set_num_threads")


@functools.cache
def blas_threads():
    """numpy's OpenBLAS `get_num_threads` and `set_num_threads`, or None.

    The symbol names follow numpy's build config: `scipy-openblas` built with
    USE64BITINT exports `scipy_openblas_{get,set}_num_threads64_`, plain
    OpenBLAS `openblas_{get,set}_num_threads`. The library is looked up next to
    numpy (where its wheels bundle it) and in the configured lib directory;
    loading the file numpy already loaded returns numpy's own copy. MKL,
    Accelerate, a numpy without `show_config(mode=...)` and any library or
    symbol not found give None: both entry points or neither.
    """
    numpy_dir = Path(np.__file__).parent
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        prefix = {"scipy-openblas": "scipy_openblas_", "openblas": "openblas_"}[blas["name"]]
        suffix = "64_" if "USE64BITINT" in blas["openblas configuration"] else ""
        dirs = [numpy_dir.parent / "numpy.libs", numpy_dir / ".dylibs",
                Path(blas["lib directory"])]
    except (TypeError, KeyError):
        return None
    for path in (p for d in dirs if d.is_dir() for p in sorted(d.glob("*openblas*"))):
        try:
            lib = ctypes.CDLL(str(path))
            get_num_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            set_num_threads = getattr(lib, f"{prefix}set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
        set_num_threads.argtypes, set_num_threads.restype = [ctypes.c_int], None
        return BlasThreads(get_num_threads, set_num_threads)
    return None


def _set_blas_threads(blas, count):
    # A set right after a fork rebuilds OpenBLAS's thread pool, and its helpers
    # spin for OpenBLAS's thread timeout; so set only when the count changes.
    if blas is not None and blas.get_num_threads() != count:
        blas.set_num_threads(count)


@functools.cache
def libc_mallopt():
    """The C library's `mallopt`, or None where it has none (macOS, for one)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def _score_worker(conn, program_text, graph, split, cfg, mallopt):
    # The worker inherits a BLAS count of 1 from `evaluate_batch` and must not
    # call `set_num_threads` itself: OpenBLAS shuts its pool down at fork, and a
    # set in the child rebuilds it with nproc - 1 helpers that spin idle for
    # about 0.1 s, on the cores the other workers train on.
    #
    # Keep freed memory in the heap. Each epoch frees a tape of n x h arrays and
    # builds one of the same sizes; left to itself glibc serves them by mmap or
    # trims the heap top, so every epoch faults its pages in again. The worker
    # exits after one candidate, so the heap it keeps dies with it.
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, WORKER_MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, WORKER_TRIM_THRESHOLD)
    try:
        result = _score_impl(program_text, graph, split, cfg)
    except Exception:
        result = FitResult("discarded", reason="internal")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = replace(result, cpu_seconds=usage.ru_utime + usage.ru_stime,
                     peak_rss_mb=usage.ru_maxrss / _MAXRSS_PER_MIB)
    try:
        conn.send(result)
    finally:
        conn.close()


def check_split(split):
    """Raise ValueError for a split no candidate can be scored on: fitness is
    validation accuracy, so one without validation nodes."""
    if not split.val:
        raise ValueError("no validation nodes (a candidate's fitness is its "
                         "validation accuracy)")


def score_individual(program_text, graph, split, cfg):
    """Score one program in a worker process with a hard wall-clock timeout."""
    results = evaluate_batch([program_text], graph, split, cfg, pool_size=1)
    return results[0]


def evaluate_batch(texts, graph, split, cfg, pool_size=USABLE_CORES):
    """Score many programs concurrently; results come back in submission order.

    Each job runs in its own process; jobs that exceed cfg.timeout_seconds are
    terminated and reported as discarded(timeout), and a process that exits
    without sending a result is reported as discarded(crash). A split that
    `check_split` rejects raises before any fork. While the batch runs the
    parent's BLAS holds one thread, so every worker forks with one (the pool
    already runs a worker per core); the parent's count is restored when the
    batch ends, however it ends.
    """
    check_split(split)
    blas = blas_threads()
    parent_threads = blas.get_num_threads() if blas is not None else None
    try:
        _set_blas_threads(blas, 1)
        return _run_batch(texts, graph, split, cfg, pool_size)
    finally:
        _set_blas_threads(blas, parent_threads)


def _run_batch(texts, graph, split, cfg, pool_size):
    ctx = mp.get_context("fork")
    results = [None] * len(texts)
    pending = {}  # idx -> (process, conn, start_time)
    next_idx = 0
    mallopt = libc_mallopt()

    def launch(i):
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_score_worker,
                           args=(child, texts[i], graph, split, cfg, mallopt),
                           daemon=True)
        proc.start()
        child.close()
        pending[i] = (proc, parent, time.monotonic())

    while next_idx < len(texts) or pending:
        while next_idx < len(texts) and len(pending) < pool_size:
            launch(next_idx)
            next_idx += 1
        deadline = min(started for _, _, started in pending.values()) + cfg.timeout_seconds
        connection.wait([w for proc, conn, _ in pending.values() for w in (conn, proc.sentinel)],
                        timeout=max(0.0, deadline - time.monotonic()))
        for i in list(pending):
            proc, conn, started = pending[i]
            elapsed = time.monotonic() - started
            if conn.poll() or not proc.is_alive():
                try:
                    results[i] = conn.recv()
                except EOFError:    # the worker exited without sending a result
                    results[i] = FitResult("discarded", reason="crash",
                                           wall_seconds=elapsed)
                proc.join()
                conn.close()
                del pending[i]
            elif elapsed >= cfg.timeout_seconds:
                proc.terminate()
                proc.join(5)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
                conn.close()
                results[i] = FitResult("discarded", reason="timeout",
                                       wall_seconds=elapsed)
                del pending[i]
    return results
