"""Outside-in tracing: wrappers around the public functions of each layer.

The wrappers live here, not in the program. `Tracer.install` replaces every
binding of a traced function found in the `specsearch` modules: module
globals (such as the `build_operator` that `dsl/compiler.py` imports by name),
module-level dicts (such as the compiler's `_UNARY_CALLS`) and class attributes
(such as `CompiledMechanism.__call__`, an alias of `forward`).
`Tracer.uninstall` restores every original.

Scoring workers are forked, so they inherit the wrappers. A
`multiprocessing.util.register_after_fork` hook opens a `training.worker` span
in each child, parented to the span that was open in the parent at fork time
(the `training.evaluate_batch` that launched it), and a finalizer closes it at
child exit and writes the child's spans to `worker_dir`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

from metrics import Span

# Tape operations of the autodiff layer; `autodiff.op_calls` counts these.
AUTODIFF_OPS = ("add", "sub", "mul", "div", "neg", "matmul", "spmm", "relu", "elu",
                "tanh", "sigmoid", "softmax_rows", "sum_all", "sum_rows", "power",
                "concat_cols", "dropout", "cross_entropy_with_logits", "edge_attn_agg")
ELEMENTWISE_OPS = ("add", "sub", "mul", "div", "neg", "relu", "elu", "tanh", "sigmoid",
                   "softmax_rows", "sum_rows", "power")

# (module, attribute path, span name)
TARGETS = (
    [("specsearch.graphs", "load_dataset", "graphs.load_dataset"),
     ("specsearch.graphs", "make_split", "graphs.make_split"),
     ("specsearch.graphs", "build_operator", "graphs.build_operator"),
     ("specsearch.dsl.parser", "parse", "dsl.parse"),
     ("specsearch.dsl.checker", "check_shapes", "dsl.check_shapes"),
     ("specsearch.dsl.compiler", "compile_program", "dsl.compile_program"),
     ("specsearch.dsl.compiler", "CompiledMechanism.forward", "dsl.mechanism_forward"),
     ("specsearch.autodiff", "backward", "autodiff.backward"),
     ("specsearch.autodiff", "step_adam", "autodiff.step_adam"),
     ("specsearch.training", "train", "training.train"),
     ("specsearch.training", "evaluate_batch", "training.evaluate_batch"),
     ("specsearch.training", "ModelAssembly.forward", "training.forward"),
     ("specsearch.search", "run_generation", "search.run_generation"),
     ("specsearch.search", "EliteArchive.add", "search.archive_add"),
     ("specsearch.bridge", "complete", "bridge.complete")]
    + [("specsearch.autodiff", op, f"autodiff.{op}") for op in AUTODIFF_OPS])


def _resolve(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Spans of the current process, kept in memory until `take`.

    A span is recorded as a tuple (id, parent, name, start, end, cpu, value);
    ids are unique across processes because they start at pid * 10**9.
    """

    def __init__(self, worker_dir):
        self.worker_dir = Path(worker_dir)
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        self.active = False
        self.batches = []     # (pool, batch wall, [worker wall seconds], [texts])
        self._reset_process()
        self._patches = []
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _reset_process(self):
        self.spans = []
        self.stack = []
        self._ids = itertools.count(os.getpid() * 10**9)

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, on_result=None):
        sid = next(self._ids)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        value = 0.0
        try:
            result = fn(*args, **kwargs)
            if on_result is not None:
                value = on_result(result, args, kwargs, start)
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, name, start, end, 0.0, value))

    def _after_fork(self):
        if not self.active:
            return
        parent = self.stack[-1] if self.stack else None
        self._reset_process()
        self._worker = (next(self._ids), parent, time.perf_counter(), time.process_time())
        self.stack.append(self._worker[0])
        mp_util.Finalize(None, self._finish_worker, exitpriority=100)

    def _finish_worker(self):
        sid, parent, start, cpu0 = self._worker
        self.spans.append((sid, parent, "training.worker", start, time.perf_counter(),
                           time.process_time() - cpu0, 0.0))
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans), encoding="utf-8")
        tmp.replace(path)

    def take(self):
        """All spans recorded since the last take, workers' included, as Span objects."""
        rows = self.spans
        self.spans = []
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            rows.extend(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
        batches, self.batches = self.batches, []
        return [Span(*row) for row in rows], batches

    # -- installation ------------------------------------------------------

    def _wrapper(self, name, fn):
        tracer = self
        if name == "training.forward":
            @functools.wraps(fn)
            def forward(*args, **kwargs):
                training = kwargs.get("training", args[1] if len(args) > 1 else False)
                span = "training.forward_train" if training else "training.forward_eval"
                return tracer.call(span, fn, args, kwargs)
            return forward
        on_result = None
        if name == "training.train":
            def on_result(metrics, args, kwargs, start):
                return float(metrics.epochs_run)
        elif name == "training.evaluate_batch":
            signature = inspect.signature(fn)

            def on_result(results, args, kwargs, start):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.batches.append((bound.arguments["pool_size"],
                                       time.perf_counter() - start,
                                       [r.wall_seconds for r in results],
                                       list(bound.arguments["texts"])))
                return 0.0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, on_result)
        return traced

    def install(self):
        """Wrap every binding of every target; returns the targets not found."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        missing = []
        for module, path, name in TARGETS:
            try:
                fn = _resolve(module, path)
            except (ImportError, AttributeError):
                missing.append(f"{module}:{path}")
                continue
            wrappers[id(fn)] = (fn, self._wrapper(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "specsearch" and not mod_name.startswith("specsearch."):
                continue
            for key, value in list(vars(mod).items()):
                self._patch_binding(mod, key, value, wrappers, setattr)
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        self._patch_binding(value, k, v, wrappers, dict.__setitem__)
                elif inspect.isclass(value) and value.__module__ == mod_name:
                    for k, v in list(vars(value).items()):
                        self._patch_binding(value, k, v, wrappers, setattr)
        self.active = True
        return missing

    def _patch_binding(self, container, key, value, wrappers, setter):
        hit = wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            setter(container, key, hit[1])
            self._patches.append((container, key, value, setter))

    def uninstall(self):
        for container, key, original, setter in reversed(self._patches):
            setter(container, key, original)
        self._patches = []
        self.active = False
