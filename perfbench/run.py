"""Benchmark of specsearch's candidate-scoring path.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from `src/`.
With `--trace 0` a run reports the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run. Either way it checks the program's outputs
and exits non-zero if a correctness gate fails. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("candidates_per_min", "1/min"),
    ("candidate_s_p50", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("best_fitness", "accuracy"),
    ("mean_fitness", "accuracy"),
)

PER_LAYER = (
    ("graphs.load_dataset.s", "s"),
    ("graphs.build_operator.calls", "count"),
    ("graphs.build_operator.s", "s"),
    ("dsl.parse.calls", "count"),
    ("dsl.parse.s", "s"),
    ("dsl.check_shapes.s", "s"),
    ("dsl.compile_program.s", "s"),
    ("dsl.mechanism_forward.s", "s"),
    ("autodiff.matmul.s", "s"),
    ("autodiff.dropout.s", "s"),
    ("autodiff.step_adam.s", "s"),
    ("autodiff.edge_attn_agg.s", "s"),
    ("autodiff.spmm.calls", "count"),
    ("autodiff.spmm.s", "s"),
    ("autodiff.elementwise.s", "s"),
    ("autodiff.backward.s", "s"),
    ("autodiff.op_calls", "count"),
    ("training.train.s", "s"),
    ("training.epochs", "count"),
    ("training.forward_train.s", "s"),
    ("training.forward_eval.s", "s"),
    ("training.evaluate_batch.s", "s"),
    ("training.evaluate_batch.slot_idle_share", "share"),
    ("training.worker.cpu_per_wall", "s/s"),
    ("search.distinct_per_trained", "share"),
    ("search.run_generation.s", "s"),
    ("search.archive_add.s", "s"),
    ("bridge.complete.s", "s"),
    ("trace.overhead_s", "s"),
)

# Before every unit, set-up is repeated for this many seconds (at least twice),
# so its samples spread over the whole run rather than its first second.
# setup_s is their mean, not their median: on a host that alternates between a
# fast and a ~1.3x slower state for seconds at a time, the samples fall into two
# clusters and a run's median lands on one or the other, so it jumps with a
# small change in how long the host spent in each state; the mean moves with it.
SETUP_SECONDS = 1.0
# Every candidate of every workload is expected to train and be scored.
EXPECTED_STATUS = "ok"
# Largest accepted |fitness - recorded fitness| of a float32 candidate. Fitness
# is accuracy over 3000 validation nodes, so this lets 150 predictions flip
# when float32 rounding changes the training trajectory.
FLOAT32_TOL = 0.05
EXPECTED = HERE / "expected.json"
RUNS = ROOT / ".perfbench"


def import_program():
    """Import specsearch from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "specsearch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    import specsearch
    if Path(specsearch.__file__).resolve().parent != (src / "specsearch").resolve():
        raise SystemExit(f"perfbench: imported specsearch from {specsearch.__file__}, "
                         f"not from {src}")


def machine_record():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


# -- correctness gates ---------------------------------------------------------


def check_units(w, units, n_expected, reference):
    """Gate every unit's outputs; returns (attempted, failed, problems)."""
    from workloads import digest

    attempted = failed = 0
    problems = []
    if reference is None:
        problems.append("expected.json has no reference for this seed")
    for k, u in enumerate(units):
        attempted += len(u.records)
        if len(u.records) != n_expected:
            problems.append(f"unit {k}: {len(u.records)} candidates, expected {n_expected}")
        if u.bridge_failed:
            problems.append(f"unit {k}: {u.bridge_failed} replay slots failed")
        for i, rec in enumerate(u.records):
            if rec["status"] != EXPECTED_STATUS:
                failed += 1
                problems.append(f"unit {k} candidate {i}: status {rec['status']!r}")
                continue
            f = rec["fitness"]
            if not 0.0 <= f <= 1.0:
                problems.append(f"unit {k} candidate {i}: fitness {f} outside [0, 1]")
            if w.float64 or reference is None:
                continue
            ref = reference["fitness"][i] if i < len(reference["fitness"]) else None
            if ref is None or abs(f - ref) > FLOAT32_TOL:
                problems.append(f"unit {k} candidate {i}: float32 fitness {f} vs "
                                f"recorded {ref} (tolerance {FLOAT32_TOL})")
        if w.float64 and reference is not None:
            got = digest(u.convergence)
            if got != reference["convergence_sha256"]:
                problems.append(f"unit {k}: convergence.csv sha256 {got} differs from "
                                f"recorded {reference['convergence_sha256']}")
    return attempted, failed, problems


def load_reference(w, seed):
    from workloads import variant_of

    if not EXPECTED.is_file():
        return None
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return table.get(w.name, {}).get(str(variant_of(seed)))


# -- end-to-end and traced measurement ---------------------------------------------


def end_to_end(units, setup_times):
    from metrics import median_with_count
    from workloads import peak_rss_mb

    walls, n = median_with_count(r["wall_seconds"] for u in units for r in u.records)
    means = [statistics.fmean([r["fitness"] for r in u.records if r["status"] == "ok"] or [0.0])
             for u in units]
    values = {
        "setup_s": statistics.fmean(setup_times),
        "wall_s": statistics.median(u.wall for u in units),
        "candidates_per_min": statistics.median(len(u.records) * 60.0 / u.wall for u in units),
        "candidate_s_p50": walls,
        "cpu_s": statistics.median(u.cpu for u in units),
        "peak_rss_mb": peak_rss_mb(),
        "best_fitness": statistics.median(u.best for u in units),
        "mean_fitness": statistics.median(means),
    }
    notes = {"setups": len(setup_times), "candidate_s_p50_samples": n,
             "setup_times": [round(t, 4) for t in setup_times],
             "unit_cpu": [round(u.cpu, 3) for u in units],
             "unit_candidate_p50": [round(statistics.median(r["wall_seconds"] for r in u.records), 4)
                                    for u in units]}
    return values, notes


def layer_metrics(spans, tot, batches):
    """Per-layer metrics of one traced unit, but for the tracing overhead.

    `tot` is `totals_by_name(spans)`.
    """
    from metrics import distinct_per_trained, slot_idle_share
    from specsearch import search
    from tracing import AUTODIFF_OPS, ELEMENTWISE_OPS

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def incl_s(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    workers = [s for s in spans if s.name == "training.worker"]
    worker_wall = sum(s.duration for s in workers)
    texts = [t for b in batches for t in b[3]]
    return {
        "graphs.load_dataset.s": self_s("graphs.load_dataset"),
        "graphs.build_operator.calls": calls("graphs.build_operator"),
        "graphs.build_operator.s": self_s("graphs.build_operator"),
        "dsl.parse.calls": calls("dsl.parse"),
        "dsl.parse.s": self_s("dsl.parse"),
        "dsl.check_shapes.s": self_s("dsl.check_shapes"),
        "dsl.compile_program.s": self_s("dsl.compile_program"),
        "dsl.mechanism_forward.s": self_s("dsl.mechanism_forward"),
        "autodiff.matmul.s": self_s("autodiff.matmul"),
        "autodiff.dropout.s": self_s("autodiff.dropout"),
        "autodiff.step_adam.s": self_s("autodiff.step_adam"),
        "autodiff.edge_attn_agg.s": self_s("autodiff.edge_attn_agg"),
        "autodiff.spmm.calls": calls("autodiff.spmm"),
        "autodiff.spmm.s": self_s("autodiff.spmm"),
        "autodiff.elementwise.s": sum(self_s(f"autodiff.{op}") for op in ELEMENTWISE_OPS),
        "autodiff.backward.s": self_s("autodiff.backward"),
        "autodiff.op_calls": sum(calls(f"autodiff.{op}") for op in AUTODIFF_OPS),
        "training.train.s": self_s("training.train"),
        "training.epochs": sum(s.value for s in spans if s.name == "training.train"),
        # ModelAssembly.forward only calls ops, so its self time is glue; the
        # inclusive time is what a cheaper forward would move.
        "training.forward_train.s": incl_s("training.forward_train"),
        "training.forward_eval.s": incl_s("training.forward_eval"),
        "training.evaluate_batch.s": self_s("training.evaluate_batch"),
        "training.evaluate_batch.slot_idle_share":
            slot_idle_share([(pool, wall, walls) for pool, wall, walls, _ in batches]),
        "training.worker.cpu_per_wall": sum(s.cpu for s in workers) / worker_wall,
        "search.distinct_per_trained":
            distinct_per_trained([search.dedup_key(t) for t in texts]),
        "search.run_generation.s": self_s("search.run_generation"),
        "search.archive_add.s": self_s("search.archive_add"),
        "bridge.complete.s": self_s("bridge.complete"),
    }


def call_count_problems(w, inp, spans, tot, batches):
    """Compare traced call counts with counts derived from the workload."""
    from inputs import graph_def_count
    from workloads import trained_programs

    got = {name: c for name, (c, _, _) in tot.items()}
    texts = [t for b in batches for t in b[3]]
    problems = []
    if set(texts) != set(trained_programs(w, inp)):
        problems.append("programs sent to workers differ from the workload's programs")
    t = len(texts)
    epochs = w.epochs * t
    expect = {
        "graphs.load_dataset": 1,
        "graphs.make_split": 1,
        "training.worker": t,
        "dsl.check_shapes": t,
        "dsl.compile_program": t,
        "dsl.parse": t + got.get("search.archive_add", 0),
        "graphs.build_operator": sum(graph_def_count(x) for x in texts),
        "training.train": t,
        "training.forward_train": epochs,
        "training.forward_eval": epochs + 2 * t,
        "dsl.mechanism_forward": 2 * epochs + 2 * t,
        "autodiff.backward": epochs,
        "autodiff.step_adam": epochs,
        "autodiff.dropout": 2 * epochs,
    }
    gens = w.search_config().generations
    expect.update({"search.run_generation": gens, "bridge.complete": gens,
                   "training.evaluate_batch": gens + 1})
    for name, want in expect.items():
        if got.get(name, 0) != want:
            problems.append(f"trace: {name} called {got.get(name, 0)} times, expected {want}")
    run_epochs = sum(s.value for s in spans if s.name == "training.train")
    if run_epochs != epochs:
        problems.append(f"trace: {run_epochs} epochs run, expected {epochs}")
    return problems


def repeat_for(seconds, fn):
    """Call fn at least once, and again while the next call should end within `seconds`."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(fn())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return results


def timed_setups(w, inp, seed, times):
    """Set up at least twice and for SETUP_SECONDS, appending each time; return the last."""
    from workloads import setup

    t_start = time.perf_counter()
    for k in itertools.count(1):
        t0 = time.perf_counter()
        result = setup(w, inp, seed)
        times.append(time.perf_counter() - t0)
        if k >= 2 and time.perf_counter() - t_start >= SETUP_SECONDS:
            return result


def duplicate_share_of(w, inp):
    """Share of the workload's proposals that repeat an earlier program (by dedup_key)."""
    from metrics import duplicate_share
    from specsearch import search
    from workloads import trained_programs

    keys = [search.dedup_key(t) for t in trained_programs(w, inp)]
    seeds = len(w.search_config().seed_programs)
    return duplicate_share(keys[:seeds], keys[seeds:])


def write_trace(path, spans):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end, s.cpu, s.value]) + "\n")


def run_workload(w, seed, seconds, trace):
    """One run of one workload: (metrics, attempted, failed, problems, notes)."""
    from metrics import totals_by_name
    from tracing import Tracer
    from workloads import make_inputs, run_unit, setup, trained_programs

    run_dir = RUNS / f"{w.name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out_dir = run_dir / "search-out"
    try:
        inp = make_inputs(w, seed, run_dir)
        # Untimed warm-up: the first load follows the write of the dataset file.
        graph, split = setup(w, inp, seed)
        problems = []
        if not trace:
            setup_times = []

            def unit():
                graph, split = timed_setups(w, inp, seed, setup_times)
                return run_unit(w, inp, graph, split, out_dir)

            units = repeat_for(seconds, unit)
            values, notes = end_to_end(units, setup_times)
        else:
            tracer = Tracer(run_dir / "workers")

            def pair():
                plain = run_unit(w, inp, graph, split, out_dir)
                missing = tracer.install()
                try:
                    traced_graph, traced_split = setup(w, inp, seed)
                    traced = run_unit(w, inp, traced_graph, traced_split, out_dir)
                finally:
                    tracer.uninstall()
                spans, batches = tracer.take()
                tot = totals_by_name(spans)
                problems.extend(f"trace: no binding for {m}" for m in missing)
                problems.extend(call_count_problems(w, inp, spans, tot, batches))
                return plain, traced, spans, layer_metrics(spans, tot, batches)

            pairs = repeat_for(seconds, pair)
            units = [p[0] for p in pairs] + [p[1] for p in pairs]
            values = {k: statistics.median(p[3][k] for p in pairs) for k in pairs[0][3]}
            values["trace.overhead_s"] = (statistics.median(p[1].wall for p in pairs)
                                          - statistics.median(p[0].wall for p in pairs))
            notes = {"pairs": len(pairs)}
            write_trace(run_dir / "trace.jsonl.gz", [s for p in pairs for s in p[2]])
        notes["unit_walls"] = [round(u.wall, 3) for u in units]
        notes["duplicate_share"] = duplicate_share_of(w, inp)
        attempted, failed, gate = check_units(w, units, len(trained_programs(w, inp)),
                                              load_reference(w, seed))
        return values, attempted, failed, problems + gate, notes
    finally:
        for name in ("dataset.json", "replay.jsonl"):
            (run_dir / name).unlink(missing_ok=True)
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None):
    import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    machine = machine_record()
    print(json.dumps({"machine": machine}, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units_of = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {}
    attempted = failed = 0
    correct = True
    for name in names:
        values, att, fail, problems, notes = run_workload(
            WORKLOADS[name], args.seed, args.seconds, args.trace)
        attempted += att
        failed += fail
        correct = correct and not problems
        for p in problems:
            print(f"FAIL {name}: {p}", file=sys.stderr)
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in units_of.items():
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
            print(f"{name:14s} {metric:42s} {values[metric]:14.6g} {unit}")
        print(f"{name:14s} {json.dumps(notes, sort_keys=True)}")
        result = {"workload": name, "seed": args.seed, "trace": args.trace,
                  "machine": machine, "metrics": values, "notes": notes,
                  "problems": problems}
        (RUNS / f"{name}-seed{args.seed}" / "result.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
