"""Tests of the benchmark's own arithmetic and wiring.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from metrics import Span  # noqa: E402


def span(sid, parent, start, end, name="x"):
    return Span(sid, parent, name, start, end)


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [span(1, None, 0.0, 10.0),
             span(2, 1, 1.0, 3.0), span(3, 1, 2.0, 5.0),   # overlap: covers [1, 5]
             span(4, 1, 8.0, 12.0)]                         # runs past the parent: [8, 10]
    selfs = metrics.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(4.0)


def test_self_time_counts_only_direct_children():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 2.0, 8.0), span(3, 2, 3.0, 7.0)]
    selfs = metrics.self_times(spans)
    assert selfs == pytest.approx({1: 4.0, 2: 2.0, 3: 4.0})


def test_totals_by_name_sums_calls_self_and_inclusive_time():
    spans = [span(1, None, 0.0, 4.0, "f"), span(2, 1, 1.0, 2.0, "g"),
             span(3, None, 5.0, 6.0, "f")]
    tot = metrics.totals_by_name(spans)
    assert tot["f"] == pytest.approx((2, 4.0, 5.0))
    assert tot["g"] == pytest.approx((1, 1.0, 1.0))


def test_covered_length_merges_nested_and_touching_intervals():
    assert metrics.covered_length([(0, 2), (1, 1.5), (2, 3), (5, 6), (4, 4)]) == 4.0
    assert metrics.covered_length([]) == 0.0


# -- ratios --------------------------------------------------------------------


def test_slot_idle_share_over_batches():
    # Two slots busy 8 s and 6 s of a 10 s batch, then one slot busy 3 s of 4 s.
    batches = [(2, 10.0, [8.0, 6.0]), (1, 4.0, [3.0])]
    assert metrics.slot_idle_share(batches) == pytest.approx(1 - 17.0 / 24.0)


def test_slot_idle_share_rejects_empty_batches():
    with pytest.raises(ValueError):
        metrics.slot_idle_share([])


def test_distinct_per_trained_of_the_duplicate_search():
    seeds = ["gcn", "appnp", "gpr", "fagcn"]
    proposals = ["appnp12", "gpr", "appnp13", "gcn"] * 3
    assert metrics.distinct_per_trained(seeds + proposals) == pytest.approx(6 / 16)
    with pytest.raises(ValueError):
        metrics.distinct_per_trained([])


def test_duplicate_share_counts_repeats_within_the_proposals():
    assert metrics.duplicate_share({"a"}, ["a", "b", "b", "c"]) == pytest.approx(2 / 4)


def test_median_with_count():
    assert metrics.median_with_count([3.0, 1.0, 2.0, 4.0]) == (2.5, 4)
    with pytest.raises(ValueError):
        metrics.median_with_count([])


# -- inputs --------------------------------------------------------------------


def test_dataset_is_a_function_of_the_seed():
    a = inputs.sbm_dataset("g", 200, 4, 0.7, 6, 8, 0.3, seed=3)
    b = inputs.sbm_dataset("g", 200, 4, 0.7, 6, 8, 0.3, seed=3)
    c = inputs.sbm_dataset("g", 200, 4, 0.7, 6, 8, 0.3, seed=4)
    assert a == b and a != c
    edges = {tuple(e) for e in a["edges"]}
    assert len(edges) == len(a["edges"]) == 600
    assert all(u < v for u, v in edges)


def test_replay_scripts_have_the_documented_duplicate_shares():
    seed_texts = {"gcn": "G", "appnp": "alpha = 0.1", "gpr": "P", "fagcn-lite": "F"}
    dup = [inputs.program_of(r) for r in inputs.dup_replay(seed_texts.__getitem__)]
    assert metrics.duplicate_share(seed_texts.values(), dup) == pytest.approx(10 / 12)
    sparse = [inputs.program_of(r) for r in inputs.sparse_replay()]
    assert metrics.duplicate_share([], sparse) == 0.0
    assert sum(inputs.graph_def_count(t) for t in sparse) == 8


# -- wiring --------------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    import tracing
    from specsearch import autodiff, graphs
    from specsearch.dsl import compiler

    originals = (compiler.build_operator, compiler._UNARY_CALLS["relu"],
                 compiler.CompiledMechanism.__call__, autodiff.relu)
    tracer = tracing.Tracer(tmp_path)
    assert tracer.install() == []
    try:
        assert compiler.build_operator is graphs.build_operator
        assert compiler.build_operator is not originals[0]
        assert compiler._UNARY_CALLS["relu"] is autodiff.relu is not originals[1]
        assert compiler.CompiledMechanism.__call__ is compiler.CompiledMechanism.forward
        assert compiler.CompiledMechanism.__call__ is not originals[2]
    finally:
        tracer.uninstall()
    assert (compiler.build_operator, compiler._UNARY_CALLS["relu"],
            compiler.CompiledMechanism.__call__, autodiff.relu) == originals


def test_forked_worker_spans_reach_the_trace(tmp_path):
    import tracing
    from specsearch import dsl, graphs, training

    graph = graphs.Graph(4, 2, [(0, 1), (1, 2), (2, 3)],
                         [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0]], [0, 1, 0, 1])
    split = graphs.Split([0, 1], [2], [3])
    cfg = training.TrainConfig(max_epochs=2, patience=2, hidden=4)
    tracer = tracing.Tracer(tmp_path)
    assert tracer.install() == []
    try:
        results = training.evaluate_batch([dsl.builtin("gcn")], graph, split, cfg,
                                          pool_size=1)
    finally:
        tracer.uninstall()
    assert results[0].ok
    spans, batches = tracer.take()
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    (batch,) = by_name["training.evaluate_batch"]
    (worker,) = by_name["training.worker"]
    assert worker.parent == batch.id
    assert batch.start <= worker.start <= worker.end <= batch.end
    assert worker.cpu > 0
    (train,) = by_name["training.train"]
    assert train.parent == worker.id and train.value == 2
    assert len(by_name["graphs.build_operator"]) == 1
    assert batches[0][0] == 1 and len(batches[0][2]) == 1
