"""The scoring workloads: their inputs, set-up, and one scoring unit each.

A unit is the work a user waits for: one full replay search, run the way the
`search` command runs it. The runner repeats units for the measured time.

Every workload trains with `patience == max_epochs`, so each candidate runs
exactly `max_epochs` epochs whatever the data: the work per unit does not drift
with the seed, and the traced run can derive its call counts from the workload.
"""

from __future__ import annotations

import hashlib
import os
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from specsearch import bridge, dsl, graphs, search, training

import inputs

# Every graph has 5 classes and 70% intra-class edges; splits are stratified
# 10/30/60, so validation accuracy is taken over 300 or 3000 nodes.
CLASSES = 5
HOMOPHILY = 0.7
SPLIT = (0.1, 0.3, 0.6)


@dataclass(frozen=True)
class Workload:
    name: str
    replay: Callable          # () -> replay records of one generation
    n: int
    avg_degree: float
    feature_dim: int
    signal: float
    hidden: int
    epochs: int
    float64: bool
    lr: float = 0.01
    responses: int = 4        # replay responses per prompt operator

    def train_config(self):
        return training.TrainConfig(max_epochs=self.epochs, patience=self.epochs,
                                    lr=self.lr, hidden=self.hidden, float64=self.float64,
                                    timeout_seconds=60.0, seed=0)

    def search_config(self):
        return search.SearchConfig(generations=1, parallel_responses=self.responses,
                                   pool_size=nproc(), seed=0)


# Why each workload exists is recorded in BENCHMARK.json. Feature signal is set
# so that the best fitness stays well below 1.0 and varies little between seeds.
WORKLOADS = {w.name: w for w in (
    # The researcher's path: 4 seeds + one generation of 12 proposals, 10 of
    # which repeat a trained program; float64, so convergence.csv is exact.
    Workload("search-dup", lambda: inputs.dup_replay(dsl.builtin), n=1000, avg_degree=8,
             feature_dim=100, signal=0.3, hidden=64, epochs=10, float64=True),
    # 4 seeds + 6 distinct proposals over sym_norm, rw_norm, pruned_norm and
    # scaled_laplacian on a large sparse graph with narrow features. Training
    # is short, so it runs at a higher rate to reach a steady fitness.
    Workload("search-sparse", inputs.sparse_replay, n=10000, avg_degree=16, feature_dim=16,
             signal=0.5, hidden=16, epochs=5, float64=False, lr=0.05, responses=2),
)}


def nproc():
    return len(os.sched_getaffinity(0))


def variant_of(seed):
    return seed % inputs.VARIANTS


@dataclass
class Inputs:
    dataset: Path
    replay: Path
    proposals: list           # program texts the replay script proposes


def make_inputs(w, seed, run_dir):
    """Write the seed's dataset JSON and the replay script under run_dir."""
    v = variant_of(seed)
    doc = inputs.sbm_dataset(f"{w.name}-v{v}", w.n, CLASSES, HOMOPHILY,
                             w.avg_degree, w.feature_dim, w.signal, seed=1000 + v)
    dataset = run_dir / "dataset.json"
    inputs.write_json(dataset, doc)
    records = w.replay()
    replay = run_dir / "replay.jsonl"
    inputs.write_jsonl(replay, records)
    return Inputs(dataset, replay, [inputs.program_of(r) for r in records])


def setup(w, inp, seed):
    """What every `--dataset` run pays before scoring: load the JSON, split it."""
    graph = graphs.load_dataset(inp.dataset)
    split = graphs.make_split(graph.num_nodes, SPLIT, labels=graph.labels,
                              seed=variant_of(seed), stratified=True)
    return graph, split


def trained_programs(w, inp):
    """Program texts one unit sends to scoring workers: the seeds, then the proposals."""
    return [dsl.builtin(name) for name in w.search_config().seed_programs] + inp.proposals


@dataclass
class UnitResult:
    wall: float
    cpu: float
    records: list             # {"status", "fitness", "wall_seconds"} per candidate
    bridge_failed: int
    best: float
    convergence: bytes        # the run's convergence.csv


def _cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_unit(w, inp, graph, split, out_dir):
    """One replay search; wall and CPU cover the `run_search` call only."""
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    report = search.run_search(graph, split, w.search_config(), w.train_config(),
                               bridge.ReplayBackend(inp.replay), out_dir=out_dir)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    records = report.seed_records + [c for g in report.generation_logs
                                     for c in g["candidates"]]
    return UnitResult(wall, cpu, records,
                      sum(g["bridge_failed"] for g in report.generation_logs),
                      report.best.fitness,
                      (Path(out_dir) / "convergence.csv").read_bytes())


def digest(data):
    return hashlib.sha256(data).hexdigest()


def peak_rss_mb():
    """Largest resident set of this process or any waited-for worker, in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0
