"""Evolutionary loop: elite archive, prompt-operator selection, generations."""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bridge, dsl, training
from .dsl.corpus import SEED_NAMES, builtin, builtin_ideas, builtin_names
from .errors import DslSyntaxError, MalformedResponse, SpecSearchError


@dataclass
class Individual:
    """One candidate, from proposal to archive. `result` is its scoring outcome
    (a malformed response's is `parse` from the start; a memo hit's is its source's)."""
    id: int
    ideas: str
    program_text: str
    origin: str                 # seed | E1 | E2 | C1
    generation_born: int
    fitness: float = None
    result: training.FitResult = None
    memo_of: int = None

    @functools.cached_property
    def key(self):
        return dedup_key(self.program_text)

    def record(self):
        """The candidate's line in the run's logs; a memo hit spent nothing."""
        res = self.result
        rec = {"id": self.id, "op": self.origin, "status": res.status,
               "fitness": res.fitness, "epochs_run": res.epochs_run,
               "best_epoch": res.best_epoch, "wall_seconds": round(res.wall_seconds, 3),
               # None, when no worker reported them, stays None
               "cpu_seconds": res.cpu_seconds and round(res.cpu_seconds, 3),
               "peak_rss_mb": res.peak_rss_mb and round(res.peak_rss_mb, 1)}
        if self.memo_of is not None:
            rec.update(wall_seconds=0.0, cpu_seconds=0.0, peak_rss_mb=0.0, memo_of=self.memo_of)
        return rec


def dedup_key(program_text):
    """A program's identity in a search run: its parsed form. AST nodes compare
    without source positions, so layout, comments and number spelling do not
    count. A text that does not parse is its own key; the front end parses it
    again and labels it `parse`."""
    try:
        return dsl.parse(program_text)
    except DslSyntaxError:
        return program_text


class EliteArchive:
    """Bounded, fitness-sorted set of evaluated individuals, one per program key."""

    def __init__(self, capacity=30):
        self.capacity = capacity
        self.members = []

    def __len__(self):
        return len(self.members)

    def add(self, ind):
        """Insert an evaluated individual; returns False on duplicate program."""
        if ind.fitness is None:
            raise ValueError("only evaluated individuals enter the archive")
        if any(m.key == ind.key for m in self.members):
            return False
        self.members.append(ind)
        self.members.sort(key=lambda m: (-m.fitness, m.generation_born, m.id))
        if len(self.members) > self.capacity:
            return self.members.pop() is not ind
        return True

    @property
    def best(self):
        return self.members[0] if self.members else None

    def mean_fitness(self):
        if not self.members:
            return 0.0
        return float(np.mean([m.fitness for m in self.members]))


@dataclass
class SearchConfig:
    generations: int = 30
    P1: int = 4
    P2: int = 4
    parallel_responses: int = 4
    prompt_ops: tuple = bridge.PROMPT_OPS
    archive_capacity: int = 30
    pool_size: int = training.USABLE_CORES
    seed: int = 0
    seed_programs: tuple = SEED_NAMES

    def __post_init__(self):
        for name in ("generations", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")
        for name in ("P1", "P2", "parallel_responses", "archive_capacity", "pool_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for op in self.prompt_ops:
            if op not in bridge.PROMPT_OPS:
                raise ValueError(f"unknown prompt operator {op!r}")
        # a replay record is keyed by (gen, op, slot): an op asked twice is ambiguous
        if not self.prompt_ops or len(set(self.prompt_ops)) < len(self.prompt_ops):
            raise ValueError(f"prompt_ops must name one or more distinct prompt operators, "
                             f"got {list(self.prompt_ops)}")
        if not self.seed_programs or not set(self.seed_programs) <= set(builtin_names()):
            raise ValueError(f"seed_programs must name one or more builtin programs, "
                             f"got {list(self.seed_programs)}")


def select_for_prompt(archive, op_kind, P, rng):
    """Prompt-operator selection over the rank-sorted archive.

    E1/E2: ceil(P/2) uniformly from the top ceil(0.2*m) ranks, the rest from
    the remainder. C1: one from the top third, one from the bottom third,
    returned (better, worse). Archives smaller than P are returned whole.
    """
    members = archive.members
    m = len(members)
    if m == 0:
        raise SpecSearchError("cannot select from an empty archive")
    if op_kind == "C1":
        if m < 2:
            raise SpecSearchError("C1 selection needs an archive of at least 2")
        third = math.ceil(m / 3)
        better = members[int(rng.integers(third))]
        worse = members[m - third + int(rng.integers(third))]
        return [better, worse]
    if m <= P:
        return list(members)
    t = math.ceil(0.2 * m)
    top_take = min(math.ceil(P / 2), t)
    rest_take = P - top_take
    top_idx = rng.choice(t, size=top_take, replace=False)
    rest_idx = t + rng.choice(m - t, size=rest_take, replace=False)
    return [members[int(i)] for i in top_idx] + [members[int(i)] for i in rest_idx]


# Outcomes that depend on the machine rather than the program: never memoized.
_MACHINE_BOUND = ("timeout", "crash", "memory")


def _score(candidates, archive, graph, split, train_cfg, pool_size, memo):
    """Score the candidates without a result, training each program key not in
    `memo` once, and add the ok ones to `archive` in candidate order.

    `memo` maps a program's key (`Individual.key`) to the candidate of its first
    training in this search run; the graph, split and train config are fixed
    for a run and training is deterministic per seed, so a hit equals a
    retrain. Only the first candidate of each new key is sent; a repeat takes
    its source's result and names it in `memo_of`. No result keeps its test
    accuracy. A memo of None is a fresh one for this call alone.
    """
    memo = {} if memo is None else memo
    batch = {}                              # key -> its first candidate
    for ind in candidates:
        if ind.result is None and ind.key not in memo:
            batch.setdefault(ind.key, ind)
    results = training.evaluate_batch([ind.program_text for ind in batch.values()],
                                      graph, split, train_cfg, pool_size=pool_size)
    for ind, res in zip(batch.values(), results):
        ind.result = replace(res, test_accuracy=None)
        if res.status not in _MACHINE_BOUND:
            memo[ind.key] = ind
    for ind in candidates:
        if ind.result is None:
            source = batch.get(ind.key) or memo[ind.key]
            ind.result, ind.memo_of = source.result, source.id
        if ind.result.ok:
            ind.fitness = ind.result.fitness
            archive.add(ind)


def init_population(seed_names, graph, split, train_cfg,
                    pool_size=training.USABLE_CORES, capacity=30, log=None, memo=None):
    """Evaluate the classic seed programs and build the initial archive.

    `memo` is the run's fitness memo (see `_score`); None uses a fresh one.
    """
    names = list(dict.fromkeys(seed_names))
    seeds = [Individual(id=i, ideas=builtin_ideas(name), program_text=builtin(name),
                        origin="seed", generation_born=0)
             for i, name in enumerate(names)]
    archive = EliteArchive(capacity=capacity)
    _score(seeds, archive, graph, split, train_cfg, pool_size, memo)
    for name, seed in zip(names, seeds):
        if not seed.result.ok and log is not None:
            log(f"seed {name!r} discarded ({seed.result.status})")
    if len(archive) == 0:
        raise SpecSearchError("all seed programs failed evaluation; cannot start search")
    return archive, [seed.record() for seed in seeds]


def run_generation(archive, backend, graph, split, train_cfg, search_cfg,
                   gen_index, rng, next_id, log=None, memo=None):
    """One search cycle: prompt, complete, parse, evaluate, merge.

    `memo` is the run's fitness memo (see `_score`); None uses a fresh one.
    Returns (generation_log_dict, next_id).
    """
    prompts = []
    bridge_failed = 0      # a skipped or failed call
    for op in search_cfg.prompt_ops:
        if op == "C1" and len(archive) < 2:
            bridge_failed += search_cfg.parallel_responses
            if log is not None:
                log(f"gen {gen_index}: C1 skipped (archive of {len(archive)})")
            continue
        P = {"E1": search_cfg.P1, "E2": search_cfg.P2, "C1": 2}[op]
        chosen = select_for_prompt(archive, op, P, rng)
        prompts.append((op, bridge.render_prompt(op, chosen, graph, train_cfg.hidden)))
    candidates = []        # in (prompt, slot) order, which is id order
    for op, text in bridge.complete(prompts, search_cfg.parallel_responses, backend,
                                    generation=gen_index):
        if text is None:
            bridge_failed += 1
            continue
        try:
            ideas, program_text, result = *bridge.parse_response(text), None
        except MalformedResponse:
            ideas, program_text, result = "", "", training.FitResult("parse")
        candidates.append(Individual(id=next_id, ideas=ideas, program_text=program_text,
                                     origin=op, generation_born=gen_index,
                                     result=result))
        next_id += 1
    _score(candidates, archive, graph, split, train_cfg, search_cfg.pool_size, memo)
    gen_log = {
        "gen": gen_index,
        "candidates": [ind.record() for ind in candidates],
        "bridge_failed": bridge_failed,
        "best_fitness": archive.best.fitness,
        "archive_size": len(archive),
    }
    return gen_log, next_id


@dataclass
class SearchReport:
    best: Individual
    archive: EliteArchive
    seed_records: list
    generation_logs: list = field(default_factory=list)


def run_search(graph, split, search_cfg, train_cfg, backend, out_dir=None, log=None):
    """Full run: seed init plus `generations` cycles; optionally writes artifacts.

    Artifacts under out_dir: generations.jsonl (one object per generation),
    convergence.csv (gen,best,mean,evaluated_ok; row 0 covers seed init),
    best_program.txt.

    Each distinct program (by `dedup_key`) is trained once per run: repeats
    reuse the run's fitness memo (see `_score`). The BLAS pin of
    `training.one_blas_thread` is held for the whole run.
    """
    rng = np.random.default_rng(search_cfg.seed)
    memo = {}
    with training.one_blas_thread():
        archive, seed_records = init_population(
            search_cfg.seed_programs, graph, split, train_cfg,
            pool_size=search_cfg.pool_size, capacity=search_cfg.archive_capacity,
            log=log, memo=memo)
        history = [(0, archive.best.fitness, archive.mean_fitness(),
                    sum(1 for r in seed_records if r["status"] == "ok"))]
        gen_logs = []
        next_id = len(seed_records)
        for gen in range(1, search_cfg.generations + 1):
            gen_log, next_id = run_generation(archive, backend, graph, split,
                                              train_cfg, search_cfg, gen, rng,
                                              next_id, log=log, memo=memo)
            gen_logs.append(gen_log)
            ok = sum(1 for r in gen_log["candidates"] if r["status"] == "ok")
            history.append((gen, archive.best.fitness, archive.mean_fitness(), ok))
    report = SearchReport(best=archive.best, archive=archive,
                          seed_records=seed_records, generation_logs=gen_logs)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "generations.jsonl", "w", encoding="utf-8") as fh:
            for gen_log in gen_logs:
                fh.write(json.dumps(gen_log, sort_keys=True) + "\n")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["gen", "best", "mean", "evaluated_ok"])
        for gen, best, mean, ok in history:
            writer.writerow([gen, f"{best:.6f}", f"{mean:.6f}", ok])
        (out / "convergence.csv").write_text(buf.getvalue(), encoding="utf-8")
        (out / "best_program.txt").write_text(report.best.program_text,
                                              encoding="utf-8")
    return report
