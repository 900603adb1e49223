"""Evolutionary loop: elite archive, prompt-operator selection, generations."""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bridge, dsl, training
from .dsl.corpus import SEED_NAMES, builtin, builtin_ideas
from .errors import DslSyntaxError, MalformedResponse, SpecSearchError


@dataclass
class Individual:
    id: int
    ideas: str
    program_text: str
    origin: str                 # seed | E1 | E2 | C1
    generation_born: int
    fitness: float = None
    test_accuracy: float = None

    def __post_init__(self):
        if not self.program_text:
            raise ValueError("program_text must be non-empty")


def dedup_key(program_text):
    """Whitespace-collapsed canonical form; falls back to collapsed raw text."""
    try:
        canonical = dsl.print_program(dsl.parse(program_text))
    except SpecSearchError:
        canonical = program_text
    return re.sub(r"\s+", " ", canonical).strip()


class EliteArchive:
    """Bounded, fitness-sorted set of evaluated individuals with program dedup."""

    def __init__(self, capacity=30):
        self.capacity = capacity
        self.members = []
        self._keys = {}                 # dedup key -> member

    def __len__(self):
        return len(self.members)

    def add(self, ind):
        """Insert an evaluated individual; returns False on duplicate program."""
        if ind.fitness is None:
            raise ValueError("only evaluated individuals enter the archive")
        key = dedup_key(ind.program_text)
        if key in self._keys:
            return False
        self.members.append(ind)
        self.members.sort(key=lambda m: (-m.fitness, m.generation_born, m.id))
        self._keys[key] = ind
        if len(self.members) > self.capacity:
            dropped = self.members.pop()
            del self._keys[next(k for k, m in self._keys.items() if m is dropped)]
            if dropped is ind:
                return False
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
    prompt_ops: tuple = ("E1", "E2", "C1")
    archive_capacity: int = 30
    pool_size: int = training.USABLE_CORES
    seed: int = 0
    seed_programs: tuple = SEED_NAMES

    def __post_init__(self):
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be at least 1, got {self.pool_size}")

    @property
    def candidates_per_generation(self):
        return len(self.prompt_ops) * self.parallel_responses

    def to_dict(self):
        return {"generations": self.generations, "P1": self.P1, "P2": self.P2,
                "parallel_responses": self.parallel_responses,
                "prompt_ops": list(self.prompt_ops),
                "archive_capacity": self.archive_capacity,
                "pool_size": self.pool_size, "seed": self.seed,
                "seed_programs": list(self.seed_programs)}


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
_MACHINE_BOUND = ("timeout", "crash")


def _score_texts(ids, texts, graph, split, train_cfg, pool_size, memo):
    """Score candidate texts, training each text not in `memo` once.

    `memo` maps a program's exact text to (candidate id, FitResult) of its
    first training in this search run; the graph, split and train config are
    fixed for a run and training is deterministic per seed, so a hit equals a
    retrain. Returns one (record fields, FitResult) per text; a repeat carries
    its source's status and fitness, `memo_of` the source id and its own
    wall_seconds of 0. A memo of None is a fresh one for this call alone.
    """
    memo = {} if memo is None else memo
    batch = {}                              # text -> id of its first candidate
    for cid, text in zip(ids, texts):
        if text not in memo:
            batch.setdefault(text, cid)
    results = training.evaluate_batch(list(batch), graph, split, train_cfg,
                                      pool_size=pool_size)
    fresh = {text: (cid, res) for (text, cid), res in zip(batch.items(), results)}
    memo.update((text, hit) for text, hit in fresh.items()
                if hit[1].reason not in _MACHINE_BOUND)
    scored = []
    for cid, text in zip(ids, texts):
        source, res = fresh.get(text) or memo[text]
        if source == cid:
            scored.append((res.to_dict(), res))
        else:
            scored.append(({**replace(res, wall_seconds=0.0).to_dict(),
                            "memo_of": source}, res))
    return scored


def init_population(seed_names, graph, split, train_cfg,
                    pool_size=training.USABLE_CORES, capacity=30, log=None, memo=None):
    """Evaluate the classic seed programs and build the initial archive.

    `memo` is the run's fitness memo (see `_score_texts`); None uses a fresh one.
    """
    names = list(dict.fromkeys(seed_names))
    texts = [builtin(name) for name in names]
    scored = _score_texts(range(len(names)), texts, graph, split, train_cfg,
                          pool_size, memo)
    archive = EliteArchive(capacity=capacity)
    records = []
    for i, (name, text, (fields, res)) in enumerate(zip(names, texts, scored)):
        records.append({"id": i, "op": "seed", **fields})
        if res.ok:
            archive.add(Individual(id=i, ideas=builtin_ideas(name),
                                   program_text=text, origin="seed",
                                   generation_born=0, fitness=res.fitness,
                                   test_accuracy=res.test_accuracy))
        elif log is not None:
            log(f"seed {name!r} discarded ({res.reason})")
    if len(archive) == 0:
        raise SpecSearchError("all seed programs failed evaluation; cannot start search")
    return archive, records


def run_generation(archive, backend, graph, split, train_cfg, search_cfg,
                   gen_index, rng, next_id, log=None, memo=None):
    """One search cycle: prompt, complete, parse, evaluate, merge.

    `memo` is the run's fitness memo (see `_score_texts`); None uses a fresh one.
    Returns (generation_log_dict, next_id).
    """
    basic = bridge.default_basic_content(graph)
    request_info = bridge.default_request_info(train_cfg.hidden)
    requests = []
    skipped_slots = 0
    for op in search_cfg.prompt_ops:
        if op == "C1" and len(archive) < 2:
            skipped_slots += search_cfg.parallel_responses
            if log is not None:
                log(f"gen {gen_index}: C1 skipped (archive of {len(archive)})")
            continue
        P = {"E1": search_cfg.P1, "E2": search_cfg.P2, "C1": 2}[op]
        chosen = select_for_prompt(archive, op, P, rng)
        embedded = tuple((m.ideas, m.program_text, m.fitness) for m in chosen)
        requests.append(bridge.PromptRequest(op_kind=op, basic_content=basic,
                                             embedded_individuals=embedded,
                                             request_info=request_info))
    responses = bridge.complete(requests, search_cfg.parallel_responses, backend,
                                generation=gen_index)
    candidates = []        # (record, Individual or None)
    to_evaluate = []       # indices into candidates
    bridge_failed = skipped_slots
    for resp in responses:
        if resp.failed:
            bridge_failed += 1
            continue
        cid = next_id
        next_id += 1
        try:
            ideas, program_text = bridge.parse_response(resp)
        except MalformedResponse:
            rejected = training.FitResult("discarded", reason="parse")
            candidates.append(({"id": cid, "op": resp.op_kind, **rejected.to_dict()}, None))
            continue
        ind = Individual(id=cid, ideas=ideas, program_text=program_text,
                         origin=resp.op_kind, generation_born=gen_index)
        rec = {"id": cid, "op": resp.op_kind}    # scoring fills in the rest
        candidates.append((rec, ind))
        to_evaluate.append(len(candidates) - 1)
    scored = _score_texts([candidates[i][1].id for i in to_evaluate],
                          [candidates[i][1].program_text for i in to_evaluate],
                          graph, split, train_cfg, search_cfg.pool_size, memo)
    for i, (fields, res) in zip(to_evaluate, scored):
        rec, ind = candidates[i]
        rec.update(fields)
        if res.ok:
            ind.fitness = res.fitness
            ind.test_accuracy = res.test_accuracy
            archive.add(ind)
    gen_log = {
        "gen": gen_index,
        "candidates": [rec for rec, _ in candidates],
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

    Each distinct program text is trained once per run: repeats reuse the
    run's fitness memo (see `_score_texts`).
    """
    rng = np.random.default_rng(search_cfg.seed)
    memo = {}
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
