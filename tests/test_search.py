"""Elite archive, prompt selection, and the generation/search orchestration."""

import json
import math
import os

import numpy as np
import pytest

from specsearch import bridge, dsl, graphs, search, training
from specsearch.errors import SpecSearchError
from specsearch.search import EliteArchive, Individual, SearchConfig

from conftest import fake_blas, full_replay_records, make_replay_file, wrap_response


def ind(i, fitness, gen=0, text=None):
    return Individual(id=i, ideas=f"idea {i}",
                      program_text=text or f"mechanism m{i} {{ init {{ Z = X; }} out {{ Y = Z; }} }}",
                      origin="seed", generation_born=gen, fitness=fitness)


def filled_archive(n=30, capacity=30):
    archive = EliteArchive(capacity=capacity)
    for i in range(n):
        archive.add(ind(i, fitness=1.0 - i * 0.01))
    return archive


@pytest.fixture
def search_env():
    g = graphs.gen_synthetic(120, 3, 0.85, 6.0, 10, 1.0, seed=3)
    split = graphs.make_split(120, (0.2, 0.2, 0.6), labels=g.labels, seed=0)
    tcfg = training.TrainConfig(max_epochs=15, patience=15, hidden=16, seed=0)
    return g, split, tcfg


class TestEliteArchive:
    def test_sorted_and_capacity(self):
        archive = filled_archive(40, capacity=30)
        assert len(archive) == 30
        fits = [m.fitness for m in archive.members]
        assert fits == sorted(fits, reverse=True)
        assert archive.best.fitness == 1.0

    def test_tie_break_by_generation_then_id(self):
        archive = EliteArchive(capacity=10)
        archive.add(ind(5, 0.8, gen=2))
        archive.add(ind(3, 0.8, gen=1))
        archive.add(ind(4, 0.8, gen=1))
        assert [m.id for m in archive.members] == [3, 4, 5]

    def test_dedup_by_whitespace_collapsed_program(self):
        archive = EliteArchive(capacity=10)
        text = "mechanism m { init { Z = X; } out { Y = Z; } }"
        assert archive.add(ind(0, 0.9, text=text))
        spaced = text.replace("{ init", "{\n  init")
        assert not archive.add(ind(1, 0.8, text=spaced))
        commented = text.replace("{ init", "{ # propagate nothing\n init")
        assert search.dedup_key(commented) == search.dedup_key(text)
        assert not archive.add(ind(2, 0.8, text=commented))
        renamed = text.replace("mechanism m", "mechanism m2")
        assert search.dedup_key(renamed) != search.dedup_key(text)
        assert archive.add(ind(3, 0.8, text=renamed))
        assert len(archive) == 2

    def test_rejects_unevaluated(self):
        archive = EliteArchive()
        with pytest.raises(ValueError):
            archive.add(Individual(id=0, ideas="", program_text="x",
                                   origin="seed", generation_born=0))

    def test_worst_dropped_on_overflow(self):
        archive = filled_archive(3, capacity=3)
        assert archive.add(ind(99, 0.995))
        assert all(m.id != 2 for m in archive.members)

    def test_each_program_parsed_once(self, monkeypatch):
        calls = []
        parse = dsl.parse
        monkeypatch.setattr(dsl, "parse", lambda text: calls.append(text) or parse(text))
        archive = EliteArchive(capacity=2)
        for i, fitness in enumerate([0.7, 0.8, 0.9]):
            archive.add(ind(i, fitness))
        assert [m.id for m in archive.members] == [2, 1]
        assert len(calls) == 3
        assert archive.add(ind(3, 0.95, text=ind(0, 0).program_text))
        assert [m.id for m in archive.members] == [3, 2]


class TestRecord:
    RESULT = training.FitResult("ok", fitness=0.5, epochs_run=7, best_epoch=3,
                                wall_seconds=1.2344, cpu_seconds=2.3461, peak_rss_mb=70.06)

    def test_trained_candidate_rounds_its_spend(self):
        cand = Individual(id=2, ideas="", program_text="x", origin="E1",
                          generation_born=1, result=self.RESULT)
        rec = cand.record()
        assert list(rec) == ["id", "op", "status", "fitness", "epochs_run", "best_epoch",
                             "wall_seconds", "cpu_seconds", "peak_rss_mb"]
        assert rec == {"id": 2, "op": "E1", "status": "ok", "fitness": 0.5, "epochs_run": 7,
                       "best_epoch": 3, "wall_seconds": 1.234, "cpu_seconds": 2.346,
                       "peak_rss_mb": 70.1}

    def test_memo_hit_spent_nothing(self):
        hit = Individual(id=9, ideas="", program_text="x", origin="C1", generation_born=2,
                         result=self.RESULT, memo_of=2)
        rec = hit.record()
        assert list(rec)[-1] == "memo_of" and rec["memo_of"] == 2
        assert (rec["id"], rec["op"], rec["fitness"], rec["epochs_run"]) == (9, "C1", 0.5, 7)
        assert rec["wall_seconds"] == rec["cpu_seconds"] == rec["peak_rss_mb"] == 0.0


class TestSelection:
    def test_e1_rank_partition(self):
        archive = filled_archive(30)
        rng = np.random.default_rng(0)
        for _ in range(50):
            chosen = search.select_for_prompt(archive, "E1", 4, rng)
            ranks = sorted(archive.members.index(c) + 1 for c in chosen)
            assert len(chosen) == len(set(id(c) for c in chosen)) == 4
            assert sum(1 for r in ranks if r <= 6) == 2
            assert sum(1 for r in ranks if r >= 7) == 2

    def test_c1_rank_bounds_and_order(self):
        archive = filled_archive(30)
        rng = np.random.default_rng(1)
        for _ in range(200):
            better, worse = search.select_for_prompt(archive, "C1", 2, rng)
            assert archive.members.index(better) + 1 <= 10
            assert archive.members.index(worse) + 1 >= 21
            assert better.fitness >= worse.fitness

    def test_small_archive_clamped(self):
        archive = filled_archive(2)
        rng = np.random.default_rng(2)
        chosen = search.select_for_prompt(archive, "E2", 4, rng)
        assert len(chosen) == 2

    def test_empty_archive_fatal(self):
        with pytest.raises(SpecSearchError):
            search.select_for_prompt(EliteArchive(), "E1", 4,
                                     np.random.default_rng(0))

    def test_c1_needs_two(self):
        with pytest.raises(SpecSearchError):
            search.select_for_prompt(filled_archive(1), "C1", 2,
                                     np.random.default_rng(0))


class TestInitPopulation:
    def test_four_seeds_sorted(self, search_env):
        g, split, tcfg = search_env
        archive, records = search.init_population(
            ["gcn", "appnp", "gpr", "fagcn-lite"], g, split, tcfg)
        assert len(archive) == 4
        fits = [m.fitness for m in archive.members]
        assert fits == sorted(fits, reverse=True)
        assert all(r["status"] == "ok" for r in records)

    def test_duplicate_seed_collapsed(self, search_env):
        g, split, tcfg = search_env
        archive, records = search.init_population(["gcn", "gcn"], g, split, tcfg)
        assert len(archive) == 1 and len(records) == 1

    def test_all_seeds_failing_is_fatal(self, search_env, monkeypatch):
        g, split, tcfg = search_env
        monkeypatch.setattr(
            search.training, "evaluate_batch",
            lambda *a, **k: [training.FitResult("numeric")])
        with pytest.raises(SpecSearchError, match="seed"):
            search.init_population(["gcn"], g, split, tcfg)


class TestRunGeneration:
    def run_one(self, search_env, tmp_path, override=None, archive_size=4):
        g, split, tcfg = search_env
        scfg = SearchConfig(generations=1, pool_size=4, seed=0)
        archive, _ = search.init_population(scfg.seed_programs, g, split, tcfg)
        path = make_replay_file(tmp_path, full_replay_records(1, override=override))
        backend = bridge.ReplayBackend(path)
        gen_log, next_id = search.run_generation(
            archive, backend, g, split, tcfg, scfg, 1,
            np.random.default_rng(0), next_id=4)
        return archive, gen_log

    def test_full_accounting(self, search_env, tmp_path):
        archive, gen_log = self.run_one(search_env, tmp_path)
        assert len(gen_log["candidates"]) + gen_log["bridge_failed"] == 12
        assert gen_log["archive_size"] == len(archive) <= 30

    def test_malformed_responses_logged_as_parse(self, search_env, tmp_path):
        override = {
            (1, "E1", 0): "prose without any code",
            (1, "E1", 1): "two\n```\na\n```\nblocks\n```\nb\n```",
            (1, "E2", 0): "fence\n```\n\n```",
        }
        archive, gen_log = self.run_one(search_env, tmp_path, override=override)
        statuses = [c["status"] for c in gen_log["candidates"]]
        assert statuses.count("parse") == 3
        assert sum(1 for s in statuses if s == "ok") <= 9
        # one id per response, in (request, slot) order: E1 takes 4-7, E2 8-11, C1 12-15
        assert [c["id"] for c in gen_log["candidates"]] == list(range(4, 16))
        malformed = [c for c in gen_log["candidates"] if c["id"] in (4, 5, 8)]
        for rec in malformed:
            assert rec["status"] == "parse" and rec["wall_seconds"] == 0.0
            assert rec["cpu_seconds"] is None and rec["peak_rss_mb"] is None
            assert "memo_of" not in rec

    def test_duplicate_candidate_not_duplicated(self, search_env, tmp_path):
        override = {(1, op, s): wrap_response(dsl.builtin("gcn"))
                    for op in ("E1", "E2", "C1") for s in range(4)}
        archive, gen_log = self.run_one(search_env, tmp_path, override=override)
        keys = [search.dedup_key(m.program_text) for m in archive.members]
        assert len(keys) == len(set(keys))
        assert len(archive) == 4   # all 12 candidates duplicate the gcn seed

    def test_best_fitness_non_decreasing(self, search_env, tmp_path):
        g, split, tcfg = search_env
        scfg = SearchConfig(generations=1, pool_size=4, seed=0)
        archive, _ = search.init_population(scfg.seed_programs, g, split, tcfg)
        before = archive.best.fitness
        path = make_replay_file(tmp_path, full_replay_records(1))
        search.run_generation(archive, bridge.ReplayBackend(path), g, split,
                              tcfg, scfg, 1, np.random.default_rng(0), next_id=4)
        assert archive.best.fitness >= before


def spy_on_batches(monkeypatch, fake=None):
    """Record the texts of every evaluate_batch call; `fake` replaces its results."""
    sent = []
    real = training.evaluate_batch

    def spy(texts, *args, **kwargs):
        sent.append(list(texts))
        if fake is not None:
            return [fake for _ in texts]
        return real(texts, *args, **kwargs)

    monkeypatch.setattr(search.training, "evaluate_batch", spy)
    return sent


class TestFitnessMemo:
    GCN_EVERYWHERE = {(gen, op, s): wrap_response(dsl.builtin("gcn"))
                      for gen in (1, 2) for op in ("E1", "E2", "C1") for s in range(4)}

    def seeded(self, search_env, tmp_path, generations=1):
        g, split, tcfg = search_env
        scfg = SearchConfig(generations=generations, pool_size=4, seed=0)
        archive, _ = search.init_population(scfg.seed_programs, g, split, tcfg)
        path = make_replay_file(tmp_path, full_replay_records(
            generations, override=self.GCN_EVERYWHERE))
        return archive, bridge.ReplayBackend(path), scfg

    def test_repeated_proposal_trained_once(self, search_env, tmp_path, monkeypatch):
        g, split, tcfg = search_env
        archive, backend, scfg = self.seeded(search_env, tmp_path)
        sent = spy_on_batches(monkeypatch)
        gen_log, _ = search.run_generation(archive, backend, g, split, tcfg, scfg, 1,
                                           np.random.default_rng(0), next_id=4)
        assert sent == [[dsl.builtin("gcn").strip()]]
        first, *repeats = gen_log["candidates"]
        assert len(repeats) == 11 and "memo_of" not in first
        assert all(r["memo_of"] == first["id"] for r in repeats)
        assert all(r["status"] == "ok" and r["wall_seconds"] == 0.0 for r in repeats)
        assert first["cpu_seconds"] > 0 and first["peak_rss_mb"] > 0
        assert all(r["cpu_seconds"] == r["peak_rss_mb"] == 0.0 for r in repeats)
        assert {r["fitness"] for r in gen_log["candidates"]} == {first["fitness"]}
        assert {r["epochs_run"] for r in gen_log["candidates"]} == {first["epochs_run"]}
        assert first["best_epoch"] >= 1
        assert {r["best_epoch"] for r in gen_log["candidates"]} == {first["best_epoch"]}

    @pytest.mark.parametrize("reason, resent", [("timeout", True), ("crash", True),
                                                ("numeric", False), ("memory", True)])
    def test_machine_bound_outcomes_resent(self, search_env, tmp_path, monkeypatch,
                                           reason, resent):
        g, split, tcfg = search_env
        archive, backend, scfg = self.seeded(search_env, tmp_path, generations=2)
        sent = spy_on_batches(monkeypatch, training.FitResult(reason))
        memo = {}
        for gen in (1, 2):
            gen_log, _ = search.run_generation(archive, backend, g, split, tcfg, scfg,
                                               gen, np.random.default_rng(gen),
                                               next_id=12 * gen, memo=memo)
            assert [r["status"] for r in gen_log["candidates"]] == [reason] * 12
        gcn = dsl.builtin("gcn").strip()
        assert sent == [[gcn], [gcn] if resent else []]

    def test_proposal_repeating_a_seed_reuses_its_training(self, search_env, tmp_path,
                                                          monkeypatch):
        # The memo is keyed on `dedup_key`, so a seed the LLM repeats, in any
        # layout, hits the seed's entry and is never sent again.
        g, split, tcfg = search_env
        scfg = SearchConfig(generations=2, pool_size=4, seed=0)
        path = make_replay_file(tmp_path, full_replay_records(
            2, override=self.GCN_EVERYWHERE))
        sent = spy_on_batches(monkeypatch)
        search.run_search(g, split, scfg, tcfg, bridge.ReplayBackend(path))
        assert [t for batch in sent for t in batch].count(dsl.builtin("gcn")) == 1
        assert sent[1:] == [[], []]

    def test_reformatted_twins_share_one_training(self, search_env, tmp_path, monkeypatch):
        g, split, tcfg = search_env
        scfg = SearchConfig(generations=1, pool_size=4, seed=0)
        gcn = dsl.builtin("gcn")
        commented = gcn.replace("{", "{ # the seed, annotated\n", 1)
        respaced = gcn.replace(" ", "   ")
        broken = "mechanism broken {"
        slots = [(1, op, s) for op in ("E1", "E2", "C1") for s in range(4)]
        override = dict.fromkeys(slots)               # None: a failed call
        override.update(zip(slots[0:3] + slots[4:7],
                            map(wrap_response, [commented, respaced, broken] * 2)))
        path = make_replay_file(tmp_path, full_replay_records(1, override=override))
        memo = {}
        archive, _ = search.init_population(scfg.seed_programs, g, split, tcfg, memo=memo)
        sent = spy_on_batches(monkeypatch)
        parsed = []
        parse = dsl.parse
        monkeypatch.setattr(dsl, "parse", lambda text: parsed.append(text) or parse(text))
        gen_log, _ = search.run_generation(archive, bridge.ReplayBackend(path), g, split,
                                           tcfg, scfg, 1, np.random.default_rng(0),
                                           next_id=4, memo=memo)
        assert sent == [[broken]]
        records = gen_log["candidates"]         # commented, respaced, broken, twice
        assert [r["id"] for r in records] == list(range(4, 10))
        gcn_id = scfg.seed_programs.index("gcn")
        for twin in records[0:2] + records[3:5]:
            assert twin["memo_of"] == gcn_id and twin["status"] == "ok"
        assert [r["status"] for r in records[2::3]] == ["parse", "parse"]
        assert len(parsed) == len(records) + 1
        assert len(archive) == 4

    def test_run_never_sends_a_text_twice(self, search_env, tmp_path, monkeypatch):
        g, split, tcfg = search_env
        scfg = SearchConfig(generations=2, pool_size=4, seed=0)
        path = make_replay_file(tmp_path, full_replay_records(2))
        sent = spy_on_batches(monkeypatch)
        report = search.run_search(g, split, scfg, tcfg, bridge.ReplayBackend(path))
        texts = [t for batch in sent for t in batch]
        assert len(sent) == 3 and len(texts) == len(set(texts))
        records = report.seed_records + [c for gl in report.generation_logs
                                         for c in gl["candidates"]]
        by_id = {r["id"]: r for r in records}
        hits = [r for r in records if "memo_of" in r]
        assert len(hits) == len(records) - len(texts) > 0
        for hit in hits:
            source = by_id[hit["memo_of"]]
            assert "memo_of" not in source and source["id"] < hit["id"]
            assert (hit["status"], hit["fitness"], hit["epochs_run"], hit["best_epoch"]) == \
                (source["status"], source["fitness"], source["epochs_run"], source["best_epoch"])


class TestRunSearch:
    def test_three_generation_replay(self, search_env, tmp_path):
        g, split, tcfg = search_env
        scfg = SearchConfig(generations=3, pool_size=4, seed=0)
        path = make_replay_file(tmp_path, full_replay_records(3))
        out = tmp_path / "run"
        report = search.run_search(g, split, scfg, tcfg,
                                   bridge.ReplayBackend(path), out_dir=out)
        assert len(report.generation_logs) == 3
        total = sum(len(gl["candidates"]) + gl["bridge_failed"]
                    for gl in report.generation_logs)
        assert total == 36
        lines = (out / "generations.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["gen"] == 1
        csv_text = (out / "convergence.csv").read_text()
        assert csv_text.splitlines()[0] == "gen,best,mean,evaluated_ok"
        assert len(csv_text.splitlines()) == 5   # header + seed row + 3 generations
        assert (out / "best_program.txt").read_text() == report.best.program_text

    def test_search_holds_no_test_accuracy(self, search_env, tmp_path):
        g, split, tcfg = search_env
        scfg = SearchConfig(generations=1, pool_size=4, seed=0)
        path = make_replay_file(tmp_path, full_replay_records(1))
        report = search.run_search(g, split, scfg, tcfg, bridge.ReplayBackend(path))
        assert report.archive.members
        assert not any(hasattr(m, "test_accuracy") for m in report.archive.members)
        assert all(m.result.test_accuracy is None for m in report.archive.members)
        records = report.seed_records + report.generation_logs[0]["candidates"]
        assert not any("test_accuracy" in r for r in records)

    def test_blas_pin_held_for_the_whole_run(self, search_env, tmp_path, monkeypatch):
        g, split, tcfg = search_env
        calls = fake_blas(monkeypatch, 2)
        seen, real = [], training.evaluate_batch

        def batch(*args, **kwargs):
            seen.append(list(calls))
            return real(*args, **kwargs)
        monkeypatch.setattr(training, "evaluate_batch", batch)
        scfg = SearchConfig(generations=1, pool_size=4, seed=0)
        path = make_replay_file(tmp_path, full_replay_records(1))
        search.run_search(g, split, scfg, tcfg, bridge.ReplayBackend(path))
        assert seen == [[1], [1]]        # the seeds' batch and generation 1's
        assert calls == [1, 2]

    def test_zero_generations(self, search_env, tmp_path):
        g, split, tcfg = search_env
        scfg = SearchConfig(generations=0, pool_size=4, seed=0)
        path = make_replay_file(tmp_path, [])
        report = search.run_search(g, split, scfg, tcfg,
                                   bridge.ReplayBackend(path),
                                   out_dir=tmp_path / "zero")
        assert report.generation_logs == []
        assert len(report.seed_records) == 4

    def test_byte_identical_reruns(self, search_env, tmp_path):
        g, split, tcfg = search_env
        scfg = SearchConfig(generations=2, pool_size=4, seed=0)
        path = make_replay_file(tmp_path, full_replay_records(2))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            search.run_search(g, split, scfg, tcfg, bridge.ReplayBackend(path),
                              out_dir=out)
            logs = [json.loads(line) for line in
                    (out / "generations.jsonl").read_text().splitlines()]
            for gl in logs:   # time and memory use are measurements, not part of the contract
                for cand in gl["candidates"]:
                    for key in ("wall_seconds", "cpu_seconds", "peak_rss_mb"):
                        cand.pop(key)
            outs.append({
                "convergence": (out / "convergence.csv").read_bytes(),
                "best": (out / "best_program.txt").read_bytes(),
                "logs": logs,
            })
        assert outs[0] == outs[1]

    def test_config_candidate_arithmetic(self):
        scfg = SearchConfig()
        assert scfg.generations == 30
        assert scfg.P1 == scfg.P2 == scfg.parallel_responses == 4
        assert scfg.archive_capacity == 30
        assert len(scfg.prompt_ops) * scfg.parallel_responses == 12

    def test_default_pool_size_is_usable_cores(self):
        assert SearchConfig().pool_size == len(os.sched_getaffinity(0))


class TestSearchConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("generations", -1, "generations must be at least 0"),
        ("P1", 0, "P1 must be at least 1"),
        ("P2", 0, "P2 must be at least 1"),
        ("parallel_responses", 0, "parallel_responses must be at least 1"),
        ("archive_capacity", 0, "archive_capacity must be at least 1"),
        ("prompt_ops", ("E1", "E9"), "unknown prompt operator 'E9'"),
        ("seed_programs", (), r"seed_programs must name one or more builtin programs, got \[\]"),
        ("seed_programs", ("gcn", "nope"), r"seed_programs must .*, got \['gcn', 'nope'\]"),
        ("prompt_ops", (), r"prompt_ops must name one or more distinct prompt operators, "
                           r"got \[\]"),
        ("prompt_ops", ("E1", "E1"), r"distinct prompt operators, got \['E1', 'E1'\]"),
    ])
    def test_value_no_run_can_use_is_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SearchConfig(**{field: value})

    def test_seed_only_run_is_accepted(self):
        assert SearchConfig(generations=0, prompt_ops=("C1",)).generations == 0
