"""Prompt rendering, completion backends, response parsing, and the proposal
path from archive to candidates."""

import hashlib
import json
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from specsearch import bridge, dsl, graphs, search, training
from specsearch.bridge import CLOSING_SENTENCE, LiveBackend, ReplayBackend
from specsearch.dsl.corpus import builtin_ideas
from specsearch.dsl.parser import CALLS, GRAPH_CTORS, K_MAX
from specsearch.errors import MalformedResponse, SpecSearchError
from specsearch.search import Individual, SearchConfig

from conftest import full_replay_records, make_replay_file, wrap_response

GRAPH = graphs.gen_synthetic(40, 3, 0.8, 4.0, 6, 1.0, seed=0)


def members(count, fitnesses=None):
    fitnesses = fitnesses or [0.9 - 0.1 * i for i in range(count)]
    return [Individual(id=i, ideas=f"Idea {i}.",
                       program_text=dsl.builtin("appnp").replace("alpha = 0.1",
                                                                 f"alpha = 0.{i+1}"),
                       origin="seed", generation_born=0, fitness=fitnesses[i])
            for i in range(count)]


def render(op_kind="E1", count=4, fitnesses=None):
    return bridge.render_prompt(op_kind, members(count, fitnesses), GRAPH, 64)


class TestRenderPrompt:
    def test_e1_four_fenced_blocks(self):
        text = render("E1", 4)
        assert len(bridge._FENCE_RE.findall(text)) == 4
        assert text.count("```") == 8
        assert "completely different" in text

    def test_e2_wording(self):
        assert "identify the common ideas" in render("E2", 4)

    def test_c1_scores_and_order(self):
        text = render("C1", 2, fitnesses=[0.85, 0.60])
        assert "0.8500" in text and "0.6000" in text
        assert text.index("higher-score") < text.index("lower-score")
        assert text.index("0.8500") < text.index("0.6000")

    def test_ends_with_closing_sentence(self):
        for op, count in (("E1", 4), ("E2", 4), ("C1", 2)):
            assert render(op, count).endswith(CLOSING_SENTENCE + "\n")

    def test_e1_hides_fitness(self):
        assert "0.4321" not in render("E1", 4, fitnesses=[0.4321] * 4)

    def test_pure_function(self):
        assert render("E2", 4) == render("E2", 4)

    # sha256 of each prompt over this archive, graph and hidden size, recorded
    # before the renderer took archive members: the bytes an LLM sees are pinned.
    PINNED = {"E1": "60abc59cf7ff6dc332821d0f70b5fa19c45a699cf8764da3ff6232864f652f78",
              "E2": "574aa5a92ab4b142844a40b8931a23c0f5fa8ad938f303136e2000ffa1f9dd93",
              "C1": "d1a0db4c14fb083843894856e4169c3d0972723674462cb7e79adbf4927058f0"}

    @pytest.mark.parametrize("op_kind", bridge.PROMPT_OPS)
    def test_pinned_prompt_bytes(self, op_kind):
        names = ("appnp", "gpr", "chameleon-gated", "gcn", "cornell-attn-mix")
        archive = [Individual(id=i, ideas=builtin_ideas(n), program_text=dsl.builtin(n),
                              origin="seed", generation_born=0, fitness=0.91 - 0.125 * i)
                   for i, n in enumerate(names)]
        chosen = {"E1": archive[:4], "E2": archive[1:], "C1": [archive[0], archive[4]]}
        text = bridge.render_prompt(op_kind, chosen[op_kind], GRAPH, 32)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[op_kind]

    @pytest.mark.parametrize("name", sorted(CALLS) + sorted(GRAPH_CTORS))
    def test_grammar_summary_names_the_vocabulary(self, name):
        assert re.search(rf"\b{name}\(", bridge.GRAMMAR_SUMMARY)

    def test_grammar_summary_states_the_k_cap(self):
        assert f"K = <int, at most {K_MAX}>" in bridge.GRAMMAR_SUMMARY


PROMPTS = [(op, render(op, 2 if op == "C1" else 4)) for op in ("E1", "E2", "C1")]


class TestReplayBackend:
    def test_complete_ordering_and_determinism(self, tmp_path):
        path = make_replay_file(tmp_path, full_replay_records(1))
        a = bridge.complete(PROMPTS, 4, ReplayBackend(path), generation=1)
        b = bridge.complete(PROMPTS, 4, ReplayBackend(path), generation=1)
        texts = {(r["op"], r["slot"]): r["text"] for r in full_replay_records(1)}
        assert a == [(op, texts[op, s]) for op in ("E1", "E2", "C1") for s in range(4)]
        assert a == b

    def test_missing_key_is_fatal(self, tmp_path):
        path = make_replay_file(tmp_path, full_replay_records(1, ops=("E1",)))
        with pytest.raises(SpecSearchError, match="no record"):
            bridge.complete(PROMPTS[1:2], 4, ReplayBackend(path), generation=1)

    def test_duplicate_key_rejected(self, tmp_path):
        recs = full_replay_records(1, ops=("E1",), slots=1) * 2
        path = make_replay_file(tmp_path, recs)
        with pytest.raises(SpecSearchError, match="duplicate"):
            ReplayBackend(path)

    @pytest.mark.parametrize("line, cause", [
        ("{not json", "JSONDecodeError"),
        ('{"gen": 1, "op": "E2", "slot": 0}', "KeyError: 'text'"),
        ('{"gen": "one", "op": "E2", "slot": 0, "text": null}', "ValueError"),
        ("[1, 2]", "TypeError"),
        ('{"gen": 1, "op": "E2", "slot": 0, "text": 5}', "TypeError"),
        ('{"gen": 1, "op": "E2", "slot": 0, "text": ["a"]}', "TypeError"),
        ('{"gen": 1.7, "op": "E1", "slot": true, "text": null}',
         "ValueError: gen and slot must be JSON integers, got (1.7, 'E1', True)"),
        ('{"gen": "1", "op": "E1", "slot": 0, "text": null}', "got ('1', 'E1', 0)"),
        ('{"gen": 1, "op": "E1", "slot": 0.0, "text": null}', "got (1, 'E1', 0.0)"),
        ('{"gen": -3, "op": "E9", "slot": -1, "text": null}',
         "ValueError: no search asks for (-3, 'E9', -1)"),
        ('{"gen": 1, "op": 5, "slot": 0, "text": null}', "no search asks for (1, 5, 0)"),
        ('{"gen": 1, "op": "e1", "slot": 0, "text": null}', "no search asks for (1, 'e1', 0)"),
        ('{"gen": -1, "op": "E1", "slot": 0, "text": null}', "no search asks for (-1, 'E1', 0)"),
        ('{"gen": 1, "op": "C1", "slot": -2, "text": null}', "no search asks for (1, 'C1', -2)"),
    ])
    def test_malformed_record_names_its_line(self, tmp_path, line, cause):
        path = make_replay_file(tmp_path, full_replay_records(1, ops=("E1",), slots=1))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n" + line + "\n")
        with pytest.raises(SpecSearchError, match=f"line 3: .*{re.escape(cause)}"):
            ReplayBackend(path)

    def test_null_text_is_a_failed_call(self, tmp_path):
        rec = {"gen": 1, "op": "E1", "slot": 0, "text": None}
        backend = ReplayBackend(make_replay_file(tmp_path, [rec]))
        assert bridge.complete(PROMPTS[:1], 1, backend, generation=1) == [("E1", None)]


class _FlakyHandler(BaseHTTPRequestHandler):
    """Fails every request for one slot-marker; succeeds otherwise."""

    calls = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).calls.append(body)
        if "FAIL-MARKER" in body["messages"][0]["content"]:
            self.send_response(500)
            self.end_headers()
            return
        payload = json.dumps(
            {"choices": [{"message": {"content": wrap_response(dsl.builtin("gcn"))}}]})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload.encode())

    def log_message(self, *args):
        pass


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers the i-th POST with the i-th of `replies`, recording each body in `calls`."""

    replies = []
    calls = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        reply = self.replies[len(self.calls)]
        self.calls.append(body)
        payload = json.dumps({"choices": [{"message": {"content": reply}}]})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload.encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def serve():
    """Start a local HTTP server for a handler class; returns its base URL."""
    servers = []

    def start(handler):
        server = HTTPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}"
    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def http_server(serve):
    return serve(_FlakyHandler)


class TestLiveBackend:
    @pytest.mark.parametrize("temperature", [-1, -1e-9, float("nan")])
    def test_temperature_no_call_can_use_is_rejected(self, temperature):
        with pytest.raises(ValueError, match="temperature must be at least 0"):
            LiveBackend("http://localhost", "m", temperature=temperature)

    def test_zero_temperature_is_accepted(self):
        assert LiveBackend("http://localhost", "m", temperature=0).temperature == 0

    # No request can reach these: no scheme urllib can open, no host, or a port
    # outside 1..65535.
    @pytest.mark.parametrize("url", ["", "http//x", "localhost:8000/v1", "ftp://x",
                                     "http://", "https:///v1", "http://127.0.0.1:99999",
                                     "http://127.0.0.1:abc", "http://h:0"])
    def test_url_no_request_can_use_is_rejected(self, url):
        with pytest.raises(ValueError, match="base_url must be an http or https URL") as exc:
            LiveBackend(url, "m")
        assert repr(url) in str(exc.value)

    @pytest.mark.parametrize("url, stored", [
        ("http://localhost", "http://localhost"),
        ("https://api.example.com/v1/", "https://api.example.com/v1"),
        ("http://127.0.0.1:8000", "http://127.0.0.1:8000"),
    ])
    def test_http_url_with_a_host_is_accepted(self, url, stored):
        assert LiveBackend(url, "m").base_url == stored

    def test_success_and_isolated_failure(self, http_server, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        backend = LiveBackend(http_server, "test-model")
        _FlakyHandler.calls = []
        responses = bridge.complete([PROMPTS[0], ("E1", "FAIL-MARKER")], 1, backend,
                                    generation=0)
        assert responses == [("E1", wrap_response(dsl.builtin("gcn"))), ("E1", None)]
        fail_calls = [c for c in _FlakyHandler.calls
                      if "FAIL-MARKER" in c["messages"][0]["content"]]
        assert len(fail_calls) == 3   # initial try plus two retries

    def test_bearer_header_from_env(self, http_server, monkeypatch):
        seen = {}
        orig = _FlakyHandler.do_POST

        def capture(handler):
            seen["auth"] = handler.headers.get("Authorization")
            orig(handler)
        monkeypatch.setattr(_FlakyHandler, "do_POST", capture)
        monkeypatch.setenv("LLM_API_KEY", "secret-token")
        backend = LiveBackend(http_server, "test-model")
        bridge.complete(PROMPTS[:1], 1, backend, generation=0)
        assert seen["auth"] == "Bearer secret-token"

    def test_non_string_content_is_a_failed_call(self, http_server, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)

        def list_content(handler):
            handler.rfile.read(int(handler.headers["Content-Length"]))
            handler.send_response(200)
            handler.end_headers()
            handler.wfile.write(json.dumps(
                {"choices": [{"message": {"content": ["a"]}}]}).encode())
        monkeypatch.setattr(_FlakyHandler, "do_POST", list_content)
        backend = LiveBackend(http_server, "test-model")
        assert bridge.complete(PROMPTS[:1], 1, backend, generation=0) == [("E1", None)]

    def test_needs_no_requests_package(self, http_server, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)   # `import requests` fails
        backend = LiveBackend(http_server, "test-model")
        assert bridge.complete(PROMPTS[:1], 1, backend, generation=0) == [
            ("E1", wrap_response(dsl.builtin("gcn")))]


class TestParseResponse:
    def test_extracts_ideas_and_program(self):
        ideas, prog = bridge.parse_response(
            "Residual low-pass design.\n```\nmechanism m { }\n```")
        assert ideas == "Residual low-pass design."
        assert prog == "mechanism m { }"

    def test_language_tag_ignored(self):
        _, prog = bridge.parse_response("idea\n```text\nmechanism m { }\n```")
        assert prog == "mechanism m { }"

    def test_multiple_blocks(self):
        with pytest.raises(MalformedResponse, match="multiple_blocks"):
            bridge.parse_response("a\n```\nx\n```\nb\n```\ny\n```")

    def test_no_code(self):
        with pytest.raises(MalformedResponse, match="no_code"):
            bridge.parse_response("prose only, no mechanism")

    def test_empty_block(self):
        with pytest.raises(MalformedResponse, match="empty_code"):
            bridge.parse_response("idea\n```\n\n```")

    def test_fuzz_round_trip(self):
        rng = np.random.default_rng(0)
        words = ["smooth", "residual", "filter", "graph", "gate", "mix"]
        for i in range(100):
            ideas = " ".join(rng.choice(words, size=rng.integers(1, 6)))
            prog = dsl.builtin(dsl.builtin_names()[i % 13])
            got_ideas, got_prog = bridge.parse_response(wrap_response(prog, ideas=ideas))
            assert got_ideas == ideas
            assert got_prog == prog.strip()

    def test_no_test_accuracy_in_prompts(self):
        # information hygiene: prompts carry only validation fitness
        assert "test accuracy" not in render("C1", 2).lower()


class TestProposalPath:
    """One generation against a live backend: archive, prompts, POSTs, candidates."""

    def test_generation_over_a_live_backend(self, serve, monkeypatch):
        names = dsl.builtin_names()[:10]

        def archive():
            arc = search.EliteArchive()
            for i, name in enumerate(names):
                arc.add(Individual(id=i, ideas=builtin_ideas(name),
                                   program_text=dsl.builtin(name), origin="seed",
                                   generation_born=0, fitness=0.9 - 0.05 * i))
            return arc
        programs = [dsl.builtin("appnp").replace("alpha = 0.1", f"alpha = 0.{i + 11}")
                    for i in range(12)]
        monkeypatch.setattr(_ScriptedHandler, "replies",
                            [wrap_response(p, ideas=f"Design {i}.")
                             for i, p in enumerate(programs)])
        monkeypatch.setattr(_ScriptedHandler, "calls", [])
        sent = []

        def no_training(texts, *args, **kwargs):
            sent.extend(texts)
            return [training.FitResult("numeric") for _ in texts]
        monkeypatch.setattr(training, "evaluate_batch", no_training)
        backend = LiveBackend(serve(_ScriptedHandler), "test-model", max_concurrent=1)
        split = graphs.make_split(GRAPH.num_nodes, (0.4, 0.3, 0.3), seed=0)
        tcfg = training.TrainConfig(hidden=16)
        scfg = SearchConfig(generations=1, seed=5)
        gen_log, next_id = search.run_generation(
            archive(), backend, GRAPH, split, tcfg, scfg, 1,
            np.random.default_rng(scfg.seed), next_id=10)

        messages = [c["messages"] for c in _ScriptedHandler.calls]
        assert len(messages) == 12
        assert all(len(m) == 1 and m[0]["content"].endswith(CLOSING_SENTENCE + "\n")
                   for m in messages)
        rng, drawn = np.random.default_rng(scfg.seed), archive()
        for j, op in enumerate(("E1", "E2", "C1")):
            chosen = search.select_for_prompt(drawn, op, {"E1": 4, "E2": 4, "C1": 2}[op], rng)
            for m in messages[4 * j:4 * j + 4]:
                content = m[0]["content"]
                assert content == bridge.render_prompt(op, chosen, GRAPH, tcfg.hidden)
                assert [n for n in names if dsl.builtin(n).strip() in content] == \
                    [n for n in names if n in {names[c.id] for c in chosen}]
        assert [c["op"] for c in gen_log["candidates"]] == \
            [op for op in ("E1", "E2", "C1") for _ in range(4)]
        assert [c["id"] for c in gen_log["candidates"]] == list(range(10, 22))
        assert next_id == 22 and gen_log["bridge_failed"] == 0
        assert sent == [p.strip() for p in programs]
