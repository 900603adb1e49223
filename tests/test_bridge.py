"""Prompt rendering, completion backends, and response parsing."""

import json
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from specsearch import bridge, dsl, graphs
from specsearch.bridge import (CLOSING_SENTENCE, LiveBackend, LlmResponse,
                               PromptRequest, ReplayBackend)
from specsearch.dsl.parser import CALLS, GRAPH_CTORS, K_MAX
from specsearch.errors import MalformedResponse, SpecSearchError

from conftest import full_replay_records, make_replay_file, wrap_response


def make_request(op_kind="E1", count=4, fitnesses=None):
    fitnesses = fitnesses or [0.9 - 0.1 * i for i in range(count)]
    inds = tuple(
        (f"Idea {i}.", dsl.builtin("appnp").replace("alpha = 0.1", f"alpha = 0.{i+1}"),
         fitnesses[i])
        for i in range(count))
    g = graphs.gen_synthetic(40, 3, 0.8, 4.0, 6, 1.0, seed=0)
    return PromptRequest(op_kind=op_kind, basic_content=bridge.default_basic_content(g),
                         embedded_individuals=inds,
                         request_info=bridge.default_request_info(64))


class TestRenderPrompt:
    def test_e1_four_fenced_blocks(self):
        text = bridge.render_prompt(make_request("E1", 4))
        assert len(bridge._FENCE_RE.findall(text)) == 4
        assert text.count("```") == 8
        assert "completely different" in text

    def test_e2_wording(self):
        text = bridge.render_prompt(make_request("E2", 4))
        assert "identify the common ideas" in text

    def test_c1_scores_and_order(self):
        text = bridge.render_prompt(make_request("C1", 2, fitnesses=[0.85, 0.60]))
        assert "0.8500" in text and "0.6000" in text
        assert text.index("higher-score") < text.index("lower-score")
        assert text.index("0.8500") < text.index("0.6000")

    def test_ends_with_closing_sentence(self):
        for op, count in (("E1", 4), ("E2", 4), ("C1", 2)):
            text = bridge.render_prompt(make_request(op, count))
            assert text.rstrip().endswith(CLOSING_SENTENCE)

    def test_e1_hides_fitness(self):
        text = bridge.render_prompt(make_request("E1", 4, fitnesses=[0.4321] * 4))
        assert "0.4321" not in text

    def test_pure_function(self):
        req = make_request("E2", 4)
        assert bridge.render_prompt(req) == bridge.render_prompt(req)

    def test_c1_arity_enforced(self):
        with pytest.raises(SpecSearchError):
            bridge.render_prompt(make_request("C1", 3))

    def test_request_info_must_contain_closing_sentence(self):
        with pytest.raises(ValueError):
            PromptRequest(op_kind="E1", basic_content="x",
                          embedded_individuals=(("i", "p", 0.5),),
                          request_info="missing the sentence")

    @pytest.mark.parametrize("name", sorted(CALLS) + sorted(GRAPH_CTORS))
    def test_grammar_summary_names_the_vocabulary(self, name):
        assert re.search(rf"\b{name}\(", bridge.GRAMMAR_SUMMARY)

    def test_grammar_summary_states_the_k_cap(self):
        assert f"K = <int, at most {K_MAX}>" in bridge.GRAMMAR_SUMMARY

    def test_invalid_op_kind(self):
        with pytest.raises(ValueError):
            PromptRequest(op_kind="E9", basic_content="x",
                          embedded_individuals=(), request_info=CLOSING_SENTENCE)


class TestReplayBackend:
    def test_complete_ordering_and_determinism(self, tmp_path):
        path = make_replay_file(tmp_path, full_replay_records(1))
        reqs = [make_request("E1", 4), make_request("E2", 4), make_request("C1", 2)]
        a = bridge.complete(reqs, 4, ReplayBackend(path), generation=1)
        b = bridge.complete(reqs, 4, ReplayBackend(path), generation=1)
        assert len(a) == 12
        assert [(r.op_kind, r.slot) for r in a] == \
            [(op, s) for op in ("E1", "E2", "C1") for s in range(4)]
        assert [r.text for r in a] == [r.text for r in b]

    def test_missing_key_is_fatal(self, tmp_path):
        path = make_replay_file(tmp_path, full_replay_records(1, ops=("E1",)))
        with pytest.raises(SpecSearchError, match="no record"):
            bridge.complete([make_request("E2", 4)], 4, ReplayBackend(path),
                            generation=1)

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
        (resp,) = bridge.complete([make_request("E1", 4)], 1, backend, generation=1)
        assert resp.failed


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


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


class TestLiveBackend:
    @pytest.mark.parametrize("temperature", [-1, -1e-9, float("nan")])
    def test_temperature_no_call_can_use_is_rejected(self, temperature):
        with pytest.raises(ValueError, match="temperature must be at least 0"):
            LiveBackend("http://localhost", "m", temperature=temperature)

    def test_zero_temperature_is_accepted(self):
        assert LiveBackend("http://localhost", "m", temperature=0).temperature == 0

    def test_success_and_isolated_failure(self, http_server, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        backend = LiveBackend(http_server, "test-model")
        good = make_request("E1", 4)
        bad = PromptRequest(op_kind="E1", basic_content="FAIL-MARKER",
                            embedded_individuals=(("i", "p", 0.5),),
                            request_info=CLOSING_SENTENCE)
        _FlakyHandler.calls = []
        responses = bridge.complete([good, bad], 1, backend, generation=0)
        assert not responses[0].failed
        assert responses[1].failed
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
        bridge.complete([make_request("E1", 4)], 1, backend, generation=0)
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
        (resp,) = bridge.complete([make_request("E1", 4)], 1, backend, generation=0)
        assert resp.failed

    def test_needs_no_requests_package(self, http_server, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)   # `import requests` fails
        backend = LiveBackend(http_server, "test-model")
        (resp,) = bridge.complete([make_request("E1", 4)], 1, backend, generation=0)
        assert resp.text == wrap_response(dsl.builtin("gcn"))


class TestParseResponse:
    def resp(self, text):
        return LlmResponse(text=text, op_kind="E1", slot=0, generation=1)

    def test_extracts_ideas_and_program(self):
        ideas, prog = bridge.parse_response(
            self.resp("Residual low-pass design.\n```\nmechanism m { }\n```"))
        assert ideas == "Residual low-pass design."
        assert prog == "mechanism m { }"

    def test_language_tag_ignored(self):
        _, prog = bridge.parse_response(
            self.resp("idea\n```text\nmechanism m { }\n```"))
        assert prog == "mechanism m { }"

    def test_multiple_blocks(self):
        with pytest.raises(MalformedResponse, match="multiple_blocks"):
            bridge.parse_response(self.resp("a\n```\nx\n```\nb\n```\ny\n```"))

    def test_no_code(self):
        with pytest.raises(MalformedResponse, match="no_code"):
            bridge.parse_response(self.resp("prose only, no mechanism"))

    def test_empty_block(self):
        with pytest.raises(MalformedResponse, match="empty_code"):
            bridge.parse_response(self.resp("idea\n```\n\n```"))

    def test_failed_slot(self):
        with pytest.raises(MalformedResponse, match="bridge_failure"):
            bridge.parse_response(self.resp(None))

    def test_fuzz_round_trip(self):
        rng = np.random.default_rng(0)
        words = ["smooth", "residual", "filter", "graph", "gate", "mix"]
        for i in range(100):
            ideas = " ".join(rng.choice(words, size=rng.integers(1, 6)))
            prog = dsl.builtin(dsl.builtin_names()[i % 13])
            got_ideas, got_prog = bridge.parse_response(
                self.resp(wrap_response(prog, ideas=ideas)))
            assert got_ideas == ideas
            assert got_prog == prog.strip()

    def test_no_test_accuracy_in_prompts(self):
        # information hygiene: prompts carry only validation fitness
        text = bridge.render_prompt(make_request("C1", 2))
        assert "test" not in text.lower() or "test accuracy" not in text.lower()
