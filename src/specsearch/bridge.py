"""Prompt rendering, chat-completion backends, and response parsing."""

from __future__ import annotations

import json
import os
import re
import textwrap
import time
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .dsl.corpus import builtin
from .dsl.parser import K_MAX
from .errors import MalformedResponse, SpecSearchError

CLOSING_SENTENCE = "Do not give additional explanations."

GRAMMAR_SUMMARY = """\
Write the propagation mechanism in this small DSL (not Python):

mechanism <name> {
  consts { K = <int, at most %d>; <name> = <number>; ... }        # optional
  params { <name>: scalar|vector(n)|vector(h)|matrix(h, h)[K]? = glorot|normal|const(<v>); ... }
  graph  { <name> = sym_norm(c=<w>)|rw_norm(c=<w>)|laplacian()|sym_laplacian()|scaled_laplacian()|pruned_norm(c=<w>); }
  init   { <var> = <expr>; ... }
  step   { <var> = <expr>; ... }       # optional; repeated for k = 1..K
  final  { <var> = <expr>; ... }       # optional; runs once after the loop
  out    { Y = <expr>; }
}

Expressions use + - * / @ (matrix product), parentheses, and the calls
spmm(op, M), relu(M), elu(M), tanh(M), sigmoid(M), softmax_rows(M), pow(s, e),
sum_rows(M), attn_agg(op, src_scores, dst_scores, M), concat(A, B).
Implicit inputs: X (n x h transformed features), X_raw (n x h raw linear
features); k is the loop index and K the loop bound. Per-layer weights are
indexed W[k]. The output Y must be n x h or n x c.

Worked example (your reply should wrap the mechanism in a single
triple-backtick fenced block):

%s
""" % (K_MAX, textwrap.indent(builtin("appnp"), "    "))

_OP_INSTRUCTIONS = {
    "E1": ("Design a new spectral GNN propagation mechanism that is completely "
           "different from the given spectral GNN mechanisms above. Give a brief "
           "textual description of the design ideas, then the mechanism."),
    "E2": ("First, identify the common ideas of the existing spectral GNNs shown "
           "above. Then design a new spectral GNN propagation mechanism based on "
           "these common ideas, but differing from the existing ones by "
           "introducing new elements. Give a brief textual description of the "
           "design ideas, then the mechanism."),
    "C1": ("Compare the two spectral GNN mechanisms above, note their "
           "similarities and differences, and hypothesize why the higher-score "
           "mechanism is superior. Then design a more optimal spectral GNN "
           "propagation mechanism. Give a brief textual description of the "
           "design ideas, then the mechanism."),
}
PROMPT_OPS = tuple(_OP_INSTRUCTIONS)


def render_prompt(op_kind, members, graph, hidden):
    """The prompt text of one operator invocation on `graph`, embedding the
    archive `members` (C1: the better one, then the worse one) by their ideas,
    program text and fitness, for mechanisms of hidden size `hidden`."""
    parts = [
        "You are designing the propagation mechanism of a spectral graph neural "
        "network for transductive node classification.",
        f"The graph is named {graph.name!r}: {graph.num_nodes} nodes, "
        f"{len(graph.edges)} undirected edges, {graph.num_features} input "
        f"features per node, {graph.num_classes} classes.",
        "Tips: low-pass filters (smoothing over neighbors) suit graphs where "
        "linked nodes share labels; high-pass filters (differences against "
        "neighbors) suit graphs where linked nodes differ; residual connections "
        "to the raw features often stabilize deep propagation.",
        ""]
    for i, m in enumerate(members):
        if op_kind == "C1":
            label = ("higher-score", "lower-score")[i]
            parts.append(f"Mechanism ({label}, validation score {m.fitness:.4f}):")
        else:
            parts.append(f"Existing mechanism {i + 1}:")
        parts += [m.ideas.strip(), "```", m.program_text.strip(), "```", ""]
    parts += [
        _OP_INSTRUCTIONS[op_kind], "", GRAMMAR_SUMMARY.rstrip(), "",
        f"Requirements: the mechanism receives X and X_raw of shape n x h with "
        f"h = {hidden}, and must output Y of shape n x h or n x c. Declare every "
        "parameter you use. Reply with the design-ideas description followed by "
        "exactly one triple-backtick fenced code block containing only the "
        f"mechanism. {CLOSING_SENTENCE}"]
    return "\n".join(parts) + "\n"


class ReplayBackend:
    """Scripted responses read from a JSONL file, keyed by (generation, op,
    slot); missing keys are fatal. The prompt is not read."""

    max_concurrent = 1

    def __init__(self, path):
        self.records = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    key = (rec["gen"], rec["op"], rec["slot"])
                    if type(key[0]) is not int or type(key[2]) is not int:
                        raise ValueError(f"gen and slot must be JSON integers, got {key}")
                    if min(key[0], key[2]) < 0 or key[1] not in PROMPT_OPS:
                        raise ValueError(f"no search asks for {key}: gen and slot are at "
                                         f"least 0, op one of {', '.join(PROMPT_OPS)}")
                    text = rec["text"]
                    if text is not None and not isinstance(text, str):
                        raise TypeError(f"text must be a string or null, got {text!r}")
                except (ValueError, TypeError, KeyError) as exc:
                    raise SpecSearchError(
                        f"replay file {path}, line {lineno}: not a record with gen, op, "
                        f"slot and text ({type(exc).__name__}: {exc})") from None
                if key in self.records:
                    raise SpecSearchError(f"duplicate replay key {key}")
                self.records[key] = text

    def complete_one(self, op_kind, prompt, generation, slot):
        key = (generation, op_kind, slot)
        if key not in self.records:
            raise SpecSearchError(f"replay script has no record for {key}")
        return self.records[key]


@dataclass
class LiveBackend:
    """Chat-completions client: two retries with 1s/4s backoff, then a failure
    marker; a reply whose content is not a string fails its attempt. The API key
    is read from the environment variable `API_KEY_ENV` names."""

    RETRY_DELAYS = (1.0, 4.0)
    API_KEY_ENV = "LLM_API_KEY"
    TIMEOUT = 120

    base_url: str
    model: str
    temperature: float = 1.0
    max_concurrent: int = 4

    def __post_init__(self):
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http or https URL with a host, got {self.base_url!r}")
        self.base_url = self.base_url.rstrip("/")
        if self.max_concurrent < 1:
            raise ValueError(f"max_concurrent must be at least 1, got {self.max_concurrent}")
        if not self.temperature >= 0:
            raise ValueError(f"temperature must be at least 0, got {self.temperature}")

    def complete_one(self, op_kind, prompt, generation, slot):
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "n": 1,
            "temperature": self.temperature,
        }).encode()
        post = urllib.request.Request(f"{self.base_url}/chat/completions", data=body,
                                      headers=headers, method="POST")
        for attempt in range(len(self.RETRY_DELAYS) + 1):
            try:
                # urlopen raises HTTPError for a 4xx or 5xx status.
                with urllib.request.urlopen(post, timeout=self.TIMEOUT) as resp:
                    content = json.load(resp)["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"message content is not a string: {content!r}")
                return content
            except Exception:
                if attempt < len(self.RETRY_DELAYS):
                    time.sleep(self.RETRY_DELAYS[attempt])
        return None


def complete(prompts, parallelism, backend, generation=0):
    """`parallelism` completions of each (op_kind, prompt) pair, returned as
    (op_kind, text) in (prompt, slot) order; a text of None is a failed call.
    `backend.max_concurrent` calls run at a time."""
    jobs = [(op_kind, prompt, slot) for op_kind, prompt in prompts
            for slot in range(parallelism)]
    with ThreadPoolExecutor(max_workers=backend.max_concurrent) as pool:
        futures = [pool.submit(backend.complete_one, op_kind, prompt, generation, slot)
                   for op_kind, prompt, slot in jobs]
    return [(op_kind, fut.result()) for (op_kind, _, _), fut in zip(jobs, futures)]


_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)


def parse_response(text):
    """Split a reply's text into (ideas, program_text); raises MalformedResponse."""
    blocks = _FENCE_RE.findall(text)
    if len(blocks) == 0:
        raise MalformedResponse("no_code")
    if len(blocks) > 1:
        raise MalformedResponse("multiple_blocks")
    program_text = blocks[0].strip()
    if not program_text:
        raise MalformedResponse("empty_code")
    ideas = text.split("```", 1)[0].strip()
    return ideas, program_text
