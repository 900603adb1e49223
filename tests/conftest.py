"""Shared fixtures and oracles for the test suite."""

import json

import numpy as np
import pytest

from specsearch import autodiff as ad
from specsearch import dsl, graphs, training


# -- small fixed graphs --------------------------------------------------------


def path_graph(n, num_classes=2, feature_dim=3, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    return graphs.Graph(n, num_classes, edges, rng.standard_normal((n, feature_dim)),
                        rng.integers(0, num_classes, size=n), name=f"path-{n}")


@pytest.fixture
def p3():
    return path_graph(3)


@pytest.fixture
def k3():
    rng = np.random.default_rng(0)
    return graphs.Graph(3, 2, [(0, 1), (1, 2), (0, 2)],
                        rng.standard_normal((3, 3)), [0, 1, 0], name="k3")


@pytest.fixture
def small_graph():
    return graphs.gen_synthetic(60, 3, 0.8, 6.0, 8, 1.0, seed=7)


@pytest.fixture
def tiny_cfg():
    return training.TrainConfig(max_epochs=20, patience=20, hidden=16, seed=0)


# -- finite-difference gradient oracle ----------------------------------------


def numeric_grad(fn, value, h=1e-4):
    """Central finite differences of scalar-valued fn at a dense array."""
    grad = np.zeros_like(value, dtype=np.float64)
    it = np.nditer(value, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        vp = value.copy()
        vp[i] += h
        vm = value.copy()
        vm[i] -= h
        grad[i] = (fn(vp) - fn(vm)) / (2.0 * h)
    return grad


def check_gradients(build_loss, arrays, h=1e-4, tol=1e-4):
    """Compare autodiff gradients of build_loss(tensors...) to finite differences.

    `arrays` is a dict name -> float64 array; build_loss receives a matching dict
    of Tensors (requires_grad=True) and must return a scalar loss Tensor.
    """
    tensors = {k: ad.Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
    loss = build_loss(tensors)
    ad.backward(loss)
    for name, value in arrays.items():
        def scalar_fn(v, _name=name):
            probe = {k: ad.Tensor(a.copy()) for k, a in arrays.items()}
            probe[_name] = ad.Tensor(v)
            return float(build_loss(probe).data[0, 0])

        num = numeric_grad(scalar_fn, value, h=h)
        got = tensors[name].grad
        if got is None:
            got = np.zeros_like(value)
        scale = max(np.abs(num).max(), np.abs(got).max(), 1.0)
        rel = np.abs(got - num).max() / scale
        assert rel < tol, f"gradient mismatch for {name}: rel err {rel}"


def fake_blas(monkeypatch, threads):
    """Stand `training.blas_threads` in for a BLAS at `threads` threads; returns
    the list of counts `set_num_threads` is called with."""
    calls, count = [], [threads]

    def set_num_threads(n):
        calls.append(n)
        count[0] = n
    blas = training.BlasThreads(lambda: count[0], set_num_threads)
    monkeypatch.setattr(training, "blas_threads", lambda: blas)
    return calls


# -- replay fixtures -----------------------------------------------------------


def wrap_response(program_text, ideas="A propagation design."):
    return f"{ideas}\n```\n{program_text}\n```"


def make_replay_file(tmp_path, records, name="replay.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


def full_replay_records(generations, ops=("E1", "E2", "C1"), slots=4,
                        override=None):
    """A complete replay script with mild mechanism variations per slot.

    `override` maps (gen, op, slot) -> raw response text.
    """
    variants = [
        ("appnp", ("alpha = 0.1", "alpha = 0.2")),
        ("gpr", None),
        ("appnp", ("alpha = 0.1", "alpha = 0.3")),
        ("gcn", None),
    ]
    records = []
    for gen in range(1, generations + 1):
        for op in ops:
            for slot in range(slots):
                key = (gen, op, slot)
                if override and key in override:
                    text = override[key]
                else:
                    name, tweak = variants[slot % len(variants)]
                    body = dsl.builtin(name)
                    if tweak:
                        old, new = tweak
                        body = body.replace(old, new.replace("0.", f"0.{gen}"))
                    text = wrap_response(body)
                records.append({"gen": gen, "op": op, "slot": slot, "text": text})
    return records


# -- deliberately oversized mechanism (for timeout tests) ----------------------


OVERSIZED_PROGRAM = (
    "mechanism oversized {\n"
    "  consts { K = 16; }\n"
    "  params { Wd: matrix(16384, h) = glorot; }\n"
    "  graph { Ahat = sym_norm(c=1); }\n"
    "  init {\n"
    "    Z = concat(X, X);\n"
    + "".join("    Z = concat(Z, Z);\n" for _ in range(9))
    + "  }\n"
    "  step { Z = spmm(Ahat, tanh(Z)); }\n"
    "  final { Z = Z @ Wd; }\n"
    "  out { Y = Z; }\n"
    "}\n"
)


NESTING_KINDS = ("brackets", "calls", "sum", "negations")


def nested_program(kind, depth):
    """A valid program whose out expression nests `depth` deep: `depth` pairs of
    parentheses, or an expression tree `depth` nodes deep."""
    out = {"brackets": "(" * depth + "Z" + ")" * depth,
           "calls": "relu(" * (depth - 1) + "Z" + ")" * (depth - 1),
           "sum": " + ".join(["Z"] * depth),
           "negations": "-" * (depth - 1) + "Z"}[kind]
    return f"mechanism m {{ init {{ Z = X; }} out {{ Y = {out}; }} }}"
